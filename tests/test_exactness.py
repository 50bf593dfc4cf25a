"""Every current the grid read-out computes, against an exact reference.

The reference takes the float rate matrices W that a grid solved
(``cli._grid_rates``) as exact, solves each closed class of W at 60 digits
by Grassmann-Taksar-Heyman elimination (no subtraction, so no digits are
lost to cancellation), and forms each state's per-bath, per-source current
``sum omega w (j+ p_lower - j- p_upper)`` over the dissipators of that cell
from those populations and the float rates the grid used.  G, the state's
gross flux ``sum omega w (j+ p_lower + j- p_upper)`` over all of its
dissipators, bounds the sum of the magnitudes of the terms of every
current, so each computed cell must lie within ``CURRENT_BOUND`` eps G of
the reference, and a state with G = 0 must read exactly 0.0.  The
populations are held to a ratchet of today's worst relative error per grid.
"""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qfridge import cli
from qfridge.cli import load_config, run_steady, scan_filters, sweep_th
from qfridge.spectrum import QUBITS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(float).eps

#: A current's error, in units of eps times its state's gross flux G.
CURRENT_BOUND = 8.0

#: The largest relative population error of each grid, in units of eps; a
#: ratchet that no change may exceed (the class-block SVD loses digits on
#: small populations).
POPULATION_RATCHET = {"census_all": 5000.0, "census_single": 800.0,
                      "figure_sweep": 64.0, "vacuum_transport": 8.0}

GRIDS = {
    "census_all": lambda: scan_filters(load_config(str(CONFIGS / "filter_census.ini")),
                                       mode="all"),
    "census_single": lambda: scan_filters(load_config(str(CONFIGS / "filter_census.ini"))),
    "figure_sweep": lambda: sweep_th(load_config(str(CONFIGS / "figure_sweep.ini"))),
    "vacuum_transport": lambda: run_steady(load_config(str(CONFIGS / "vacuum_transport.ini"))),
}


def solved_grids(monkeypatch, run):
    """``run()``'s grids, each as the ``_grid_rates`` result it solved and
    the ``_solve_grid`` result: its read-out, which holds its states."""
    grids = []
    grid_rates, solve_grid = cli._grid_rates, cli._solve_grid

    def rates(*args):
        grids.append(grid_rates(*args))
        return grids[-1]

    def solve(*args, **kwargs):
        solved = solve_grid(*args, **kwargs)
        grids[-1] = (grids[-1], solved)
        return solved

    monkeypatch.setattr(cli, "_grid_rates", rates)
    monkeypatch.setattr(cli, "_solve_grid", solve)
    run()
    return grids


def stationary(w: np.ndarray, levels: list[int]) -> list:
    """The stationary populations of the closed class ``levels`` of the
    rate matrix ``w`` (``w[to, frm]``), by GTH elimination in mpmath."""
    q = [[mp.mpf(float(w[b, a])) if a != b else mp.mpf(0) for b in levels]
         for a in levels]  # q[i][j]: the rate from level i to level j
    for k in range(len(levels) - 1, 0, -1):
        out = mp.fsum(q[k][:k])
        for i in range(k):
            q[i][k] /= out
        for i in range(k):
            for j in range(k):
                q[i][j] += q[i][k] * q[k][j]
    p = [mp.mpf(1)]
    for k in range(1, len(levels)):
        p.append(mp.fsum(p[i] * q[i][k] for i in range(k)))
    total = mp.fsum(p)
    return [x / total for x in p]


def exact_cells(dissipators, rates, row: int, pops: dict) -> tuple[dict, mp.mpf]:
    """Each (source, bath) current of a state on ``row`` of the rate tables
    ``rates`` of ``dissipators``, and the state's gross flux G, from its
    exact populations ``pops`` (level -> population; levels outside its
    class have none)."""
    cells = {(src, q): mp.mpf(0) for src in ("engineered", "background") for q in QUBITS}
    gross = mp.mpf(0)
    for d, jp, jm in zip(dissipators, *(r[row].tolist() for r in rates), strict=True):
        ch = d.channel
        jp, jm = mp.mpf(jp), mp.mpf(jm)
        scale = mp.mpf(ch.frequency) * mp.mpf(ch.pair_weight)
        for lower, upper, _ in ch.elements:
            up = scale * jp * pops.get(lower, 0)
            down = scale * jm * pops.get(upper, 0)
            cells[d.source, ch.qubit] += up - down
            gross += up + down
    return cells, gross


def grid_errors(monkeypatch, name: str) -> dict:
    """The worst current error (in eps G), the worst relative population
    error (in eps) and the number of states of grid ``name``."""
    worst = {"current": 0.0, "population": 0.0, "states": 0}
    with mp.workdps(60):
        for (gen, rates, w, finite), readout in solved_grids(monkeypatch, GRIDS[name]):
            assert finite.all() and not readout.failures
            assert np.bincount(readout.row, minlength=len(w)).all()  # every row has a state
            for row in range(len(w)):
                for j in np.flatnonzero(readout.row == row).tolist():
                    code = readout.support[j].item()
                    levels = [k for k in range(len(w[row])) if code >> k & 1]
                    exact = dict(zip(levels, stationary(w[row], levels)))
                    p = readout.populations[j]
                    assert all(p[k] == 0.0 for k in range(len(p)) if k not in exact)
                    worst["population"] = max(worst["population"], *(
                        float(abs(mp.mpf(p[k]) - x) / x) / EPS for k, x in exact.items()))
                    cells, gross = exact_cells(gen.dissipators, rates, row, exact)
                    worst["states"] += 1
                    for (src, q), want in cells.items():
                        sums = readout.engineered if src == "engineered" else readout.background
                        got = sums[QUBITS.index(q), j].item()
                        if gross == 0:
                            assert got == 0.0, (name, row, j, src, q, got)
                        else:
                            err = float(abs(mp.mpf(got) - want) / gross) / EPS
                            worst["current"] = max(worst["current"], err)
    assert worst["states"]
    return worst


@pytest.mark.parametrize("name", list(GRIDS))
def test_every_current_is_within_a_few_eps_of_the_gross_flux(monkeypatch, name):
    worst = grid_errors(monkeypatch, name)
    assert worst["current"] <= CURRENT_BOUND, worst
    assert worst["population"] <= POPULATION_RATCHET[name], worst
