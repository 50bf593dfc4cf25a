"""The closed-form read-out of wide classes against an exact cycle-flux solve.

The REVIVAL mask splits the eight levels into two dark levels and two
three-level cycles.  Below T_C = 0.1 their rates spread over more than four
decades, so GTH solves them and ``thermo.build_reports`` takes their
currents from the cycle flux.  The reference here takes the float rate
matrix W that the grid solved as exact and solves each triangle at 60
digits by the matrix-tree theorem: the populations are the rooted tree sums
over their total, and the flux round the cycle is the difference of the two
one-way rate products over that total.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import cold_edge_config
from test_exactness import solved_grids

from qfridge import cli
from qfridge.cli import parse_config, sweep_th
from qfridge.spectrum import QUBITS


def triangle_solve(w: np.ndarray, levels: list[int]) -> tuple[list, mp.mpf]:
    """The populations of the three-level closed class ``levels`` of the
    rate matrix ``w`` (``w[to, frm]``) and the net flux round it in the
    order ``levels[0] -> levels[1] -> levels[2] -> levels[0]``, by the
    matrix-tree theorem in mpmath."""
    def k(i, j):  # the rate from level i to level j
        return mp.mpf(float(w[j, i]))

    a, b, c = levels
    roots = [k(x, r) * k(y, r) + k(x, y) * k(y, r) + k(y, x) * k(x, r)
             for r, x, y in ((a, b, c), (b, c, a), (c, a, b))]
    total = mp.fsum(roots)
    flux = (k(a, b) * k(b, c) * k(c, a) - k(a, c) * k(c, b) * k(b, a)) / total
    return [r / total for r in roots], flux


def triangle_currents(gen, rates, row: int, levels: list[int], flux) -> list:
    """The engineered currents H, R, C of the flux ``flux`` round the
    triangle ``levels`` (in that order) on ``row`` of the rate tables: each
    kept dissipator's element on the cycle carries ``-omega`` times its net
    downward flux."""
    along = {(levels[i], levels[(i + 1) % 3]) for i in range(3)}
    currents = dict.fromkeys(QUBITS, mp.mpf(0))
    for d, jm in zip(gen.dissipators, rates[1][row].tolist()):
        for lower, upper, _ in d.channel.elements:
            if jm != 0.0 and {lower, upper} <= set(levels):
                down = flux if (upper, lower) in along else -flux
                currents[d.channel.qubit] -= mp.mpf(d.channel.frequency) * down
    return [currents[q] for q in QUBITS]


def wide_states(monkeypatch, run):
    """Each wide state of the grid that ``run()`` solves: its read-out, its
    index there, its row, its levels, the rate tables and its generator."""
    ((gen, rates, w, _), readout), = solved_grids(monkeypatch, run)
    for j in np.flatnonzero(readout.wide).tolist():
        row = readout.row[j].item()
        levels = [i for i in range(8) if readout.support[j] >> i & 1]
        yield readout, j, row, levels, w[row], rates, gen


@pytest.mark.parametrize("t_c", [0.1, 0.05, 0.03, 0.02, 0.01])
def test_cold_revival_rows_match_the_exact_cycle_flux(monkeypatch, t_c):
    # the trace-form read-out failed the first law on most of these rows, or
    # gave Q_C the wrong sign; each triangle's populations and currents are
    # now the exact ones to 1e-10 of its current scale
    config = parse_config(cold_edge_config(t_c))
    seen = 0
    with mp.workdps(60):
        for readout, j, row, levels, w, rates, gen in wide_states(
                monkeypatch, lambda: sweep_th(config)):
            assert len(levels) == 3 and row not in readout.failures
            populations, flux = triangle_solve(w, levels)
            got = readout.populations[j][levels].tolist()
            assert max(float(abs(g - p) / p) for g, p in zip(got, populations)) <= 1e-10
            want = triangle_currents(gen, rates, row, levels, flux)
            scale = max(abs(x) for x in want)
            got = readout.engineered[:, j].tolist()
            assert max(float(abs(g - x) / scale) for g, x in zip(got, want)) <= 1e-10
            assert (got[2] > 0) == (want[2] > 0)
            seen += 1
    assert seen == 2 * 25


@settings(max_examples=100, deadline=None, derandomize=True)
@given(log_t_c=st.floats(math.log(0.01), math.log(0.1)), t_h=st.floats(0.5, 12.0))
def test_wide_revival_rows_obey_the_first_and_second_law(log_t_c, t_h):
    # T_C log-uniform over the cold edge, T_H over its sweep: every wide
    # state's row passes the first-law gate, produces no negative entropy,
    # and cools exactly when its cycle's affinity for running the cold
    # qubit up is positive
    t_c = math.exp(log_t_c)
    text = cold_edge_config(t_c).split("[sweep]")[0].replace("t_h = 0.5", f"t_h = {t_h!r}")
    config = parse_config(text)
    gen, (j_plus, j_minus), _, _ = cli._grid_rates(
        config, cli.kept_channel_table([config.filter]), cli._bath_table(config))
    readout = cli._solve_grid(config)
    assert readout.wide.any()
    # the REVIVAL cycle runs C1 and H3 up and R2 down (omega_C1 + omega_H3 =
    # omega_R2); up over down is exp(-omega / T) at each kept channel
    with mp.workdps(60):
        logs = {d.channel.qubit: mp.log(mp.mpf(m) / mp.mpf(p))
                for d, p, m in zip(gen.dissipators, j_plus[0], j_minus[0]) if m != 0.0}
        affinity = logs["R"] - logs["H"] - logs["C"]
    for j in np.flatnonzero(readout.wide).tolist():
        assert readout.row[j] not in readout.failures
        assert readout.sigma[j] >= 0.0
        assert np.sign(readout.engineered[2, j]) == mp.sign(affinity)


@pytest.mark.parametrize("t_c", [0.005, 0.002])
def test_colder_revival_sweeps_produce_no_negative_entropy(t_c):
    # the trace-form currents of these sweeps were rounding noise, and 23 of
    # each sweep's 25 rows had sigma < 0; T_C <= 0.001, where W's uphill
    # rates underflow, is left to the occupation cut
    rows = sweep_th(parse_config(cold_edge_config(t_c))).rows
    assert len(rows) == 25 and not any(r.failed for r in rows)
    assert all(r.sigma >= 0.0 for r in rows)
