"""Regenerate the benchmark's reference outputs in ``bench/reference/``.

    python3 bench/make_references.py golden          # seed outputs
    python3 bench/make_references.py cold-edge       # high-precision values
    python3 bench/make_references.py known-failures  # rows the code gets wrong

``golden`` records what the code at hand writes for the shipped configs
(``figure_sweep`` CSV, ``census_all`` table, ``vacuum_transport`` steady
report).  The committed files are the seed code's outputs; later changes
must reproduce them, so regenerate them only to record a deliberate change
of answers.

``cold-edge`` solves every ``cold_edge`` row's 8x8 population rate matrix
with mpmath at ``DPS`` digits.  Rates come from the public
``transition_channels`` / ``channel_rates``; per closed class it records
the stationary populations and the currents, and for the row the class the
CLI reports (largest |Q_C|).  At T_C = 0.1 the values are cross-checked
against ``steady_state_branches_analytic`` / ``currents_cycle_analytic``.
The existing list of known failures is kept.

``known-failures`` runs the ``cold_edge`` sweeps with the code at hand and
records which rows fail against the reference.  A run's ``correct`` flag
tolerates exactly these rows, so rerun it only to record rows a change
fixed; a list that grows would hide a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402
from qfridge import cli  # noqa: E402
from qfridge.reservoirs import ReservoirSet, channel_rates, select_channels  # noqa: E402
from qfridge.spectrum import transition_channels  # noqa: E402
from qfridge.thermo import currents_cycle_analytic  # noqa: E402
from qfridge.dynamics import steady_state_branches_analytic  # noqa: E402

#: Working precision; the matrix-tree minors cancel across ~45 decades.
DPS = 100
#: Significant digits stored per value.
DIGITS = 20

REFERENCE = BENCH / "reference"
COLD_EDGE = REFERENCE / "cold_edge.json"


def golden() -> None:
    cfg = workloads.CONFIGS
    cli.main(["sweep", "--config", str(cfg / "figure_sweep.ini"),
              "--out", str(REFERENCE / "figure_sweep.csv")])
    cli.main(["scan", "--config", str(cfg / "filter_census.ini"), "--mode", "all",
              "--out", str(REFERENCE / "census_all.csv")])
    cli.main(["steady", "--config", str(cfg / "vacuum_transport.ini"),
              "--out", str(REFERENCE / "vacuum_transport_steady.txt")])


# ---------------------------------------------------------------------------
# cold_edge reference
# ---------------------------------------------------------------------------


def _rate_matrix(params, reservoirs, filt):
    """Exact rate matrix W (dp/dt = W p) from the float channel rates, and
    the kept channels with their rates."""
    w = mp.zeros(8, 8)
    kept = []
    for ch in select_channels(transition_channels(params), filt):
        rates = channel_rates(ch, reservoirs[ch.qubit])
        if not rates.j_plus > 0.0:
            raise ValueError(f"{ch}: absorption rate underflowed to zero")
        weight, jp, jm = mp.mpf(ch.pair_weight), mp.mpf(rates.j_plus), mp.mpf(rates.j_minus)
        for to, frm, _ in ch.elements:
            w[frm, frm] -= weight * jm
            w[to, frm] += weight * jm
            w[to, to] -= weight * jp
            w[frm, to] += weight * jp
        kept.append((ch, weight, jp, jm))
    return w, kept


def _classes(w) -> list[list[int]]:
    """Connected components of the rate graph.  Every kept channel has
    positive rates both ways, so each component is a closed class."""
    seen, classes = set(), []
    for start in range(8):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            a = stack.pop()
            for b in range(8):
                if b not in comp and (w[a, b] != 0 or w[b, a] != 0):
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        classes.append(sorted(comp))
    return sorted(classes, key=min)


def _stationary(w, cls: list[int]) -> list:
    """Matrix-tree theorem: p_i is proportional to the principal minor of
    -W restricted to the class, with row and column i removed."""
    n = len(cls)
    if n == 1:
        return [mp.mpf(1)]
    minors = []
    for i in range(n):
        rest = [c for c in cls if c != cls[i]]
        m = mp.matrix(n - 1, n - 1)
        for a, ra in enumerate(rest):
            for b, rb in enumerate(rest):
                m[a, b] = -w[ra, rb]
        minors.append(mp.det(m))
    total = mp.fsum(minors)
    pops = [x / total for x in minors]
    resid = max(abs(mp.fsum(w[r, c] * p for c, p in zip(cls, pops))) for r in cls)
    scale = max(abs(w[r, c]) for r in cls for c in cls)
    if resid > mp.mpf(10) ** (-(DPS - 20)) * scale:
        raise ArithmeticError(f"stationary residual {resid} on class {cls}")
    return pops


def _currents(kept, pops: list) -> dict:
    q = {"H": mp.mpf(0), "R": mp.mpf(0), "C": mp.mpf(0)}
    for ch, weight, jp, jm in kept:
        for to, frm, _ in ch.elements:
            q[ch.qubit] += mp.mpf(ch.frequency) * weight * (jp * pops[to] - jm * pops[frm])
    return q


def _s(x) -> str:
    return mp.nstr(x, DIGITS, min_fixed=1, max_fixed=0)


def _point(t_c: float, t_h: float):
    """Config and reservoirs of one ``cold_edge`` row, with the floats the
    CLI uses for it."""
    config = cli.parse_config(workloads.cold_edge_config(t_c))
    res = config.reservoirs
    reservoirs = ReservoirSet.from_temperatures(
        config.params, t_h=t_h, t_r=res.room.temperature, t_c=res.cold.temperature)
    return config, reservoirs


def cold_edge_rows() -> list[dict]:
    mp.mp.dps = DPS
    rows = []
    for k, t_c in enumerate(workloads.COLD_EDGE_TC):
        grid = cli.parse_config(workloads.cold_edge_config(t_c)).sweep.values
        for i, t_h in enumerate(map(float, grid)):
            config, reservoirs = _point(t_c, t_h)
            w, kept = _rate_matrix(config.params, reservoirs, config.filter)
            classes = []
            for cls in _classes(w):
                pops8 = [mp.mpf(0)] * 8
                for level, p in zip(cls, _stationary(w, cls)):
                    pops8[level] = p
                classes.append((cls, pops8, _currents(kept, pops8)))
            reported = max(classes, key=lambda c: abs(c[2]["C"]))
            rows.append({
                "tc_index": k, "th_index": i, "t_c": repr(t_c), "t_h": repr(t_h),
                "reported_class": reported[0],
                "q_c": _s(reported[2]["C"]), "q_h": _s(reported[2]["H"]),
                "q_r": _s(reported[2]["R"]),
                "classes": [{
                    "support": cls,
                    "populations": [_s(pops[j]) for j in cls],
                    "q_c": _s(q["C"]), "q_h": _s(q["H"]), "q_r": _s(q["R"]),
                } for cls, pops, q in classes],
            })
    return rows


def cross_check(rows: list[dict], rel: float = 1e-10) -> float:
    """Largest relative deviation from the closed forms over the rows at
    T_C = 0.1; raises if it exceeds ``rel``."""
    worst = 0.0
    for row in rows:
        if row["tc_index"] != 0:
            continue
        config, reservoirs = _point(float(row["t_c"]), float(row["t_h"]))
        branches = steady_state_branches_analytic(config.params, reservoirs, config.filter)
        by_support = {tuple(c["support"]): c for c in row["classes"]}
        for tri in branches.triangles:
            ref = by_support[tuple(sorted(tri.support))]
            got = [tri.populations[j] for j in sorted(tri.support)]
            worst = max(worst, max(abs(g - float(r)) / float(r)
                                   for g, r in zip(got, ref["populations"])))
        first = by_support[tuple(sorted(branches.triangles[0].support))]
        analytic = currents_cycle_analytic(config.params, reservoirs, config.filter)
        scale = max(abs(float(first[c])) for c in ("q_c", "q_h", "q_r"))
        for got, key in zip((analytic.cold, analytic.hot, analytic.room),
                            ("q_c", "q_h", "q_r")):
            worst = max(worst, abs(got - float(first[key])) / scale)
    if worst > rel:
        raise ArithmeticError(f"reference deviates {worst:.2e} from the closed forms")
    return worst


def _write(payload: dict) -> None:
    """JSON with one reference row or known failure per line."""
    parts = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in payload.items()
             if not isinstance(v, list)]
    for key in ("known_failures", "rows"):
        items = ",\n".join("  " + json.dumps(x) for x in payload[key])
        parts.append(f" {json.dumps(key)}: [\n{items}\n ]")
    COLD_EDGE.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


def cold_edge() -> None:
    rows = cold_edge_rows()
    worst = cross_check(rows)
    known = []
    if COLD_EDGE.exists():
        known = json.loads(COLD_EDGE.read_text(encoding="utf-8"))["known_failures"]
    payload = {
        "description": "cold_edge rows solved with mpmath; see bench/make_references.py",
        "dps": DPS,
        "closed_form_deviation_at_tc_0.1": float(worst),
        "rows": rows,
        "known_failures": known,
    }
    _write(payload)
    print(f"{len(rows)} rows; closed-form deviation at T_C = 0.1: {worst:.2e}")


def known_failures() -> None:
    reference = json.loads(COLD_EDGE.read_text(encoding="utf-8"))
    wl = workloads.ColdEdge()
    outs = wl.execute(wl.prepare(0), 1)
    failed = [[v.key, v.reason] for v in verify.verify_cold_edge(outs, reference)
              if not v.ok]
    reference["known_failures"] = failed
    _write(reference)
    print(f"{len(failed)} of {len(reference['rows'])} rows fail")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("golden", "cold-edge", "known-failures"))
    {"golden": golden, "cold-edge": cold_edge,
     "known-failures": known_failures}[parser.parse_args().what]()


if __name__ == "__main__":
    main()
