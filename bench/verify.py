"""Row-level verification of benchmark outputs against committed references.

Every check returns one :class:`Verdict` per output row, so a workload's
``failed_frac`` is (error rows + rows that fail verification) / rows
attempted.  Numeric cells are compared at ``REL_TOL`` relative to the
larger of the reference value and a floor scaled to the magnitude of the
row's currents; non-finite cells must match exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9

SWEEP_CURRENTS = ("qdot_C", "qdot_H", "qdot_R", "qdot_B_C", "qdot_B_H", "qdot_B_R")
SCAN_CURRENTS = ("qdot_C", "qdot_H", "qdot_R")


@dataclass(frozen=True)
class Verdict:
    key: str
    ok: bool
    reason: str = ""


def close(got: float, ref: float, floor: float = 0.0) -> bool:
    """``|got - ref| <= REL_TOL * max(|ref|, floor)``; non-finite values
    (nan, +-inf) must match exactly."""
    if not (math.isfinite(got) and math.isfinite(ref)):
        return (math.isnan(got) and math.isnan(ref)) or got == ref
    return abs(got - ref) <= REL_TOL * max(abs(ref), floor)


def eta_floor(eta: float, q_hot: float, row_scale: float) -> float:
    """Rounding of the currents at ``row_scale`` propagated into Q_C / Q_H."""
    if q_hot == 0.0 or not math.isfinite(eta):
        return 0.0
    return row_scale * (1.0 + abs(eta)) / abs(q_hot)


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """Split a sweep CSV or scan table into its ``#`` header lines, its
    column names and its data rows."""
    header, body = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            header.append(line)
        elif line.strip():
            body.append(line)
    if not body:
        raise ValueError(f"{path}: no column header")
    return header, body[0].split(","), [line.split(",") for line in body[1:]]


def header_items(header: list[str]) -> dict[str, str]:
    items = {}
    for line in header:
        key, _, value = line[2:].partition(" = ")
        items[key.strip()] = value.strip()
    return items


def _all_failed(keys, reason: str) -> list[Verdict]:
    return [Verdict(str(k), False, reason) for k in keys]


# ---------------------------------------------------------------------------
# Sweep CSV (figure_sweep)
# ---------------------------------------------------------------------------


def _temperatures(items: dict[str, str], t_h: float) -> list[float]:
    temps = [t_h, float(items["reservoirs.t_r"]), float(items["reservoirs.t_c"])]
    if items.get("background.mode") == "thermal":
        temps.append(float(items["background.t0"]))
    return temps


def verify_sweep(path: Path, reference: Path) -> list[Verdict]:
    """Compare a sweep CSV row by row with a reference CSV."""
    ref_header, ref_cols, ref_rows = read_table(reference)
    try:
        header, cols, rows = read_table(path)
    except (OSError, ValueError) as exc:
        return _all_failed(range(len(ref_rows)), f"unreadable: {exc}")
    if header != ref_header or cols != ref_cols:
        return _all_failed(range(len(ref_rows)), "config echo or columns differ")
    items = header_items(ref_header)
    out = []
    for i, ref in enumerate(ref_rows):
        if i >= len(rows):
            out.append(Verdict(str(i), False, "missing row"))
            continue
        out.append(_sweep_row(str(i), dict(zip(cols, rows[i])), dict(zip(cols, ref)), items))
    out += _all_failed(range(len(ref_rows), len(rows)), "extra row")
    return out


def _sweep_row(key: str, got: dict, ref: dict, items: dict) -> Verdict:
    if got["stage"] == "error":
        return Verdict(key, False, "error row")
    if got["stage"] != ref["stage"]:
        return Verdict(key, False, f"stage {got['stage']} != {ref['stage']}")
    try:
        g = {c: float(got[c]) for c in got if c != "stage"}
    except ValueError:
        return Verdict(key, False, "unparseable cell")
    r = {c: float(ref[c]) for c in ref if c != "stage"}
    scale = max(abs(r[c]) for c in SWEEP_CURRENTS)
    floors = {c: scale for c in SWEEP_CURRENTS}
    floors["sweep_value"] = 0.0
    floors["eta"] = eta_floor(r["eta"], r["qdot_H"], scale)
    floors["sigma"] = scale / min(_temperatures(items, r["sweep_value"]))
    for col, floor in floors.items():
        if not close(g[col], r[col], floor):
            return Verdict(key, False, f"{col} {g[col]!r} != {r[col]!r}")
    return Verdict(key, True)


# ---------------------------------------------------------------------------
# Scan table (census_all)
# ---------------------------------------------------------------------------

#: Cycle-matched single-channel masks that cool at the census temperatures.
CENSUS_SINGLE_COOLING = 6


def _single_channel(mask: str) -> bool:
    # masks print as e.g. H3+R2+C1; one digit per qubit means one channel
    return all(len(part) == 2 for part in mask.split("+"))


def verify_scan(path: Path, reference: Path) -> list[Verdict]:
    """Compare a scan table with a reference, matching rows by mask (rows
    are sorted by Q_C, so near-ties may swap places)."""
    ref_header, ref_cols, ref_rows = read_table(reference)
    masks = [r[0] for r in ref_rows]
    try:
        header, cols, rows = read_table(path)
    except (OSError, ValueError) as exc:
        return _all_failed(masks, f"unreadable: {exc}")
    if header != ref_header or cols != ref_cols:
        return _all_failed(masks, "config echo or columns differ")
    got_by_mask = {r[0]: dict(zip(cols, r)) for r in rows}
    out = []
    for ref in ref_rows:
        r = dict(zip(ref_cols, ref))
        g = got_by_mask.get(r["filter"])
        out.append(Verdict(r["filter"], False, "missing row") if g is None
                   else _scan_row(g, r))
    out += _all_failed(set(got_by_mask) - set(masks), "unexpected row")

    single = [r for r in rows if _single_channel(r[0])]
    cooling = sum(1 for r in single if dict(zip(cols, r))["cooling"] == "true")
    if len(single) != 27 or cooling != CENSUS_SINGLE_COOLING:
        reason = f"{cooling} of {len(single)} single-channel masks cool, expected 6 of 27"
        out = [Verdict(v.key, False, reason) if _single_channel(v.key) else v for v in out]
    return out


def _scan_row(got: dict, ref: dict) -> Verdict:
    key = ref["filter"]
    if got["error"]:
        return Verdict(key, False, f"error row: {got['error']}")
    for col in ("cooling", "cycle_matched", "n_states", "error"):
        if got[col] != ref[col]:
            return Verdict(key, False, f"{col} {got[col]} != {ref[col]}")
    try:
        g = {c: float(got[c]) for c in SCAN_CURRENTS + ("eta",)}
    except ValueError:
        return Verdict(key, False, "unparseable cell")
    r = {c: float(ref[c]) for c in SCAN_CURRENTS + ("eta",)}
    scale = max(abs(r[c]) for c in SCAN_CURRENTS)
    floors = {c: scale for c in SCAN_CURRENTS}
    floors["eta"] = eta_floor(r["eta"], r["qdot_H"], scale)
    for col, floor in floors.items():
        if not close(g[col], r[col], floor):
            return Verdict(key, False, f"{col} {g[col]!r} != {r[col]!r}")
    return Verdict(key, True)


# ---------------------------------------------------------------------------
# Steady report (vacuum_transport)
# ---------------------------------------------------------------------------


def _report_lines(text: str) -> list[tuple[str, str]]:
    out = []
    for line in text.splitlines()[1:]:
        key, sep, value = line.partition(" = ")
        out.append((key, value) if sep else (line, ""))
    return out


def verify_steady_report(text: str, reference: Path, key: str = "steady") -> Verdict:
    """Compare a ``run_steady`` report with a reference report.  The whole
    report is one row: config echo, state count, support and stage exactly;
    populations and currents numerically."""
    ref = _report_lines(Path(reference).read_text(encoding="utf-8"))
    got = _report_lines(text)
    if [k for k, _ in got] != [k for k, _ in ref]:
        return Verdict(key, False, "report lines differ")
    ref_map = dict(ref)
    scales: dict[str, float] = {}
    for k, v in ref:
        if k.startswith("[state") and (" current " in k or " qdot_" in k):
            state = k.split("]")[0]
            scales[state] = max(scales.get(state, 0.0), abs(float(v)))
    for k, v in got:
        r = ref_map[k]
        state = k.split("]")[0]
        if k.endswith("] populations"):
            gp = [float(x) for x in v.split(",")]
            rp = [float(x) for x in r.split(",")]
            if len(gp) != len(rp) or not all(close(a, b, max(rp)) for a, b in zip(gp, rp)):
                return Verdict(key, False, f"{k} differs")
        elif " current " in k or " qdot_" in k:
            if not close(float(v), float(r), scales[state]):
                return Verdict(key, False, f"{k} {v} != {r}")
        elif k.endswith("] eta") and r != "undefined":
            q_hot = float(ref_map[f"{state}] qdot_H"])
            if v == "undefined" or not close(
                float(v), float(r), eta_floor(float(r), q_hot, scales[state])
            ):
                return Verdict(key, False, f"{k} {v} != {r}")
        elif k.endswith("] sigma"):
            if not close(float(v), float(r), scales[state]):
                return Verdict(key, False, f"{k} {v} != {r}")
        elif v != r:
            return Verdict(key, False, f"{k} {v!r} != {r!r}")
    return Verdict(key, True)


# ---------------------------------------------------------------------------
# Cold edge (against the high-precision reference)
# ---------------------------------------------------------------------------


def load_cold_edge_reference(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def cold_edge_row(key: str, got: dict, ref: dict) -> Verdict:
    """A row fails if it is an error row, if Q_C has the wrong sign, or if
    any reported current is off by more than REL_TOL relative to the row's
    current magnitude."""
    if got["stage"] == "error":
        return Verdict(key, False, "error row")
    if float(got["sweep_value"]) != float(ref["t_h"]):
        return Verdict(key, False, "sweep value differs")
    r = {c: float(ref[c]) for c in ("q_c", "q_h", "q_r")}
    g = {"q_c": float(got["qdot_C"]), "q_h": float(got["qdot_H"]),
         "q_r": float(got["qdot_R"])}
    if r["q_c"] != 0.0 and (g["q_c"] > 0) != (r["q_c"] > 0):
        return Verdict(key, False, "wrong sign of Q_C")
    scale = max(abs(v) for v in r.values())
    for c in r:
        if not close(g[c], r[c], scale):
            return Verdict(key, False, f"{c} off by more than {REL_TOL:g} relative")
    return Verdict(key, True)


#: Cold-edge failure classes, mildest first.  A loud error row is milder
#: than a silently wrong sign; any other reason (a missing row, a run that
#: raised) has no class.
COLD_EDGE_FAILURE_CLASSES = ("off by more than", "error row", "wrong sign")


def failure_class(reason: str) -> int | None:
    """Index of ``reason`` in :data:`COLD_EDGE_FAILURE_CLASSES`, or None."""
    for rank, marker in enumerate(COLD_EDGE_FAILURE_CLASSES):
        if marker in reason:
            return rank
    return None


def no_worse(reason: str, recorded: str) -> bool:
    """True if a failure for ``reason`` is of the same class as the
    ``recorded`` one, or milder."""
    now, before = failure_class(reason), failure_class(recorded)
    return now is not None and before is not None and now <= before


def verify_cold_edge(paths: list[Path], reference: dict) -> list[Verdict]:
    """One verdict per reference row; ``paths[k]`` is the sweep CSV of the
    k-th cold temperature."""
    by_file: dict[int, list[dict]] = {}
    for row in reference["rows"]:
        by_file.setdefault(row["tc_index"], []).append(row)
    out = []
    for k, refs in sorted(by_file.items()):
        prefix = f"tc{k}/"
        try:
            _, cols, rows = read_table(paths[k])
        except (OSError, ValueError) as exc:
            out += _all_failed((f"{prefix}{r['th_index']}" for r in refs),
                               f"unreadable: {exc}")
            continue
        for ref in refs:
            key = f"{prefix}{ref['th_index']}"
            i = ref["th_index"]
            if i >= len(rows):
                out.append(Verdict(key, False, "missing row"))
            else:
                out.append(cold_edge_row(key, dict(zip(cols, rows[i])), ref))
    return out

