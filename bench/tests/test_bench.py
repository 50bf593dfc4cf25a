"""Self-checks of the benchmark: the verifier catches wrong rows, the tracer
adds self times up correctly, and every name printed matches BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import make_references  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

REF = BENCH / "reference"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _edit_table(src: Path, dst: Path, row: int, column: str, value: str) -> None:
    """Copy a CSV table, replacing one cell of one data row."""
    lines = src.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    cols = lines[first].split(",")
    cells = lines[first + 1 + row].split(",")
    cells[cols.index(column)] = value
    lines[first + 1 + row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell(src: Path, row: int, column: str) -> str:
    _, cols, rows = verify.read_table(src)
    return rows[row][cols.index(column)]


def _failed(verdicts):
    return [(v.key, v.reason) for v in verdicts if not v.ok]


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


def test_references_verify_against_themselves():
    assert not _failed(verify.verify_sweep(REF / "figure_sweep.csv", REF / "figure_sweep.csv"))
    assert not _failed(verify.verify_scan(REF / "census_all.csv", REF / "census_all.csv"))
    text = (REF / "vacuum_transport_steady.txt").read_text(encoding="utf-8")
    assert verify.verify_steady_report(text, REF / "vacuum_transport_steady.txt").ok


@pytest.mark.parametrize("rel, fails", [(1e-12, False), (1e-7, True)])
def test_sweep_perturbed_cell(tmp_path, rel, fails):
    src = REF / "figure_sweep.csv"
    # the largest current sets the row's absolute floor
    column = max(verify.SWEEP_CURRENTS, key=lambda c: abs(float(_cell(src, 17, c))))
    value = float(_cell(src, 17, column)) * (1.0 + rel)
    _edit_table(src, tmp_path / "s.csv", 17, column, f"{value:.16e}")
    failed = _failed(verify.verify_sweep(tmp_path / "s.csv", src))
    assert failed == ([("17", failed[0][1])] if fails else [])


def test_sweep_flipped_stage(tmp_path):
    src = REF / "figure_sweep.csv"
    stage = _cell(src, 40, "stage")
    other = "stage4" if stage != "stage4" else "stage3"
    _edit_table(src, tmp_path / "s.csv", 40, "stage", other)
    assert [k for k, _ in _failed(verify.verify_sweep(tmp_path / "s.csv", src))] == ["40"]


def test_sweep_error_row(tmp_path):
    src = REF / "figure_sweep.csv"
    lines = src.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    value = lines[first + 1 + 3].split(",")[0]
    lines[first + 1 + 3] = ",".join([value] + ["nan"] * 8 + ["error"])
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _failed(verify.verify_sweep(tmp_path / "s.csv", src)) == [("3", "error row")]


def test_scan_error_row_and_cooling_census(tmp_path):
    src = REF / "census_all.csv"
    _, cols, rows = verify.read_table(src)
    _edit_table(src, tmp_path / "e.csv", 5, "error", "SolverFailure: boom")
    assert [k for k, _ in _failed(verify.verify_scan(tmp_path / "e.csv", src))] == [rows[5][0]]

    single = next(i for i, r in enumerate(rows)
                  if verify._single_channel(r[0]) and r[cols.index("cooling")] == "true")
    _edit_table(src, tmp_path / "c.csv", single, "cooling", "false")
    failed = _failed(verify.verify_scan(tmp_path / "c.csv", src))
    assert len(failed) == 27  # every single-channel mask: 5 of 27 cool
    assert all("5 of 27" in reason for _, reason in failed)


def test_steady_report_perturbed_current():
    ref = REF / "vacuum_transport_steady.txt"
    text = ref.read_text(encoding="utf-8")
    line = next(l for l in text.splitlines() if l.startswith("[state 0] qdot_C = "))
    value = float(line.split(" = ")[1]) * (1.0 + 1e-6)
    bad = text.replace(line, f"[state 0] qdot_C = {value:.16e}")
    assert not verify.verify_steady_report(bad, ref).ok
    assert not verify.verify_steady_report(text.replace("stage3", "stage4"), ref).ok


def _cold_edge_row(ref: dict, **override) -> dict:
    row = {"sweep_value": ref["t_h"], "qdot_C": ref["q_c"], "qdot_H": ref["q_h"],
           "qdot_R": ref["q_r"], "stage": "stage4"}
    row.update(override)
    return row


def test_cold_edge_wrong_sign_error_row_and_offset():
    reference = verify.load_cold_edge_reference(REF / "cold_edge.json")
    ref = next(r for r in reference["rows"] if r["tc_index"] == 0 and r["th_index"] == 20)
    assert verify.cold_edge_row("k", _cold_edge_row(ref), ref).ok
    flipped = repr(-float(ref["q_c"]))
    assert verify.cold_edge_row("k", _cold_edge_row(ref, qdot_C=flipped), ref).reason \
        == "wrong sign of Q_C"
    assert verify.cold_edge_row("k", _cold_edge_row(ref, stage="error"), ref).reason \
        == "error row"
    off = repr(float(ref["q_h"]) * (1.0 + 1e-8))
    assert not verify.cold_edge_row("k", _cold_edge_row(ref, qdot_H=off), ref).ok


def test_known_cold_edge_failure_tolerated_only_if_no_worse():
    import run

    known = dict(verify.load_cold_edge_reference(REF / "cold_edge.json")["known_failures"])

    def unexpected(recorded: str, reason: str) -> dict:
        key = next(k for k, r in known.items() if recorded in r)
        tally = run.Tally(known)
        tally.add(workloads.Output(0, [verify.Verdict(key, False, reason)]))
        assert tally.failed == 1
        return tally.unexpected

    assert not unexpected("wrong sign", "error row")
    assert not unexpected("error row", "q_c off by more than 1e-09 relative")
    assert not unexpected("off by more than", "q_h off by more than 1e-09 relative")
    assert unexpected("off by more than", "wrong sign of Q_C")
    assert unexpected("off by more than", "error row")
    assert unexpected("error row", "wrong sign of Q_C")
    assert unexpected("error row", "missing row")


def test_relaxation_matches_classes_by_support():
    wl = workloads.Relaxation()
    wl.prepare(0)
    _, exact = wl._reference("revival")
    classes = sorted(exact, key=min)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    mixture = sum(w * exact[s] for w, s in zip(weights, classes))
    steady = tuple((s, exact[s]) for s in reversed(classes))  # any class order
    relaxed = workloads.Relaxed("revival", 0, mixture, True, weights, steady)
    assert wl._check(relaxed).ok
    swapped = workloads.Relaxed("revival", 0, mixture, True, weights[::-1], steady)
    assert "weighted mixture" in wl._check(swapped).reason
    wrong = ((classes[0], exact[classes[1]]),) + steady[1:]
    assert not wl._check(workloads.Relaxed("revival", 0, mixture, True, weights, wrong)).ok


def test_close_treats_non_finite_exactly():
    assert verify.close(math.nan, math.nan)
    assert verify.close(math.inf, math.inf)
    assert not verify.close(math.inf, 1e300)
    assert not verify.close(math.nan, 0.0)


# ---------------------------------------------------------------------------
# cold_edge reference
# ---------------------------------------------------------------------------


def test_cold_edge_reference_matches_its_script_and_closed_forms():
    rows = make_references.cold_edge_rows()
    assert make_references.cross_check(rows) < 1e-10
    committed = verify.load_cold_edge_reference(REF / "cold_edge.json")["rows"]
    assert len(committed) == len(rows) == 200
    for new, old in zip(rows, committed):
        assert new["reported_class"] == old["reported_class"]
        for key in ("q_c", "q_h", "q_r"):
            assert float(new[key]) == float(old[key])


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_self_times_add_up_and_patching_is_undone():
    from qfridge import cli, dynamics, spectrum

    original = dynamics.transition_channels
    config = cli.load_config(str(ROOT / "configs" / "vacuum_transport.ini"))
    with tracing.Tracer() as tracer:
        assert dynamics.transition_channels is not original
        with tracer.span(tracing.ROOT_SPAN):
            gen = dynamics.build_generator(config.params, config.filter,
                                           config.reservoirs, config.background)
            dynamics.steady_states_numeric(gen)
    assert dynamics.transition_channels is original is spectrum.transition_channels
    root = next(s for s in tracer.spans if s[2] == tracing.ROOT_SPAN)
    assert sum(tracer.self_ns.values()) == root[4] - root[3]
    assert tracer.calls["spectrum.transition_channels"] == 1
    assert tracer.calls["spectrum.eigensystem"] == 2  # channels + generator
    assert tracer.counters["dynamics.steady_states_numeric.states"] == 1
    ids = {s[0] for s in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(s[1] in ids for s in tracer.spans if s[2] != tracing.ROOT_SPAN)


def test_tracer_counts_failed_calls():
    from qfridge import spectrum

    with tracing.Tracer() as tracer, pytest.raises(spectrum.DegenerateChannelsError):
        params = spectrum.SystemParams(omega_c=1.0, omega_h=2.0, g=0.5, gamma=0.1)
        spectrum.check_nondegenerate(params)  # H2 and C2 coincide at 1.5
    assert tracer.failed["spectrum.check_nondegenerate"] == 1


# ---------------------------------------------------------------------------
# Names and the command contract
# ---------------------------------------------------------------------------


def test_workload_and_layer_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"] for m in SPEC["per_layer"]}
    for name in tracing.LAYER_FUNCTIONS:
        assert {f"{name}.calls", f"{name}.self_ms", f"{name}.failed"} <= layer


def _run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_and_units_match_spec(trace, kind):
    code, lines = _run(["--workload", "census_all", "--seed", "3", "--seconds", "0.5",
                        "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {l.split(" = ")[0].strip(): l.rsplit(" ", 1)[1]
               for l in lines if l.startswith("  ") and " = " in l}
    assert printed == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run(["--workload", "figure_sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path)
    assert code != 0
    assert not any(l.startswith("{") for l in lines)
