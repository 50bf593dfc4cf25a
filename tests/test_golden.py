"""The CLI outputs of the three shipped configs against the benchmark's
reference files in ``bench/reference/`` (read in place) and, for the
single-channel scan, against ``tests/golden/``.

Text cells (config echo, column headers, stage, cooling, cycle_matched,
n_states, error, supports, warnings) must match exactly; numeric cells to
``RTOL`` relative, NaN matching NaN.
"""

import math
import re
from pathlib import Path

import pytest

from qfridge.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REFERENCE = ROOT / "bench" / "reference"
GOLDEN = ROOT / "tests" / "golden"

RTOL = 1e-12

#: Numeric lines of a steady report: ``[state k] <label> = <number(s)>``.
STEADY_NUMERIC = re.compile(r"^\[state \d+\] (populations|current \S+|qdot_\w+|eta|sigma) = ")


def assert_close(got: str, want: str, where: str) -> None:
    g, w = float(got), float(want)
    if math.isnan(w):
        assert math.isnan(g), f"{where}: {got} != {want}"
    else:
        assert g == w or abs(g - w) <= RTOL * abs(w), f"{where}: {got} != {want}"


def assert_table_matches(got_text: str, want_text: str, exact_columns) -> None:
    got, want = got_text.splitlines(), want_text.splitlines()
    assert len(got) == len(want)
    header = [line for line in want if line.startswith("#")]
    assert got[:len(header)] == header  # config echo
    columns = want[len(header)].split(",")
    assert got[len(header)] == want[len(header)]
    for n, (g_line, w_line) in enumerate(zip(got[len(header) + 1:],
                                             want[len(header) + 1:])):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells) == len(columns)
        for name, g, w in zip(columns, g_cells, w_cells):
            if name in exact_columns:
                assert g == w, f"row {n} {name}: {g!r} != {w!r}"
            else:
                assert_close(g, w, f"row {n} {name}")


def run_cli(args, out: Path) -> str:
    assert main(args + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_figure_sweep_matches_reference(tmp_path, parallel):
    got = run_cli(["sweep", "--config", str(CONFIGS / "figure_sweep.ini"),
                   "--parallel", parallel], tmp_path / "sweep.csv")
    want = (REFERENCE / "figure_sweep.csv").read_text(encoding="utf-8")
    assert_table_matches(got, want, exact_columns={"stage"})


SCAN_EXACT = {"filter", "cooling", "cycle_matched", "n_states", "error"}


def test_census_all_matches_reference(tmp_path):
    got = run_cli(["scan", "--config", str(CONFIGS / "filter_census.ini"),
                   "--mode", "all"], tmp_path / "scan.csv")
    want = (REFERENCE / "census_all.csv").read_text(encoding="utf-8")
    assert_table_matches(got, want, exact_columns=SCAN_EXACT)


def test_census_single_matches_golden(tmp_path):
    got = run_cli(["scan", "--config", str(CONFIGS / "filter_census.ini")],
                  tmp_path / "scan.csv")
    want = (GOLDEN / "filter_census_single.csv").read_text(encoding="utf-8")
    assert_table_matches(got, want, exact_columns=SCAN_EXACT)


def test_vacuum_transport_steady_matches_reference(tmp_path):
    got = run_cli(["steady", "--config", str(CONFIGS / "vacuum_transport.ini")],
                  tmp_path / "steady.txt").splitlines()
    want = (REFERENCE / "vacuum_transport_steady.txt").read_text(
        encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if not STEADY_NUMERIC.match(w):
            assert g == w
            continue
        label, _, values = w.partition(" = ")
        g_label, _, g_values = g.partition(" = ")
        assert g_label == label
        g_cells, w_cells = g_values.split(", "), values.split(", ")
        assert len(g_cells) == len(w_cells)
        for gc, wc in zip(g_cells, w_cells):
            if wc == "undefined":
                assert gc == wc, label
            else:
                assert_close(gc, wc, label)
