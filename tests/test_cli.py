import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfridge import cli
from qfridge.cli import (
    ConfigError,
    GridResult,
    ScanRow,
    ScenarioConfig,
    SweepRow,
    SweepSpec,
    constants_report,
    emit_csv,
    format_scan_table,
    load_config,
    load_csv,
    main,
    parse_config,
    run_steady,
    scan_filters,
    sweep_th,
    validate_config,
)
from conftest import hot_baths, hot_rates, state_sets, states_table
from qfridge.dynamics import build_population_matrix
from qfridge.reservoirs import COOLING_FILTERS, kept_channel_table
from qfridge.spectrum import CHANNEL_KEYS

FIG_CONFIG = """
[system]
omega_c_ghz = 210
omega_h = 3
g = 9/17
gamma = 0.6

[reservoirs]
t_c_kelvin = 10
t_r_kelvin = 40
t_h_kelvin = 66.7

[filter]
h = 3
r = 2
c = 1

[background]
mode = thermal
t0_kelvin = 12
gamma = 0.6

[sweep]
variable = t_h
start_kelvin = 12
stop_kelvin = 120
points = 8
"""

NATURAL_CONFIG = """
[system]
omega_c = 1.0
omega_h = 3.0
g = 0.25
gamma = 0.05

[reservoirs]
t_h = 6.0
t_r = 4.0
t_c = 1.0

[filter]
h = 2
r = 1
c = 3

[background]
mode = vacuum
gamma = 0.05
"""


def test_parse_config_resolves_units():
    config = parse_config(FIG_CONFIG)
    p = config.params
    assert p.omega_c == 1.0
    assert p.omega_h == 3.0
    assert p.g == pytest.approx(9.0 / 17.0, abs=0)
    assert p.unit_scale == pytest.approx(2 * math.pi * 210e9)
    # 10 K at 2*pi*210 GHz is just below one natural unit
    assert config.reservoirs.cold.temperature == pytest.approx(0.99222, abs=5e-6)
    assert config.background.mode == "thermal"
    assert config.sweep.points == 8
    assert config.filter.kept_h == frozenset({3})


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="missing \\[system\\]"):
        parse_config("[reservoirs]\nt_h = 1\nt_r = 0.5\nt_c = 0.2\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config("[system]\nomega_c = 1\nomega_c_ghz = 210\nomega_h = 3\n"
                      "g = 0.2\ngamma = 0.1\n[reservoirs]\nt_h = 3\nt_r = 2\nt_c = 1\n")
    with pytest.raises(ConfigError, match="give omega_c_ghz or unit_scale, not both"):
        parse_config("[system]\nomega_c_ghz = 210\nunit_scale = 5\nomega_h = 3\n"
                      "g = 0.2\ngamma = 0.1\n[reservoirs]\nt_h = 3\nt_r = 2\nt_c = 1\n")
    with pytest.raises(ConfigError, match="cannot parse number"):
        parse_config("[system]\nomega_c = 1\nomega_h = three\ng = 0.2\ngamma = 0.1\n"
                      "[reservoirs]\nt_h = 3\nt_r = 2\nt_c = 1\n")
    with pytest.raises(ConfigError, match="needs omega_c_ghz"):
        parse_config("[system]\nomega_c = 1\nomega_h = 3\ng = 0.2\ngamma = 0.1\n"
                      "[reservoirs]\nt_h_kelvin = 3\nt_r = 2\nt_c = 1\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config("[system]\nomega_c = 1\nomega_h = 3\ng = 0.2\ngamma = 0.1\n"
                      "[reservoirs]\nt_h = 3\nt_r = 2\nt_c = 1\n"
                      "[sweep]\nvariable = t_h\nstart = 5\nstop = 4\npoints = 3\n")
    with pytest.raises(ConfigError, match="channel indices"):
        parse_config("[system]\nomega_c = 1\nomega_h = 3\ng = 0.2\ngamma = 0.1\n"
                      "[reservoirs]\nt_h = 3\nt_r = 2\nt_c = 1\n[filter]\nh = 5\n")


@pytest.mark.parametrize("old, new, key", [
    ("t_h = 6.0", "t_h = inf", "reservoirs.t_h"),
    ("t_h = 6.0", "t_h = abc", "reservoirs.t_h"),
    ("t_c = 1.0", "t_c = nan", "reservoirs.t_c"),
    ("gamma = 0.05\n\n[reservoirs]", "gamma = inf\n\n[reservoirs]", "system.gamma"),
    ("gamma = 0.05\n\n[reservoirs]", "gamma = -inf\n\n[reservoirs]", "system.gamma"),
])
def test_non_finite_config_values_are_config_errors(capsys, tmp_path, old, new, key):
    assert NATURAL_CONFIG.count(old) == 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(NATURAL_CONFIG.replace(old, new))
    assert main(["steady", "--config", str(cfg), "--out", str(tmp_path / "s.txt")]) == 2
    err = capsys.readouterr().err
    # the key once, with no section prefix in front of it
    assert err.startswith(f"error: {key}: ") and err.count(key.split(".")[0]) == 1


def test_config_that_is_not_utf8_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "latin.ini"
    cfg.write_bytes(NATURAL_CONFIG.encode() + b"# \xff\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")


def test_zero_temperature_bath_gives_infinite_sigma(capsys, tmp_path):
    # no background: the infinite sigma comes from the engineered bath at T = 0
    text = NATURAL_CONFIG.replace("mode = vacuum\ngamma = 0.05", "mode = none")
    cfg = tmp_path / "cold0.ini"
    cfg.write_text(text.replace("t_c = 1.0", "t_c = 0"))
    out = tmp_path / "s.txt"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    sigmas = re.findall(r"sigma = (\S+)", out.read_text())
    assert "inf" in sigmas and "nan" not in sigmas

    sweep_cfg = tmp_path / "hot0.ini"
    sweep_cfg.write_text(text + "\n[sweep]\nvariable = t_h\nstart = 0\nstop = 6\npoints = 4\n")
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(csv_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = load_csv(str(csv_path)).rows
    assert rows[0].sweep_value == 0.0 and rows[0].sigma == math.inf
    assert not any(row.failed for row in rows)
    assert all(math.isfinite(row.sigma) for row in rows[1:])


def test_config_round_trip_through_items():
    config = parse_config(FIG_CONFIG)
    items = dict(config.canonical_items())
    rebuilt = ScenarioConfig.from_items(items)
    assert rebuilt.canonical_items() == config.canonical_items()
    assert rebuilt.params == config.params
    assert rebuilt.reservoirs == config.reservoirs
    assert rebuilt.filter == config.filter
    assert rebuilt.background == config.background
    assert rebuilt.sweep == config.sweep


def test_run_steady_vacuum_background_report():
    report = run_steady(parse_config(NATURAL_CONFIG))
    assert "steady_states = 1" in report
    assert "unique = True" in report
    assert "stage = " in report
    assert "sigma = inf" in report


def test_run_steady_equal_temperatures_null():
    text = """
[system]
omega_c = 1.0
omega_h = 3.0
g = 0.25
gamma = 0.05

[reservoirs]
t_h = 2.0
t_r = 2.0
t_c = 2.0
"""
    report = run_steady(parse_config(text))
    for line in report.splitlines():
        if "] qdot_" in line:
            assert abs(float(line.split(" = ")[1])) <= 1e-12
        if "] sigma" in line:
            assert abs(float(line.split(" = ")[1])) <= 1e-12


def test_sweep_rows_and_determinism(tmp_path):
    config = parse_config(FIG_CONFIG)
    result = sweep_th(config)
    assert len(result.rows) == 8 and not any(r.failed for r in result.rows)
    assert [r.sweep_value for r in result.rows] == sorted(
        r.sweep_value for r in result.rows)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(result, str(a))
    emit_csv(sweep_th(config), str(b))
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_sweep_parallel_matches_serial(capsys, tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(FIG_CONFIG)
    runs = []
    for extra in ([], ["--parallel", "2"]):
        out = tmp_path / f"sweep{len(runs)}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)] + extra) == 0
        assert not any(r.failed for r in load_csv(str(out)).rows)
        runs.append((out.read_bytes(), capsys.readouterr().err))
    assert runs[0] == runs[1]


def test_csv_round_trip(tmp_path):
    config = parse_config(FIG_CONFIG)
    result = sweep_th(config)
    path = tmp_path / "sweep.csv"
    emit_csv(result, str(path))
    loaded = load_csv(str(path))
    assert loaded.config.canonical_items() == config.canonical_items()
    assert len(loaded.rows) == len(result.rows)
    for got, expect in zip(loaded.rows, result.rows):
        assert got.sweep_value == expect.sweep_value
        assert got.qdot_C == expect.qdot_C
        assert got.stage == expect.stage


def test_csv_first_law_validation_on_load(tmp_path):
    config = parse_config(FIG_CONFIG)
    result = sweep_th(config)
    path = tmp_path / "sweep.csv"
    emit_csv(result, str(path))
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = f"{float(cells[1]) + 1.0:.16e}"  # break energy conservation
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="first law"):
        load_csv(str(path))


def test_load_csv_raises_the_first_fault_in_row_order(tmp_path):
    # rows 2 and 5 break the first law and row 6 is malformed: the message
    # names row 2; a malformed row above every fault is raised instead
    path = tmp_path / "sweep.csv"
    emit_csv(sweep_th(parse_config(FIG_CONFIG)), str(path))
    lines = path.read_text().splitlines()
    top = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    for k in (2, 5):
        cells = lines[top + k].split(",")
        cells[1] = f"{float(cells[1]) + 1.0:.16e}"
        lines[top + k] = ",".join(cells)
    currents = [float(c) for c in lines[top + 2].split(",")[1:7]]
    fault = (f"first-law violation: the six currents sum to {sum(currents):.3e} "
             f"against magnitude {sum(map(abs, currents)):.3e}")
    for bad, want in ((6, f"{path}: row at {float(lines[top + 2].split(',')[0])} "
                          f"violates the first law ({fault})"),
                      (1, None)):
        broken = lines.copy()
        broken[top + bad] += ",x"
        path.write_text("\n".join(broken) + "\n")
        with pytest.raises(ConfigError) as exc:
            load_csv(str(path))
        assert str(exc.value) == (want or f"{path}: malformed row {broken[top + bad]!r} "
                                          f"(11 cells, expected 10)")


@pytest.mark.parametrize("column, cell, reason", [
    ("qdot_C", "abc", "could not convert string to float: 'abc'"),
    ("stage", "bogus", "unknown stage 'bogus'"),
    ("stage", "stage3,x", "11 cells, expected 10"),
], ids=["non_numeric", "unknown_stage", "extra_cell"])
def test_load_csv_rejects_malformed_rows(tmp_path, column, cell, reason):
    path = tmp_path / "sweep.csv"
    emit_csv(sweep_th(parse_config(FIG_CONFIG)), str(path))
    lines = path.read_text().splitlines()
    columns = next(line for line in lines if not line.startswith("#")).split(",")
    cells = lines[-1].split(",")
    cells[columns.index(column)] = cell
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as exc:
        load_csv(str(path))
    assert str(exc.value) == f"{path}: malformed row {lines[-1]!r} ({reason})"


@pytest.fixture(scope="module")
def shipped_sweep_lines(tmp_path_factory):
    """The lines of the shipped figure_sweep CSV, and the index of its first row."""
    path = tmp_path_factory.mktemp("shipped") / "figure_sweep.csv"
    emit_csv(sweep_th(load_config(str(CONFIGS / "figure_sweep.ini"))), str(path))
    lines = path.read_text().splitlines()
    return lines, next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1


def test_load_csv_reads_back_the_shipped_sweep(tmp_path, shipped_sweep_lines):
    lines, top = shipped_sweep_lines
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_csv(str(path))
    assert len(loaded.rows) == len(lines) - top == loaded.config.sweep.points == 200
    assert [r.sweep_value for r in loaded.rows] == loaded.config.sweep.values.tolist()


def load_error(path, lines) -> str:
    """The message of the ``ConfigError`` that ``load_csv`` raises on ``lines`` at ``path``."""
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as exc:
        load_csv(str(path))
    return str(exc.value)


def test_load_csv_rejects_a_sweep_cut_short(tmp_path, shipped_sweep_lines):
    lines, top = shipped_sweep_lines
    path = tmp_path / "sweep.csv"
    assert load_error(path, lines[:top + 50]) == f"{path}: 50 rows, but the header's grid has 200"


def test_load_csv_rejects_a_row_off_the_header_grid(tmp_path, shipped_sweep_lines):
    lines, top = shipped_sweep_lines
    cells = lines[top].split(",")
    start, cells[0] = float(cells[0]), "1e300"
    path = tmp_path / "sweep.csv"
    assert load_error(path, [*lines[:top], ",".join(cells), *lines[top + 1:]]) == \
        f"{path}: row 0 is at 1e+300, but the header's grid is at {start!r}"


def test_load_csv_rejects_a_header_key_given_twice(tmp_path, shipped_sweep_lines):
    lines, _ = shipped_sweep_lines
    g = next(k for k, line in enumerate(lines) if line.startswith("# system.g = "))
    path = tmp_path / "sweep.csv"
    assert load_error(path, [*lines[:g + 1], "# system.g = 0.25", *lines[g + 1:]]) == \
        f"{path}: header key system.g appears twice"


@pytest.mark.parametrize("fault", ["missing", "not_utf8", "bad_header_value"])
def test_load_csv_errors_name_the_file(tmp_path, fault):
    path = tmp_path / "sweep.csv"
    if fault == "not_utf8":
        path.write_bytes(b"\xff\xfe")
    elif fault == "bad_header_value":
        emit_csv(sweep_th(parse_config(FIG_CONFIG)), str(path))
        path.write_text(re.sub(r"(?m)^# system\.g = .*$", "# system.g = nine", path.read_text()))
    with pytest.raises(ConfigError) as exc:
        load_csv(str(path))
    message = str(exc.value)
    if fault == "bad_header_value":
        assert message.startswith(f"{path}: system.g: cannot parse number 'nine'")
    else:
        assert message.startswith(f"cannot read sweep CSV {path}: ")


def test_emit_csv_header_only_for_empty_sweep(tmp_path):
    config = parse_config(FIG_CONFIG)
    path = tmp_path / "empty.csv"
    emit_csv(GridResult(config=config, rows=(), warnings=()), str(path))
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("sweep_value,")
    assert all(line.startswith("#") for line in lines[:-1])


def test_scan_filter_counts_and_census():
    text = """
[system]
omega_c = 1.0
omega_h = 3.0
g = 0.25
gamma = 0.05

[reservoirs]
t_h = 50.0
t_r = 1.2
t_c = 1.0
"""
    config = parse_config(text)
    rows = scan_filters(config, mode="single_channel").rows
    assert len(rows) == 27
    assert not any(r.error for r in rows)  # an error row reads cooling = False
    cooling = [r for r in rows if r.cooling]
    assert len(cooling) == 6
    assert {str(r.filter) for r in cooling} == {str(f) for f in COOLING_FILTERS}
    assert all(r.cycle_matched for r in cooling)
    # ranking: cooling rows come first, sorted by cold current
    assert [r.qdot_C for r in rows[:6]] == sorted(
        (r.qdot_C for r in cooling), reverse=True)
    table = format_scan_table(config, rows)
    assert table.count("\n") == 27 + len(config.canonical_items()) + 1


def test_scan_all_mode_counts():
    text = """
[system]
omega_c = 1.0
omega_h = 3.0
g = 0.25
gamma = 0.05

[reservoirs]
t_h = 2.0
t_r = 2.0
t_c = 2.0
"""
    rows = scan_filters(parse_config(text), mode="all").rows
    assert len(rows) == 216
    # equal temperatures: nothing cools
    assert not any(r.cooling for r in rows)
    assert all(not r.error for r in rows)


def test_scan_table_has_one_cell_per_column():
    config = parse_config(DEGENERATE_CONFIG)
    rows = scan_filters(config, mode="all").rows
    assert any("," in r.error for r in rows)  # the reasons keep their commas
    lines = [line for line in format_scan_table(config, rows).splitlines()
             if not line.startswith("#")]
    columns = lines[0].split(",")
    table = [line.split(",") for line in lines[1:]]
    assert len(table) == 216 and all(len(cells) == len(columns) for cells in table)
    assert [cells[-1] for cells in table] == [r.error.replace(",", ";") for r in rows]


def test_validate_config_report():
    report, ok = validate_config(parse_config(FIG_CONFIG))
    assert ok
    assert "cycle_match = matched" in report
    assert "warning:" in report  # gamma = 0.6 strains the Markov margin
    degenerate = FIG_CONFIG.replace("9/17", "0.5")
    report, ok = validate_config(parse_config(degenerate))
    assert not ok and "degenerate" in report


#: At omega_c = 1, omega_h = 2, g = 0.5 the channels H2 and C2 share the
#: frequency 1.5, and H3 and R1 the frequency 2.5.
DEGENERATE_SYSTEM = ("[system]\nomega_c = 1\nomega_h = 2\ng = 0.5\ngamma = 0.1\n"
                     "[reservoirs]\nt_h = 5\nt_r = 2\nt_c = 1\n")
MARKOV_AT_GAP_0 = ("warning: gamma = 0.1 is not small against the minimum channel-frequency "
                   "gap 0; the Markov/secular treatment is strained")


@pytest.mark.parametrize("mask, lines", [
    ("", ["filter.h = 1,2,3", "filter.r = 1,2,3", "filter.c = 1,2,3", "background.mode = none",
          "error: channels H2 and C2 are degenerate", "error: channels H3 and R1 are degenerate",
          MARKOV_AT_GAP_0,
          "cycle_match = not-applicable (needs one kept channel per qubit (H:3, R:3, C:3))",
          "result = invalid"]),
    ("[filter]\nh = 2\nr = 2\nc = 2\n",
     ["filter.h = 2", "filter.r = 2", "filter.c = 2", "background.mode = none",
      "error: channels H2 and C2 are degenerate", MARKOV_AT_GAP_0,
      "cycle_match = matched (H2 + C2 closes onto R2)",
      "cooling_predicate = False (ratio 1 vs threshold 0.6)", "result = invalid"]),
], ids=["all_channels", "H2+R2+C2"])
def test_validate_report_of_degenerate_channels(mask, lines):
    # the whole report after the system and bath echo lines, pinned line by line
    report, ok = validate_config(parse_config(DEGENERATE_SYSTEM + mask))
    assert not ok
    assert report.splitlines()[9:] == lines


def test_constants_report():
    text = constants_report(parse_config(FIG_CONFIG))
    assert "k_B / hbar" in text
    assert "unit_scale = 1.3194689145e+12" in text
    assert "T_C" in text


def test_main_subcommands(tmp_path, capsys):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(NATURAL_CONFIG)
    out = tmp_path / "steady.txt"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    assert "steady_states = 1" in out.read_text()

    assert main(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()

    assert main(["constants", "--config", str(cfg)]) == 0
    capsys.readouterr()

    missing = main(["steady", "--config", str(tmp_path / "nope.ini")])
    assert missing != 0
    assert "error:" in capsys.readouterr().err

    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(FIG_CONFIG)
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(csv_path)]) == 0
    assert csv_path.exists()
    assert main(["steady", "--config", str(sweep_cfg)]) != 0  # sweep section present

    scan_out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(scan_out)]) == 0
    assert len(scan_out.read_text().splitlines()) > 27


def test_cli_commands_never_build_the_liouvillian(tmp_path, monkeypatch):
    from qfridge.dynamics import Generator

    reads = []
    monkeypatch.setattr(Generator, "liouvillian", property(reads.append))
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(NATURAL_CONFIG)
    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(FIG_CONFIG)
    assert main(["steady", "--config", str(cfg), "--out", str(tmp_path / "s.txt")]) == 0
    assert main(["sweep", "--config", str(sweep_cfg),
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["scan", "--config", str(cfg), "--mode", "all",
                 "--out", str(tmp_path / "scan.csv")]) == 0
    assert reads == []


def test_sweep_requires_sweep_section():
    with pytest.raises(ConfigError, match="no \\[sweep\\]"):
        sweep_th(parse_config(NATURAL_CONFIG))


@pytest.mark.parametrize("name", ["figure_sweep.ini", "vacuum_transport.ini",
                                  "filter_census.ini"])
def test_shipped_configs_validate(name):
    from pathlib import Path

    from qfridge.cli import load_config

    path = Path(__file__).resolve().parent.parent / "configs" / name
    config = load_config(str(path))
    report, ok = validate_config(config)
    assert ok, report


def test_sweep_collects_each_rows_warnings_once(monkeypatch, capsys, tmp_path):
    import warnings

    from qfridge import cli

    checks, builds = [], []
    check, assemble, reports = cli.check_channel_table, cli.assemble_generator, cli.build_reports

    def counted_check(*args):
        checks.append(args)
        return check(*args)

    def counted_build(*args):
        builds.append(args)
        return assemble(*args)

    def warn_by_row(gen, dissipators, rows, baths):
        for t_h, _, _ in baths.tolist():
            side = "above" if t_h > 10.0 else "below"
            warnings.warn(f"T_H {side} 10", RuntimeWarning)
        return reports(gen, dissipators, rows, baths)

    monkeypatch.setattr(cli, "check_channel_table", counted_check)
    monkeypatch.setattr(cli, "assemble_generator", counted_build)
    monkeypatch.setattr(cli, "build_reports", warn_by_row)
    result = sweep_th(parse_config(FIG_CONFIG))
    # one check, of the kept-channel table of all 8 rows, and one generator per sweep
    assert len(checks) == len(builds) == 1 and len(result.rows) == 8
    assert checks[0][1].shape == (8, 9)
    # the Markov warning comes from the check, the others from the rows;
    # "above" is raised only by later rows
    assert len(result.warnings) == 3
    assert "Markov" in result.warnings[0]
    assert result.warnings[1:] == ("T_H below 10", "T_H above 10")

    cfg = tmp_path / "sweep.ini"
    cfg.write_text(FIG_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {w}" for w in result.warnings]


def test_repeated_masks_warn_once_and_fail_alike():
    # a grid that repeats its masks: a degenerate one at rows 1 and 4, and
    # two Markov-strained ones, the one with gap 1 seen first; each row is
    # checked, and each warning still comes once, in first-seen order
    from dataclasses import replace

    from qfridge import FilterConfig, cli
    from qfridge.reservoirs import markov_message

    config = parse_config(DEGENERATE_CONFIG.replace("gamma = 0.05", "gamma = 0.1"))
    gap_1, degenerate, gap_half, quiet = (
        FilterConfig(frozenset(h), frozenset(r), frozenset(c)) for h, r, c in (
            ((1,), (2,), (3,)), ((2,), (1,), (2,)), ((1, 3), (2,), (3,)), ((1,), (3,), (1,))))
    filters = [gap_1, degenerate, gap_half, quiet, degenerate, gap_1, gap_half]
    got, warns = cli._collecting_warnings(lambda: grid_outcomes(config, filters=filters))
    assert warns == (markov_message(0.1, 1.0), markov_message(0.1, 0.5))
    assert [k for k, row in enumerate(got) if isinstance(row, Exception)] == [1, 4]
    assert type(got[1]) is type(got[4]) is cli.DegenerateChannelsError
    assert str(got[1]) == str(got[4]) == "coinciding channel frequencies: H2~C2"
    for filt, row in zip(filters, got, strict=True):
        assert_outcome_matches_solve_alone(row, replace(config, filter=filt))


def _fail_rows(exc):
    """A stand-in for ``steady_state_rows`` that fails every row with
    ``exc`` if it is a row failure, and raises it otherwise."""
    from qfridge.cli import ROW_FAILURES

    def solve(w):
        if isinstance(exc, ROW_FAILURES):
            return states_table([exc] * len(w))
        raise exc
    return solve


@pytest.mark.parametrize("run, text", [
    (sweep_th, FIG_CONFIG),
    (scan_filters, NATURAL_CONFIG),
], ids=["sweep", "scan"])
def test_rows_record_domain_failures_but_not_bugs(monkeypatch, run, text):
    from qfridge import cli
    from qfridge.dynamics import SolverFailure

    config = parse_config(text)
    monkeypatch.setattr(cli, "steady_state_rows", _fail_rows(SolverFailure("no")))
    result = run(config)
    assert result.rows and all(math.isnan(r.qdot_C) for r in result.rows)
    assert all(r.error == "SolverFailure: no" for r in result.rows)
    # failed rows keep the warnings raised before the failure (here the
    # build's Markov warning)
    assert len(result.warnings) == 1 and "Markov" in result.warnings[0]

    monkeypatch.setattr(cli, "steady_state_rows", _fail_rows(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        run(config)


def test_sweep_reports_failed_rows_on_stderr(monkeypatch, capsys, tmp_path):
    from qfridge import cli
    from qfridge.dynamics import SolverFailure

    reports = cli.build_reports

    def fail_when_hot(gen, dissipators, table, baths):
        rows = [SolverFailure(f"too hot at {t_h:.4f}") if t_h > 10.0 else row
                for row, t_h in zip(state_sets(table, gen.eigen, len(baths)),
                                    baths[:, 0].tolist())]
        return reports(gen, dissipators, states_table(rows), baths)

    monkeypatch.setattr(cli, "build_reports", fail_when_hot)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(FIG_CONFIG)
    path = tmp_path / "s.csv"
    # failed rows are data, not a failed run: the exit status stays 0
    assert main(["sweep", "--config", str(cfg), "--out", str(path)]) == 0
    err = capsys.readouterr().err.splitlines()
    result = sweep_th(parse_config(FIG_CONFIG))
    failed = [r for r in result.rows if r.failed]
    assert 0 < len(failed) < len(result.rows)
    assert failed[0].error == f"SolverFailure: too hot at {failed[0].sweep_value:.4f}"
    assert err[-1] == (f"{len(failed)} of 8 rows failed; first at "
                       f"t_h={failed[0].sweep_value:.16e}: {failed[0].error}")
    assert all(line.startswith("warning: ") for line in err[:-1])
    # the reason is not part of the CSV, which reads back cell for cell
    loaded = load_csv(str(path))
    line = cli._line(SweepRow)
    assert [line(r) for r in loaded.rows] == [line(r) for r in result.rows]
    assert all(not r.error for r in loaded.rows)


def _warn_for_filter(monkeypatch, filt, message):
    """Make a grid's check warn ``message`` when its kept-channel table has
    the row of ``filt``."""
    import warnings

    from qfridge import cli

    check, row = cli.check_channel_table, kept_channel_table([filt])

    def warn_once(params, kept, *rest):
        failures = check(params, kept, *rest)
        if (kept == row).all(axis=1).any():
            warnings.warn(message, RuntimeWarning)
        return failures

    monkeypatch.setattr(cli, "check_channel_table", warn_once)


def test_scan_prints_each_warning_once(monkeypatch, capsys, tmp_path):
    from qfridge import FilterConfig

    cfg = tmp_path / "scan.ini"
    cfg.write_text(NATURAL_CONFIG)
    table = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(table)]) == 0
    plain_err = capsys.readouterr().err
    plain_table = table.read_bytes()

    _warn_for_filter(monkeypatch, FilterConfig.single(1, 1, 1), "only H1R1C1")
    result = scan_filters(parse_config(NATURAL_CONFIG))
    assert result.warnings.count("only H1R1C1") == 1
    assert main(["scan", "--config", str(cfg), "--out", str(table)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err.count("warning: only H1R1C1") == 1
    assert err == [f"warning: {w}" for w in result.warnings]
    assert table.read_bytes() == plain_table
    # the real (Markov) warnings reach stderr too, one line per message
    assert plain_err and plain_err.splitlines() == [
        line for line in err if line != "warning: only H1R1C1"]


def test_scan_warnings_parallel_match_serial(capsys, tmp_path):
    from pathlib import Path

    from qfridge.cli import load_config

    cfg = Path(__file__).resolve().parent.parent / "configs" / "filter_census.ini"
    config = load_config(str(cfg))
    serial = scan_filters(config, mode="all")
    assert len(serial.warnings) == 2  # masks differ in their smallest gap
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"scan-{workers}.csv"
        assert main(["scan", "--config", str(cfg), "--mode", "all",
                     "--parallel", workers, "--out", str(out)]) == 0
        outs.append((out.read_bytes(), capsys.readouterr().err))
    assert outs[0] == outs[1]
    assert outs[0][1].splitlines() == [f"warning: {w}" for w in serial.warnings]


def test_cli_import_leaves_out_process_pools():
    import subprocess
    import sys
    from pathlib import Path

    import qfridge

    src = str(Path(qfridge.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import qfridge.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_commands_leave_out_numpy_ma(tmp_path):
    # numpy.ma costs 10-14 ms to import; np.unique without its optional
    # outputs imports it (numpy 2.4), so no command's first solve may call it
    import subprocess
    import sys

    import qfridge

    src = str(Path(qfridge.__file__).resolve().parent.parent)
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "import numpy as np",
        "from qfridge import build_generator, propagate",
        "from qfridge.cli import load_config, main",
        f"configs = {str(CONFIGS)!r}",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        f"    codes = [main(['sweep', '--config', configs + '/figure_sweep.ini', "
        f"'--out', {str(tmp_path / 's.csv')!r}]),",
        "             main(['scan', '--config', configs + '/filter_census.ini', '--mode', 'all']),",
        "             main(['steady', '--config', configs + '/vacuum_transport.ini'])]",
        "c = load_config(configs + '/vacuum_transport.ini')",
        "gen = build_generator(c.params, c.filter, c.reservoirs, c.background)",
        "result = propagate(gen.eigen.diagonal_state(np.full(8, 0.125)), gen, t_final=10.0)",
        "print(codes, result.steps > 0, 'numpy.ma' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0] True False"


def test_steady_reports_solve_time_warnings(monkeypatch, tmp_path):
    config = parse_config(NATURAL_CONFIG)
    plain = run_steady(config).splitlines()
    _warn_for_filter(monkeypatch, config.filter, "raised by the solve")
    lines = run_steady(config).splitlines()
    assert lines == plain + ["warning: raised by the solve"]
    cfg = tmp_path / "steady.ini"
    cfg.write_text(NATURAL_CONFIG)
    out = tmp_path / "steady.txt"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == lines


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: REVIVAL mask at a cold edge: the solve raises a first-law NumericalFault
REVIVAL_FAULT_CONFIG = """
[system]
omega_h = 3
g = 0.25
gamma = 0.05

[reservoirs]
t_h = 0.5
t_r = 0.2
t_c = 0.05

[filter]
h = 3
r = 2
c = 1
"""

#: all channels with H2~C2 and H3~R1 coinciding: DegenerateChannelsError
DEGENERATE_CONFIG = """
[system]
omega_h = 2
g = 0.5
gamma = 0.05

[reservoirs]
t_h = 6.0
t_r = 4.0
t_c = 1.0
"""

#: a one-point sweep whose reported currents pass the per-channel first-law
#: gate of build_report but break the CSV's per-reservoir energy balance
BALANCE_FAULT_CONFIG = """
[system]
omega_h = 3
g = 0.25
gamma = 0.01

[reservoirs]
t_h = 1.5137184098835603
t_r = 0.2986360296858819
t_c = 0.07539650111280943

[filter]
h = 1,3
r = 1,2
c = 2,3

[sweep]
variable = t_h
start = 1.5137184098835603
stop = 2
points = 1
"""


@pytest.mark.parametrize("name", ["figure_sweep", "filter_census", "vacuum_transport",
                                  "revival_fault", "degenerate"])
def test_no_command_dies_with_a_traceback(name, tmp_path, capsys):
    text = {"revival_fault": REVIVAL_FAULT_CONFIG, "degenerate": DEGENERATE_CONFIG}.get(name)
    cfg = CONFIGS / f"{name}.ini"
    if text is not None:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
    commands = [["steady"], ["validate"], ["scan"]]
    if load_config(str(cfg)).sweep is not None:
        commands.append(["sweep"])
    for command in commands:
        out = tmp_path / f"{command[0]}.out"
        code = main(command + ["--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), (command, err)
        if code == 2 and command == ["steady"]:
            assert err.startswith("error: ")


@pytest.mark.parametrize("text, message", [
    (REVIVAL_FAULT_CONFIG, "error: NumericalFault: first-law violation: currents sum to "),
    (DEGENERATE_CONFIG,
     "error: DegenerateChannelsError: coinciding channel frequencies: H2~C2, H3~R1"),
], ids=["revival_fault", "degenerate"])
def test_steady_row_failure_exits_2_with_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "steady.ini"
    cfg.write_text(text)
    out = tmp_path / "steady.txt"
    assert main(["steady", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_sweep_writes_energy_balance_breach_as_error_row(tmp_path, capsys):
    config = parse_config(BALANCE_FAULT_CONFIG)
    (row,) = sweep_th(config).rows
    assert row.failed
    assert row.error.startswith("NumericalFault: first-law")
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BALANCE_FAULT_CONFIG)
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(path)]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"1 of 1 rows failed; first at t_h={row.sweep_value:.16e}: {row.error}")
    loaded = load_csv(str(path))
    line = cli._line(SweepRow)
    assert [line(r) for r in loaded.rows] == [line(row)]
    assert loaded.rows[0].stage == "error"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="two first-law gates, per channel in thermo and per reservoir in "
                          "cli._energy_balance_faults, judge one state differently; ROADMAP "
                          "item 3 merges them")
def test_commands_agree_on_a_row_near_the_first_law_gates(tmp_path):
    # the filter_census temperatures and mask H1+R12+C23, whose per-reservoir
    # currents cancel (Q_C ~ -Q_R): scan --mode all and steady report a
    # normal row, and a one-point sweep of the same row must agree
    from qfridge import FilterConfig

    text = (CONFIGS / "filter_census.ini").read_text() + "\n[filter]\nh = 1\nr = 1,2\nc = 2,3\n"
    config = parse_config(text)
    mask = FilterConfig(frozenset({1}), frozenset({1, 2}), frozenset({2, 3}))
    assert config.filter == mask
    (scanned,) = [r for r in scan_filters(config, mode="all").rows if r.filter == mask]
    assert not scanned.error
    steady = run_steady(config)
    assert "stage = " in steady
    t_h = config.reservoirs.hot.temperature
    (row,) = sweep_th(parse_config(with_sweep(text, t_h, t_h + 1.0, 1))).rows
    assert not row.failed, row.error
    assert row.qdot_C == scanned.qdot_C and f"stage = {row.stage}" in steady


def test_negative_sweep_temperature_is_a_config_error(capsys, tmp_path):
    text = NATURAL_CONFIG + "\n[sweep]\nvariable = t_h\nstart = -1\nstop = 5\npoints = 4\n"
    with pytest.raises(ConfigError, match=r"^sweep\.start: temperature must be >= 0"):
        parse_config(text)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: sweep.start: ")


@pytest.mark.parametrize("command", ["sweep", "validate", "scan"])
def test_sweep_temperature_that_overflows_is_a_config_error(capsys, tmp_path, command):
    # 1e307 K is a finite number in the file but inf in natural units, which
    # used to reach mean_photon_number and end in a ValueError traceback
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(FIG_CONFIG.replace("stop_kelvin = 120", "stop_kelvin = 1e307"))
    out = ["--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    assert main([command, "--config", str(cfg), *out]) == 2
    assert capsys.readouterr().err == \
        "error: sweep.stop: temperature must be >= 0 and finite, got inf\n"
    assert not (tmp_path / "s.csv").exists()
    with pytest.raises(ConfigError, match=r"^sweep\.start: temperature must be >= 0 and finite"):
        SweepSpec("t_h", -math.inf, 5.0, 4)


@pytest.mark.parametrize("old, new, unknown", [
    ("[filter]\nh = 2", "[filter]\nhot = 2", "filter.hot"),
    ("[background]", "[backgrounds]", "[backgrounds]"),
], ids=["key", "section"])
def test_misspelt_config_entries_are_config_errors(capsys, tmp_path, old, new, unknown):
    # a misspelt key or section is an error, not a silent default
    text = NATURAL_CONFIG.replace(old, new)
    with pytest.raises(ConfigError, match=rf"^<string>: unknown section or key: {re.escape(unknown)}$"):
        parse_config(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown section or key: {unknown}\n"


@pytest.mark.parametrize("mode, extra, unread", [
    ("vacuum", "t0 = 5", "background.t0"),
    ("vacuum", "t0_kelvin = 12", "background.t0_kelvin"),  # and no unit scale
    ("none", "", "background.gamma"),
    ("none", "t0 = 5", "background.t0, background.gamma"),
], ids=["vacuum_t0", "vacuum_t0_kelvin", "none_gamma", "none_t0_gamma"])
def test_background_keys_the_mode_does_not_read_are_config_errors(capsys, tmp_path, mode,
                                                                  extra, unread):
    # a [background] key that the mode ignores is an error, not a silent no-op
    text = NATURAL_CONFIG.replace("mode = vacuum", f"mode = {mode}\n{extra}")
    message = f"background.mode = {mode} does not read {unread}"
    with pytest.raises(ConfigError, match=rf"^<string>: {re.escape(message)}$"):
        parse_config(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    # the keys a mode reads are accepted
    parse_config(NATURAL_CONFIG.replace("mode = vacuum\ngamma = 0.05", "mode = none"))
    parse_config(NATURAL_CONFIG.replace("mode = vacuum", "mode = thermal\nt0 = 5"))


# ---------------------------------------------------------------------------
# The stacked sweep against one-point solves
# ---------------------------------------------------------------------------


def with_sweep(text: str, start: float, stop: float, points: int) -> str:
    return text + (f"\n[sweep]\nvariable = t_h\nstart = {start!r}\nstop = {stop!r}\n"
                   f"points = {points}\n")


def cold_edge_config(t_c: float) -> str:
    """REVIVAL mask with T_R = 4 T_C, where rates span tens of decades."""
    return with_sweep(
        "[system]\nomega_c = 1.0\nomega_h = 3.0\ng = 0.25\ngamma = 0.05\n"
        f"[reservoirs]\nt_h = 0.5\nt_r = {4.0 * t_c!r}\nt_c = {t_c!r}\n"
        "[filter]\nh = 3\nr = 2\nc = 1\n", 0.5, 12.0, 25)


def solve_alone(config: ScenarioConfig):
    """The steady states of a scenario and one report per state, by the
    one-row library calls: a generator, ``steady_states_numeric`` and
    ``build_report``."""
    from qfridge import build_report, steady_states_numeric

    gen = _generator(config)
    states = steady_states_numeric(gen)
    return states, [build_report(gen, s) for s in states]


def reporting(reports):
    """The report used for single-row outputs, as ``max`` picks it: the
    unique state's, or the first of those with the largest cold-current
    magnitude.  The grid read-out chooses the same state by array
    operations (``Readout.reporting``)."""
    if len(reports) == 1:
        return reports[0]
    return max(reports, key=lambda r: abs(r.engineered["C"]))


def row_from_report(value: float, report):
    """The sweep row of one report, cell by cell: what the grid read-out
    must give."""
    from qfridge.cli import SweepRow

    engineered, background, eta = report.engineered, report.background, report.efficiency
    return SweepRow(sweep_value=value, qdot_C=engineered["C"], qdot_H=engineered["H"],
                    qdot_R=engineered["R"], qdot_B_C=background["C"],
                    qdot_B_H=background["H"], qdot_B_R=background["R"],
                    eta=math.nan if eta is None else eta, sigma=report.sigma,
                    stage=str(report.stage))


def scan_row(filt, outcome, cooling_tol: float):
    """The scan row of one mask solved alone, cell by cell: what the grid
    read-out must give."""
    from qfridge import cli
    from qfridge.cli import ScanRow

    matched = cli.cycle_match_check(filt)[0] == "matched"
    if isinstance(outcome, Exception):
        return cli._failed_rows(ScanRow)(outcome, filter=filt, cooling=False,
                                         cycle_matched=matched, n_states=0)
    states, reports = outcome
    report = reporting(reports)
    engineered, eta = report.engineered, report.efficiency
    return ScanRow(filter=filt, qdot_C=engineered["C"], qdot_H=engineered["H"],
                   qdot_R=engineered["R"], eta=math.nan if eta is None else eta,
                   cooling=engineered["C"] > cooling_tol, cycle_matched=matched,
                   n_states=len(states))


def currents_of(row) -> np.ndarray:
    """The six currents of a sweep row as the one column ``(6, 1)`` that
    ``cli._energy_balance_faults`` reads."""
    return np.array([[row.qdot_C], [row.qdot_H], [row.qdot_R],
                     [row.qdot_B_C], [row.qdot_B_H], [row.qdot_B_R]], dtype=float)


def one_point_solves(config: ScenarioConfig):
    """Each grid point of a sweep solved alone by :func:`solve_alone` into a
    row, and each distinct warning of all points once, in first-seen order:
    what the stacked ``sweep_th`` must give, bit for bit."""
    from dataclasses import replace

    from qfridge import cli
    from qfridge.cli import SweepRow

    def solve(t_h):
        res = config.reservoirs
        point = replace(config, reservoirs=replace(res, hot=replace(res.hot, temperature=t_h)))
        try:
            _, reports = solve_alone(point)
            row = row_from_report(t_h, reporting(reports))
            for fault in cli._energy_balance_faults(currents_of(row)).values():
                raise fault
            return row
        except cli.ROW_FAILURES as exc:
            return cli._failed_rows(SweepRow)(exc, sweep_value=t_h, stage="error")

    return cli._collecting_warnings(
        lambda: [solve(t) for t in config.sweep.values.tolist()])


def assert_rows_equal(got, want):
    line = cli._line(SweepRow)
    assert [(line(r), r.error) for r in got] == [(line(r), r.error) for r in want]


def assert_sweep_matches_one_point_solves(config: ScenarioConfig) -> GridResult:
    rows, warns = one_point_solves(config)
    result = sweep_th(config)
    assert_rows_equal(result.rows, rows)
    assert result.warnings == warns
    return result


def assert_one_row_grid_matches_solve_alone(config: ScenarioConfig) -> None:
    """The one-row grid that ``steady`` solves equals :func:`solve_alone`,
    state by state and bit for bit, or fails as it does."""
    (got,) = grid_outcomes(config)
    assert_outcome_matches_solve_alone(got, config)


def grid_outcomes(config: ScenarioConfig, **grid) -> list:
    """Each row of ``cli._solve_grid(config, **grid)``: its failure, or its
    steady states and the reports of their states in the grid's read-out."""
    from qfridge import cli, eigensystem

    readout = cli._solve_grid(config, **grid)
    rows = state_sets((readout.populations, readout.row, readout.support, readout.failures),
                      eigensystem(config.params), len(grid.get("filters", [config.filter])))
    assert len(readout.reporting) == len(rows)
    return [readout.failures[k] if k in readout.failures else
            (states, [readout.report(j) for j in np.flatnonzero(readout.row == k).tolist()])
            for k, states in enumerate(rows)]


def assert_outcome_matches_solve_alone(got, config: ScenarioConfig) -> None:
    """One grid row's outcome ``got`` equals :func:`solve_alone` on
    ``config``: its states, populations and reports, each channel's current
    included, bit for bit (``repr`` tells -0.0 from 0.0), or the same
    exception type and message."""
    from qfridge import cli

    try:
        want_states, want_reports = solve_alone(config)
    except cli.ROW_FAILURES as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        return
    states, reports = got
    assert list(reports) == want_reports and repr(list(reports)) == repr(want_reports)
    assert [[(label, repr(value)) for label, value in r.per_channel.items()]
            for r in reports] == \
        [[(label, repr(value)) for label, value in r.per_channel.items()]
         for r in want_reports]
    assert len(states) == len(want_states)
    for a, b in zip(states, want_states, strict=True):
        assert a.support == b.support
        assert np.array_equal(a.populations, b.populations)
        assert np.array_equal(a.state.matrix, b.state.matrix)


def test_stacked_sweep_equals_one_point_solves_on_shipped_config():
    from dataclasses import replace

    from qfridge import cli

    result = assert_sweep_matches_one_point_solves(load_config(str(CONFIGS / "figure_sweep.ini")))
    assert len(result.rows) == 200 and not any(r.failed for r in result.rows)
    # steady on each shipped config, and every scan --mode all mask
    for name in ("figure_sweep", "vacuum_transport", "filter_census"):
        config = replace(load_config(str(CONFIGS / f"{name}.ini")), sweep=None)
        assert_one_row_grid_matches_solve_alone(config)
    census = load_config(str(CONFIGS / "filter_census.ini"))
    for filt in cli._filter_patterns("all"):
        assert_one_row_grid_matches_solve_alone(replace(census, filter=filt))


@pytest.mark.parametrize("t_c", np.geomspace(0.1, 0.01, 8).tolist())
def test_stacked_sweep_equals_one_point_solves_at_the_cold_edge(t_c):
    result = assert_sweep_matches_one_point_solves(parse_config(cold_edge_config(t_c)))
    assert len(result.rows) == 25


def test_stacked_sweep_equals_one_point_solves_with_vacuum_background():
    result = assert_sweep_matches_one_point_solves(
        parse_config(with_sweep(NATURAL_CONFIG, 0.5, 12.0, 25)))
    assert not any(r.failed for r in result.rows)


def test_stacked_sweep_equals_one_point_solves_on_degenerate_channels():
    result = assert_sweep_matches_one_point_solves(
        parse_config(with_sweep(DEGENERATE_CONFIG, 1.0, 9.0, 6)))
    assert all(r.error == "DegenerateChannelsError: coinciding channel frequencies: "
                          "H2~C2, H3~R1" for r in result.rows)


def failing_null_space_svd(block: np.ndarray, stacks: list[bool]):
    """``np.linalg.svd``, except that the null-space SVD of the class block
    ``block`` does not converge, alone or in a stack; ``stacks`` records
    for each failure whether it was a stack of more than one matrix."""
    svd = np.linalg.svd
    block = block.astype(complex)

    def failing(a, *args, **kwargs):
        if np.iscomplexobj(a) and np.shape(a)[-2:] == block.shape and any(
                np.array_equal(m, block) for m in np.reshape(a, (-1, *block.shape))):
            stacks.append(np.ndim(a) == 3 and len(a) > 1)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)
    return failing


def test_stacked_svd_failure_fails_only_its_rows(monkeypatch):
    from dataclasses import replace

    from qfridge import cli, invariant_components

    # a sweep: the one class of row 3 is all eight levels
    config = parse_config(FIG_CONFIG)
    plain = sweep_th(config)
    marked = 3
    gen = _generator(config)
    w = build_population_matrix(gen.dissipators, hot_rates(gen, config.sweep.values))
    stacks = []
    monkeypatch.setattr(np.linalg, "svd", failing_null_space_svd(w[marked], stacks))
    result = assert_sweep_matches_one_point_solves(config)
    assert True in stacks  # the stack failed once and was redone row by row
    assert [r.failed for r in result.rows] == [k == marked for k in range(8)]
    assert result.rows[marked].error == "LinAlgError: SVD did not converge"
    others = [k for k in range(8) if k != marked]
    assert_rows_equal([result.rows[k] for k in others], [plain.rows[k] for k in others])
    assert result.warnings == plain.warnings
    monkeypatch.undo()

    # a scan: mask 2 (H1+R1+C3) has closed classes of four levels, as masks
    # 4, 6 and 7 of its chunk do, so the SVD of its first such block fails
    # in a stack of blocks of several masks
    config = load_config(str(CONFIGS / "filter_census.ini"))
    plain = scan_filters(config, mode="all")
    mask = cli._filter_patterns("all")[2]
    w = build_population_matrix(_generator(replace(config, filter=mask)).dissipators)
    cls = sorted(next(c for c in invariant_components(w) if len(c) == 4))
    stacks = []
    monkeypatch.setattr(np.linalg, "svd", failing_null_space_svd(w[np.ix_(cls, cls)], stacks))
    result = assert_scan_matches_masks_solved_alone(config, "all")
    assert True in stacks
    failed = [r for r in result.rows if r.error]
    assert [r.filter for r in failed] == [mask]
    assert failed[0].error == "LinAlgError: SVD did not converge"
    assert [cli._line(type(r))(r) for r in result.rows if r.filter != mask] == \
        [cli._line(type(r))(r) for r in plain.rows if r.filter != mask]
    assert result.warnings == plain.warnings


def _generator(config: ScenarioConfig):
    from qfridge import build_generator

    return build_generator(config.params, config.filter, config.reservoirs,
                           config.background)


_MASKS = st.sets(st.sampled_from((1, 2, 3)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(omega_h=st.floats(1.2, 5.0), g=st.floats(0.02, 0.98),
       log_gamma=st.floats(-3.0, 0.0), masks=st.tuples(_MASKS, _MASKS, _MASKS),
       background=st.sampled_from(("none", "vacuum", "thermal")),
       log_temps=st.tuples(*[st.floats(-2.0, 1.5)] * 4), log_span=st.floats(-1.0, 1.0))
def test_stacked_sweep_equals_one_point_solves_property(omega_h, g, log_gamma, masks,
                                                        background, log_temps, log_span):
    t_c, t_r, t_0, start = (10.0 ** x for x in log_temps)
    kept = [",".join(map(str, sorted(m))) or "none" for m in masks]
    text = (f"[system]\nomega_c = 1.0\nomega_h = {omega_h!r}\ng = {g!r}\n"
            f"gamma = {10.0 ** log_gamma!r}\n"
            f"[reservoirs]\nt_h = {start!r}\nt_r = {t_r!r}\nt_c = {t_c!r}\n"
            f"[filter]\nh = {kept[0]}\nr = {kept[1]}\nc = {kept[2]}\n"
            f"[background]\nmode = {background}\n")
    if background != "none":
        text += f"gamma = {10.0 ** log_gamma!r}\n"
    if background == "thermal":
        text += f"t0 = {t_0!r}\n"
    config = parse_config(with_sweep(text, start, start * (1.0 + 10.0 ** log_span), 5))
    assert_sweep_matches_one_point_solves(config)


# ---------------------------------------------------------------------------
# The scan grid against masks solved alone
# ---------------------------------------------------------------------------


def masks_solved_alone(config: ScenarioConfig, mode: str):
    """Each mask of a scan solved alone by :func:`solve_alone` into a row,
    and the warnings a scan gives: each distinct warning of the masks'
    checks, in mask order, then of their solves."""
    from dataclasses import replace

    from qfridge import cli
    from qfridge.dynamics import build_generator

    patterns = cli._filter_patterns(mode)
    cooling_tol = 1e-12 * config.params.omega_c

    def check(filt):
        try:
            build_generator(config.params, filt, config.reservoirs, config.background)
        except cli.ROW_FAILURES:
            pass

    def solve(filt):
        try:
            outcome = solve_alone(replace(config, filter=filt))
        except cli.ROW_FAILURES as exc:
            outcome = exc
        return scan_row(filt, outcome, cooling_tol)

    _, checks = cli._collecting_warnings(lambda: [check(f) for f in patterns])
    rows, solves = cli._collecting_warnings(lambda: [solve(f) for f in patterns])
    return rows, tuple(dict.fromkeys(checks + solves))


def assert_scan_matches_masks_solved_alone(config: ScenarioConfig, mode: str):
    """Every row of the scan grid equals its mask solved alone, bit for bit
    (:func:`assert_outcome_matches_solve_alone`), and so do the scan's rows,
    table and warnings."""
    from dataclasses import replace

    from qfridge import cli

    patterns = cli._filter_patterns(mode)
    for filt, got in zip(patterns, grid_outcomes(config, filters=patterns), strict=True):
        assert_outcome_matches_solve_alone(got, replace(config, filter=filt))
    rows, warns = masks_solved_alone(config, mode)
    result = scan_filters(config, mode=mode)
    line = cli._line(ScanRow)
    assert sorted(map(line, result.rows)) == sorted(map(line, rows))
    assert result.warnings == warns
    return result


@pytest.mark.parametrize("mode", ["single_channel", "all"])
@pytest.mark.parametrize("name", ["figure_sweep", "vacuum_transport", "filter_census",
                                  "degenerate"])
def test_scan_rows_equal_masks_solved_alone(name, mode):
    from dataclasses import replace

    if name == "degenerate":
        config = parse_config(DEGENERATE_CONFIG)
    else:
        config = replace(load_config(str(CONFIGS / f"{name}.ini")), sweep=None)
    result = assert_scan_matches_masks_solved_alone(config, mode)
    failed = [r for r in result.rows if r.error]
    assert bool(failed) == (name == "degenerate")
    assert all(r.error.startswith("DegenerateChannelsError: ") for r in failed)


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(omega_h=st.floats(1.2, 5.0), g=st.floats(0.02, 0.98),
       log_gamma=st.floats(-3.0, 0.0),
       background=st.sampled_from(("none", "vacuum", "thermal")),
       log_temps=st.tuples(*[st.floats(-2.0, 1.5)] * 4))
def test_scan_rows_equal_masks_solved_alone_property(omega_h, g, log_gamma, background,
                                                     log_temps):
    t_h, t_r, t_c, t_0 = (10.0 ** x for x in log_temps)
    text = (f"[system]\nomega_c = 1.0\nomega_h = {omega_h!r}\ng = {g!r}\n"
            f"gamma = {10.0 ** log_gamma!r}\n"
            f"[reservoirs]\nt_h = {t_h!r}\nt_r = {t_r!r}\nt_c = {t_c!r}\n"
            f"[background]\nmode = {background}\n")
    if background != "none":
        text += f"gamma = {10.0 ** log_gamma!r}\n"
    if background == "thermal":
        text += f"t0 = {t_0!r}\n"
    assert_scan_matches_masks_solved_alone(parse_config(text), "single_channel")


def test_scan_reports_failed_masks_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "scan.ini"
    cfg.write_text(DEGENERATE_CONFIG)
    table = tmp_path / "scan.csv"
    # failed masks are data, not a failed run: the exit status stays 0
    assert main(["scan", "--config", str(cfg), "--mode", "all", "--out", str(table)]) == 0
    err = capsys.readouterr().err.splitlines()
    result = scan_filters(parse_config(DEGENERATE_CONFIG), mode="all")
    failed = [r for r in result.rows if r.error]
    assert len(failed) == 99
    assert err[-1] == (f"99 of 216 masks failed; first at {failed[0].filter}: "
                       f"{failed[0].error}")
    assert err[:-1] == [f"warning: {w}" for w in result.warnings]
    assert main(["scan", "--config", str(CONFIGS / "filter_census.ini"), "--mode", "all",
                 "--out", str(table)]) == 0
    assert not any("failed" in line for line in capsys.readouterr().err.splitlines())


def test_scan_builds_one_w_stack(monkeypatch):
    from qfridge import cli

    calls = {name: 0 for name in ("check_channel_table", "assemble_generator",
                                  "build_population_matrix", "steady_state_rows")}

    def counted(name):
        original = getattr(cli, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    result = scan_filters(load_config(str(CONFIGS / "filter_census.ini")), mode="all")
    assert len(result.rows) == 216 and not any(r.error for r in result.rows)
    # one array check of all 216 masks, one generator, one W stack and one
    # solve per scan
    assert calls == {"check_channel_table": 1, "assemble_generator": 1,
                     "build_population_matrix": 1, "steady_state_rows": 1}


def test_a_census_builds_its_spectrum_once(monkeypatch, capsys):
    # the spectrum is not memoised: a command builds it for its one generator
    from qfridge import dynamics, spectrum

    calls = {"transition_channels": 0, "build_hamiltonian": 0}
    for name in calls:
        def call(params, name=name, original=getattr(spectrum, name)):
            calls[name] += 1
            return original(params)
        monkeypatch.setattr(spectrum, name, call)
        monkeypatch.setattr(dynamics, name, call)
    assert main(["scan", "--config", str(CONFIGS / "filter_census.ini"), "--mode", "all"]) == 0
    capsys.readouterr()
    assert calls == {"transition_channels": 1, "build_hamiltonian": 1}


def test_repeated_commands_build_their_parser_and_masks_once(monkeypatch, capsys):
    # the parser, a scan mode's masks, their labels and their cycle matches
    # are built once per process; a repeated scan builds one kept-channel
    # table, the one its grid is solved on
    import argparse

    from qfridge import cli

    census = ["scan", "--config", str(CONFIGS / "filter_census.ini"), "--mode", "all"]
    assert main(census) == 0
    first = capsys.readouterr()
    masks = cli._filter_patterns("all")
    assert all(vars(m)["_label"] == str(m) for m in masks)

    def built(*args, **kwargs):
        raise AssertionError("built again")

    tables, table = [], cli.kept_channel_table
    monkeypatch.setattr(argparse, "ArgumentParser", built)
    monkeypatch.setattr(cli, "cycle_matched", built)
    monkeypatch.setattr(cli, "kept_channel_table", lambda m: tables.append(len(m)) or table(m))
    assert main(census) == 0
    assert capsys.readouterr() == first
    assert tables == [216] and cli._filter_patterns("all") is masks


OVERFLOW_STEADY = (CONFIGS / "filter_census.ini").read_text().replace(
    "gamma = 0.05", "gamma = 1e308")
OVERFLOW_SWEEP = """
[system]
omega_c = 1.0
omega_h = 3.0
g = 0.25
gamma = 1e300
[reservoirs]
t_h = 1.0
t_r = 1.2
t_c = 1.0
[filter]
h = 3
r = 2
c = 1
[sweep]
variable = t_h
start = 1
stop = 1e12
points = 5
"""
OVERFLOW = "NumericalFault: the rates overflow: W has a non-finite entry"


def test_steady_row_whose_rates_overflow_is_an_error(capsys, tmp_path):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(OVERFLOW_STEADY)
    assert main(["steady", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {OVERFLOW}\n"


def test_sweep_rows_whose_rates_overflow_fail_alone(capsys, tmp_path):
    cfg, csv_path = tmp_path / "overflow.ini", tmp_path / "overflow.csv"
    cfg.write_text(OVERFLOW_SWEEP)
    assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
    # the rates of every point above t_h = 1 overflow, and no numpy warning says so
    err = capsys.readouterr().err
    assert "encountered in multiply" not in err and "encountered in add" not in err
    assert [row.stage for row in load_csv(str(csv_path)).rows[1:]] == ["error"] * 4
    assert [row.error for row in sweep_th(load_config(str(cfg))).rows[1:]] == [OVERFLOW] * 4


#: OVERFLOW_SWEEP with colder baths: W of its t_h = 1 row is finite, with
#: entries up to about 3e300, and the rates of the other four rows overflow
REVIVAL_OVERFLOW_SWEEP = OVERFLOW_SWEEP.replace("t_r = 1.2\nt_c = 1.0", "t_r = 0.4\nt_c = 0.1")


def test_sweep_row_with_a_finite_w_near_overflow_solves(capsys, tmp_path):
    # the residual is taken on W over its largest entry, so no product
    # overflows and the t_h = 1 row solves: 1e300 times that row at gamma = 1
    rows, errs = {}, {}
    for gamma in ("1e300", "1"):
        cfg, csv_path = tmp_path / f"g{gamma}.ini", tmp_path / f"g{gamma}.csv"
        cfg.write_text(REVIVAL_OVERFLOW_SWEEP.replace("gamma = 1e300", f"gamma = {gamma}"))
        assert main(["sweep", "--config", str(cfg), "--out", str(csv_path)]) == 0
        rows[gamma], errs[gamma] = load_csv(str(csv_path)).rows[0], capsys.readouterr().err
    big, one = rows["1e300"], rows["1"]
    assert "overflow encountered" not in errs["1e300"]
    assert errs["1e300"].splitlines()[-1] == (
        f"4 of 5 rows failed; first at t_h=2.5000000000075000e+11: {OVERFLOW}")
    assert not big.failed and big.stage == one.stage
    for name in ("qdot_C", "qdot_H", "qdot_R", "sigma"):
        assert getattr(big, name) == pytest.approx(1e300 * getattr(one, name), rel=1e-9)
    assert big.eta == pytest.approx(one.eta, rel=1e-9)


def test_validate_reports_rows_whose_rates_overflow(capsys, tmp_path):
    # validate builds the grid's W as the solve does, so it sees the overflow
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(REVIVAL_OVERFLOW_SWEEP)
    assert main(["validate", "--config", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["error: the rates overflow on 4 of 5 rows; first at "
                        "t_h=2.5000000000075000e+11", "result = invalid"]
    cfg.write_text(OVERFLOW_STEADY)
    assert main(["validate", "--config", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["error: the rates overflow on 1 of 1 rows; first at "
                        "t_h=5.0000000000000000e+01", "result = invalid"]


#: omega_c / T_C underflows to 0.0: C1 = omega_c - g = 1.1e-16 against
#: T_C = 1e308, so the kept C1 channel's occupation overflows to inf
UNDERFLOW_STEADY = """\
[system]
omega_c = 1.0
omega_h = 3.0
g = 0.9999999999999999
gamma = 0.05

[reservoirs]
t_h = 4.0
t_r = 4.0
t_c = 1e308

[filter]
h = 2
r = 2
c = 1
"""


def detailed_balance(w: np.ndarray, levels: list[int]) -> list[float]:
    """The populations of the closed class ``levels`` of the rate matrix
    ``w`` (``w[to, frm]``) that balance the flow on each edge of a spanning
    tree grown from its first level: ``p_b / p_a = w[b, a] / w[a, b]``."""
    p, todo = {levels[0]: 1.0}, [levels[0]]
    while todo:
        a = todo.pop()
        for b in levels:
            if b not in p and w[b, a] > 0.0:
                p[b] = p[a] * w[b, a] / w[a, b]
                todo.append(b)
    total = math.fsum(p.values())
    return [p[i] / total for i in levels]


def test_occupation_that_overflows_is_a_failed_row_not_a_traceback(capsys, tmp_path,
                                                                   monkeypatch):
    # the occupation 1 / expm1(0.0) used to raise ZeroDivisionError, and the
    # masks that filter C1 out would then carry 0 * inf = NaN rates.  Five C3
    # masks keep a finite W: T_C = 1e308 rounds C3's two rates to one float,
    # every C3 edge spans the same gap, and H and R share T = 4, so each
    # class obeys detailed balance on every edge.  Its closed form is the
    # product of rate ratios along a spanning tree, and no current flows
    from qfridge import cli

    cfg = tmp_path / "underflow.ini"
    cfg.write_text(UNDERFLOW_STEADY)
    assert main(["steady", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {OVERFLOW}\n"
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "error: the rates overflow on 1 of 1 rows; first at t_h=4.0000000000000000e+00",
        "result = invalid"]
    grids, grid_rates, solve_grid = [], cli._grid_rates, cli._solve_grid
    monkeypatch.setattr(cli, "_grid_rates", lambda *args: grids.append(grid_rates(*args))
                        or grids[-1])
    monkeypatch.setattr(cli, "_solve_grid", lambda *args, **kwargs: grids.append(
        solve_grid(*args, **kwargs)) or grids[-1])
    rows = scan_filters(load_config(str(cfg))).rows
    monkeypatch.undo()
    overflowed = [str(row.filter) for row in rows if row.error == OVERFLOW]
    assert overflowed and all("C1" in label for label in overflowed)
    solved = [row for row in rows if not row.error]
    assert sorted(str(row.filter) for row in solved) == [
        "H1+R2+C3", "H1+R3+C3", "H2+R2+C3", "H2+R3+C3", "H3+R1+C3"]
    for row in solved:  # the terms of H and R are O(0.1), those of C O(1e306)
        assert row.qdot_C == 0.0 and abs(row.qdot_H) < 1e-15 and abs(row.qdot_R) < 1e-15
    (_, _, w, _), readout = grids
    passed = [j for j, k in enumerate(readout.row.tolist()) if k not in readout.failures]
    assert len(set(readout.row[passed].tolist())) == len(solved)
    eps = np.finfo(float).eps
    for j in passed:
        k, code = readout.row[j].item(), readout.support[j].item()
        levels = [i for i in range(8) if code >> i & 1]
        want = detailed_balance(w[k], levels)
        assert readout.populations[j][levels] == pytest.approx(want, rel=16 * eps, abs=0.0)
        for a, pa in zip(levels, want):  # every edge balances, off the tree too
            for b, pb in zip(levels, want):
                assert pa * w[k][b, a] == pytest.approx(pb * w[k][a, b], rel=16 * eps, abs=0.0)
    assert main(["scan", "--config", str(cfg)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("22 of 27 masks failed; first at H1+R1+C1: ")
    assert not any("Traceback" in line or "encountered" in line for line in err)


CENSUS = (CONFIGS / "filter_census.ini").read_text()


@pytest.mark.parametrize("text, line", [
    (CENSUS + "[filter]\nh = 1\nr = 2\nc = 3\n",
     "cooling_predicate = n/a (filter H1+R2+C3 does not split into two 3-level cycles)"),
    (CENSUS.replace("t_r = 1.2", "t_r = 0.5") + "[filter]\nh = 3\nr = 2\nc = 1\n",
     "cooling_predicate = n/a (T_R=0.5 <= T_C=1.0 makes the cooling threshold singular)"),
], ids=["six_level_cycle", "t_r_below_t_c"])
def test_validate_gives_no_cooling_verdict_it_cannot_back(capsys, tmp_path, text, line):
    # H1+R2+C3 is cycle-matched, yet its channels join one six-level cycle
    # that cannot cool; at T_R <= T_C the threshold is singular
    cfg = tmp_path / "matched.ini"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert line in out and out[-1] == "result = ok"


INPUT_SWEEP = "\n[sweep]\nvariable = t_h\nstart = 1\nstop = 5\npoints = 3\n"


@pytest.mark.parametrize("command, text, err", [
    ("sweep", NATURAL_CONFIG + INPUT_SWEEP.replace("= t_h", "= t_c"),
     "error: sweep.variable: only t_h is supported, got 't_c'\n"),
    ("sweep", NATURAL_CONFIG + INPUT_SWEEP.replace("points = 3", "points = 0"),
     "error: sweep.points must be >= 1, got 0\n"),
    ("sweep", NATURAL_CONFIG + INPUT_SWEEP.replace("points = 3", "points = 2.5"),
     "error: sweep.points: expected integer, got '2.5'\n"),
    ("steady", NATURAL_CONFIG.replace("h = 2", "h = x"),
     "error: filter.h: expected channel indices, got 'x'\n"),
    ("steady", NATURAL_CONFIG.replace("h = 2", "h = all"), ""),
    ("steady", "omega_c = 1\nomega_h = 3\n",
     "error: {cfg}: line 1: no [section] header before 'omega_c = 1'\n"),
    ("steady", "[system]\nbogus line\n",
     "error: {cfg}: line 2: expected key = value, got 'bogus line'\n"),
    ("steady", "[system]\nomega_c = 1\nomega_c = 2\n",
     "error: {cfg}: line 3: duplicate key system.omega_c\n"),
    ("steady", "[system]\nomega_c = 1\n[system]\nomega_h = 3\n",
     "error: {cfg}: line 3: duplicate section [system]\n"),
    # read literally, a `%` is no interpolation syntax but a bad number
    ("steady", NATURAL_CONFIG.replace("omega_c = 1.0", "omega_c = 1%"),
     "error: system.omega_c: cannot parse number '1%' "
     "(could not convert string to float: '1%')\n"),
    ("steady", NATURAL_CONFIG.replace("omega_h = 3.0\n", ""),
     "error: {cfg}: missing system.omega_h\n"),
    ("steady", NATURAL_CONFIG.replace("t_c = 1.0\n", ""),
     "error: {cfg}: missing reservoirs.t_c\n"),
    ("steady", NATURAL_CONFIG.replace("g = 0.25", "g = 2"),
     "error: system: need 0 < g < omega_c (all channel frequencies positive), "
     "got g=2.0, omega_c=1.0\n"),
    ("steady", NATURAL_CONFIG.replace("omega_c = 1.0", "omega_c_ghz = 210").replace(
        "t_h = 6.0", "t_h = 6.0\nt_h_kelvin = 10"),
     "error: reservoirs: give t_h or t_h_kelvin, not both\n"),
    ("steady", NATURAL_CONFIG.replace("[reservoirs]\nt_h = 6.0\nt_r = 4.0\nt_c = 1.0\n", ""),
     "error: {cfg}: missing [reservoirs] section\n"),
    ("steady", NATURAL_CONFIG.replace("t_c = 1.0", "t_c = -1"),
     "error: reservoirs: temperature must be >= 0, got -1.0\n"),
    ("steady", NATURAL_CONFIG.replace("mode = vacuum", "mode = warm"),
     "error: background.mode: unknown mode 'warm'\n"),
    ("steady", NATURAL_CONFIG.replace("mode = vacuum", "mode = thermal\nt0 = 0"),
     "error: background: thermal background requires temperature > 0\n"),
    ("sweep", NATURAL_CONFIG + INPUT_SWEEP, "error: sweep requires --out for the CSV file\n"),
], ids=["sweep_variable", "points_0", "points_fraction", "filter_word", "filter_all",
        "no_section_headers", "not_key_value", "duplicate_key", "duplicate_section",
        "percent_value", "no_omega_h", "no_t_c", "g_above_omega_c",
        "t_h_twice", "no_reservoirs", "negative_t_c", "background_mode", "thermal_t0_zero",
        "sweep_no_out"])
def test_input_errors_exit_2_with_their_message(capsys, tmp_path, command, text, err):
    cfg = tmp_path / "input.ini"
    cfg.write_text(text)
    out = ["--out", str(tmp_path / "out.txt")] if command == "steady" else []
    assert main([command, "--config", str(cfg), *out]) == (2 if err else 0)
    assert capsys.readouterr().err == err.format(cfg=cfg)


def test_load_csv_rejects_a_wrong_column_header(tmp_path):
    path = tmp_path / "wrong.csv"
    path.write_text("# system.omega_c = 1.0\nsweep_value,qdot_C\n1.0,2.0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: missing or wrong "
                                          "column header$"):
        load_csv(str(path))


def test_scan_takes_currents_only_where_a_row_couples(monkeypatch):
    # a scan's generator couples each of the nine channels on every
    # mask's row, at rates 0 and 0 where the mask filters it out; no such
    # pair reaches the trace-form kernel, which is called once per
    # dissipator that some row keeps
    from qfridge import thermo

    calls = []
    apply = thermo._channel_action

    def counted(channel, j_plus, j_minus, rho):
        assert np.all(j_minus != 0.0) and len(j_plus) == len(j_minus) == len(rho)
        calls.append((channel.key, len(rho)))
        return apply(channel, j_plus, j_minus, rho)

    monkeypatch.setattr(thermo, "_channel_action", counted)
    result = scan_filters(load_config(str(CONFIGS / "filter_census.ini")), mode="all")
    assert len(result.rows) == 216 and not any(r.error for r in result.rows)
    # each state of a mask pairs with the channels the mask keeps, once
    table = kept_channel_table([r.filter for r in result.rows])
    kept = sum(r.n_states * n for r, n in zip(result.rows, table.sum(axis=1).tolist()))
    assert sum(n for _, n in calls) == kept < 9 * sum(r.n_states for r in result.rows)
    keys = [key for key, _ in calls]
    assert sorted(keys) == sorted(CHANNEL_KEYS[i] for i in np.flatnonzero(table.any(axis=0)))


def test_one_mask_sweep_stacks_rates_of_kept_channels_only(monkeypatch):
    # the shipped sweep keeps three of the nine channels on every row; the
    # grid's rate tables evaluate occupations for those three alone, once
    # per distinct temperature of their bath, and give the six that no row
    # keeps rates of exactly 0 and 0
    from qfridge import cli, dynamics
    from qfridge.spectrum import transition_channels

    calls = []
    occupation = dynamics.mean_photon_number

    def counted(omega, temperature):
        calls.append((omega, temperature))
        return occupation(omega, temperature)

    grids, grid_rates = [], cli._grid_rates
    monkeypatch.setattr(dynamics, "mean_photon_number", counted)
    monkeypatch.setattr(cli, "_grid_rates", lambda *args: grids.append(grid_rates(*args))
                        or grids[-1])
    config = load_config(str(CONFIGS / "figure_sweep.ini"))
    result = sweep_th(config)
    assert not any(r.failed for r in result.rows)
    t_h = config.sweep.values.tolist()
    assert len(set(t_h)) == len(t_h) == 200
    res = config.reservoirs
    frequency = {ch.key: ch.frequency for ch in transition_channels(config.params)}
    want = [(frequency[q, j], t) for q in "HRC" for j in config.filter.kept_for(q)
            for t in (t_h if q == "H" else [res[q].temperature])]
    assert sorted(calls) == sorted(want) and len(calls) == 202
    ((gen, (j_plus, j_minus), _, _),) = grids
    dropped = [k for k, d in enumerate(gen.dissipators) if d.source == "engineered"
               and d.channel.index not in config.filter.kept_for(d.channel.qubit)]
    assert len(dropped) == 6
    assert not j_plus[:, dropped].any() and not j_minus[:, dropped].any()


@pytest.mark.parametrize("background", ["none", "vacuum"])
def test_grid_reports_equal_build_report_on_cold_edge_grids(background):
    # the eight cold_edge sweeps, where rates span tens of decades and most
    # rows fail the first law, and with a vacuum background through the
    # (H2, R1, C3) mask, which conducts heat into it (sigma = inf): each
    # row's reports, or its fault, equal build_report on its states alone,
    # with the hot bath of that row
    from dataclasses import replace

    from qfridge import build_report
    from qfridge.dynamics import grid_rates, steady_state_rows
    from qfridge.thermo import NumericalFault, build_reports

    seen = {"fault": 0, "report": 0, "dead band": 0, "infinite sigma": 0}
    for t_c in np.geomspace(0.1, 0.01, 8).tolist():
        text = cold_edge_config(t_c)
        if background == "vacuum":
            text = text.replace("h = 3\nr = 2\nc = 1", "h = 2\nr = 1\nc = 3")
            text += "[background]\nmode = vacuum\ngamma = 0.05\n"
        config = parse_config(text)
        gen, t_h = _generator(config), config.sweep.values.tolist()
        baths = hot_baths(gen, t_h)
        rates = grid_rates(gen, kept_channel_table([config.filter] * len(t_h)), baths)
        rows = state_sets(steady_state_rows(build_population_matrix(gen.dissipators, rates)),
                          gen.eigen, len(t_h))
        readout = build_reports(gen, rates, states_table(rows), baths)
        for k, (t, states) in enumerate(zip(t_h, rows, strict=True)):
            if isinstance(states, Exception):
                assert readout.failures[k] is states
                continue
            got = readout.failures.get(k) or [
                readout.report(j) for j in np.flatnonzero(readout.row == k).tolist()]
            res = config.reservoirs
            one = _generator(replace(config, reservoirs=replace(
                res, hot=replace(res.hot, temperature=t))))
            try:
                want = [build_report(one, s) for s in states]
            except NumericalFault as exc:
                assert type(got) is NumericalFault and str(got) == str(exc)
                seen["fault"] += 1
                continue
            assert list(got) == want and repr(list(got)) == repr(want)
            assert [list(r.per_channel.items()) for r in got] == \
                [list(r.per_channel.items()) for r in want]
            seen["report"] += len(got)
            # efficiency undefined on a nonzero Q_H within the dead band
            seen["dead band"] += sum(r.efficiency is None and r.engineered["H"] != 0.0
                                     for r in got)
            seen["infinite sigma"] += sum(r.sigma == math.inf for r in got)
    assert seen["report"] and seen["dead band"]
    if background == "none":
        assert seen["fault"] and not seen["infinite sigma"]
    else:
        assert seen["infinite sigma"]


def assert_readout_matches_complex_oracle(monkeypatch, solve):
    """Run ``solve``, a CLI grid solve; each real current of its read-out
    (faulting states included) is within 8 eps of its state's summed
    channel current magnitudes of the trace-form kernel on the complex
    density matrix of the state, whose imaginary parts stay within
    ``IMAG_FAULT_TOL``."""
    from qfridge import cli
    from qfridge.dynamics import _channel_action
    from qfridge.thermo import IMAG_FAULT_TOL

    seen = {}
    build = cli.build_reports

    def reports(gen, rates, table, baths):
        seen.update(gen=gen, rates=rates, table=table)
        seen["readout"] = build(gen, rates, table, baths)
        return seen["readout"]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_reports", reports)
        solve()
    gen, (j_plus, j_minus), (populations, at, _, _) = seen["gen"], seen["rates"], seen["table"]
    rho = gen.eigen.diagonal_state(np.array(populations, dtype=complex))
    want = np.array([np.trace(gen.hamiltonian @ _channel_action(
        d.channel, j_plus[at, k], j_minus[at, k], rho), axis1=-2, axis2=-1)
        for k, d in enumerate(gen.dissipators)])
    assert (np.abs(want.imag) <= IMAG_FAULT_TOL).all()
    want = want.real
    got = seen["readout"].currents
    assert got.dtype == np.float64 and got.shape == want.shape
    bound = 8.0 * np.finfo(float).eps * np.abs(got).sum(axis=0)
    assert (np.abs(got - want) <= bound).all()


def test_real_readout_matches_complex_oracle(monkeypatch):
    # the figure_sweep grid, the census_all grid and the eight cold_edge grids
    config = load_config(str(CONFIGS / "figure_sweep.ini"))
    assert_readout_matches_complex_oracle(monkeypatch, lambda: sweep_th(config))
    config = load_config(str(CONFIGS / "filter_census.ini"))
    assert_readout_matches_complex_oracle(monkeypatch, lambda: scan_filters(config, mode="all"))
    for t_c in np.geomspace(0.1, 0.01, 8).tolist():
        config = parse_config(cold_edge_config(t_c))
        assert_readout_matches_complex_oracle(monkeypatch, lambda: sweep_th(config))


def test_no_heat_flow_gives_positive_zero_entropy_production(tmp_path):
    # every channel filtered: no current flows, and sigma is +0.0, not -0.0
    from qfridge import entropy_production

    text = NATURAL_CONFIG.replace("h = 2\nr = 1\nc = 3", "h = none\nr = none\nc = none")
    sigmas = re.findall(r"sigma = (\S+)", run_steady(parse_config(text)))
    assert sigmas and set(sigmas) == {"0.0000000000000000e+00"}
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(with_sweep(text.replace("[background]\nmode = vacuum\ngamma = 0.05\n", ""),
                              0.0, 5.0, 6))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    rows = load_csv(str(tmp_path / "s.csv")).rows
    assert len(rows) == 6 and not any(r.failed for r in rows)
    assert all(math.copysign(1.0, r.sigma) == 1.0 for r in rows)
    zero = {"H": 0.0, "R": 0.0, "C": 0.0}
    sigma = entropy_production(zero, {"H": 2.0, "R": 1.5, "C": 1.0}, background=zero,
                               background_temperature=0.0)
    assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0


# ---------------------------------------------------------------------------
# Table lines, the first-law gates and the reporting state, against
# per-cell and per-report references
# ---------------------------------------------------------------------------


def fmt_reference(x) -> str:
    """A float cell, case by case."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.16e}"


def cells_reference(row) -> str:
    """A table line, cell by cell through :func:`fmt_reference`."""
    from dataclasses import fields

    cells = ((getattr(row, f.name), f.type) for f in fields(row)
             if f.metadata.get("column", True))
    return ",".join(fmt_reference(v) if t == "float" else str(v).lower() if t == "bool"
                    else str(v).replace(",", ";") for v, t in cells)


_CELL_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-2**53, 2**53))
_KEPT = st.frozensets(st.sampled_from((1, 2, 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_CELL_FLOATS, min_size=9, max_size=9), text=st.text(),
       flags=st.tuples(st.booleans(), st.booleans()), n_states=st.integers(),
       kept=st.tuples(_KEPT, _KEPT, _KEPT))
def test_table_lines_equal_cell_by_cell_formatting(values, text, flags, n_states, kept):
    from qfridge import FilterConfig, cli
    from qfridge.cli import ScanRow, SweepRow

    rows = [SweepRow(*values, stage=text, error=text),
            ScanRow(FilterConfig(*kept), *values[:4], *flags, n_states, error=text)]
    for row in rows:
        assert cli._line(type(row))(row) == cells_reference(row)
    config = parse_config(NATURAL_CONFIG)
    assert format_scan_table(config, [rows[1]]) == \
        format_scan_table(config, []) + cells_reference(rows[1]) + "\n"


def balance_reference(currents) -> bool:
    """Whether the CSV's energy balance passes six currents, by Python sums:
    within 1e-10 of their magnitude where that exceeds 1e-12, and finite."""
    total, scale = sum(currents), sum(map(abs, currents))
    return scale <= 1e-12 or (math.isfinite(total) and abs(total) <= 1e-10 * scale)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(currents=st.lists(st.lists(
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf, 0.0])),
    min_size=6, max_size=6), min_size=1, max_size=6), cancel=st.booleans())
def test_energy_balance_faults_equal_python_sums(currents, cancel):
    # a balanced column: its last current cancels the others' sum
    from qfridge import cli

    if cancel:
        currents[0][5] = -sum(currents[0][:5])
    faults = cli._energy_balance_faults(np.array(currents, dtype=float).T)
    assert sorted(faults) == [i for i, c in enumerate(currents) if not balance_reference(c)]
    for i, fault in faults.items():
        total, scale = sum(currents[i]), sum(map(abs, currents[i]))
        assert str(fault) == (f"first-law violation: the six currents sum to {total:.3e} "
                              f"against magnitude {scale:.3e}")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_currents_fail_both_first_law_gates(monkeypatch, bad):
    # a kernel that returns a non-finite current on the state of row 3 fails
    # that row alone, with the per-channel gate's NumericalFault; the CSV's
    # per-reservoir gate fails such a row too
    from dataclasses import replace

    from qfridge import cli, thermo

    config = parse_config(FIG_CONFIG)
    plain = sweep_th(config)
    trace = thermo._trace

    def faulty(hamiltonian, action):
        values = trace(hamiltonian, action)
        values[..., 3] = bad
        return values

    monkeypatch.setattr(thermo, "_trace", faulty)
    result = sweep_th(config)
    assert [r.failed for r in result.rows] == [k == 3 for k in range(8)]
    assert re.fullmatch(r"NumericalFault: first-law violation: currents sum to \S+ against "
                        r"magnitude \S+", result.rows[3].error)
    line = cli._line(SweepRow)
    assert [line(r) for k, r in enumerate(result.rows) if k != 3] == \
        [line(r) for k, r in enumerate(plain.rows) if k != 3]
    row = replace(plain.rows[3], qdot_B_R=bad)
    (fault,) = cli._energy_balance_faults(currents_of(row)).values()
    assert str(fault).startswith("first-law violation: the six currents")


_Q = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(groups=st.lists(st.lists(_Q, min_size=1, max_size=4), min_size=1, max_size=6))
def test_reporting_state_of_the_readout_equals_max_over_reports(groups):
    # ties, NaN first or later, and +-0.0: the array choice picks the state
    # that max over the reports by |Q_C| picks
    from types import SimpleNamespace

    from qfridge.thermo import _reporting_states

    q = np.array([x for g in groups for x in g])
    got = _reporting_states(q, np.array([len(g) for g in groups])).tolist()
    first = 0
    for g, j in zip(groups, got, strict=True):
        reports = [SimpleNamespace(engineered={"C": x}) for x in g]
        assert reports[j - first] is reporting(reports)
        first += len(g)


def test_rows_of_each_command_share_one_readout(monkeypatch):
    # the figure_sweep sweep, the census_all scan and a steady run each solve
    # one grid with one Readout, which knows its rows: each state's row, and
    # of each row that did not fail a state on that row to report
    from qfridge import cli

    solve, grids = cli._solve_grid, []

    def recorded(*args, **kwargs):
        grids.append(solve(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(cli, "_solve_grid", recorded)
    census = load_config(str(CONFIGS / "filter_census.ini"))
    sweep_th(load_config(str(CONFIGS / "figure_sweep.ini")))
    scan_filters(census, mode="all")
    run_steady(parse_config(NATURAL_CONFIG))
    assert [len(readout.reporting) for readout in grids] == [200, 216, 1]
    for readout in grids:
        n = len(readout.reporting)
        assert not readout.failures
        # the states' table, in row order, holds at least one state of every row
        assert readout.populations.shape == (len(readout.row), 8)
        assert readout.support.shape == readout.row.shape
        assert readout.row.tolist() == sorted(readout.row.tolist())
        assert np.bincount(readout.row, minlength=n).all()
        assert (readout.row[readout.reporting] == np.arange(n)).all()


def test_sweep_and_scan_make_no_report_objects(monkeypatch):
    # the rows read their cells from the read-out arrays; a report is made
    # only when a row's reports are indexed, as steady does once per state
    from qfridge import thermo

    made = []

    class Counted(thermo.HeatCurrentReport):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(thermo, "HeatCurrentReport", Counted)
    sweep = sweep_th(load_config(str(CONFIGS / "figure_sweep.ini"))).rows
    census = load_config(str(CONFIGS / "filter_census.ini"))
    scan = scan_filters(census, mode="all").rows
    # every row reads its cells: none failed
    assert len(sweep) == 200 and not any(r.failed for r in sweep)
    assert len(scan) == 216 and not any(r.error for r in scan)
    assert made == []
    assert "[state 0] stage = " in run_steady(parse_config(NATURAL_CONFIG))
    assert len(made) == 1
