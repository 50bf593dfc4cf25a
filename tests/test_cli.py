import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfridge.cli import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
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
from qfridge.dynamics import build_population_matrix, stacked_dissipators
from qfridge.reservoirs import COOLING_FILTERS

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


def test_zero_temperature_bath_gives_infinite_sigma(capsys, tmp_path):
    # no background: the infinite sigma comes from the engineered bath at T = 0
    text = NATURAL_CONFIG.replace("mode = vacuum", "mode = none")
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
    assert len(result.rows) == 8
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


def test_emit_csv_header_only_for_empty_sweep(tmp_path):
    config = parse_config(FIG_CONFIG)
    path = tmp_path / "empty.csv"
    emit_csv(SweepResult(config=config, rows=(), warnings=()), str(path))
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

    builds = []
    build, reports = cli.build_generator, cli.build_reports

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def warn_by_row(gen, dissipators, rows, temperatures):
        temperatures = list(temperatures)
        for temps in temperatures:
            side = "above" if temps["H"] > 10.0 else "below"
            warnings.warn(f"T_H {side} 10", RuntimeWarning)
        return reports(gen, dissipators, rows, temperatures)

    monkeypatch.setattr(cli, "build_generator", counted_build)
    monkeypatch.setattr(cli, "build_reports", warn_by_row)
    result = sweep_th(parse_config(FIG_CONFIG))
    assert len(builds) == 1 and len(result.rows) == 8  # one generator per sweep
    # the Markov warning comes from the build, the others from the rows;
    # "above" is raised only by later rows
    assert len(result.warnings) == 3
    assert "Markov" in result.warnings[0]
    assert result.warnings[1:] == ("T_H below 10", "T_H above 10")

    cfg = tmp_path / "sweep.ini"
    cfg.write_text(FIG_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {w}" for w in result.warnings]


def _fail_rows(exc):
    """A stand-in for ``steady_state_rows`` that fails every row with
    ``exc`` if it is a row failure, and raises it otherwise."""
    from qfridge.cli import ROW_FAILURES

    def solve(w, eigen):
        if isinstance(exc, ROW_FAILURES):
            return [exc] * len(w)
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

    def fail_when_hot(gen, dissipators, rows, temperatures):
        temperatures = list(temperatures)
        return [SolverFailure(f"too hot at {temps['H']:.4f}") if temps["H"] > 10.0
                else outcome
                for outcome, temps in zip(reports(gen, dissipators, rows, temperatures),
                                          temperatures)]

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
    assert [r.as_csv() for r in loaded.rows] == [r.as_csv() for r in result.rows]
    assert all(not r.error for r in loaded.rows)


def _warn_for_filter(monkeypatch, filt, message):
    import warnings

    from qfridge import cli

    build = cli.build_generator

    def warn_once(params, kept, *rest):
        gen = build(params, kept, *rest)
        if kept == filt:
            warnings.warn(message, RuntimeWarning)
        return gen

    monkeypatch.setattr(cli, "build_generator", warn_once)


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
    assert [r.as_csv() for r in loaded.rows] == [row.as_csv()]
    assert loaded.rows[0].stage == "error"


def test_negative_sweep_temperature_is_a_config_error(capsys, tmp_path):
    text = NATURAL_CONFIG + "\n[sweep]\nvariable = t_h\nstart = -1\nstop = 5\npoints = 4\n"
    with pytest.raises(ConfigError, match=r"^sweep\.start: temperature must be >= 0"):
        parse_config(text)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: sweep.start: ")


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
            row = cli._row_from_report(t_h, cli._reporting(reports))
            cli._check_energy_balance(row)
            return row
        except cli.ROW_FAILURES as exc:
            return cli._failed_row(SweepRow, exc, sweep_value=t_h, stage="error")

    return cli._collecting_warnings(
        lambda: [solve(t) for t in config.sweep.values.tolist()])


def assert_rows_equal(got, want):
    assert [(r.as_csv(), r.error) for r in got] == [(r.as_csv(), r.error) for r in want]


def assert_sweep_matches_one_point_solves(config: ScenarioConfig) -> SweepResult:
    rows, warns = one_point_solves(config)
    result = sweep_th(config)
    assert_rows_equal(result.rows, rows)
    assert result.warnings == warns
    return result


def assert_one_row_grid_matches_solve_alone(config: ScenarioConfig) -> None:
    """The one-row grid that ``steady`` and each ``scan`` mask solve equals
    :func:`solve_alone`, state by state and bit for bit, or fails as it does."""
    from qfridge import cli

    (got,) = cli._solve_grid(config)
    try:
        want_states, want_reports = solve_alone(config)
    except cli.ROW_FAILURES as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        return
    states, reports = got
    assert reports == want_reports
    assert states.unique == want_states.unique
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


def test_stacked_svd_failure_fails_only_its_rows(monkeypatch):
    config = parse_config(FIG_CONFIG)
    plain = sweep_th(config)
    marked = 3
    w = build_population_matrix(
        stacked_dissipators(_generator(config), config.sweep.values)).astype(complex)
    svd = np.linalg.svd
    stacks = []

    def failing_svd(a, *args, **kwargs):
        # the null-space SVD of the marked row does not converge, alone or
        # in a stack
        if np.iscomplexobj(a) and any(np.array_equal(m, w[marked])
                                      for m in np.reshape(a, (-1, 8, 8))):
            stacks.append(np.ndim(a) == 3 and len(a) > 1)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    result = assert_sweep_matches_one_point_solves(config)
    assert True in stacks  # the stack failed once and was redone row by row
    assert [r.failed for r in result.rows] == [k == marked for k in range(8)]
    assert result.rows[marked].error == "LinAlgError: SVD did not converge"
    others = [k for k in range(8) if k != marked]
    assert_rows_equal([result.rows[k] for k in others], [plain.rows[k] for k in others])
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
            f"[background]\nmode = {background}\nt0 = {t_0!r}\n"
            f"gamma = {10.0 ** log_gamma!r}\n")
    if background != "thermal":
        text = text.replace(f"t0 = {t_0!r}\n", "")
    config = parse_config(with_sweep(text, start, start * (1.0 + 10.0 ** log_span), 5))
    assert_sweep_matches_one_point_solves(config)
