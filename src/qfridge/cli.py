"""Scenario configs, steady reports, hot-bath sweeps, filter scans, CSV I/O.

Configs are flat INI text (``key = value`` under ``[section]`` headers),
chosen so golden files diff cleanly.  Frequencies and temperatures are in
natural units unless a ``*_ghz`` / ``*_kelvin`` key is used, which requires
the unit scale anchor ``omega_c_ghz``.  Values accept plain floats and
simple fractions like ``9/17``.

Example::

    [system]
    omega_c_ghz = 210        # anchors unit_scale; omega_c = 1 natural unit
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
    points = 200
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import Field, dataclass, field, fields
from functools import cache, reduce
from operator import attrgetter
from typing import TypeVar

import numpy as np

from .dynamics import (
    SolverFailure,
    assemble_generator,
    build_population_matrix,
    check_channel_table,
    grid_dissipators,
    participating_channels,
    steady_state_rows,
)
from .reservoirs import (
    HBAR,
    KB,
    BackgroundSpec,
    FilterConfig,
    ReservoirSet,
    cycle_match_check,
    cycle_matched,
    kept_channel_table,
    markov_message,
    natural_from_kelvin,
)
from .spectrum import (
    CHANNEL_KEYS,
    DIM,
    QUBITS,
    DegenerateChannelsError,
    SystemParams,
    channel_gaps,
)
from .thermo import (
    NumericalFault,
    Readout,
    StageLabel,
    build_reports,
    cooling_predicate,
    reporting_cells,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "SweepRow",
    "ScanRow",
    "GridResult",
    "load_config",
    "parse_config",
    "run_steady",
    "sweep_th",
    "scan_filters",
    "emit_csv",
    "load_csv",
    "format_scan_table",
    "main",
]


class ConfigError(ValueError):
    """Bad scenario configuration; message carries section/key context."""


#: Failures of the physics or numerics that turn one sweep or scan row into
#: an ``error`` row.  Any other exception is a bug and propagates.
ROW_FAILURES = (
    SolverFailure,
    NumericalFault,
    DegenerateChannelsError,
    np.linalg.LinAlgError,
)


def _fmt(x: float) -> str:
    """17-significant-digit scientific notation (or nan, inf, -inf); round-trips float64."""
    return f"{x:.16e}"


def _columns(row_type: type) -> tuple[Field, ...]:
    """Table columns of a row dataclass: its fields, in order, except those
    declared with ``metadata={"column": False}``."""
    return tuple(f for f in fields(row_type) if f.metadata.get("column", True))


def _line(row_type: type) -> Callable[[object], str]:
    """The table line of a ``row_type`` row, by one ``%``-format: ``float``
    columns as :func:`_fmt` writes them, ``bool`` in lower case, others by
    ``str`` with each comma written as ``;``, so it has one cell per column."""
    columns = _columns(row_type)
    fmt = ",".join("%.16e" if f.type == "float" else "%s" for f in columns)
    values = attrgetter(*(f.name for f in columns))
    text = {k: f.type == "bool" for k, f in enumerate(columns) if f.type != "float"}

    def line(row) -> str:
        row = list(values(row))
        for k, lower in text.items():
            row[k] = str(row[k]).lower() if lower else str(row[k]).replace(",", ";")
        return fmt % tuple(row)
    return line


def _cells(row) -> str:
    """The table line of ``row`` (:func:`_line`)."""
    return _line(type(row))(row)


def _reason(exc: Exception) -> str:
    """How a row failure is reported: ``<ExceptionType>: <message>``."""
    return f"{type(exc).__name__}: {exc}"


def _failed_rows(row_type: type) -> Callable[..., "SweepRow | ScanRow"]:
    """The maker of a table's ``row_type`` rows for solves that failed:
    ``failed(exc, **cells)`` has NaN in every ``float`` field, ``cells`` in
    the others, and :func:`_reason` of ``exc`` in ``error``."""
    nan = {f.name: math.nan for f in fields(row_type) if f.type == "float"}

    def failed(exc: Exception, **cells) -> "SweepRow | ScanRow":
        return row_type(**nan | cells, error=_reason(exc))
    return failed


def _table(config: "ScenarioConfig", row_type: type, rows: Iterable) -> str:
    """``#`` config header, the column names of ``row_type``, one line per row."""
    lines = [f"# {key} = {value}" for key, value in config.canonical_items()]
    lines.append(",".join(f.name for f in _columns(row_type)))
    lines += map(_line(row_type), rows)
    return "\n".join(lines) + "\n"


def _fmt_value(x: float) -> str:
    """Shortest exact decimal for config echo lines."""
    return repr(float(x))


def _number(text: str, where: str) -> float:
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r} ({exc})") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.variable != "t_h":
            raise ConfigError(f"sweep.variable: only t_h is supported, got {self.variable!r}")
        if not self.stop > self.start:
            raise ConfigError(f"sweep range must be strictly increasing, got "
                              f"[{self.start}, {self.stop}]")
        for key, value in (("start", self.start), ("stop", self.stop)):
            if value < 0:
                raise ConfigError(f"sweep.{key}: temperature must be >= 0, got {value}")
        if self.points < 1:
            raise ConfigError(f"sweep.points must be >= 1, got {self.points}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    reservoirs: ReservoirSet
    filter: FilterConfig
    background: BackgroundSpec
    sweep: SweepSpec | None = None

    def canonical_items(self) -> list[tuple[str, str]]:
        """Resolved natural-unit key/value pairs; parsing them back
        reproduces this config exactly."""
        p = self.params
        items = [
            ("system.omega_c", _fmt_value(p.omega_c)),
            ("system.omega_h", _fmt_value(p.omega_h)),
            ("system.g", _fmt_value(p.g)),
            ("system.gamma", _fmt_value(p.gamma)),
            ("system.unit_scale",
             "none" if p.unit_scale is None else _fmt_value(p.unit_scale)),
            ("reservoirs.t_h", _fmt_value(self.reservoirs.hot.temperature)),
            ("reservoirs.t_r", _fmt_value(self.reservoirs.room.temperature)),
            ("reservoirs.t_c", _fmt_value(self.reservoirs.cold.temperature)),
        ]
        for q, key in (("H", "filter.h"), ("R", "filter.r"), ("C", "filter.c")):
            kept = sorted(self.filter.kept_for(q))
            items.append((key, ",".join(map(str, kept)) if kept else "none"))
        items.append(("background.mode", self.background.mode))
        if self.background.mode == "thermal":
            items.append(("background.t0", _fmt_value(self.background.temperature)))
        if self.background.active:
            items.append(("background.gamma", _fmt_value(self.background.gamma)))
        if self.sweep is not None:
            items += [
                ("sweep.variable", self.sweep.variable),
                ("sweep.start", _fmt_value(self.sweep.start)),
                ("sweep.stop", _fmt_value(self.sweep.stop)),
                ("sweep.points", str(self.sweep.points)),
            ]
        return items

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "ScenarioConfig":
        text_lines: dict[str, list[str]] = {}
        for key, value in items.items():
            section, _, name = key.partition(".")
            text_lines.setdefault(section, []).append(f"{name} = {value}")
        text = "\n".join(
            f"[{sec}]\n" + "\n".join(lines) for sec, lines in text_lines.items()
        )
        return parse_config(text, source="<csv header>")


def _parse_filter_field(raw: str, where: str) -> frozenset[int]:
    s = raw.strip().lower()
    if s in ("none", ""):
        return frozenset()
    if s == "all":
        return frozenset((1, 2, 3))
    try:
        indices = frozenset(int(tok) for tok in s.split(","))
    except ValueError:
        raise ConfigError(f"{where}: expected channel indices, got {raw!r}") from None
    if not indices <= {1, 2, 3}:
        raise ConfigError(f"{where}: channel indices must be in 1..3, got {sorted(indices)}")
    return indices


#: The keys each config section accepts; any other section or key is an error.
_CONFIG_KEYS = {
    "system": {"omega_c", "omega_c_ghz", "omega_h", "g", "gamma", "unit_scale"},
    "reservoirs": {"t_h", "t_h_kelvin", "t_r", "t_r_kelvin", "t_c", "t_c_kelvin"},
    "filter": {"h", "r", "c"},
    "background": {"mode", "gamma", "t0", "t0_kelvin"},
    "sweep": {"variable", "start", "start_kelvin", "stop", "stop_kelvin", "points"},
}


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    # values are read literally: a `%` is part of the value, not a reference
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}: no [section] header before "
                          f"{exc.line.strip()!r}") from None
    except configparser.ParsingError as exc:  # one line, the first that does not parse
        n, line = exc.errors[0][0], text.split("\n")[exc.errors[0][0] - 1].strip()
        raise ConfigError(f"{source}: line {n}: expected key = value, got {line!r}") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}: duplicate key "
                          f"{exc.section}.{exc.option}") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}: duplicate section "
                          f"[{exc.section}]") from None
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    unknown = []
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            unknown.append(f"[{section}]")
        else:
            unknown += [f"{section}.{key}" for key in cp.options(section)
                        if key not in _CONFIG_KEYS[section]]
    if unknown:
        raise ConfigError(f"{source}: unknown section or key: {', '.join(unknown)}")

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return default

    if not cp.has_section("system"):
        raise ConfigError(f"{source}: missing [system] section")

    unit_scale = None
    omega_c_ghz = get("system", "omega_c_ghz")
    omega_c_raw = get("system", "omega_c")
    if omega_c_ghz is not None and omega_c_raw is not None:
        raise ConfigError("system: give omega_c or omega_c_ghz, not both")
    if omega_c_ghz is not None and get("system", "unit_scale") is not None:
        raise ConfigError("system: give omega_c_ghz or unit_scale, not both")
    if omega_c_ghz is not None:
        f_ghz = _number(omega_c_ghz, "system.omega_c_ghz")
        unit_scale = 2.0 * math.pi * f_ghz * 1e9
        omega_c = 1.0  # the cold frequency anchors the natural scale
    else:
        omega_c = _number(omega_c_raw or "1.0", "system.omega_c")
        us_raw = get("system", "unit_scale")
        if us_raw is not None and us_raw.strip().lower() != "none":
            unit_scale = _number(us_raw, "system.unit_scale")

    def required(section, key):
        raw = get(section, key)
        if raw is None:
            raise ConfigError(f"{source}: missing {section}.{key}")
        return raw

    omega_h = _number(required("system", "omega_h"), "system.omega_h")
    g = _number(required("system", "g"), "system.g")
    gamma = _number(required("system", "gamma"), "system.gamma")
    try:
        params = SystemParams(omega_c=omega_c, omega_h=omega_h, g=g, gamma=gamma,
                              unit_scale=unit_scale)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None

    def temperature(section, stem):
        nat = get(section, stem)
        kel = get(section, stem + "_kelvin")
        if nat is not None and kel is not None:
            raise ConfigError(f"{section}: give {stem} or {stem}_kelvin, not both")
        if kel is not None:
            if unit_scale is None:
                raise ConfigError(
                    f"{section}.{stem}_kelvin needs omega_c_ghz (or unit_scale) set"
                )
            return natural_from_kelvin(_number(kel, f"{section}.{stem}_kelvin"), unit_scale)
        if nat is None:
            raise ConfigError(f"{source}: missing {section}.{stem}")
        return _number(nat, f"{section}.{stem}")

    if not cp.has_section("reservoirs"):
        raise ConfigError(f"{source}: missing [reservoirs] section")
    t_h, t_r, t_c = (temperature("reservoirs", stem) for stem in ("t_h", "t_r", "t_c"))
    try:
        reservoirs = ReservoirSet.from_temperatures(params, t_h=t_h, t_r=t_r, t_c=t_c)
    except ValueError as exc:
        raise ConfigError(f"reservoirs: {exc}") from None

    if cp.has_section("filter"):
        filt = FilterConfig(
            kept_h=_parse_filter_field(get("filter", "h", "all"), "filter.h"),
            kept_r=_parse_filter_field(get("filter", "r", "all"), "filter.r"),
            kept_c=_parse_filter_field(get("filter", "c", "all"), "filter.c"),
        )
    else:
        filt = FilterConfig.all_channels()

    background = BackgroundSpec.none()
    if cp.has_section("background"):
        mode = get("background", "mode", "none").strip().lower()
        if mode not in ("none", "vacuum", "thermal"):
            raise ConfigError(f"background.mode: unknown mode {mode!r}")
        if mode != "none":
            gamma_b = _number(required("background", "gamma"), "background.gamma")
            t0 = temperature("background", "t0") if mode == "thermal" else None
            try:
                background = BackgroundSpec(mode=mode, temperature=t0, gamma=gamma_b)
            except ValueError as exc:
                raise ConfigError(f"background: {exc}") from None

    sweep = None
    if cp.has_section("sweep"):
        variable = get("sweep", "variable", "t_h").strip().lower()
        start = temperature("sweep", "start")
        stop = temperature("sweep", "stop")
        points_raw = required("sweep", "points")
        try:
            points = int(points_raw)
        except ValueError:
            raise ConfigError(f"sweep.points: expected integer, got {points_raw!r}") from None
        sweep = SweepSpec(variable=variable, start=start, stop=stop, points=points)

    return ScenarioConfig(
        params=params,
        reservoirs=reservoirs,
        filter=filt,
        background=background,
        sweep=sweep,
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=path)


# ---------------------------------------------------------------------------
# Solving helpers
# ---------------------------------------------------------------------------


_T = TypeVar("_T")


def _collecting_warnings(run: Callable[[], _T]) -> tuple[_T, tuple[str, ...]]:
    """``run()`` and each distinct warning it raised, once, in first-seen
    order; of each message and location only the first is recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        result = run()
    return result, tuple(dict.fromkeys(str(w.message) for w in caught))


def _solve_grid(
    config: ScenarioConfig,
    filters: Sequence[FilterConfig] | None = None,
    baths: np.ndarray | None = None,
) -> Readout:
    """The read-out of a grid: every steady state of each row, or the
    failure that stops its solve, in row order.  Row k is the scenario with
    the filter ``filters[k]`` and its baths at the temperatures ``baths[k]``,
    H, R, C (an ``(N, 3)`` table); without ``filters`` every row keeps the
    config's filter, without ``baths`` every row has the config's baths, and
    without either the grid is the scenario alone.

    The rows are checked in one array pass over their kept-channel table
    (:func:`check_channel_table`), before any row is solved; a row whose
    filter fails a check fails with it.  One generator over all nine
    channels, and W of every row, are then built once (:func:`_grid_rates`);
    a row whose rates overflow fails with a :class:`NumericalFault`.  The
    other rows are one :func:`steady_state_rows` call and the grid one
    :func:`build_reports` call, each row equal to ``steady_states_numeric``
    and ``build_report`` on its scenario alone, bit for bit.
    """
    if filters is None:
        filters = [config.filter] * (1 if baths is None else len(baths))
    if baths is None:
        baths = [[config.reservoirs[q].temperature for q in QUBITS]] * len(filters)
    baths = np.asarray(baths, dtype=float)
    kept = kept_channel_table(filters)
    failures: dict[int, Exception] = check_channel_table(config.params, kept, config.reservoirs,
                                                         config.background)
    gen, dissipators, w, finite = _grid_rates(config, kept, baths)
    overflow = NumericalFault("the rates overflow: W has a non-finite entry")
    for k in np.flatnonzero(~finite).tolist():
        failures.setdefault(k, overflow)
    live = np.array([k for k in range(len(kept)) if k not in failures], dtype=int)
    pops, rows, support, faults = steady_state_rows(w[live])
    failures.update((live[k].item(), exc) for k, exc in faults.items())
    table = (pops, live[rows], support, dict(sorted(failures.items())))
    return build_reports(gen, dissipators, table, baths)


def _grid_rates(config: ScenarioConfig, kept: np.ndarray, baths) -> tuple:
    """One generator over all nine channels, the dissipators of the rows of the kept-channel
    table ``kept`` at ``baths`` (:func:`grid_dissipators`), their W ``(N, 8, 8)`` and whether
    each row's W is finite."""
    gen = assemble_generator(config.params, FilterConfig.all_channels(), config.reservoirs,
                             config.background)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in W
        dissipators = grid_dissipators(gen, kept, baths)
        # without stacked rates (no row keeps a channel) one W serves every row
        w = np.broadcast_to(build_population_matrix(dissipators), (len(kept), DIM, DIM))
    return gen, dissipators, w, np.isfinite(w).all(axis=(-2, -1))


def _bath_table(config: ScenarioConfig) -> np.ndarray:
    """The bath temperatures H, R, C of the config's rows, ``(N, 3)``: one
    row per point of its ``t_h`` sweep, or its own baths alone."""
    res = config.reservoirs
    t_h = [res.hot.temperature] if config.sweep is None else config.sweep.values.tolist()
    return np.array([(t, res.room.temperature, res.cold.temperature) for t in t_h])


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    qdot_C: float
    qdot_H: float
    qdot_R: float
    qdot_B_C: float
    qdot_B_H: float
    qdot_B_R: float
    eta: float
    sigma: float
    stage: str
    #: ``<ExceptionType>: <message>`` of a failed row; not written to the CSV
    error: str = field(default="", metadata={"column": False})

    def as_csv(self) -> str:
        return _cells(self)

    @property
    def failed(self) -> bool:
        return self.stage == "error"


def _energy_balance_faults(currents: np.ndarray) -> dict[int, NumericalFault]:
    """The CSV's energy balance: the :class:`NumericalFault` of each column of ``currents``
    (rows Q_C, Q_H, Q_R, Q^B_C, Q^B_H, Q^B_R) whose sum, in that order, is not both finite
    and within 1e-10 of their magnitude, where that exceeds 1e-12."""
    with np.errstate(over="ignore", invalid="ignore"):
        total, scale = reduce(np.add, currents, 0.0), reduce(np.add, np.abs(currents), 0.0)
    balanced = (scale <= 1e-12) | ((np.abs(total) <= 1e-10 * scale) & np.isfinite(total))
    return {i: NumericalFault(f"first-law violation: the six currents sum to "
                              f"{total[i]:.3e} against magnitude {scale[i]:.3e}")
            for i in np.flatnonzero(~balanced).tolist()}


@dataclass(frozen=True)
class GridResult:
    """The rows of one grid, a sweep's points or a scan's masks, and each
    distinct warning its solve raised."""

    config: ScenarioConfig
    rows: tuple[SweepRow, ...] | tuple[ScanRow, ...]
    warnings: tuple[str, ...]


def _sweep_rows(t_h: list[float], readout: Readout) -> tuple[SweepRow, ...]:
    """The row of each grid point ``t_h[k]``: its failure, or its
    :func:`reporting_cells`, which must pass :func:`_energy_balance_faults`."""
    cells, stages = reporting_cells(readout)
    solved = np.flatnonzero(readout.reporting >= 0).tolist()
    rows: list = [None] * len(t_h)
    for k, *values, stage in zip(solved, *cells.tolist(), stages.tolist()):
        rows[k] = SweepRow(t_h[k], *values, stage=str(stage))
    faults, failed = _energy_balance_faults(cells[:6]), _failed_rows(SweepRow)
    for k, exc in (readout.failures | {solved[i]: f for i, f in faults.items()}).items():
        rows[k] = failed(exc, sweep_value=t_h[k], stage="error")
    return tuple(rows)


def sweep_th(config: ScenarioConfig) -> GridResult:
    """Solve one row per hot-temperature grid point, in grid order.

    The grid is solved in one stacked pass (see :func:`_solve_grid`);
    each row equals a solve of its point alone, bit for bit.  A row that
    fails with one of ``ROW_FAILURES``, or whose currents break
    :func:`_energy_balance_faults`, is recorded with stage ``error``, NaN
    values and the failure in ``error``.  ``warnings`` holds each distinct
    warning raised by any row once, in first-seen order.
    """
    if config.sweep is None:
        raise ConfigError("sweep requested but the config has no [sweep] section")
    baths = _bath_table(config)
    rows, warns = _collecting_warnings(
        lambda: _sweep_rows(baths[:, 0].tolist(), _solve_grid(config, baths=baths)))
    return GridResult(config=config, rows=rows, warnings=warns)


def emit_csv(result: GridResult, path: str) -> None:
    """Deterministic CSV: ``#`` config header, fixed column order, 17
    significant digits, LF endings.  Identical runs produce identical bytes."""
    _write_output(_table(result.config, SweepRow, result.rows), path)


def load_csv(path: str) -> GridResult:
    """Read a sweep CSV back, re-parsing the embedded config and
    re-checking :func:`_energy_balance_faults` on every solved row.  A file
    that cannot be read as UTF-8 text, a header value that does not parse,
    or a row with the wrong number of cells, a non-numeric value or an
    unknown stage is a :class:`ConfigError` that names ``path``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read sweep CSV {path}: {exc}") from None
    items: dict[str, str] = {}
    body: list[str] = []
    for line in lines:
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            items[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    columns = _columns(SweepRow)
    if not body or body[0] != ",".join(f.name for f in columns):
        raise ConfigError(f"{path}: missing or wrong column header")
    try:
        config = ScenarioConfig.from_items(items)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    rows, malformed = [], None
    for line in body[1:]:
        cells = line.split(",")
        try:
            if len(cells) != len(columns):
                raise ValueError(f"{len(cells)} cells, expected {len(columns)}")
            row = SweepRow(**{f.name: float(cell) if f.type == "float" else cell
                              for f, cell in zip(columns, cells)})
            if row.stage not in {*map(str, StageLabel), "error"}:
                raise ValueError(f"unknown stage {row.stage!r}")
        except ValueError as exc:
            malformed = ConfigError(f"{path}: malformed row {line!r} ({exc})")
            break
        rows.append(row)
    # a first-law fault on a row above the first malformed one is raised first
    solved = [row for row in rows if not row.failed]
    faults = _energy_balance_faults(np.array(
        [(r.qdot_C, r.qdot_H, r.qdot_R, r.qdot_B_C, r.qdot_B_H, r.qdot_B_R) for r in solved],
        dtype=float).reshape(-1, 6).T)
    if faults:
        i = min(faults)
        raise ConfigError(
            f"{path}: row at {solved[i].sweep_value} violates the first law ({faults[i]})")
    if malformed is not None:
        raise malformed
    return GridResult(config=config, rows=tuple(rows), warnings=())


# ---------------------------------------------------------------------------
# Steady report
# ---------------------------------------------------------------------------


def run_steady(config: ScenarioConfig) -> str:
    """Solve a no-sweep scenario and render the full structured report,
    ending with each distinct warning raised on the way."""
    readout, warns = _collecting_warnings(lambda: _solve_grid(config))
    if readout.failures:
        raise readout.failures[0]
    out = ["qfridge steady-state report"]
    out += [f"{key} = {value}" for key, value in config.canonical_items()]
    out.append(f"steady_states = {len(readout.row)}")
    out.append(f"unique = {len(readout.row) == 1}")
    for k, (code, populations) in enumerate(zip(readout.support.tolist(), readout.populations)):
        report = readout.report(k)  # the one row's states are the grid's
        out.append(f"[state {k}] support = {[i for i in range(DIM) if code >> i & 1]}")
        pops = ", ".join(f"{p:.12g}" for p in populations)
        out.append(f"[state {k}] populations = {pops}")
        for label, value in report.per_channel.items():
            out.append(f"[state {k}] current {label} = {_fmt(value)}")
        for q in QUBITS:
            out.append(f"[state {k}] qdot_{q} = {_fmt(report.engineered[q])}")
        if config.background.active:
            for q in QUBITS:
                out.append(f"[state {k}] qdot_B_{q} = {_fmt(report.background[q])}")
        eta = report.efficiency
        out.append(f"[state {k}] eta = {'undefined' if eta is None else _fmt(eta)}")
        out.append(f"[state {k}] sigma = {_fmt(report.sigma)}")
        out.append(f"[state {k}] stage = {report.stage}")
    for w in warns:
        out.append(f"warning: {w}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Filter scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    filter: FilterConfig
    qdot_C: float
    qdot_H: float
    qdot_R: float
    eta: float
    cooling: bool
    cycle_matched: bool
    n_states: int
    error: str = ""


@cache
def _filter_patterns(mode: str) -> tuple[FilterConfig, ...]:
    """The masks of a scan mode, in scan order, built once per process (and
    each mask's label with them, on its first use)."""
    kept = {"single_channel": ((1,), (2,), (3,)),
            "all": ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))}
    if mode not in kept:
        raise ValueError(f"unknown scan mode {mode!r}")
    patterns = [frozenset(s) for s in kept[mode]]
    return tuple(FilterConfig(h, r, c) for h in patterns for r in patterns for c in patterns)


@cache
def _cycle_matched(mode: str) -> tuple[bool, ...]:
    """Whether each mask of a scan mode is cycle-matched, built once per process."""
    return tuple(cycle_matched(kept_channel_table(_filter_patterns(mode))).tolist())


def _scan_rows(mode: str, readout: Readout, cooling_tol: float) -> list[ScanRow]:
    """The row of each mask of a scan mode: its failure, or its
    :func:`reporting_cells`."""
    masks, matched = _filter_patterns(mode), _cycle_matched(mode)
    n_states = np.bincount(readout.row, minlength=len(masks)).tolist()
    cells, _ = reporting_cells(readout)
    rows: list = [None] * len(masks)
    for k, q_cold, q_hot, q_room, eta, cooling in zip(
            np.flatnonzero(readout.reporting >= 0).tolist(), *cells[[0, 1, 2, 6]].tolist(),
            (cells[0] > cooling_tol).tolist()):
        rows[k] = ScanRow(masks[k], q_cold, q_hot, q_room, eta, cooling, matched[k], n_states[k])
    failed = _failed_rows(ScanRow)
    for k, exc in readout.failures.items():
        rows[k] = failed(exc, filter=masks[k], cooling=False, n_states=0,
                         cycle_matched=matched[k])
    return rows


def scan_filters(config: ScenarioConfig, mode: str = "single_channel") -> GridResult:
    """Evaluate every filter mask (27 single-channel or 216 one-or-two
    channel configurations) at fixed temperatures; rows sorted by cold
    current.  The masks are the rows of one grid (see :func:`_solve_grid`);
    each row equals a solve of its mask alone, bit for bit.  ``warnings``
    holds each distinct warning raised by any mask once, in first-seen
    order: the checks' warnings in mask order, then the solve's."""
    patterns = _filter_patterns(mode)
    cooling_tol = 1e-12 * config.params.omega_c
    rows, warns = _collecting_warnings(
        lambda: _scan_rows(mode, _solve_grid(config, filters=patterns), cooling_tol))
    # by cold current, largest first and NaN last, then by mask label
    q_cold = np.array([r.qdot_C for r in rows])
    order = np.lexsort(([str(f) for f in patterns], -np.where(np.isnan(q_cold), -np.inf, q_cold)))
    return GridResult(config=config, rows=tuple(rows[k] for k in order.tolist()), warnings=warns)


def format_scan_table(config: ScenarioConfig, rows: Iterable[ScanRow]) -> str:
    """``#`` config header and one line per row in the columns of :class:`ScanRow`."""
    return _table(config, ScanRow, rows)


# ---------------------------------------------------------------------------
# Validation and constants
# ---------------------------------------------------------------------------


def validate_config(config: ScenarioConfig) -> tuple[str, bool]:
    """Run the scenario checks and build W without solving; returns (report, ok)."""
    lines = ["qfridge config validation"]
    lines += [f"{key} = {value}" for key, value in config.canonical_items()]
    ok = True

    # the checks of check_channel_table on the one-row table of the config's mask
    kept = kept_channel_table([config.filter])
    participating, (gamma_max,) = participating_channels(kept, config.reservoirs,
                                                         config.background)
    (degenerate,), (min_gap,) = channel_gaps(config.params, participating)
    for i, j in np.argwhere(degenerate).tolist():
        ok = False
        lines.append("error: channels {}{} and {}{} are degenerate".format(
            *CHANNEL_KEYS[i], *CHANNEL_KEYS[j]))
    if ok:
        lines.append("check: participating channel frequencies are distinct")

    msg = markov_message(gamma_max.item(), min_gap.item())
    lines.append(f"warning: {msg}" if msg else "check: Markov validity margin holds")

    status, detail = cycle_match_check(config.filter)
    lines.append(f"cycle_match = {status} ({detail})")
    if status == "matched":
        try:
            verdict = cooling_predicate(config.params, config.reservoirs, config.filter)
            lines.append(
                f"cooling_predicate = {verdict.cooling} "
                f"(ratio {verdict.ratio:.6g} vs threshold {verdict.threshold:.6g})"
            )
        except ValueError as exc:
            lines.append(f"cooling_predicate = n/a ({exc})")

    if config.sweep is not None:
        lines.append(f"sweep: {config.sweep.points} points over "
                     f"[{config.sweep.start:.6g}, {config.sweep.stop:.6g}]")
    baths = _bath_table(config)
    *_, finite = _grid_rates(config, kept.repeat(len(baths), axis=0), baths)
    if not finite.all():
        ok = False
        lines.append(f"error: the rates overflow on {np.count_nonzero(~finite)} of {len(baths)} "
                     f"rows; first at t_h={_fmt(baths[~finite][0, 0])}")
    lines.append("result = " + ("ok" if ok else "invalid"))
    return "\n".join(lines) + "\n", ok


def constants_report(config: ScenarioConfig | None = None) -> str:
    lines = [
        "qfridge unit conventions (hbar = k_B = 1 internally)",
        f"hbar = {HBAR:.10e} J s",
        f"k_B = {KB:.10e} J / K",
        f"k_B / hbar = {KB / HBAR:.10e} rad / (s K)",
        "omega[natural] = 2*pi * f[GHz] * 1e9 / unit_scale",
        "T[natural] = (k_B / hbar) * T[K] / unit_scale",
    ]
    if config is not None and config.params.unit_scale is not None:
        us = config.params.unit_scale
        lines.append(f"unit_scale = {us:.10e} rad / s")
        lines.append(f"1 natural frequency unit = {us / (2 * math.pi * 1e9):.10g} GHz")
        lines.append(f"1 natural temperature unit = {us * HBAR / KB:.10g} K")
        for q in QUBITS:
            t = config.reservoirs[q].temperature
            lines.append(f"T_{q} = {t:.10g} natural = {t * us * HBAR / KB:.10g} K")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _print_warnings(warns: Iterable[str]) -> None:
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)


def _print_failures(rows, noun: str, where: Callable) -> None:
    """One stderr line when any of ``rows`` failed:
    ``N of M <noun> failed; first at <where(row)>: <reason>``."""
    failed = [row for row in rows if row.error]
    if failed:
        print(f"{len(failed)} of {len(rows)} {noun} failed; first at "
              f"{where(failed[0])}: {failed[0].error}", file=sys.stderr)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first :func:`main` call of the
    process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qfridge",
        description="Filtered three-qubit refrigerator: steady states, "
                    "sweeps, filter scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("steady", True), ("sweep", True), ("scan", True),
        ("validate", True), ("constants", False),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config,
                        help="scenario config file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if name in ("sweep", "scan"):
            sp.add_argument("--parallel", type=int, default=1,
                            help="accepted and ignored: rows always run in "
                                 "this process")
        if name == "scan":
            sp.add_argument("--mode", choices=("single_channel", "all"),
                            default="single_channel")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = load_config(args.config) if args.config else None
        if args.command == "steady":
            if config.sweep is not None:
                raise ConfigError("steady requires a config without a [sweep] section")
            _write_output(run_steady(config), args.out)
        elif args.command == "sweep":
            if args.out is None:
                raise ConfigError("sweep requires --out for the CSV file")
            result = sweep_th(config)
            emit_csv(result, args.out)
            _print_warnings(result.warnings)
            _print_failures(result.rows, "rows", lambda row: f"t_h={_fmt(row.sweep_value)}")
        elif args.command == "scan":
            result = scan_filters(config, mode=args.mode)
            _write_output(format_scan_table(config, result.rows), args.out)
            _print_warnings(result.warnings)
            _print_failures(result.rows, "masks", lambda row: row.filter)
        elif args.command == "validate":
            report, ok = validate_config(config)
            _write_output(report, args.out)
            if not ok:
                return 2
        elif args.command == "constants":
            _write_output(constants_report(config), args.out)
    except (*ROW_FAILURES, ConfigError, OSError) as exc:
        detail = _reason(exc) if isinstance(exc, ROW_FAILURES) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
