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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import Field, dataclass, field, fields, replace
from functools import cache
from typing import TypeVar

import numpy as np

from .dynamics import (
    SolverFailure,
    SteadyStateSet,
    build_generator,
    build_population_matrix,
    participating_channels,
    stacked_dissipators,
    steady_state_rows,
    take_rows,
)
from .reservoirs import (
    HBAR,
    KB,
    BackgroundSpec,
    FilterConfig,
    ReservoirSet,
    cycle_match_check,
    markov_validity_report,
    natural_from_kelvin,
)
from .spectrum import (
    DIM,
    QUBITS,
    DegenerateChannelsError,
    SystemParams,
    degenerate_frequency_pairs,
)
from .thermo import (
    HeatCurrentReport,
    NumericalFault,
    StageLabel,
    build_reports,
    cooling_predicate_for_filter,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "ScanRow",
    "ScanResult",
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
    """17-significant-digit scientific notation; round-trips float64."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.16e}"


@cache
def _columns(row_type: type) -> tuple[Field, ...]:
    """Table columns of a row dataclass: its fields, in order, except those
    declared with ``metadata={"column": False}``."""
    return tuple(f for f in fields(row_type) if f.metadata.get("column", True))


def _cells(row) -> str:
    """One table line: each column of ``row`` by its declared type, ``float``
    through :func:`_fmt`, ``bool`` in lower case, anything else by ``str``
    with each comma written as ``;``, so the line has one cell per column."""
    cells = ((getattr(row, f.name), f.type) for f in _columns(type(row)))
    return ",".join(_fmt(v) if t == "float" else str(v).lower() if t == "bool"
                    else str(v).replace(",", ";") for v, t in cells)


def _reason(exc: Exception) -> str:
    """How a row failure is reported: ``<ExceptionType>: <message>``."""
    return f"{type(exc).__name__}: {exc}"


def _failed_row(row_type: type, exc: Exception, **cells) -> "SweepRow | ScanRow":
    """A row for a solve that raised ``exc``: NaN in every ``float`` field,
    ``cells`` in the others, and :func:`_reason` in ``error``."""
    nan = {f.name: math.nan for f in fields(row_type) if f.type == "float"}
    return row_type(**nan | cells, error=_reason(exc))


def _table(config: "ScenarioConfig", row_type: type, rows: Iterable) -> str:
    """``#`` config header, the column names of ``row_type``, one line per row."""
    lines = [f"# {key} = {value}" for key, value in config.canonical_items()]
    lines.append(",".join(f.name for f in _columns(row_type)))
    lines += [_cells(row) for row in rows]
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


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=path)


# ---------------------------------------------------------------------------
# Solving helpers
# ---------------------------------------------------------------------------


_T = TypeVar("_T")


def _collecting_warnings(run: Callable[[], _T]) -> tuple[_T, tuple[str, ...]]:
    """``run()`` and each distinct warning it raised, once, in first-seen
    order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, tuple(dict.fromkeys(str(w.message) for w in caught))


#: Rows per pass of :func:`_solve_grid`.  A pass holds its rows' SVDs,
#: states and ``(n, states, 8, 8)`` current temporaries at once, so the
#: chunk, not the grid, bounds their memory.
GRID_CHUNK = 8


def _solve_grid(
    config: ScenarioConfig, t_h: list[float] | None = None
) -> Iterator[tuple[SteadyStateSet, list[HeatCurrentReport]] | Exception]:
    """Every steady state of each row and one report per state, or the row
    failure of that row, in row order.  The rows are the scenario with the
    hot bath at each of ``t_h`` or, without ``t_h``, the scenario alone.

    The generator (channels, checks, the rates of every bath but a swept
    one) and W are built once for the grid; each chunk of ``GRID_CHUNK``
    rows is then one :func:`steady_state_rows` and one :func:`build_reports`
    call.  Each row equals ``steady_states_numeric`` and ``build_report`` on
    its scenario alone, bit for bit.
    """
    n = 1 if t_h is None else len(t_h)
    try:
        gen = build_generator(config.params, config.filter, config.reservoirs,
                              config.background)
    except ROW_FAILURES as exc:
        yield from [exc] * n
        return
    if t_h is None:
        dissipators, temperatures = gen.dissipators, [config.reservoirs.temperatures]
    else:
        dissipators = stacked_dissipators(gen, t_h)
        temperatures = [config.reservoirs.temperatures | {"H": t} for t in t_h]
    # W is a stack even for rates that are all scalars (one row, or no
    # dissipator on the hot bath)
    w = np.broadcast_to(build_population_matrix(dissipators), (n, DIM, DIM))
    for start in range(0, n, GRID_CHUNK):
        chunk = slice(start, start + GRID_CHUNK)
        rows = steady_state_rows(w[chunk], gen.eigen)
        reports = build_reports(gen, take_rows(dissipators, chunk), rows, temperatures[chunk])
        yield from (r if isinstance(r, Exception) else (s, r) for s, r in zip(rows, reports))


def _reporting(reports: list[HeatCurrentReport]) -> HeatCurrentReport:
    """The report used for single-row outputs: the unique state's, or the
    first of those with the largest cold-current magnitude (flowing branches
    of a multistable filter agree in sign, so the verdict is unambiguous)."""
    return max(reports, key=lambda r: abs(r.engineered["C"]))


def _row_from_report(value: float, report: HeatCurrentReport) -> "SweepRow":
    return SweepRow(
        sweep_value=value,
        qdot_C=report.engineered["C"],
        qdot_H=report.engineered["H"],
        qdot_R=report.engineered["R"],
        qdot_B_C=report.background["C"],
        qdot_B_H=report.background["H"],
        qdot_B_R=report.background["R"],
        eta=math.nan if report.efficiency is None else report.efficiency,
        sigma=report.sigma,
        stage=str(report.stage),
    )


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


def _check_energy_balance(row: SweepRow) -> None:
    """The CSV's energy balance: raise :class:`NumericalFault` unless a row's six
    currents sum to zero within 1e-10 of their magnitude, where that exceeds 1e-12."""
    currents = (row.qdot_C, row.qdot_H, row.qdot_R, row.qdot_B_C, row.qdot_B_H, row.qdot_B_R)
    total, scale = sum(currents), sum(map(abs, currents))
    if scale > 1e-12 and abs(total) > 1e-10 * scale:
        raise NumericalFault(f"first-law violation: the six currents sum to "
                             f"{total:.3e} against magnitude {scale:.3e}")


@dataclass(frozen=True)
class SweepResult:
    config: ScenarioConfig
    rows: tuple[SweepRow, ...]
    warnings: tuple[str, ...]


def _sweep_row(t_h: float, outcome) -> SweepRow:
    if isinstance(outcome, Exception):
        return _failed_row(SweepRow, outcome, sweep_value=t_h, stage="error")
    try:
        row = _row_from_report(t_h, _reporting(outcome[1]))
        _check_energy_balance(row)
        return row
    except ROW_FAILURES as exc:  # per-row failure is recorded, the sweep continues
        return _failed_row(SweepRow, exc, sweep_value=t_h, stage="error")


def sweep_th(config: ScenarioConfig) -> SweepResult:
    """Solve one row per hot-temperature grid point, in grid order.

    The grid is solved in chunks of stacked rows (see :func:`_solve_grid`);
    each row equals a solve of its point alone, bit for bit.  A row that
    fails with one of ``ROW_FAILURES``, or whose currents break
    :func:`_check_energy_balance`, is recorded with stage ``error``, NaN
    values and the failure in ``error``.  ``warnings`` holds each distinct
    warning raised by any row once, in first-seen order.
    """
    if config.sweep is None:
        raise ConfigError("sweep requested but the config has no [sweep] section")
    t_h = config.sweep.values.tolist()
    rows, warns = _collecting_warnings(lambda: tuple(
        _sweep_row(t, outcome) for t, outcome in zip(t_h, _solve_grid(config, t_h))))
    return SweepResult(config=config, rows=rows, warnings=warns)


def emit_csv(result: SweepResult, path: str) -> None:
    """Deterministic CSV: ``#`` config header, fixed column order, 17
    significant digits, LF endings.  Identical runs produce identical bytes."""
    _write_output(_table(result.config, SweepRow, result.rows), path)


def load_csv(path: str) -> SweepResult:
    """Read a sweep CSV back, re-parsing the embedded config and
    re-checking :func:`_check_energy_balance` on every solved row.  A row
    with the wrong number of cells, a non-numeric value or an unknown
    stage is a :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
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
    config = ScenarioConfig.from_items(items)
    rows = []
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
            raise ConfigError(f"{path}: malformed row {line!r} ({exc})") from None
        if not row.failed:
            try:
                _check_energy_balance(row)
            except NumericalFault as exc:
                raise ConfigError(
                    f"{path}: row at {row.sweep_value} violates the first law ({exc})"
                ) from None
        rows.append(row)
    return SweepResult(config=config, rows=tuple(rows), warnings=())


# ---------------------------------------------------------------------------
# Steady report
# ---------------------------------------------------------------------------


def run_steady(config: ScenarioConfig) -> str:
    """Solve a no-sweep scenario and render the full structured report,
    ending with each distinct warning raised on the way."""
    (outcome,), warns = _collecting_warnings(lambda: list(_solve_grid(config)))
    if isinstance(outcome, Exception):
        raise outcome
    states, reports = outcome
    out = ["qfridge steady-state report"]
    out += [f"{key} = {value}" for key, value in config.canonical_items()]
    out.append(f"steady_states = {len(states)}")
    out.append(f"unique = {states.unique}")
    for k, (s, report) in enumerate(zip(states, reports)):
        out.append(f"[state {k}] support = {sorted(s.support)}")
        pops = ", ".join(f"{p:.12g}" for p in s.populations)
        out.append(f"[state {k}] populations = {pops}")
        for ch in report.per_channel:
            out.append(f"[state {k}] current {ch.label} = {_fmt(ch.value)}")
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


@dataclass(frozen=True)
class ScanResult:
    config: ScenarioConfig
    rows: tuple[ScanRow, ...]
    warnings: tuple[str, ...]


def _filter_patterns(mode: str) -> list[FilterConfig]:
    if mode == "single_channel":
        singles = [frozenset((j,)) for j in (1, 2, 3)]
        patterns = singles
    elif mode == "all":
        patterns = [
            frozenset(s)
            for s in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
        ]
    else:
        raise ValueError(f"unknown scan mode {mode!r}")
    return [
        FilterConfig(kept_h=h, kept_r=r, kept_c=c)
        for h in patterns for r in patterns for c in patterns
    ]


def _scan_one(config: ScenarioConfig, filt: FilterConfig) -> ScanRow:
    cooling_tol = 1e-12 * config.params.omega_c
    matched = cycle_match_check(filt).matched
    (outcome,) = _solve_grid(replace(config, filter=filt))
    if isinstance(outcome, Exception):
        return _failed_row(ScanRow, outcome, filter=filt, cooling=False,
                           cycle_matched=matched, n_states=0)
    states, reports = outcome
    report = _reporting(reports)
    return ScanRow(
        filter=filt,
        qdot_C=report.engineered["C"],
        qdot_H=report.engineered["H"],
        qdot_R=report.engineered["R"],
        eta=math.nan if report.efficiency is None else report.efficiency,
        cooling=report.engineered["C"] > cooling_tol,
        cycle_matched=matched,
        n_states=len(states),
    )


def scan_filters(config: ScenarioConfig, mode: str = "single_channel") -> ScanResult:
    """Evaluate every filter mask (27 single-channel or 216 one-or-two
    channel configurations) at fixed temperatures; rows sorted by cold
    current.  ``warnings`` holds each distinct warning raised by any mask
    once, in first-seen (mask) order."""
    patterns = _filter_patterns(mode)
    rows, warns = _collecting_warnings(lambda: [_scan_one(config, f) for f in patterns])
    rows.sort(key=lambda r: (-(r.qdot_C if not math.isnan(r.qdot_C) else -math.inf),
                             str(r.filter)))
    return ScanResult(config=config, rows=tuple(rows), warnings=warns)


def format_scan_table(config: ScenarioConfig, rows: Iterable[ScanRow]) -> str:
    """``#`` config header and one line per row in the columns of :class:`ScanRow`."""
    return _table(config, ScanRow, rows)


# ---------------------------------------------------------------------------
# Validation and constants
# ---------------------------------------------------------------------------


def validate_config(config: ScenarioConfig) -> tuple[str, bool]:
    """Run the scenario checks without solving; returns (report, ok)."""
    lines = ["qfridge config validation"]
    lines += [f"{key} = {value}" for key, value in config.canonical_items()]
    ok = True

    participating, gamma_max = participating_channels(config.filter, config.reservoirs,
                                                      config.background)
    pairs = degenerate_frequency_pairs(config.params, participating)
    if pairs:
        ok = False
        for a, b in pairs:
            lines.append(f"error: channels {a[0]}{a[1]} and {b[0]}{b[1]} are degenerate")
    else:
        lines.append("check: participating channel frequencies are distinct")

    msg = markov_validity_report(config.params, participating, gamma_max)
    lines.append(f"warning: {msg}" if msg else "check: Markov validity margin holds")

    match = cycle_match_check(config.filter)
    lines.append(f"cycle_match = {match.status} ({match.detail})")
    if match.matched:
        try:
            verdict = cooling_predicate_for_filter(
                config.params, config.reservoirs, config.filter
            )
            lines.append(
                f"cooling_predicate = {verdict.cooling} "
                f"(ratio {verdict.ratio:.6g} vs threshold {verdict.threshold:.6g})"
            )
        except ValueError as exc:
            lines.append(f"cooling_predicate = n/a ({exc})")

    if config.sweep is not None:
        lines.append(f"sweep: {config.sweep.points} points over "
                     f"[{config.sweep.start:.6g}, {config.sweep.stop:.6g}]")
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


def main(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)

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
            failed = [row for row in result.rows if row.failed]
            if failed:
                print(f"{len(failed)} of {len(result.rows)} rows failed; first at "
                      f"t_h={_fmt(failed[0].sweep_value)}: {failed[0].error}",
                      file=sys.stderr)
        elif args.command == "scan":
            result = scan_filters(config, mode=args.mode)
            _write_output(format_scan_table(config, result.rows), args.out)
            _print_warnings(result.warnings)
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
