"""Heat currents, efficiency, cooling conditions, entropy production, stages.

Sign convention throughout: a positive current means heat flows from the
reservoir into the system.  The machine refrigerates when the cold-reservoir
current is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dynamics import (
    Dissipator,
    Generator,
    SteadyState,
    SteadyStateSet,
    apply_dissipators,
    steady_state_branches_analytic,
    steady_state_vacuum_background_analytic,
    take_rows,
)
from .matrixcore import DensityMatrix
from .reservoirs import (
    HIGH_EFFICIENCY_FILTER,
    QUBITS,
    REVIVAL_FILTER,
    FilterConfig,
    ReservoirSet,
    cycle_match_check,
)
from .spectrum import SystemParams, channel_frequency

__all__ = [
    "NumericalFault",
    "DegenerateTemperaturesError",
    "StageLabel",
    "CurrentTriple",
    "SixCurrents",
    "CoolingVerdict",
    "HeatCurrentReport",
    "heat_current",
    "heat_currents",
    "currents_cycle_analytic",
    "currents_vacuum_background_analytic",
    "efficiency",
    "cooling_ratio",
    "cooling_predicate",
    "cooling_predicate_for_filter",
    "entropy_production",
    "classify_stage",
    "build_report",
    "build_reports",
]

#: A heat current whose imaginary part exceeds this raises NumericalFault;
#: otherwise its real part is returned.
IMAG_FAULT_TOL = 1e-10

#: |Q_H| below this makes the efficiency undefined.
EFFICIENCY_DEAD_BAND = 1e-14

#: |Q| above this from a bath at T = 0 makes the entropy production infinite.
ZERO_TEMPERATURE_DEAD_BAND = 1e-15


class NumericalFault(RuntimeError):
    """A quantity that must be real (or conserved) came out badly off."""


class DegenerateTemperaturesError(ValueError):
    """T_R <= T_C makes the cooling threshold singular or meaningless."""


class StageLabel(str, Enum):
    """Sign pattern of (Q_C, Q_H, Q_R) along a hot-temperature sweep."""

    STAGE1 = "stage1"  # (-, -, +): room bath heats everything else
    STAGE2 = "stage2"  # (-, +, +): transitional, cold qubit still heated
    STAGE3 = "stage3"  # (+, +, +): refrigeration, room bath still feeding in
    STAGE4 = "stage4"  # (+, +, -): refrigeration, heat dumped into room bath
    BOUNDARY = "boundary"
    UNCLASSIFIED = "unclassified"

    def __str__(self) -> str:  # keep CSV cells bare
        return self.value


class CurrentTriple(NamedTuple):
    cold: float
    hot: float
    room: float


def heat_currents(
    hamiltonian: np.ndarray,
    dissipators: Sequence[Dissipator],
    state: DensityMatrix | np.ndarray,
) -> np.ndarray:
    """Steady-state heat current of each dissipation channel,
    Tr{H_S D_k[rho]}, as an ``(n,)`` array; positive when heat flows
    reservoir -> system.  A stack of states ``(..., 8, 8)`` gives
    ``(n, ...)``, state by state equal to single-state calls, bit for bit;
    stacked rates pair with its last batch axis (see
    :func:`~qfridge.dynamics.apply_dissipators`).  Raises
    :class:`NumericalFault` as :func:`_real_currents` does."""
    rho = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    return _real_currents(_trace_currents(hamiltonian, dissipators, rho), dissipators)


def _trace_currents(hamiltonian, dissipators, rho) -> np.ndarray:
    """Tr{H_S D_k[rho]} of each dissipator, complex, as ``(n, ...)``."""
    return np.trace(hamiltonian @ apply_dissipators(dissipators, rho), axis1=-2, axis2=-1)


def _real_currents(values: np.ndarray, dissipators: Sequence[Dissipator]) -> np.ndarray:
    """The real part of the currents ``values`` ``(n, ...)`` of
    ``dissipators``.  Raises :class:`NumericalFault` naming the first
    channel (and of it the first state) whose current has an imaginary part
    above ``IMAG_FAULT_TOL``."""
    bad = np.abs(values.imag) > IMAG_FAULT_TOL
    if bad.any():
        k, *at = np.argwhere(bad)[0]
        raise NumericalFault(
            f"heat current has imaginary part {values[(k, *at)].imag:.3e} "
            f"(channel {dissipators[k]})"
        )
    return values.real


def heat_current(
    hamiltonian: np.ndarray,
    dissipator: Dissipator,
    state: DensityMatrix | np.ndarray,
) -> float:
    """Heat current of one dissipation channel; see :func:`heat_currents`."""
    return float(heat_currents(hamiltonian, (dissipator,), state)[0])


def currents_cycle_analytic(
    params: SystemParams,
    reservoirs: ReservoirSet,
    filt: FilterConfig | None = None,
) -> CurrentTriple:
    """Closed-form current triple for a cycle-matched single-channel mask.

    Each flowing branch carries one probability flux around its three-level
    cycle; the per-reservoir currents are that flux times the kept channel
    frequencies, so hot/cold currents share the fixed ratio of kept
    frequencies and the three currents sum to zero identically.  The
    normalization uses the first flowing branch (lowest support level);
    both flowing branches yield the same signs and ratios.
    """
    filt = filt if filt is not None else REVIVAL_FILTER
    branches = steady_state_branches_analytic(params, reservoirs, filt)
    flux = branches.triangles[0].cycle_flux
    w_c = channel_frequency(params, "C", next(iter(filt.kept_c)))
    w_h = channel_frequency(params, "H", next(iter(filt.kept_h)))
    q_cold = w_c * flux
    q_hot = w_h * flux
    return CurrentTriple(cold=q_cold, hot=q_hot, room=-(q_cold + q_hot))


@dataclass(frozen=True)
class SixCurrents:
    """Per-reservoir currents for a scenario with background reservoirs."""

    cold: float
    hot: float
    room: float
    background_cold: float
    background_hot: float
    background_room: float

    @property
    def engineered(self) -> dict[str, float]:
        return {"H": self.hot, "R": self.room, "C": self.cold}

    @property
    def background(self) -> dict[str, float]:
        return {
            "H": self.background_hot,
            "R": self.background_room,
            "C": self.background_cold,
        }

    @property
    def total(self) -> float:
        return (
            self.cold + self.hot + self.room
            + self.background_cold + self.background_hot + self.background_room
        )


def currents_vacuum_background_analytic(
    params: SystemParams,
    reservoirs: ReservoirSet,
    gamma: float | None = None,
) -> SixCurrents:
    """Closed-form currents for the (H2, R1, C3) mask with a uniform vacuum
    background: five currents in closed form, the sixth (background of the
    cold qubit) recovered from energy conservation.

    In the intended operating regime (cold < room < hot temperatures, weak
    uniform rate) the three engineered currents are positive and the three
    background currents negative: every thermal reservoir loses heat into
    the vacuum through the machine.
    """
    sol = steady_state_vacuum_background_analytic(params, reservoirs, gamma)
    k, l, n, gam = sol.k, sol.l, sol.n, sol.gamma
    r66 = sol.populations[5]
    rh, rr, rc = (sol.rates[key] for key in (("H", 2), ("R", 1), ("C", 3)))
    w_h2 = channel_frequency(params, "H", 2)
    w_r1 = channel_frequency(params, "R", 1)
    w_c3 = channel_frequency(params, "C", 3)

    q_cold = 2.0 * w_c3 * (n * rc.j_plus - l * rc.j_minus) / k * r66
    q_hot = w_h2 * (l * rh.j_plus - k * rh.j_minus) / k * r66
    q_room = -w_r1 * (k * rr.j_minus - n * rr.j_plus) / k * r66
    # two background channels per qubit carry flow: (H1, H2) and (R1 alone)
    qb_hot = -(params.omega_h + w_h2) * gam * r66
    qb_room = -w_r1 * gam * r66
    qb_cold = -(q_cold + q_hot + q_room + qb_hot + qb_room)
    return SixCurrents(
        cold=q_cold,
        hot=q_hot,
        room=q_room,
        background_cold=qb_cold,
        background_hot=qb_hot,
        background_room=qb_room,
    )


def efficiency(q_cold: float, q_hot: float) -> float | None:
    """Coefficient of performance Q_C / Q_H.

    Returns None (undefined) when the hot current is numerically zero.
    Negative values are reported as-is: they mean the two currents run in
    opposite directions, i.e. the cold qubit is being heated.
    """
    if abs(q_hot) <= EFFICIENCY_DEAD_BAND:
        return None
    return q_cold / q_hot


def _filter_ratio(params: SystemParams, filt: FilterConfig) -> float:
    """Kept cold over kept hot channel frequency of a single-channel mask."""
    return channel_frequency(params, "C", next(iter(filt.kept_c))) / \
        channel_frequency(params, "H", next(iter(filt.kept_h)))


_MODE_RATIOS = {
    "unfiltered": lambda p: p.omega_c / p.omega_h,
    "revival": lambda p: _filter_ratio(p, REVIVAL_FILTER),
    "high_efficiency": lambda p: _filter_ratio(p, HIGH_EFFICIENCY_FILTER),
}


def cooling_ratio(params: SystemParams, mode: str) -> float:
    """Frequency ratio whose comparison against the temperature factor
    decides cooling, for the three named operating modes."""
    try:
        return _MODE_RATIOS[mode](params)
    except KeyError:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {sorted(_MODE_RATIOS)}"
        ) from None


@dataclass(frozen=True)
class CoolingVerdict:
    cooling: bool
    margin: float       # threshold - ratio; positive means cooling
    ratio: float        # frequency ratio of the operating mode
    threshold: float    # (1 - T_R/T_H) / (T_R/T_C - 1)


def _temperatures(temps) -> dict[str, float]:
    if isinstance(temps, ReservoirSet):
        return temps.temperatures
    return {q: float(temps[q]) for q in QUBITS}


def _cooling_threshold(t_h: float, t_r: float, t_c: float) -> float:
    if t_c <= 0 or t_h <= 0:
        raise DegenerateTemperaturesError(f"temperatures must be positive, got "
                                          f"T_H={t_h}, T_C={t_c}")
    if t_r <= t_c:
        raise DegenerateTemperaturesError(
            f"T_R={t_r} <= T_C={t_c} makes the cooling threshold singular"
        )
    return (1.0 - t_r / t_h) / (t_r / t_c - 1.0)


def _verdict(ratio: float, temps) -> CoolingVerdict:
    t = _temperatures(temps)
    threshold = _cooling_threshold(t["H"], t["R"], t["C"])
    margin = threshold - ratio
    return CoolingVerdict(cooling=margin > 0, margin=margin,
                          ratio=ratio, threshold=threshold)


def cooling_predicate(params: SystemParams, temps, mode: str) -> CoolingVerdict:
    """Whether heat can be extracted from the cold reservoir.

    Compares the operating mode's frequency ratio against the temperature
    factor (1 - T_R/T_H) / (T_R/T_C - 1).  Works for any temperature
    ordering with T_R > T_C; at T_H <= T_R the factor is nonpositive and
    the verdict is false for every mode.
    """
    return _verdict(cooling_ratio(params, mode), temps)


def cooling_predicate_for_filter(
    params: SystemParams, temps, filt: FilterConfig
) -> CoolingVerdict:
    """Generalized predicate for any cycle-matched single-channel mask,
    using the ratio of the kept cold and hot channel frequencies."""
    match = cycle_match_check(filt)
    if not match.matched:
        raise ValueError(f"filter {filt} is not a matched cycle: {match.detail}")
    return _verdict(_filter_ratio(params, filt), temps)


def _entropy_flow(flows) -> float:
    """sum Q / T over ``(Q, T)`` pairs.  A bath at T = 0 adds nothing, or
    makes the sum -inf if it exchanges more than the dead band."""
    if any(t == 0.0 and abs(q) > ZERO_TEMPERATURE_DEAD_BAND for q, t in flows):
        return -math.inf
    return sum(q / t for q, t in flows if t != 0.0)


def entropy_production(
    engineered: Mapping[str, float],
    temps,
    background: Mapping[str, float] | None = None,
    background_temperature: float | None = None,
) -> float:
    """Entropy production rate sigma = -sum Q_a / T_a, plus the background
    term -sum Q^B_a / T0 when background currents are supplied.

    A bath at zero temperature (a vacuum background, or an engineered bath
    at T = 0) that exchanges any heat produces an infinite positive entropy
    flow; that case returns ``inf``.
    """
    t = _temperatures(temps)
    sigma = -_entropy_flow([(engineered[q], t[q]) for q in QUBITS])
    if background is not None:
        if background_temperature is None:
            raise ValueError("background currents supplied without a temperature")
        sigma -= _entropy_flow([(background[q], background_temperature) for q in QUBITS])
    return sigma


def classify_stage(
    q_cold: float, q_hot: float, q_room: float, tol: float = 1e-12
) -> StageLabel:
    """Match the sign pattern of the three per-reservoir currents.

    Any current within the dead band is a boundary point; patterns outside
    the four listed sequences are unclassified.  ``tol`` should scale with
    the problem's frequency unit.
    """
    if min(abs(q_cold), abs(q_hot), abs(q_room)) <= tol:
        return StageLabel.BOUNDARY
    pattern = (q_cold > 0, q_hot > 0, q_room > 0)
    return {
        (False, False, True): StageLabel.STAGE1,
        (False, True, True): StageLabel.STAGE2,
        (True, True, True): StageLabel.STAGE3,
        (True, True, False): StageLabel.STAGE4,
    }.get(pattern, StageLabel.UNCLASSIFIED)


@dataclass(frozen=True)
class ChannelCurrent:
    source: str
    qubit: str
    index: int
    value: float

    @property
    def label(self) -> str:
        return f"{self.source}:{self.qubit}{self.index}"


@dataclass(frozen=True)
class HeatCurrentReport:
    """Full thermodynamic read-out of one steady state."""

    per_channel: tuple[ChannelCurrent, ...]
    engineered: dict[str, float]
    background: dict[str, float]
    efficiency: float | None
    sigma: float
    stage: StageLabel
    first_law_residual: float

    @property
    def currents(self) -> CurrentTriple:
        return CurrentTriple(
            cold=self.engineered["C"],
            hot=self.engineered["H"],
            room=self.engineered["R"],
        )


def build_report(gen: Generator, steady: SteadyState) -> HeatCurrentReport:
    """Evaluate all currents of a steady state and derive the thermodynamic
    summary (efficiency, entropy production, stage, first-law residual)."""
    values = heat_currents(gen.hamiltonian, gen.dissipators, steady.state)
    return _report(gen, values, gen.reservoirs)


def build_reports(
    gen: Generator,
    dissipators: Sequence[Dissipator],
    rows: Sequence[SteadyStateSet | Exception],
    temperatures: Sequence[Mapping[str, float]],
) -> list[list[HeatCurrentReport] | Exception]:
    """:func:`build_report` of every steady state of a stack of rows.

    ``dissipators`` are ``gen``'s with one row of stacked rates per row (or
    ``gen``'s own, for rows that share their rates), ``rows`` holds row k's
    steady states (or the exception that failed it) and ``temperatures`` its
    bath temperatures keyed H, R, C.  Gives per row its reports in state
    order or, as ``build_report`` state by state would raise it, the row's
    first exception.  The currents of all states are one trace-form call,
    so callers bound the number of rows.
    """
    states = [(k, s.state.matrix) for k, row in enumerate(rows)
              if not isinstance(row, Exception) for s in row]
    if states:
        at, rho = zip(*states)
        values = _trace_currents(gen.hamiltonian, take_rows(dissipators, list(at)),
                                 np.array(rho))
    out: list = []
    state = 0  # the first state of a row in ``values``
    for row, temps in zip(rows, temperatures):
        if isinstance(row, Exception):
            out.append(row)
            continue
        try:
            out.append([_report(gen, _real_currents(values[:, j], dissipators), temps)
                        for j in range(state, state + len(row))])
        except NumericalFault as exc:
            out.append(exc)
        state += len(row)
    return out


def _report(gen: Generator, values: np.ndarray, temps) -> HeatCurrentReport:
    """The thermodynamic summary of one state's per-dissipator currents
    ``values``, against baths at ``temps``."""
    per_channel = []
    engineered = {q: 0.0 for q in QUBITS}
    background = {q: 0.0 for q in QUBITS}
    for d, value in zip(gen.dissipators, values.tolist()):
        per_channel.append(
            ChannelCurrent(d.source, d.channel.qubit, d.channel.index, value)
        )
        if d.source == "engineered":
            engineered[d.channel.qubit] += value
        else:
            background[d.channel.qubit] += value

    total = sum(engineered.values()) + sum(background.values())
    scale = sum(abs(c.value) for c in per_channel)
    residual = abs(total) / scale if scale > 0 else 0.0
    # the relative first-law check is meaningless when every current is
    # already at the noise floor
    if scale > 1e-12 * gen.params.omega_c * gen.params.gamma and residual > 1e-10:
        raise NumericalFault(
            f"first-law violation: currents sum to {total:.3e} "
            f"against magnitude {scale:.3e}"
        )

    eta = efficiency(engineered["C"], engineered["H"])
    bg = gen.background
    sigma = entropy_production(
        engineered,
        temps,
        background=background if bg.active else None,
        background_temperature=bg.effective_temperature if bg.active else None,
    )
    stage = classify_stage(
        engineered["C"], engineered["H"], engineered["R"],
        tol=1e-12 * gen.params.omega_c,
    )
    return HeatCurrentReport(
        per_channel=tuple(per_channel),
        engineered=engineered,
        background=background,
        efficiency=eta,
        sigma=sigma,
        stage=stage,
        first_law_residual=residual,
    )
