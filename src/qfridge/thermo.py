"""Heat currents, efficiency, cooling conditions, entropy production, stages.

Sign convention throughout: a positive current means heat flows from the
reservoir into the system.  The machine refrigerates when the cold-reservoir
current is positive.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dynamics import (
    Generator,
    SteadyState,
    _channel_action,
    apply_dissipator,
    rate_table,
    steady_state_branches_analytic,
    steady_state_vacuum_background_analytic,
)
from .matrixcore import DensityMatrix
from .reservoirs import (
    COOLING_FILTERS,
    QUBITS,
    REVIVAL_FILTER,
    Dissipator,
    FilterConfig,
    ReservoirSet,
    cycle_match_check,
)
from .spectrum import DIM, SystemParams, channel_frequency

__all__ = [
    "NumericalFault",
    "DegenerateTemperaturesError",
    "StageLabel",
    "CurrentTriple",
    "CoolingVerdict",
    "HeatCurrentReport",
    "Readout",
    "heat_current",
    "heat_currents",
    "currents_cycle_analytic",
    "currents_vacuum_background_analytic",
    "efficiency",
    "cooling_predicate",
    "entropy_production",
    "classify_stage",
    "build_report",
    "build_reports",
    "reporting_cells",
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


def heat_currents(hamiltonian: np.ndarray, dissipators: Sequence[Dissipator],
                  state: DensityMatrix | np.ndarray) -> np.ndarray:
    """Steady-state heat current of each dissipation channel,
    Tr{H_S D_k[rho]}, as an ``(n,)`` array; positive when heat flows
    reservoir -> system.  A stack of states ``(..., 8, 8)`` gives
    ``(n, ...)``, state by state equal to single-state calls, bit for bit.
    Raises :class:`NumericalFault` naming the first channel (and of it the
    first state) whose current has an imaginary part above
    ``IMAG_FAULT_TOL``."""
    rho = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    values = np.array([_trace(hamiltonian, apply_dissipator(d, rho)) for d in dissipators])
    bad = np.abs(values.imag) > IMAG_FAULT_TOL
    if bad.any():
        k, *at = np.argwhere(bad)[0]
        raise NumericalFault(f"heat current has imaginary part {values[(k, *at)].imag:.3e} "
                             f"(channel {dissipators[k]})")
    return values.real


def _trace(hamiltonian, action) -> np.ndarray:
    """Tr{H_S D[rho]} of a dissipator's action on a state or a stack."""
    return np.trace(hamiltonian @ action, axis1=-2, axis2=-1)


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


def currents_vacuum_background_analytic(
    params: SystemParams,
    reservoirs: ReservoirSet,
    gamma: float | None = None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Closed-form currents for the (H2, R1, C3) mask with a uniform vacuum
    background, as the engineered and the background currents keyed H, R,
    C: five in closed form, the sixth (background of the cold qubit)
    recovered from energy conservation.

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
    return ({"H": q_hot, "R": q_room, "C": q_cold},
            {"H": qb_hot, "R": qb_room, "C": qb_cold})


def efficiency(q_cold: float, q_hot: float) -> float | None:
    """Coefficient of performance Q_C / Q_H.

    Returns None (undefined) when the hot current is numerically zero (or
    not a number).  Negative values are reported as-is: they mean the two
    currents run in opposite directions, i.e. the cold qubit is being
    heated.  The one-element case of :func:`_efficiencies`.
    """
    eta = float(_efficiencies(q_cold, q_hot))
    return None if math.isnan(eta) else eta


def _efficiencies(q_cold, q_hot) -> np.ndarray:
    """Q_C / Q_H of arrays of currents, NaN where the efficiency is
    undefined: |Q_H| <= ``EFFICIENCY_DEAD_BAND``."""
    q_hot = np.asarray(q_hot, dtype=float)
    defined = ~(np.abs(q_hot) <= EFFICIENCY_DEAD_BAND)
    return np.divide(q_cold, q_hot, out=np.full(q_hot.shape, np.nan), where=defined)


@dataclass(frozen=True)
class CoolingVerdict:
    cooling: bool
    margin: float       # threshold - ratio; positive means cooling
    ratio: float        # kept cold over kept hot channel frequency
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


def cooling_predicate(params: SystemParams, temps,
                      filt: FilterConfig | None = None) -> CoolingVerdict:
    """Whether heat can be extracted from the cold reservoir.

    Compares a frequency ratio against the temperature factor
    (1 - T_R/T_H) / (T_R/T_C - 1): without ``filt`` the unfiltered machine's
    omega_c / omega_h, with it the ratio of the kept cold and hot channel
    frequencies of one of the masks that can cool, ``COOLING_FILTERS``.  Any
    other mask raises ``ValueError``, the matched H1+R2+C3 (one six-level
    cycle) too.  Works for any temperature ordering with T_R > T_C; at
    T_H <= T_R the factor is nonpositive and the verdict is false.
    """
    if filt is None:
        ratio = params.omega_c / params.omega_h
    else:
        status, detail = cycle_match_check(filt)
        if status != "matched":
            raise ValueError(f"filter {filt} is not a matched cycle: {detail}")
        if filt not in COOLING_FILTERS:
            raise ValueError(f"filter {filt} does not split into two 3-level cycles")
        ratio = channel_frequency(params, "C", next(iter(filt.kept_c))) / \
            channel_frequency(params, "H", next(iter(filt.kept_h)))
    t = _temperatures(temps)
    threshold = _cooling_threshold(t["H"], t["R"], t["C"])
    margin = threshold - ratio
    return CoolingVerdict(cooling=margin > 0, margin=margin, ratio=ratio, threshold=threshold)


def _entropy_flow(flows: np.ndarray, temps) -> np.ndarray:
    """sum Q / T over the baths, the rows of ``flows`` ``(3, ...)`` at the
    temperatures ``temps`` (broadcast to ``flows``), term by term in bath
    order.  A bath at T = 0 adds nothing, or makes the sum -inf if it
    exchanges more than the dead band."""
    temps = np.broadcast_to(temps, flows.shape)
    frozen = temps == 0.0
    total = np.divide(flows, temps, out=np.zeros(flows.shape), where=~frozen).sum(axis=0)
    exchanged = (frozen & (np.abs(flows) > ZERO_TEMPERATURE_DEAD_BAND)).any(axis=0)
    return np.where(exchanged, -math.inf, total)


def _entropy_productions(
    engineered: np.ndarray,
    temps,
    background: np.ndarray | None = None,
    background_temperature: float | None = None,
) -> np.ndarray:
    """:func:`entropy_production` of arrays of currents ``(3, ...)``, rows
    H, R, C, against the bath temperatures ``temps`` (broadcast to them)."""
    if background is not None and background_temperature is None:
        raise ValueError("background currents supplied without a temperature")
    # 0.0 - x, not -x: no heat flow gives +0.0
    sigma = 0.0 - _entropy_flow(engineered, temps)
    if background is not None:
        sigma = sigma - _entropy_flow(background, background_temperature)
    return sigma


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
    flow; that case returns ``inf``.  No heat flow gives +0.0.  The
    one-element case of :func:`_entropy_productions`.
    """
    return float(_entropy_productions(
        _by_bath(engineered), _by_bath(_temperatures(temps)),
        None if background is None else _by_bath(background), background_temperature))


def _by_bath(values: Mapping[str, float]) -> np.ndarray:
    """``values`` keyed H, R, C as an array in that order."""
    return np.array([values[q] for q in QUBITS], dtype=float)


#: The stage of each sign pattern 4 (Q_C > 0) + 2 (Q_H > 0) + (Q_R > 0),
#: and at index 8 the boundary.
_STAGES = np.empty(9, dtype=object)
_STAGES[:] = [StageLabel.UNCLASSIFIED] * 8 + [StageLabel.BOUNDARY]
_STAGES[0b001] = StageLabel.STAGE1  # (-, -, +)
_STAGES[0b011] = StageLabel.STAGE2  # (-, +, +)
_STAGES[0b111] = StageLabel.STAGE3  # (+, +, +)
_STAGES[0b110] = StageLabel.STAGE4  # (+, +, -)


def classify_stage(q_cold, q_hot, q_room, tol: float = 1e-12):
    """Match the sign pattern of the three per-reservoir currents, floats or
    arrays of them: a :class:`StageLabel`, or an object array of them.

    Any current within the dead band is a boundary point; patterns outside
    the four listed sequences, and any NaN current, are unclassified.
    ``tol`` should scale with the problem's frequency unit.
    """
    c, h, r = (np.asarray(q, dtype=float) for q in (q_cold, q_hot, q_room))
    boundary = (np.abs(c) <= tol) | (np.abs(h) <= tol) | (np.abs(r) <= tol)
    stage = np.where(boundary, 8, 4 * (c > 0) + 2 * (h > 0) + (r > 0))
    # a NaN current has no sign: index 0, the unclassified (-, -, -)
    return _STAGES[np.where(np.isnan(c) | np.isnan(h) | np.isnan(r), 0, stage)]


@dataclass(frozen=True)
class HeatCurrentReport:
    """Full thermodynamic read-out of one steady state; ``per_channel`` maps
    each dissipator its row keeps, by its label (``"engineered:H3"``), to its
    current, in generator order."""

    engineered: dict[str, float]
    background: dict[str, float]
    efficiency: float | None
    sigma: float
    stage: StageLabel
    first_law_residual: float
    per_channel: dict[str, float] = field(repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class Readout:
    """The thermodynamic read-out of a grid of N rows and their S steady
    states, each quantity an array whose last axis runs over the states.

    ``populations`` ``(S, 8)``, ``row`` ``(S,)`` and ``support`` ``(S,)``
    are the states' table as :func:`~qfridge.dynamics.steady_state_rows`
    gives it: each state's eigenlevel populations, its row, in row order,
    and its levels as a bit set.  ``currents`` ``(n, S)`` holds the current
    of each of ``dissipators``, 0.0 on a state whose row does not keep it
    (``kept``: its rates there are 0 and 0); ``engineered`` and ``background``
    ``(3, S)`` their sums per bath, rows H, R, C; ``efficiency`` is NaN
    where it is undefined.  ``failures`` maps each failed row to its
    exception and ``reporting`` ``(N,)`` gives the state each other row
    reports, -1 on a failed row.
    """

    dissipators: tuple[Dissipator, ...]
    populations: np.ndarray
    row: np.ndarray
    support: np.ndarray
    currents: np.ndarray
    kept: np.ndarray
    engineered: np.ndarray
    background: np.ndarray
    efficiency: np.ndarray
    sigma: np.ndarray
    stage: np.ndarray
    first_law_residual: np.ndarray
    reporting: np.ndarray
    failures: dict[int, Exception]

    def report(self, j: int) -> HeatCurrentReport:
        """The report of state ``j``, made when called."""
        eta = self.efficiency[j].item()
        return HeatCurrentReport(
            dict(zip(QUBITS, self.engineered[:, j].tolist())),
            dict(zip(QUBITS, self.background[:, j].tolist())), None if math.isnan(eta) else eta,
            self.sigma[j].item(), self.stage[j], self.first_law_residual[j].item(),
            {str(d): value for d, value, keep in zip(
                self.dissipators, self.currents[:, j].tolist(), self.kept[:, j].tolist()) if keep})


def build_report(gen: Generator, steady: SteadyState) -> HeatCurrentReport:
    """Evaluate all currents of a steady state and derive the thermodynamic
    summary (efficiency, entropy production, stage, first-law residual):
    the one-state case of :func:`build_reports`."""
    table = (np.reshape(steady.populations, (1, DIM)), np.zeros(1, dtype=int),
             np.array([sum(1 << i for i in steady.support)]), {})
    readout = build_reports(gen, rate_table(gen.dissipators), table,
                            _by_bath(gen.reservoirs.temperatures)[np.newaxis])
    if readout.failures:
        raise readout.failures[0]
    return readout.report(0)


def build_reports(
    gen: Generator,
    rates: tuple[np.ndarray, np.ndarray],
    table: tuple[np.ndarray, np.ndarray, np.ndarray, Mapping[int, Exception]],
    baths: np.ndarray,
) -> Readout:
    """:func:`build_report` of every steady state of a grid of rows, as one
    :class:`Readout`.

    ``rates`` are the ``(N, D)`` tables ``(j_plus, j_minus)`` of ``gen``'s
    dissipators (:func:`~qfridge.dynamics.grid_rates`), ``table`` the states'
    populations, rows, supports and each failed row's exception, as
    :func:`~qfridge.dynamics.steady_state_rows` returns them, and
    ``baths[k]`` row k's bath temperatures H, R, C.  A row keeps, and its
    reports list, the dissipators of nonzero ``j_minus`` there.  A row fails
    with its exception or, as ``build_report`` would, with the first-law
    fault of its first faulting state.

    The states' real density matrices are built in ``gen``'s eigenbasis
    (the same for every parameter set); each dissipator is one real
    trace-form kernel call on the states whose rows keep it, and the summary
    is array operations, so each report equals ``build_report`` on its state
    alone, bit for bit.
    """
    populations, at, support, failures = table
    failures = dict(failures)
    counts = np.bincount(at, minlength=len(baths))
    states = gen.eigen.diagonal_state(populations)
    j_plus, j_minus = (r.T[:, at] for r in rates)  # (D, S): the rates of each state's row
    kept = j_minus != 0.0
    currents = np.zeros(kept.shape)
    for k, d in enumerate(gen.dissipators):
        if (on := np.flatnonzero(kept[k])).size:
            currents[k, on] = _trace(gen.hamiltonian, _channel_action(
                d.channel, j_plus[k, on], j_minus[k, on], states[on]))
    engineered = np.zeros((len(QUBITS), len(at)))
    background = np.zeros((len(QUBITS), len(at)))
    scale = np.zeros(len(at))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails below
        for d, value in zip(gen.dissipators, currents):  # in generator order, as one state's sums
            sums = engineered if d.source == "engineered" else background
            sums[QUBITS.index(d.channel.qubit)] += value
            scale += np.abs(value)
        total = (engineered[0] + engineered[1] + engineered[2]) + \
            (background[0] + background[1] + background[2])
        residual = np.divide(np.abs(total), scale, out=np.zeros(len(at)), where=scale != 0)
    # the relative first-law check is meaningless when every current is
    # already at the noise floor; a NaN scale or residual fails it
    violated = ~((scale <= 1e-12 * gen.params.omega_c * gen.params.gamma) | (residual <= 1e-10))
    for j in np.flatnonzero(violated).tolist():
        if (k := at[j].item()) not in failures:
            failures[k] = NumericalFault(f"first-law violation: currents sum to {total[j]:.3e} "
                                         f"against magnitude {scale[j]:.3e}")
    reporting = np.full(len(baths), -1)
    solved = np.flatnonzero(counts)
    reporting[solved] = _reporting_states(engineered[2], counts[solved])
    reporting[list(failures)] = -1
    bg = gen.background
    with np.errstate(over="ignore", invalid="ignore"):  # as the float arithmetic of one state
        sigma = _entropy_productions(engineered, np.asarray(baths, dtype=float)[at].T,
                                     background if bg.active else None,
                                     bg.effective_temperature if bg.active else None)
        eta = _efficiencies(engineered[2], engineered[0])
    return Readout(
        dissipators=gen.dissipators,
        populations=populations,
        row=at,
        support=support,
        currents=currents,
        kept=kept,
        engineered=engineered,
        background=background,
        efficiency=eta,
        sigma=sigma,
        stage=classify_stage(*engineered[[2, 0, 1]], tol=1e-12 * gen.params.omega_c),
        first_law_residual=residual,
        reporting=reporting,
        failures=failures,
    )


def reporting_cells(readout: Readout) -> tuple[np.ndarray, np.ndarray]:
    """Of each row that did not fail, in row order, its state ``reporting`` (the state
    single-row outputs read: the unique one, or the first with the largest ``|Q_C|``, as
    flowing branches agree in sign) as an ``(8, N)`` array, rows Q_C, Q_H, Q_R, Q^B_C,
    Q^B_H, Q^B_R (the tables' column order), efficiency (NaN where undefined) and entropy
    production, and the ``(N,)`` stages, read from the read-out arrays without making a
    report."""
    r, order = readout, [QUBITS.index(q) for q in "CHR"]
    js = r.reporting[r.reporting >= 0]
    return (np.vstack((r.engineered[order], r.background[order], r.efficiency, r.sigma))[:, js],
            r.stage[js])


def _reporting_states(q_cold: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The state :func:`reporting_cells` reads, of each group of ``counts``
    (at least one) consecutive states of cold currents ``q_cold``, as ``max``
    picks it (a NaN first state is kept, a later NaN never picked)."""
    firsts = np.cumsum(counts) - counts
    size = np.where(np.isnan(q_cold), -np.inf, np.abs(q_cold))
    top = np.repeat(np.maximum.reduceat(size, firsts), counts)
    best = np.minimum.reduceat(np.where(size == top, np.arange(len(size)), len(size)), firsts)
    return np.where(np.isnan(q_cold[firsts]), firsts, best)

