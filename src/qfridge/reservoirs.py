"""Reservoir specifications, filter masks, dissipators with their thermal
rates, and unit entry.

The engine runs in natural units hbar = k_B = 1 with the cold transition
frequency as the default scale.  Physical inputs convert at the boundary:

    omega[natural] = 2*pi * f[GHz] * 1e9 / unit_scale
    T[natural]     = (k_B / hbar) * T[K] / unit_scale

with ``unit_scale`` the angular frequency (rad/s) of one natural unit.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import expm1, inf, isfinite

import numpy as np

from .matrixcore import require_finite_fields
from .spectrum import (
    QUBITS,
    SystemParams,
    TransitionChannel,
    _FREQ_OFFSET,
    _keys_row,
    channel_gaps,
)

__all__ = [
    "HBAR",
    "KB",
    "ReservoirSpec",
    "ReservoirSet",
    "FilterConfig",
    "BackgroundSpec",
    "Dissipator",
    "MarkovValidityWarning",
    "mean_photon_number",
    "channel_rates",
    "background_rates",
    "select_channels",
    "kept_channel_table",
    "cycle_matched",
    "cycle_match_check",
    "markov_message",
    "natural_from_ghz",
    "ghz_from_natural",
    "natural_from_kelvin",
    "kelvin_from_natural",
    "REVIVAL_FILTER",
    "HIGH_EFFICIENCY_FILTER",
    "COOLING_FILTERS",
]

_TWO_PI = 6.283185307179586476925287

# SI defining constants (CODATA, exact): h = 6.62607015e-34 J s,
# k_B = 1.380649e-23 J/K; hbar carries only the float error of the division.
HBAR = 6.626_070_15e-34 / _TWO_PI  # J s
KB = 1.380_649e-23                 # J / K


def natural_from_ghz(f_ghz: float, unit_scale: float) -> float:
    """Angular frequency in natural units from an ordinary frequency in GHz."""
    return _TWO_PI * f_ghz * 1e9 / unit_scale


def ghz_from_natural(omega: float, unit_scale: float) -> float:
    return omega * unit_scale / (_TWO_PI * 1e9)


def natural_from_kelvin(t_kelvin: float, unit_scale: float) -> float:
    """Temperature in natural frequency units from kelvin."""
    return (KB / HBAR) * t_kelvin / unit_scale


def kelvin_from_natural(temperature: float, unit_scale: float) -> float:
    return temperature * unit_scale * HBAR / KB


class MarkovValidityWarning(UserWarning):
    """Decay rates are not small against the channel frequency gaps, so the
    secular/Markov treatment is strained (the engine still runs)."""


def mean_photon_number(omega: float, temperature: float) -> float:
    """Bose occupation n = 1 / (exp(omega / T) - 1); zero in vacuum (T = 0).

    Only positive frequencies are meaningful here; the negative-frequency
    weights enter the dynamics through the operator structure instead.
    A non-finite argument raises ``ValueError``; where omega / T underflows
    to 0 the occupation is ``inf``.
    """
    for name, value in (("omega", omega), ("temperature", temperature)):
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if omega <= 0:
        raise ValueError(f"mean_photon_number needs omega > 0, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    if x > 700.0:  # keeps expm1 (OverflowError above x ~ 709.78) from raising:
        # occupations below 1/expm1(700) ~ 9.9e-305, still normal doubles, are
        # returned as 0 (ROADMAP item 13, rates in log space, moves this cut)
        return 0.0
    if x == 0.0:  # as 1 / expm1(x) is for a subnormal x
        return inf
    return 1.0 / expm1(x)


@dataclass(frozen=True)
class ReservoirSpec:
    """One engineered reservoir: its qubit, temperature, and the decay rate
    every channel of the qubit uses."""

    qubit: str
    temperature: float
    gamma: float

    def __post_init__(self):
        if self.qubit not in QUBITS:
            raise ValueError(f"unknown qubit {self.qubit!r}")
        require_finite_fields(self, "temperature", "gamma")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


#: The field of :class:`ReservoirSet` that holds each qubit's reservoir.
_RESERVOIR_FIELD = {"H": "hot", "R": "room", "C": "cold"}


@dataclass(frozen=True)
class ReservoirSet:
    """The three engineered reservoirs keyed H, R, C."""

    hot: ReservoirSpec
    room: ReservoirSpec
    cold: ReservoirSpec

    def __post_init__(self):
        for spec, qubit in ((self.hot, "H"), (self.room, "R"), (self.cold, "C")):
            if spec.qubit != qubit:
                raise ValueError(f"{qubit} slot holds reservoir for {spec.qubit}")

    def __getitem__(self, qubit: str) -> ReservoirSpec:
        return getattr(self, _RESERVOIR_FIELD[qubit])

    @property
    def temperatures(self) -> dict[str, float]:
        return {q: self[q].temperature for q in QUBITS}

    @classmethod
    def from_temperatures(
        cls, params: SystemParams, t_h: float, t_r: float, t_c: float
    ) -> "ReservoirSet":
        """Reservoirs at the rate ``params.gamma``."""
        return cls(
            hot=ReservoirSpec("H", t_h, params.gamma),
            room=ReservoirSpec("R", t_r, params.gamma),
            cold=ReservoirSpec("C", t_c, params.gamma),
        )


#: The field of :class:`FilterConfig` that holds each qubit's kept channels.
_KEPT_FIELD = {"H": "kept_h", "R": "kept_r", "C": "kept_c"}


@dataclass(frozen=True)
class FilterConfig:
    """Which channel indices each engineered reservoir keeps.

    Filtering is a hard mask: a dropped channel contributes no dissipator at
    all, which is the same as coupling it at gamma = 0 (rates 0, 0, 0; a
    solved grid row drops a channel that way).  An empty set disconnects
    that qubit from its engineered reservoir.
    """

    kept_h: frozenset[int] = frozenset((1, 2, 3))
    kept_r: frozenset[int] = frozenset((1, 2, 3))
    kept_c: frozenset[int] = frozenset((1, 2, 3))

    def __post_init__(self):
        for field in ("kept_h", "kept_r", "kept_c"):
            kept = frozenset(getattr(self, field))
            if not kept <= {1, 2, 3}:
                raise ValueError(f"{field} has unknown channel indices {set(kept)}")
            object.__setattr__(self, field, kept)

    def kept_for(self, qubit: str) -> frozenset[int]:
        return getattr(self, _KEPT_FIELD[qubit])

    @classmethod
    def single(cls, h: int, r: int, c: int) -> "FilterConfig":
        """Keep exactly one channel per qubit."""
        return cls(frozenset((h,)), frozenset((r,)), frozenset((c,)))

    @classmethod
    def all_channels(cls) -> "FilterConfig":
        return cls()

    def __str__(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        """The mask's label (``H1+R12+C-``), built on first use: each qubit
        and its kept indices, or ``-``."""
        return "+".join(q + ("".join(map(str, sorted(self.kept_for(q)))) or "-") for q in QUBITS)


#: Each subset of {1, 2, 3} as a 3-bit code, bit j - 1 set where it holds j.
_SUBSET_CODE = {frozenset(j for j in (1, 2, 3) if code >> (j - 1) & 1): code for code in range(8)}


def kept_channel_table(masks: Sequence[FilterConfig]) -> np.ndarray:
    """The kept-channel table of ``masks``: ``(M, 9)`` booleans, row m true
    where ``masks[m]`` keeps the channel of that column (channel order
    H1..H3, R1..R3, C1..C3, :data:`~qfridge.spectrum.CHANNEL_KEYS`)."""
    codes = np.fromiter((_SUBSET_CODE[f.kept_h] | _SUBSET_CODE[f.kept_r] << 3
                         | _SUBSET_CODE[f.kept_c] << 6 for f in masks), dtype=int, count=len(masks))
    return (codes[:, None] >> np.arange(9) & 1).astype(bool)


#: Single-channel mask that revives cooling at reduced efficiency
#: (frequency ratio (w_C - g) / (w_H + g)).
REVIVAL_FILTER = FilterConfig.single(3, 2, 1)

#: Single-channel mask with efficiency above the unfiltered machine
#: (frequency ratio (w_C + g) / (w_H - g)).
HIGH_EFFICIENCY_FILTER = FilterConfig.single(2, 2, 2)

#: All six single-channel masks that can cool the cold reservoir: the first
#: three share the revival frequency ratio family, the last three the
#: high-efficiency family.  Every one is cycle-matched.  The seventh matched
#: mask, H1+R2+C3, cannot cool: its channels join levels 0-4-6-7-3-1 into one
#: six-level cycle, in which every bath both emits and absorbs its quantum.
COOLING_FILTERS = (
    REVIVAL_FILTER,
    FilterConfig.single(1, 1, 1),
    FilterConfig.single(3, 3, 3),
    HIGH_EFFICIENCY_FILTER,
    FilterConfig.single(1, 3, 2),
    FilterConfig.single(2, 1, 3),
)


@dataclass(frozen=True)
class BackgroundSpec:
    """Always-on background reservoir coupled through all nine channels."""

    mode: str = "none"  # none | vacuum | thermal
    temperature: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.mode not in ("none", "vacuum", "thermal"):
            raise ValueError(f"unknown background mode {self.mode!r}")
        require_finite_fields(self, "temperature", "gamma")
        if self.mode == "thermal":
            if self.temperature is None or not self.temperature > 0:
                raise ValueError("thermal background requires temperature > 0")
        if self.mode != "none" and (self.gamma is None or self.gamma <= 0):
            raise ValueError(f"{self.mode} background requires gamma > 0")

    @property
    def active(self) -> bool:
        return self.mode != "none"

    @property
    def effective_temperature(self) -> float:
        return self.temperature if self.mode == "thermal" else 0.0

    @classmethod
    def none(cls) -> "BackgroundSpec":
        return cls()

    @classmethod
    def vacuum(cls, gamma: float) -> "BackgroundSpec":
        return cls(mode="vacuum", gamma=gamma)

    @classmethod
    def thermal(cls, temperature: float, gamma: float) -> "BackgroundSpec":
        return cls(mode="thermal", temperature=temperature, gamma=gamma)


@dataclass(frozen=True)
class Dissipator:
    """One channel's dissipative contribution, engineered or background: the
    channel and its scalar absorption/emission rates against one bath.

    ``j_minus`` is stored as the literal float sum ``j_plus + gamma``, so
    the decomposition into occupation and bare decay rate is exact; for
    T > 0 detailed balance ``j_minus / j_plus = exp(omega / T)`` holds to
    rounding.  An array rate raises ``ValueError``: a grid's rates are
    tables (:func:`~qfridge.dynamics.grid_rates`).
    """

    channel: TransitionChannel
    j_plus: float
    j_minus: float
    gamma: float
    source: str = "engineered"  # engineered | background

    def __post_init__(self):
        if any(np.ndim(rate) for rate in (self.j_plus, self.j_minus, self.gamma)):
            raise ValueError("a Dissipator's rates are scalars")
        if self.j_minus != self.j_plus + self.gamma:
            raise ValueError("j_minus must be the exact float sum j_plus + gamma")

    def __str__(self) -> str:
        return f"{self.source}:{self.channel}"


def channel_rates(channel: TransitionChannel, reservoir: ReservoirSpec) -> Dissipator:
    """The engineered dissipator of ``channel`` against its qubit's
    reservoir: thermal rates j+ = gamma n(omega), j- = gamma (1 + n(omega))."""
    if channel.qubit != reservoir.qubit:
        raise ValueError(
            f"channel {channel} belongs to qubit {channel.qubit}, "
            f"reservoir couples to {reservoir.qubit}"
        )
    j_plus = reservoir.gamma * mean_photon_number(channel.frequency, reservoir.temperature)
    return Dissipator(channel, j_plus, j_plus + reservoir.gamma, reservoir.gamma)


def background_rates(channel: TransitionChannel, background: BackgroundSpec) -> Dissipator:
    """The background dissipator of one channel (all channels couple)."""
    if not background.active:
        raise ValueError("background mode 'none' has no rates")
    j_plus = background.gamma * mean_photon_number(channel.frequency,
                                                   background.effective_temperature)
    return Dissipator(channel, j_plus, j_plus + background.gamma, background.gamma, "background")


def select_channels(
    channels: list[TransitionChannel], filt: FilterConfig
) -> list[TransitionChannel]:
    """The kept channels, in input order; dropped channels carry no dissipator."""
    if len(channels) != 9:
        raise ValueError(f"expected the complete 9-channel list, got {len(channels)}")
    return [ch for ch in channels if ch.index in filt.kept_for(ch.qubit)]


#: Per column of a kept-channel table, its channel's frequency offset in
#: units of g, negated on R: a mask's kept offsets sum to 0 when its kept R
#: frequency equals its kept H plus its kept C frequency (w_R = w_H + w_C).
_CLOSURE = np.array([-off if q == "R" else off for (q, _), off in _FREQ_OFFSET.items()])


def cycle_matched(kept: np.ndarray) -> np.ndarray:
    """Per row of the kept-channel table ``kept`` (``(M, 9)``): whether its
    mask keeps one channel per qubit and those close an energy cycle, the
    kept R frequency equal to the kept H plus the kept C frequency.  Every
    channel frequency is its qubit frequency plus a multiple of g, so this
    is integer arithmetic on those multiples and parameter-free."""
    return (kept.reshape(-1, 3, 3).sum(axis=2) == 1).all(axis=1) & (kept @ _CLOSURE == 0)


def cycle_match_check(filt: FilterConfig) -> tuple[str, str]:
    """Whether the three kept channels of ``filt`` form a closed energy
    cycle (:func:`cycle_matched`), as ``(status, detail)``: the status
    ``matched``, ``mismatched`` or, for a mask that does not keep one
    channel per qubit, ``not-applicable``, and a line that says why."""
    kept = (filt.kept_h, filt.kept_r, filt.kept_c)
    if any(len(k) != 1 for k in kept):
        counts = ", ".join(f"{q}:{len(k)}" for q, k in zip(QUBITS, kept))
        return "not-applicable", f"needs one kept channel per qubit ({counts})"
    jh, jr, jc = (next(iter(k)) for k in kept)
    if cycle_matched(kept_channel_table([filt]))[0]:
        return "matched", f"H{jh} + C{jc} closes onto R{jr}"
    miss = _FREQ_OFFSET[("R", jr)] - _FREQ_OFFSET[("H", jh)] - _FREQ_OFFSET[("C", jc)]
    return "mismatched", f"kept frequencies differ by {miss:+d} g from closure"


def markov_message(gamma_max: float, min_gap: float) -> str | None:
    """The Markov margin: a warning message when the largest decay rate
    ``gamma_max`` is not small against the minimum gap ``min_gap`` between
    participating channel frequencies, else None."""
    if gamma_max >= 0.1 * min_gap:
        return (f"gamma = {gamma_max:.4g} is not small against the minimum channel-frequency "
                f"gap {min_gap:.4g}; the Markov/secular treatment is strained")
    return None


def warn_if_markov_strained(params: SystemParams, keys: list[tuple[str, int]],
                            gamma_max: float) -> None:
    """Emit the :func:`markov_message` of the channels ``keys`` at the
    largest decay rate ``gamma_max``, their minimum gap by the rule of
    :func:`~qfridge.spectrum.channel_gaps`, if any; nothing fails."""
    _, (min_gap,) = channel_gaps(params, _keys_row(keys))
    msg = markov_message(gamma_max, float(min_gap))
    if msg is not None:
        warnings.warn(msg, MarkovValidityWarning, stacklevel=2)
