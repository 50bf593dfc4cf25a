"""Model Hamiltonian, its exact spectrum, and the nine transition channels.

The machine is three qubits H (hot), R (room) and C (cold) with transition
frequencies ``omega_h``, ``omega_r = omega_c + omega_h`` and ``omega_c``,
coupled by a three-body exchange of strength ``g``:

    H_S = sum_a (omega_a / 2) sigma_a^z
          + g (|101><010| + |010><101|)        (basis |q_H q_R q_C>)

The computational basis is ordered |111>, |110>, ..., |000> (descending
binary).  Because the exchange only mixes |101> and |010>, the full 8x8
eigensystem is closed form: six product states plus the symmetric and
antisymmetric combinations of |101> and |010>.  All operators built here use
those closed-form kets, so their entries are exact up to the float value of
1/sqrt(2); no numerical diagonalization enters.  The Hamiltonian, the
eigenvectors and the channel operators are all real, and are stored as
float64.

Everything here is a pure function of the frozen, hashable
:class:`SystemParams`; each call builds fresh, read-only arrays.

Each qubit couples to its reservoir through three lowering eigen-operators
("channels") at frequencies ``omega_a`` and ``omega_a +- g``, each satisfying
``[H_S, A] = -omega A`` with ``A(omega)^dag = A(-omega)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matrixcore import dagger, require_finite_fields

__all__ = [
    "QUBITS",
    "DIM",
    "CHANNEL_KEYS",
    "SystemParams",
    "EigenSystem",
    "TransitionChannel",
    "DegenerateChannelsError",
    "build_hamiltonian",
    "eigensystem",
    "transition_channels",
    "channel_frequency",
    "channel_gaps",
    "degenerate_errors",
    "check_nondegenerate",
]

QUBITS = ("H", "R", "C")
DIM = 8

_SQ2 = 1.0 / np.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Channel frequency = omega_qubit + offset * g, keyed by (qubit, index).
_FREQ_OFFSET = {
    ("H", 1): 0, ("H", 2): -1, ("H", 3): +1,
    ("R", 1): -1, ("R", 2): 0, ("R", 3): +1,
    ("C", 1): -1, ("C", 2): +1, ("C", 3): 0,
}

#: The nine channels in channel order H1..H3, R1..R3, C1..C3: the columns of
#: a kept-channel table, an ``(M, 9)`` boolean array with one row per mask.
CHANNEL_KEYS = tuple(_FREQ_OFFSET)

# Lowering-operator matrix elements in the energy eigenbasis:
# (qubit, index) -> ((to_level, from_level, coefficient), ...).
# Levels are 0-based, ordered by the fixed energy list of `eigensystem`.
_CHANNEL_ELEMENTS = {
    ("H", 1): ((4, 0, 1.0), (7, 3, 1.0)),
    ("H", 2): ((2, 1, _SQ2), (6, 5, _SQ2)),
    ("H", 3): ((6, 2, _SQ2), (5, 1, -_SQ2)),
    ("R", 1): ((2, 0, _SQ2), (7, 5, -_SQ2)),
    ("R", 2): ((3, 1, 1.0), (6, 4, 1.0)),
    ("R", 3): ((7, 2, _SQ2), (5, 0, _SQ2)),
    ("C", 1): ((2, 4, _SQ2), (3, 5, _SQ2)),
    ("C", 2): ((3, 2, _SQ2), (5, 4, -_SQ2)),
    ("C", 3): ((1, 0, 1.0), (7, 6, 1.0)),
}

# 2 |coefficient|^2, the exact rate weight of each level pair; kept as exact
# integers-in-float so population rate matrices carry no sqrt(2) rounding.
_CHANNEL_PAIR_WEIGHT = {
    key: 2.0 if elements[0][2] in (1.0, -1.0) else 1.0
    for key, elements in _CHANNEL_ELEMENTS.items()
}


# The to levels, from levels and coefficients of the channels' two
# elements, each ``(9, 2)`` in channel order.
_TO, _FROM, _COEFF = np.array([_CHANNEL_ELEMENTS[key] for key in CHANNEL_KEYS]).transpose(2, 0, 1)
_TO, _FROM = _TO.astype(int), _FROM.astype(int)

_UPPER = np.triu(np.ones((9, 9), dtype=bool), 1)  # the column pairs i < j of a kept-channel table


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DegenerateChannelsError(ValueError):
    """Two channel frequencies coincide, breaking the secular treatment."""


@dataclass(frozen=True)
class SystemParams:
    """The five model numbers, in natural units (hbar = k_B = 1).

    ``omega_r`` is always the derived sum ``omega_c + omega_h``.
    ``unit_scale`` is the physical angular frequency (rad/s) of one natural
    frequency unit; it only matters when converting I/O values and has no
    effect on the dynamics.
    """

    omega_c: float
    omega_h: float
    g: float
    gamma: float
    unit_scale: float | None = None

    def __post_init__(self):
        require_finite_fields(self, "omega_c", "omega_h", "g", "gamma", "unit_scale")
        if not (self.omega_c > 0 and self.omega_h > self.omega_c):
            raise ValueError(
                f"need omega_h > omega_c > 0, got "
                f"omega_c={self.omega_c}, omega_h={self.omega_h}"
            )
        if not (0 < self.g < self.omega_c):
            raise ValueError(
                f"need 0 < g < omega_c (all channel frequencies positive), "
                f"got g={self.g}, omega_c={self.omega_c}"
            )
        if not self.gamma > 0:
            raise ValueError(f"need gamma > 0, got {self.gamma}")
        if self.unit_scale is not None and not self.unit_scale > 0:
            raise ValueError(f"unit_scale must be positive, got {self.unit_scale}")

    @property
    def omega_r(self) -> float:
        return self.omega_c + self.omega_h


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Exact eigensystem of the three-qubit Hamiltonian.

    ``energies[k]`` and column ``vectors[:, k]`` belong together; the level
    order is the fixed list ``[w_R, w_H, g, -w_C, w_C, -g, -w_H, -w_R]``, not
    ascending energy.  ``vectors`` is real (float64).  Instances compare
    and hash by identity.
    """

    energies: np.ndarray
    vectors: np.ndarray

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        return dagger(self.vectors) @ op @ self.vectors

    def diagonal_state(self, populations: np.ndarray) -> np.ndarray:
        """Density matrix (computational basis) with the given level
        populations and no coherences; a stack ``(..., 8)`` of populations
        gives the stack ``(..., 8, 8)`` of matrices.  Real populations give
        real matrices, complex ones complex matrices."""
        pops = np.asarray(populations)
        diag = np.zeros(pops.shape[:-1] + (DIM * DIM,),
                        dtype=np.result_type(pops, self.vectors))
        diag[..., :: DIM + 1] = pops
        diag = diag.reshape(pops.shape + (DIM,))
        # V diag V^dag, the product written over diag
        return np.matmul(self.vectors @ diag, dagger(self.vectors), out=diag)


@dataclass(frozen=True)
class TransitionChannel:
    """One lowering eigen-operator A with [H_S, A] = -frequency * A.

    ``operator`` is the 8x8 matrix in the computational basis;
    ``elements`` lists the same operator as (to_level, from_level, coeff)
    triples in the eigenbasis, which is what the population dynamics uses.
    ``pair_weight`` is 2 |coeff|^2 (exactly 1 or 2), the rate weight every
    level pair of this channel carries in the population picture.
    ``adjoint``, ``aad`` (A A^dag) and ``ada`` (A^dag A) are computed on
    first read and kept; like ``operator`` they are real (float64) and
    read-only.
    """

    qubit: str
    index: int
    frequency: float
    operator: np.ndarray = field(repr=False)
    elements: tuple[tuple[int, int, float], ...] = field(repr=False)
    pair_weight: float = 1.0

    @property
    def key(self) -> tuple[str, int]:
        return (self.qubit, self.index)

    @cached_property
    def adjoint(self) -> np.ndarray:
        return _readonly(dagger(self.operator))

    @cached_property
    def aad(self) -> np.ndarray:
        return _readonly(self.operator @ self.adjoint)

    @cached_property
    def ada(self) -> np.ndarray:
        return _readonly(self.adjoint @ self.operator)

    def __str__(self) -> str:
        return f"{self.qubit}{self.index}"


def _basis_index(qh: int, qr: int, qc: int) -> int:
    # |111> -> 0 ... |000> -> 7
    return (1 - qh) * 4 + (1 - qr) * 2 + (1 - qc)


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """8x8 real symmetric Hamiltonian in the computational basis
    |q_H q_R q_C> (float64, read-only)."""
    h = np.zeros((DIM, DIM))
    for qh in (0, 1):
        for qr in (0, 1):
            for qc in (0, 1):
                i = _basis_index(qh, qr, qc)
                h[i, i] = 0.5 * (
                    params.omega_h * (2 * qh - 1)
                    + params.omega_r * (2 * qr - 1)
                    + params.omega_c * (2 * qc - 1)
                )
    i101 = _basis_index(1, 0, 1)
    i010 = _basis_index(0, 1, 0)
    h[i101, i010] = params.g
    h[i010, i101] = params.g
    return _readonly(h)


def eigensystem(params: SystemParams) -> EigenSystem:
    """Closed-form eigensystem (real, read-only arrays); no numerical
    diagonalization involved."""
    wc, wh, g = params.omega_c, params.omega_h, params.g
    wr = params.omega_r
    energies = np.array([wr, wh, g, -wc, wc, -g, -wh, -wr], dtype=float)

    i101 = _basis_index(1, 0, 1)
    i010 = _basis_index(0, 1, 0)
    vectors = np.zeros((DIM, DIM))
    vectors[_basis_index(1, 1, 1), 0] = 1.0
    vectors[_basis_index(1, 1, 0), 1] = 1.0
    vectors[i101, 2] = _SQ2
    vectors[i010, 2] = _SQ2
    vectors[_basis_index(1, 0, 0), 3] = 1.0
    vectors[_basis_index(0, 1, 1), 4] = 1.0
    vectors[i101, 5] = _SQ2
    vectors[i010, 5] = -_SQ2
    vectors[_basis_index(0, 0, 1), 6] = 1.0
    vectors[_basis_index(0, 0, 0), 7] = 1.0
    return EigenSystem(energies=_readonly(energies), vectors=_readonly(vectors))


def channel_frequency(params: SystemParams, qubit: str, index: int) -> float:
    """Frequency of channel (qubit, index); always positive for valid params."""
    base = {"H": params.omega_h, "R": params.omega_r, "C": params.omega_c}[qubit]
    return base + _FREQ_OFFSET[(qubit, index)] * params.g


def transition_channels(params: SystemParams) -> tuple[TransitionChannel, ...]:
    """All nine channels, ordered H1..H3, R1..R3, C1..C3, built from one
    :func:`eigensystem` call (read-only operators).  Each operator is
    ``coeff * outer(v_to, v_from)`` of its two matrix elements, added to
    zeros in element order; all nine are built in one broadcast."""
    vectors = eigensystem(params).vectors.T  # row k: the eigenvector of level k
    products = _COEFF[..., None, None] * (vectors[_TO][..., :, None] * vectors[_FROM][..., None, :])
    operators = _readonly(np.zeros((len(CHANNEL_KEYS), DIM, DIM)) + products[:, 0] + products[:, 1])
    return tuple(TransitionChannel(q, j, channel_frequency(params, q, j), op,
                                   _CHANNEL_ELEMENTS[(q, j)], _CHANNEL_PAIR_WEIGHT[(q, j)])
                 for (q, j), op in zip(CHANNEL_KEYS, operators))


def channel_gaps(params: SystemParams, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gap rule over the rows of a kept-channel table ``kept``
    (``(M, 9)`` booleans, columns :data:`CHANNEL_KEYS`).  Per row: the
    pairs ``(i, j)``, ``i < j``, of its kept channels whose frequencies
    coincide within ``1e3 * machine epsilon * omega_c``, as an ``(M, 9, 9)``
    mask, and the smallest gap ``|f_i - f_j|`` between two of its kept
    channels (inf with fewer than two)."""
    freq = np.array([channel_frequency(params, *key) for key in CHANNEL_KEYS])
    gap = np.abs(freq[:, None] - freq)
    pairs = kept[:, :, None] & kept[:, None, :] & _UPPER
    return (pairs & (gap < 1e3 * _EPS * params.omega_c),
            np.where(pairs, gap, np.inf).min(axis=(1, 2)))


def _keys_row(keys: list[tuple[str, int]] | None) -> np.ndarray:
    """The one-row kept-channel table of ``keys`` (all nine if None)."""
    if keys is not None and (unknown := set(keys) - set(CHANNEL_KEYS)):
        raise KeyError(f"unknown channels {sorted(unknown)}")
    return np.array([[keys is None or key in keys for key in CHANNEL_KEYS]])


def degenerate_errors(degenerate: np.ndarray) -> dict[int, DegenerateChannelsError]:
    """The :class:`DegenerateChannelsError` of each row of a degenerate-pair
    mask of :func:`channel_gaps` that has a pair, keyed by row; it lists the
    row's pairs in channel order."""
    listing = defaultdict(list)
    for row, i, j in np.argwhere(degenerate).tolist():
        listing[row].append("{}{}~{}{}".format(*CHANNEL_KEYS[i], *CHANNEL_KEYS[j]))
    return {row: DegenerateChannelsError(f"coinciding channel frequencies: {', '.join(pairs)}")
            for row, pairs in listing.items()}


def check_nondegenerate(params: SystemParams, keys: list[tuple[str, int]] | None = None) -> None:
    """Raise :class:`DegenerateChannelsError` if any two of the given
    channels share a frequency.  The secular form of the dynamics assumes the
    participating frequencies are distinct."""
    for exc in degenerate_errors(channel_gaps(params, _keys_row(keys))[0]).values():
        raise exc
