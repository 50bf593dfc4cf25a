"""Dense complex-matrix utilities shared by the whole package.

Everything operates on plain ``numpy`` arrays of dtype complex128, or
float64 where a matrix is real (the model's operators and the density
matrices of its steady states).  The matrices involved are tiny (8x8
operators, 64x64 superoperators), so there is no sparse path and no
attempt at clever storage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityMatrixError",
    "RankAmbiguityWarning",
    "DensityMatrix",
    "require_finite",
    "require_finite_fields",
    "dagger",
    "null_space",
    "null_dimensions",
    "warn_rank_ambiguity",
    "svd_rows",
    "dm_validate",
]

#: Relative rank threshold for null-space extraction.  The problem matrices
#: are at most 8-dimensional and O(1)-scaled after nondimensionalization, so a
#: single fixed relative tolerance is adequate.
DEFAULT_RANK_TOL = 1e-10

#: Density-matrix validation tolerances (one order above solver tol).
HERM_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


class DensityMatrixError(ValueError):
    """A matrix failed density-matrix validation.

    ``violation`` names the broken invariant: ``"non-hermitian"``,
    ``"trace-off"`` or ``"negative-eigenvalue"``.
    """

    def __init__(self, violation: str, detail: str):
        super().__init__(f"{violation}: {detail}")
        self.violation = violation


class RankAmbiguityWarning(UserWarning):
    """Singular values cluster at the rank threshold; the null-space
    dimension is not well separated from the numerical noise floor."""


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def require_finite_fields(obj: object, *names: str) -> None:
    """Raise ValueError naming the first of ``names`` set on ``obj`` but not finite."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def null_space(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the right null space of a square matrix.

    The rank is decided by a singular-value decomposition: singular values
    below ``tol * s_max`` count as zero (:func:`null_dimensions`).  Returns
    an ``(n, k)`` array whose columns span the null space (``k = 0`` for a
    full-rank input).

    Warns with :class:`RankAmbiguityWarning` when any singular value falls
    within a factor of 10 of the threshold on either side, since the
    reported dimension is then sensitive to the tolerance choice.
    """
    a = require_finite(m, "null_space input")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"null_space expects a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return np.eye(0, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    (k,), (ambiguous,), (cut,) = null_dimensions(s[np.newaxis], tol)
    if ambiguous:
        warn_rank_ambiguity(ambiguous, cut, stacklevel=2)
    if s[0] == 0.0:
        return np.eye(n, dtype=complex)
    return vh[n - k:].conj().T


def null_dimensions(
    s: np.ndarray, tol: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rank rule of :func:`null_space` for a stack of singular values
    ``(N, n)``, each row in descending order: per row the null-space
    dimension (``n`` for a zero matrix), the number of singular values
    within a decade of the rank cut (0 for a zero matrix; a positive count
    is a :func:`warn_rank_ambiguity`) and the cut ``tol * s_max``."""
    cut = tol * s[:, :1]
    zero = s[:, 0] == 0.0
    ambiguous = np.count_nonzero((s > cut / 10.0) & (s < cut * 10.0), axis=-1)
    k = np.count_nonzero(s < cut, axis=-1)
    return np.where(zero, s.shape[-1], k), np.where(zero, 0, ambiguous), cut[:, 0]


def warn_rank_ambiguity(ambiguous: int, cut: float, stacklevel: int) -> None:
    """The :class:`RankAmbiguityWarning` of ``ambiguous`` singular values
    within a decade of the rank cut ``cut``."""
    warnings.warn(
        f"{ambiguous} singular value(s) within a decade of the rank "
        f"threshold {cut:.3e}; null-space dimension is ambiguous",
        RankAmbiguityWarning,
        stacklevel=stacklevel + 1,
    )


def svd_rows(
    stack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[int, np.linalg.LinAlgError]]:
    """``np.linalg.svd`` of each matrix of a stack ``(N, m, m)``: the
    singular values ``(N, m)``, the right singular vectors ``(N, m, m)``
    and the ``LinAlgError`` of each matrix whose SVD failed, by index (its
    rows of the arrays are NaN).  The stack is one LAPACK call; if it
    raises, each matrix is redone alone.  Each result equals the SVD of
    that matrix alone, bit for bit."""
    try:
        _, s, vh = np.linalg.svd(stack)
        return s, vh, {}
    except np.linalg.LinAlgError:
        pass
    n, m = stack.shape[:2]
    s = np.full((n, m), np.nan)
    vh = np.full((n, m, m), np.nan, dtype=stack.dtype)
    failed = {}
    for k in range(n):
        try:
            _, s[k], vh[k] = np.linalg.svd(stack[k])
        except np.linalg.LinAlgError as exc:
            failed[k] = exc
    return s, vh, failed


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """A density matrix, checked (Hermitian, unit trace, PSD) only by :func:`dm_validate`."""

    matrix: np.ndarray


def dm_validate(rho: np.ndarray) -> DensityMatrix:
    """Validate a candidate density matrix.

    Raises :class:`DensityMatrixError` naming the violated invariant:
    Hermiticity within ``HERM_TOL``, unit trace within ``TRACE_TOL``, and
    eigenvalues above ``-PSD_TOL``.
    """
    a = require_finite(rho, "density matrix")
    herm = np.abs(a - dagger(a)).max()
    if herm > HERM_TOL:
        raise DensityMatrixError("non-hermitian", f"|rho - rho^dag| = {herm:.3e}")
    tr = np.trace(a)
    if abs(tr - 1.0) > TRACE_TOL:
        raise DensityMatrixError("trace-off", f"trace = {tr:.12g}")
    evals = np.linalg.eigvalsh(0.5 * (a + dagger(a)))
    if evals.min() < -PSD_TOL:
        raise DensityMatrixError(
            "negative-eigenvalue", f"min eigenvalue = {evals.min():.3e}"
        )
    return DensityMatrix(matrix=a)
