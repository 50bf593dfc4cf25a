import numpy as np
import pytest

from qfridge import (
    DensityMatrixError,
    ReservoirSet,
    build_generator,
    build_population_matrix,
    dm_validate,
    null_space,
)
from qfridge.matrixcore import RankAmbiguityWarning
from qfridge.reservoirs import REVIVAL_FILTER


def test_null_space_zero_and_identity():
    basis = null_space(np.zeros((2, 2)))
    assert basis.shape == (2, 2)
    assert null_space(np.eye(3)).shape == (3, 0)


def test_null_space_revival_population_matrix(params):
    # the revival mask splits the levels into four invariant pieces, so the
    # population rate matrix has a four-dimensional kernel
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    w = build_population_matrix(gen.dissipators)
    assert null_space(w).shape == (8, 4)


def test_null_space_residual_bound(rng):
    tol = 1e-10
    for _ in range(20):
        # random rank-5 8x8 matrix
        left = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        right = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        a = left @ right
        basis = null_space(a, tol)
        assert basis.shape[1] == 3
        norm_a = np.linalg.norm(a, 2)
        for k in range(basis.shape[1]):
            assert np.linalg.norm(a @ basis[:, k]) <= 10 * tol * norm_a


def test_null_space_warns_on_ambiguous_rank():
    m = np.diag([1.0, 3e-10, 1e-14])
    with pytest.warns(RankAmbiguityWarning):
        null_space(m, tol=1e-10)


def test_null_space_requires_square():
    with pytest.raises(ValueError, match="square"):
        null_space(np.zeros((2, 3)))


def test_dm_validate_accepts_maximally_mixed():
    dm = dm_validate(np.eye(8) / 8.0)
    assert dm.matrix.shape == (8, 8)
    assert np.allclose(np.diag(dm.matrix), 1.0 / 8.0)


def test_dm_validate_trace_off():
    with pytest.raises(DensityMatrixError, match="trace-off") as err:
        dm_validate(0.9 * np.eye(8) / 8.0)
    assert err.value.violation == "trace-off"


def test_dm_validate_non_hermitian():
    a = np.eye(8, dtype=complex) / 8.0
    a[0, 1] = 1.0
    with pytest.raises(DensityMatrixError, match="non-hermitian"):
        dm_validate(a)


def test_dm_validate_negative_eigenvalue():
    a = np.diag([0.6, 0.5, -0.1, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(DensityMatrixError, match="negative-eigenvalue"):
        dm_validate(a)


def test_dm_validate_rejects_nan():
    a = np.eye(8, dtype=complex) / 8.0
    a[3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dm_validate(a)
