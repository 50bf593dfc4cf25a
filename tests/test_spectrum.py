import numpy as np
import pytest

from conftest import draw_params
from qfridge import (
    DegenerateChannelsError,
    SystemParams,
    build_hamiltonian,
    channel_commutator_check,
    channel_frequency,
    eigensystem,
    spectrum,
    transition_channels,
)
from qfridge.spectrum import CHANNEL_KEYS, channel_gaps, check_nondegenerate

# computational-basis positions (descending binary |q_H q_R q_C>)
I111, I110, I101, I100, I011, I010, I001, I000 = range(8)


def test_hamiltonian_diagonal_entries(params):
    h = build_hamiltonian(params)
    assert h[I111, I111] == params.omega_r
    assert h[I000, I000] == -params.omega_r
    assert h[I101, I010] == params.g
    assert h[I010, I101] == params.g


def test_hamiltonian_diagonal_when_uncoupled():
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=1e-300, gamma=0.1)
    h = build_hamiltonian(p)
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() <= 1e-299


def test_eigensystem_energies_fixed_order():
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=0.5, gamma=0.1)
    eig = eigensystem(p)
    assert np.array_equal(eig.energies, [4, 3, 0.5, -1, 1, -0.5, -3, -4])
    assert eig.energies.sum() == 0.0


def test_eigensystem_symmetric_combination(params):
    eig = eigensystem(params)
    expected = np.zeros(8)
    expected[[I101, I010]] = 1.0 / np.sqrt(2.0)
    assert np.abs(eig.vectors[:, 2] - expected).max() < 1e-15


def test_eigensystem_orthonormal_and_diagonalizing(params):
    eig = eigensystem(params)
    v = eig.vectors
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-12
    h = build_hamiltonian(params)
    transformed = eig.to_eigenbasis(h)
    assert np.abs(transformed - np.diag(eig.energies)).max() < 1e-12


def test_eigensystem_matches_numerical_diagonalization(rng):
    for _ in range(20):
        p = draw_params(rng)
        eig = eigensystem(p)
        h = build_hamiltonian(p)
        numeric = np.sort(np.linalg.eigvalsh(h))
        assert np.abs(np.sort(eig.energies) - numeric).max() < 1e-12


def test_nine_channels_with_expected_frequencies(params):
    channels = transition_channels(params)
    assert len(channels) == 9
    freqs = {(c.qubit, c.index): c.frequency for c in channels}
    wc, wh, wr, g = params.omega_c, params.omega_h, params.omega_r, params.g
    assert freqs[("H", 1)] == wh
    assert freqs[("H", 2)] == wh - g
    assert freqs[("H", 3)] == wh + g
    assert freqs[("R", 1)] == wr - g
    assert freqs[("R", 2)] == wr
    assert freqs[("R", 3)] == wr + g
    assert freqs[("C", 1)] == wc - g
    assert freqs[("C", 2)] == wc + g
    assert freqs[("C", 3)] == wc
    assert len(set(freqs.values())) == 9
    assert all(f > 0 for f in freqs.values())


def test_room_channel_operator_matrix(params):
    eig = eigensystem(params)
    (r2,) = [c for c in transition_channels(params) if c.key == ("R", 2)]
    expected = np.outer(eig.vectors[:, 3], eig.vectors[:, 1].conj()) \
        + np.outer(eig.vectors[:, 6], eig.vectors[:, 4].conj())
    assert np.abs(r2.operator - expected).max() < 1e-15
    assert r2.frequency == params.omega_r


def test_channels_sum_to_embedded_lowering_operators(params):
    sm = np.array([[0, 0], [1, 0]], dtype=complex)  # basis |1>, |0>
    eye = np.eye(2, dtype=complex)
    embedded = {
        "H": np.kron(sm, np.kron(eye, eye)),
        "R": np.kron(eye, np.kron(sm, eye)),
        "C": np.kron(eye, np.kron(eye, sm)),
    }
    channels = transition_channels(params)
    for qubit, target in embedded.items():
        total = sum(c.operator for c in channels if c.qubit == qubit)
        assert np.abs(total - target).max() < 1e-12


def test_commutator_residual_small(rng):
    assert channel_commutator_check(
        SystemParams(omega_c=1.0, omega_h=3.0, g=0.5, gamma=0.1)) <= 1e-12
    assert channel_commutator_check(
        SystemParams(omega_c=1.0, omega_h=3.0, g=0.9, gamma=0.1)) <= 1e-12
    for _ in range(10):
        assert channel_commutator_check(draw_params(rng)) <= 1e-12


def test_commutator_detects_corrupted_frequency(params):
    h = build_hamiltonian(params)
    (h1,) = [c for c in transition_channels(params) if c.key == ("H", 1)]
    wrong = h1.frequency + 0.1
    resid = np.linalg.norm(h @ h1.operator - h1.operator @ h + wrong * h1.operator, 2)
    assert resid == pytest.approx(0.1 * np.linalg.norm(h1.operator, 2), rel=1e-9)


def test_channel_frequency_sum_rules(rng):
    for _ in range(10):
        p = draw_params(rng)
        f = lambda q, j: channel_frequency(p, q, j)
        assert f("H", 1) + f("C", 1) == pytest.approx(f("R", 1), abs=1e-15)
        assert f("H", 3) + f("C", 1) == pytest.approx(f("R", 2), abs=1e-15)
        assert f("H", 2) + f("C", 2) == pytest.approx(f("R", 2), abs=1e-15)
        assert f("H", 3) + f("C", 3) == pytest.approx(f("R", 3), abs=1e-15)


def test_channel_number_operators_diagonal_in_eigenbasis(params):
    # this property lets steady states close on populations alone
    eig = eigensystem(params)
    for ch in transition_channels(params):
        a = eig.to_eigenbasis(ch.operator)
        for m in (a.conj().T @ a, a @ a.conj().T):
            off = m - np.diag(np.diag(m))
            assert np.abs(off).max() < 1e-14


def test_degeneracy_guard():
    # g = omega_c / 2 collides the upper room channel with the upper hot one
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=0.5, gamma=0.1)
    degenerate, _ = channel_gaps(p, np.ones((1, 9), dtype=bool))
    pairs = [(CHANNEL_KEYS[i], CHANNEL_KEYS[j]) for _, i, j in np.argwhere(degenerate).tolist()]
    assert (("H", 3), ("R", 1)) in pairs or (("R", 1), ("H", 3)) in pairs
    for _ in range(2):  # a failed check is not memoised
        with pytest.raises(DegenerateChannelsError):
            check_nondegenerate(p)
    # restricted to channels that do not collide, the check passes
    check_nondegenerate(p, keys=[("H", 2), ("R", 2), ("C", 2)])
    with pytest.raises(KeyError, match="unknown channels"):
        check_nondegenerate(p, keys=[("H", 2), ("H", 4)])


def test_spectrum_results_are_fresh_and_read_only(params):
    same = SystemParams(omega_c=params.omega_c, omega_h=params.omega_h,
                        g=params.g, gamma=params.gamma)
    h, h_same = build_hamiltonian(params), build_hamiltonian(same)
    assert h is not h_same and np.array_equal(h, h_same)
    eig, eig_same = eigensystem(params), eigensystem(same)
    assert eig is not eig_same
    assert np.array_equal(eig.energies, eig_same.energies)
    assert np.array_equal(eig.vectors, eig_same.vectors)
    channels, channels_same = transition_channels(params), transition_channels(same)
    for ch, ch_same in zip(channels, channels_same, strict=True):
        assert ch is not ch_same and ch.operator is not ch_same.operator
        assert (ch.key, ch.frequency) == (ch_same.key, ch_same.frequency)
        assert np.array_equal(ch.operator, ch_same.operator)
    arrays = [h, eig.energies, eig.vectors]
    for ch in channels:
        arrays += [ch.operator, ch.adjoint, ch.aad, ch.ada]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    # derived results are fresh arrays the caller owns
    eig.to_eigenbasis(h)[0, 0] = 1.0


def test_channels_read_the_eigensystem_on_every_call(params, monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return eigensystem(p)

    monkeypatch.setattr(spectrum, "eigensystem", counted)
    transition_channels(params)
    transition_channels(params)
    assert calls == [params, params]


def test_channel_operators_are_the_element_outer_products_bit_for_bit(rng):
    # each operator is coeff * outer(v_to, v_from) of its two elements, added
    # to zeros in element order; signs of zeros included
    for p in [draw_params(rng) for _ in range(3)]:
        vectors = eigensystem(p).vectors
        for ch in transition_channels(p):
            want = np.zeros((8, 8))
            for to, frm, coeff in ch.elements:
                want += coeff * np.outer(vectors[:, to], vectors[:, frm])
            assert np.array_equal(ch.operator, want), ch
            assert np.array_equal(np.signbit(ch.operator), np.signbit(want)), ch


def test_channel_products_are_the_operator_products(params):
    for ch in transition_channels(params):
        a = ch.operator
        assert (ch.adjoint == a.conj().T).all()
        assert (ch.aad == a @ a.conj().T).all()
        assert (ch.ada == a.conj().T @ a).all()


def test_model_matrices_are_real(params):
    # the Hamiltonian, the closed-form eigenvectors and every channel
    # operator have real entries and are stored as float64
    arrays = [build_hamiltonian(params), eigensystem(params).vectors]
    for ch in transition_channels(params):
        arrays += [ch.operator, ch.adjoint, ch.ada, ch.aad]
    assert [a.dtype for a in arrays] == [np.dtype(np.float64)] * len(arrays)


def test_diagonal_state_takes_the_dtype_of_its_populations(params, rng):
    eig = eigensystem(params)
    pops = rng.dirichlet(np.ones(8), size=3)
    real, cplx = eig.diagonal_state(pops), eig.diagonal_state(pops.astype(complex))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.array_equal(real, cplx) and not cplx.imag.any()


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega_c=1.0, omega_h=0.5, g=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        SystemParams(omega_c=1.0, omega_h=3.0, g=1.5, gamma=0.1)
    with pytest.raises(ValueError):
        SystemParams(omega_c=1.0, omega_h=3.0, g=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega_c=-1.0, omega_h=3.0, g=0.1, gamma=0.1)


def test_omega_r_is_derived(params):
    assert params.omega_r == params.omega_c + params.omega_h
