import gc
import math
import re
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import draw_params, draw_reservoirs
from qfridge import (
    BackgroundSpec,
    DegenerateChannelsError,
    FilterConfig,
    ReservoirSet,
    SystemParams,
    apply_dissipator,
    branch_weights,
    build_generator,
    build_population_matrix,
    build_report,
    channel_rates,
    dm_validate,
    eigensystem,
    heat_currents,
    invariant_components,
    propagate,
    steady_state_branches_analytic,
    steady_state_vacuum_background_analytic,
    steady_states_numeric,
    transition_channels,
)
from qfridge.reservoirs import REVIVAL_FILTER
from qfridge import dynamics
from conftest import by_support, hot_rates, state_sets
from qfridge.cli import load_config
from qfridge.dynamics import (
    BLOCK_STEPS,
    DEFAULT_EPS_SS,
    LADDER_RUNGS,
    RK4_STABLE_RADIUS,
    VACUUM_TRANSPORT_FILTER,
    rate_table,
    steady_state_rows,
)
from qfridge.spectrum import EigenSystem
from qfridge.thermo import IMAG_FAULT_TOL, NumericalFault
from test_exactness import solved_grids, stationary

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- test-local oracle: closed-form stationary weights, written out -------

def revival_rate_pairs(params, reservoirs):
    channels = transition_channels(params)
    by_key = {c.key: c for c in channels}
    return (
        channel_rates(by_key[("H", 3)], reservoirs["H"]),
        channel_rates(by_key[("R", 2)], reservoirs["R"]),
        channel_rates(by_key[("C", 1)], reservoirs["C"]),
    )


def k_weights(jh, jr, jc):
    """Stationary weights of the two flowing branches of the revival mask,
    written out term by term, independent of the package implementation."""
    k_plus = (
        2 * (jh.j_plus + jc.j_minus) * jr.j_plus + jh.j_plus * jc.j_plus,
        2 * (jh.j_plus + jc.j_minus) * jr.j_minus + jh.j_minus * jc.j_minus,
        2 * jr.j_minus * jc.j_plus + jh.j_minus * jc.j_plus
        + 2 * jh.j_minus * jr.j_plus,
    )
    k_minus = (
        2 * jr.j_plus * jc.j_minus + jh.j_plus * jc.j_minus
        + 2 * jh.j_plus * jr.j_minus,
        2 * (jh.j_minus + jc.j_plus) * jr.j_plus + jh.j_plus * jc.j_plus,
        2 * (jh.j_minus + jc.j_plus) * jr.j_minus + jh.j_minus * jc.j_minus,
    )
    return np.array(k_plus), np.array(k_minus)


def oracle_branch_populations(params, reservoirs):
    """Eight-level population vectors of the two flowing branches."""
    kp, km = k_weights(*revival_rate_pairs(params, reservoirs))
    plus = np.zeros(8)
    plus[[1, 3, 5]] = kp / kp.sum()
    minus = np.zeros(8)
    minus[[2, 4, 6]] = km / km.sum()
    return plus, minus


def random_density_matrix(rng, dim=8):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def revival_generator(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    return build_generator(params, REVIVAL_FILTER, reservoirs)


# --- dissipators ------------------------------------------------------------


def dissipator_reference(d, rho):
    """One channel's dissipator, written out as the per-channel formula the
    kernel must reproduce bit for bit."""
    a = d.channel.operator
    ad = a.conj().T
    aad = a @ ad
    ada = ad @ a
    jp, jm = d.j_plus, d.j_minus
    out = jm * (2.0 * (a @ rho @ ad) - ada @ rho - rho @ ada)
    if jp != 0.0:
        out += jp * (2.0 * (ad @ rho @ a) - aad @ rho - rho @ aad)
    return out


def heat_current_reference(h, d, rho):
    return complex(np.trace(h @ dissipator_reference(d, rho)))


def kernel_generators(params):
    """Thermal-background, vacuum-background, all-channels and REVIVAL
    generators: every mix of channels with and without j+ = 0."""
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    return [
        build_generator(params, REVIVAL_FILTER, reservoirs,
                        BackgroundSpec.thermal(1.2, params.gamma)),
        build_generator(params, VACUUM_TRANSPORT_FILTER, reservoirs,
                        BackgroundSpec.vacuum(params.gamma)),
        build_generator(params, FilterConfig.all_channels(), reservoirs),
        build_generator(params, REVIVAL_FILTER, reservoirs),
    ]


def test_stacked_kernel_equals_per_channel_formula(params, rng):
    for gen in kernel_generators(params):
        states = [s.state.matrix for s in steady_states_numeric(gen)]
        for rho in states + [random_density_matrix(rng)]:
            for d in gen.dissipators:
                assert (apply_dissipator(d, rho) == dissipator_reference(d, rho)).all()
            currents = [heat_current_reference(gen.hamiltonian, d, rho)
                        for d in gen.dissipators]
            got = heat_currents(gen.hamiltonian, gen.dissipators, rho)
            assert got.tolist() == [c.real for c in currents]


def test_stacked_states_equal_single_state_calls(params, rng):
    for gen in kernel_generators(params):
        stack = np.array([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 8, 8)
        for d in gen.dissipators:
            got = apply_dissipator(d, stack)
            assert got.shape == (2, 3, 8, 8)
            for i in range(2):
                for j in range(3):
                    assert (got[i, j] == apply_dissipator(d, stack[i, j])).all()


def liouvillian_reference(gen):
    """The 64x64 generator from Kronecker products, ``vec(A rho B) =
    (B^T kron A) vec(rho)``: the commutator term, then each dissipator's
    superoperator in order."""
    eye = np.eye(8)

    def sandwich(a, b):  # rho -> a rho b
        return np.kron(b.T, a)

    h = gen.hamiltonian
    liou = -1j * (sandwich(h, eye) - sandwich(eye, h))
    for d in gen.dissipators:
        ch = d.channel
        a, ad = ch.operator, ch.adjoint
        jp, jm = d.j_plus, d.j_minus
        sup = jm * (2.0 * sandwich(a, ad) - sandwich(ch.ada, eye) - sandwich(eye, ch.ada))
        if jp != 0.0:
            sup += jp * (2.0 * sandwich(ad, a) - sandwich(ch.aad, eye) - sandwich(eye, ch.aad))
        liou += sup
    return liou


def test_liouvillian_equals_kronecker_reference(params):
    # the model matrices are real; the Liouvillian, with its -i[H, .]
    # term, stays complex
    for gen in kernel_generators(params):
        assert gen.liouvillian.dtype == np.complex128
        assert np.array_equal(gen.liouvillian, liouvillian_reference(gen))


def test_heat_currents_fault_names_first_bad_channel(revival_generator, rng):
    gen = revival_generator  # H3, R2, C1; H3 never touches level 3
    rho = random_density_matrix(rng) + 1e-3j * gen.eigen.diagonal_state(np.eye(8)[3])
    imag = [heat_current_reference(gen.hamiltonian, d, rho).imag
            for d in gen.dissipators]
    first = next(k for k, v in enumerate(imag) if abs(v) > IMAG_FAULT_TOL)
    assert first == 1
    with pytest.raises(NumericalFault, match=rf"\(channel {gen.dissipators[first]}\)"):
        heat_currents(gen.hamiltonian, gen.dissipators, rho)


def test_apply_dissipator_traceless_hermitian(revival_generator, rng):
    rho = random_density_matrix(rng)
    for d in revival_generator.dissipators:
        out = apply_dissipator(d, rho)
        assert abs(np.trace(out)) < 1e-13
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_vacuum_dissipator_leaves_ground_state_dark(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=0.0, t_r=0.0, t_c=0.0)
    gen = build_generator(params, FilterConfig.all_channels(), reservoirs)
    eig = eigensystem(params)
    ground = eig.diagonal_state(np.eye(8)[7])
    for d in gen.dissipators:
        assert np.abs(apply_dissipator(d, ground)).max() == 0.0


# --- generator --------------------------------------------------------------


def test_generator_shape_and_trace_preservation(revival_generator):
    liou = revival_generator.liouvillian
    assert liou.shape == (64, 64)
    trace_functional = np.eye(8, dtype=complex).flatten(order="F")
    assert np.abs(trace_functional @ liou).max() < 1e-13 * np.linalg.norm(liou, 2)


def test_generator_matches_dissipator_action(revival_generator, rng):
    # the vectorized generator must agree with the direct matrix formula
    gen = revival_generator
    rho = random_density_matrix(rng)
    h = gen.hamiltonian
    direct = -1j * (h @ rho - rho @ h)
    for d in gen.dissipators:
        direct += apply_dissipator(d, rho)
    via_l = (gen.liouvillian @ rho.flatten(order="F")).reshape(8, 8, order="F")
    assert np.abs(via_l - direct).max() < 1e-12


def test_gibbs_state_is_fixed_point_of_unfiltered_equal_temperatures(rng):
    for _ in range(5):
        p = draw_params(rng)
        t = rng.uniform(0.5, 3.0)
        reservoirs = ReservoirSet.from_temperatures(p, t_h=t, t_r=t, t_c=t)
        gen = build_generator(p, FilterConfig.all_channels(), reservoirs)
        h = gen.hamiltonian
        gibbs = scipy.linalg.expm(-h / t)
        gibbs /= np.trace(gibbs)
        resid = np.linalg.norm(gen.liouvillian @ gibbs.flatten(order="F"))
        assert resid < 1e-10 * np.linalg.norm(gen.liouvillian, 2)


def test_revival_generator_population_coherence_decoupling(revival_generator):
    # columns of L indexed by eigenlevel populations stay in the population
    # sector and vice versa
    gen = revival_generator
    eig = gen.eigen
    for i in range(8):
        rho = eig.diagonal_state(np.eye(8)[i])
        out = (gen.liouvillian @ rho.flatten(order="F")).reshape(8, 8, order="F")
        out_eig = eig.to_eigenbasis(out)
        off = out_eig - np.diag(np.diag(out_eig))
        assert np.abs(off).max() < 1e-13
    coh = np.outer(eig.vectors[:, 1], eig.vectors[:, 3].conj())
    out = (gen.liouvillian @ coh.flatten(order="F")).reshape(8, 8, order="F")
    assert np.abs(np.diag(eig.to_eigenbasis(out))).max() < 1e-13


def test_degeneracy_guard_on_build(params):
    p = type(params)(omega_c=1.0, omega_h=3.0, g=0.5, gamma=0.1)
    reservoirs = ReservoirSet.from_temperatures(p, t_h=3.0, t_r=2.0, t_c=1.0)
    for _ in range(2):  # a failed check is not memoised
        with pytest.raises(DegenerateChannelsError):
            build_generator(p, FilterConfig.all_channels(), reservoirs)
    # the colliding channels are filtered out here, so this must build
    build_generator(p, FilterConfig.single(2, 2, 2), reservoirs)


# --- population rate matrix -------------------------------------------------


def test_population_matrix_column_sums_and_signs(revival_generator):
    w = build_population_matrix(revival_generator.dissipators)
    assert np.abs(w.sum(axis=0)).max() < 1e-15
    off = w - np.diag(np.diag(w))
    assert off.min() >= 0.0


def test_population_matrix_block_structure(params):
    # hand-built rate blocks for the revival mask: one two-level block per
    # channel transition, embedded at the known level pairs
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    jh, jr, jc = revival_rate_pairs(params, reservoirs)

    expected = np.zeros((8, 8))

    def block(upper, lower, rates, weight):
        expected[upper, upper] -= weight * rates.j_minus
        expected[lower, upper] += weight * rates.j_minus
        expected[lower, lower] -= weight * rates.j_plus
        expected[upper, lower] += weight * rates.j_plus

    block(1, 5, jh, 1.0)
    block(2, 6, jh, 1.0)
    block(1, 3, jr, 2.0)
    block(4, 6, jr, 2.0)
    block(4, 2, jc, 1.0)
    block(5, 3, jc, 1.0)

    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    w = build_population_matrix(gen.dissipators)
    assert np.abs(w - expected).max() == 0.0

    # the same blocks in tensor form over the level-index bits
    ip = np.diag([1.0, 0.0])
    im = np.diag([0.0, 1.0])
    jmat = lambda r: np.array([[-r.j_minus, r.j_plus], [r.j_minus, -r.j_plus]])
    w_h3 = np.kron(jmat(jh), np.kron(ip, im) + np.kron(im, ip))
    w_r2 = 2.0 * (np.kron(ip, np.kron(jmat(jr), im))
                  + np.kron(im, np.kron(jmat(jr), ip)))
    m_c1 = np.zeros((4, 4))
    m_c1[np.ix_((2, 1), (2, 1))] = jmat(jc)  # couples bit patterns 10 and 01
    w_c1 = np.kron(m_c1, np.eye(2))
    assert np.abs(w - (w_h3 + w_r2 + w_c1)).max() == 0.0


def test_population_matrix_agrees_with_liouvillian(revival_generator):
    gen = revival_generator
    w = build_population_matrix(gen.dissipators)
    for i in range(8):
        rho = gen.eigen.diagonal_state(np.eye(8)[i])
        out = (gen.liouvillian @ rho.flatten(order="F")).reshape(8, 8, order="F")
        col = np.real(np.diag(gen.eigen.to_eigenbasis(out)))
        assert np.abs(col - w[:, i]).max() < 1e-12


# --- invariant components ---------------------------------------------------


def test_components_revival(revival_generator):
    w = build_population_matrix(revival_generator.dissipators)
    closed = invariant_components(w)
    assert closed == (
        frozenset({0}), frozenset({1, 3, 5}), frozenset({2, 4, 6}), frozenset({7}))
    assert set().union(*closed) == set(range(8))  # no transient level


def test_components_all_channels(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, FilterConfig.all_channels(), reservoirs)
    assert invariant_components(build_population_matrix(gen.dissipators)) == (
        frozenset(range(8)),)


def test_components_no_channels():
    assert invariant_components(np.zeros((8, 8))) == tuple(frozenset({i}) for i in range(8))


def test_components_vacuum_background(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(0.3))
    assert invariant_components(build_population_matrix(gen.dissipators)) == (
        frozenset({7}),)  # levels 0-6 are transient
    # every transient level decays into the one closed class
    for t in range(7):
        weights = branch_weights(gen.eigen.diagonal_state(np.eye(8)[t]), gen)
        assert weights.shape == (1,) and abs(weights[0] - 1.0) <= 1e-12


def test_thermal_background_restores_ergodicity(rng):
    for _ in range(10):
        p = draw_params(rng)
        reservoirs = draw_reservoirs(rng, p)
        filt = FilterConfig(
            kept_h=frozenset(int(j) for j in rng.choice([1, 2, 3], rng.integers(0, 4), replace=False)),
            kept_r=frozenset(int(j) for j in rng.choice([1, 2, 3], rng.integers(0, 4), replace=False)),
            kept_c=frozenset(int(j) for j in rng.choice([1, 2, 3], rng.integers(0, 4), replace=False)),
        )
        gen = build_generator(p, filt, reservoirs,
                              BackgroundSpec.thermal(rng.uniform(0.3, 2.0), 0.05))
        assert invariant_components(build_population_matrix(gen.dissipators)) == (
            frozenset(range(8)),)


def bfs_class_codes(w: np.ndarray) -> np.ndarray:
    """``dynamics._class_codes`` written out as a breadth-first search per
    level: the levels i reaches through rates ``w[j, i] > 0`` form a closed
    class when each of them reaches i back; its bit set is stored at its
    smallest level."""
    codes = np.zeros((len(w), 8), dtype=int)
    for k, wk in enumerate(w):
        reach = []
        for i in range(8):
            seen, frontier = {i}, [i]
            while frontier:
                frontier = [j for a in frontier for j in range(8)
                            if wk[j, a] > 0.0 and j not in seen]
                seen.update(frontier)
            reach.append(seen)
        for i in range(8):
            if all(i in reach[j] for j in reach[i]):
                codes[k, min(reach[i])] = sum(1 << j for j in reach[i])
    return codes


_RATE = st.sampled_from([0.0] * 6 + [5e-324, 1e-300, 1e-12, 1.0, 3.5, 1e300])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rates=st.lists(st.lists(_RATE, min_size=56, max_size=56), min_size=1, max_size=12))
def test_class_codes_equal_a_breadth_first_search(rates):
    # sparse nonnegative rates as rate matrices whose columns sum to zero,
    # and a last row of zeros: eight one-level classes
    w = np.zeros((len(rates) + 1, 8, 8))
    off = ~np.eye(8, dtype=bool)
    for k, row in enumerate(rates):
        w[k][off] = row
        w[k] -= np.diag(w[k].sum(axis=0))
    codes = dynamics._class_codes(w)
    assert codes.tolist() == bfs_class_codes(w).tolist()
    assert codes[-1].tolist() == [1 << i for i in range(8)]


def test_class_codes_of_the_census_equal_a_breadth_first_search():
    from qfridge import cli

    config = load_config(str(CONFIGS / "filter_census.ini"))
    masks = cli._filter_patterns("all")
    *_, w, finite = cli._grid_rates(config, cli.kept_channel_table(masks), [
        [config.reservoirs[q].temperature for q in "HRC"]] * len(masks))
    assert w.shape == (216, 8, 8) and finite.all()
    assert dynamics._class_codes(w).tolist() == bfs_class_codes(w).tolist()


# --- steady states ----------------------------------------------------------


def test_revival_four_branches_match_closed_form(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    states = steady_states_numeric(gen)
    assert len(states) == 4
    plus, minus = oracle_branch_populations(params, reservoirs)
    states = by_support(states)
    assert np.abs(states[(0,)].populations - np.eye(8)[0]).max() == 0.0
    assert np.abs(states[(7,)].populations - np.eye(8)[7]).max() == 0.0
    assert np.abs(states[1, 3, 5].populations - plus).max() < 1e-13
    assert np.abs(states[2, 4, 6].populations - minus).max() < 1e-13


def test_vacuum_background_unique_ground_state(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(params.gamma))
    (state,) = steady_states_numeric(gen)
    target = np.zeros((8, 8))
    target[7, 7] = 1.0  # |000><000| in the computational basis
    assert np.abs(state.state.matrix - target).max() < 1e-10


def test_equal_temperature_gibbs_steady_state(rng):
    p = draw_params(rng)
    t = 1.7
    reservoirs = ReservoirSet.from_temperatures(p, t_h=t, t_r=t, t_c=t)
    gen = build_generator(p, FilterConfig.all_channels(), reservoirs)
    (state,) = steady_states_numeric(gen)
    gibbs = scipy.linalg.expm(-gen.hamiltonian / t)
    gibbs /= np.trace(gibbs)
    assert np.abs(state.state.matrix - gibbs).max() < 1e-10


def _residual_bound_generators(rng):
    for _ in range(5):
        p = draw_params(rng)
        yield build_generator(p, REVIVAL_FILTER, draw_reservoirs(rng, p))
    p = draw_params(rng)
    reservoirs = draw_reservoirs(rng, p)
    yield build_generator(p, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.thermal(0.8, p.gamma))
    yield build_generator(p, VACUUM_TRANSPORT_FILTER, reservoirs,
                          BackgroundSpec.vacuum(p.gamma))
    yield build_generator(p, FilterConfig.all_channels(), reservoirs)


def test_steady_states_satisfy_residual_bound(rng):
    # the solver gates on W; the states must also satisfy the bound on the
    # full generator, and the W gate is the stricter one
    for gen in _residual_bound_generators(rng):
        lnorm = np.linalg.norm(gen.liouvillian, 2)
        wnorm = np.linalg.norm(build_population_matrix(gen.dissipators), 2)
        assert wnorm <= lnorm
        for s in steady_states_numeric(gen):
            resid = np.linalg.norm(gen.liouvillian @ s.state.matrix.flatten(order="F"))
            assert resid <= 1e-9 * lnorm


def test_steady_states_are_density_matrices_by_construction(rng):
    # the solver no longer validates its states; clipped, renormalised
    # populations must still give matrices that pass validation
    for gen in _residual_bound_generators(rng):
        for s in steady_states_numeric(gen):
            dm_validate(s.state.matrix)


def test_non_finite_populations_fail_the_residual_gate(params, monkeypatch):
    from qfridge import dynamics

    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    svd_rows = dynamics.svd_rows

    def nan_vectors(stack):
        # the class blocks' null vectors, and so their populations, are NaN
        s, vh, failed = svd_rows(stack)
        return s, np.full_like(vh, np.nan), failed

    monkeypatch.setattr(dynamics, "svd_rows", nan_vectors)
    with pytest.raises(dynamics.SolverFailure, match="has residual nan"):
        steady_states_numeric(gen)


def test_steady_solve_and_report_leave_liouvillian_unbuilt(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(params.gamma))
    for s in steady_states_numeric(gen):
        build_report(gen, s)
    assert "liouvillian" not in vars(gen)


# --- closed-form branches ---------------------------------------------------


def test_analytic_branches_match_k_oracle(params, rng):
    for _ in range(20):
        reservoirs = draw_reservoirs(rng, params)
        branches = steady_state_branches_analytic(params, reservoirs)
        assert branches.dark == (0, 7)
        plus, minus = oracle_branch_populations(params, reservoirs)
        tri_plus, tri_minus = branches.triangles
        assert tri_plus.support == frozenset({1, 3, 5})
        assert np.abs(tri_plus.populations - plus).max() < 1e-15
        assert tri_minus.support == frozenset({2, 4, 6})
        assert np.abs(tri_minus.populations - minus).max() < 1e-15


def test_analytic_branches_match_numeric_for_all_matched_filters(rng):
    from qfridge.reservoirs import COOLING_FILTERS

    for filt in COOLING_FILTERS:
        p = draw_params(rng)
        reservoirs = draw_reservoirs(rng, p)
        branches = steady_state_branches_analytic(p, reservoirs, filt)
        gen = build_generator(p, filt, reservoirs)
        states = steady_states_numeric(gen)
        assert len(states) == 4
        for support, pops in branches.states:
            numeric = by_support(states)[tuple(sorted(support))].populations
            assert np.abs(numeric - pops).max() < 1e-10


def test_analytic_branches_match_numeric_at_figure_point(params):
    # the temperatures of the figure scenario, converted from 66.7/40/10 K
    from qfridge.reservoirs import natural_from_kelvin

    unit_scale = 2.0 * np.pi * 210e9
    reservoirs = ReservoirSet.from_temperatures(
        params,
        t_h=natural_from_kelvin(66.7, unit_scale),
        t_r=natural_from_kelvin(40.0, unit_scale),
        t_c=natural_from_kelvin(10.0, unit_scale),
    )
    branches = steady_state_branches_analytic(params, reservoirs)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    states = by_support(steady_states_numeric(gen))
    for support, pops in branches.states:
        assert np.abs(states[tuple(sorted(support))].populations - pops).max() < 1e-10


def test_analytic_branches_equal_temperatures_detailed_balance(params):
    t = 2.0
    reservoirs = ReservoirSet.from_temperatures(params, t_h=t, t_r=t, t_c=t)
    branches = steady_state_branches_analytic(params, reservoirs)
    eig_energies = eigensystem(params).energies
    pops = branches.triangles[0].populations
    for a, b in ((1, 3), (3, 5), (1, 5)):
        expected = np.exp(-(eig_energies[a] - eig_energies[b]) / t)
        assert pops[a] / pops[b] == pytest.approx(expected, rel=1e-12)


def test_analytic_branches_zero_temperature_collapse(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=0.0, t_r=0.0, t_c=0.0)
    branches = steady_state_branches_analytic(params, reservoirs)
    plus = branches.triangles[0].populations
    assert plus[3] == 1.0  # everything falls to the lowest level of the cycle
    minus = branches.triangles[1].populations
    assert minus[6] == 1.0


def test_analytic_branches_reject_unmatched_filter(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=3.0, t_r=2.0, t_c=1.0)
    with pytest.raises(ValueError, match="not a matched cycle"):
        steady_state_branches_analytic(params, reservoirs, FilterConfig.single(1, 2, 1))


# --- vacuum-background closed form -------------------------------------------


@pytest.fixture
def conduction_setup():
    from qfridge import SystemParams

    p = SystemParams(omega_c=1.0, omega_h=3.0, g=0.25, gamma=0.05)
    reservoirs = ReservoirSet.from_temperatures(p, t_h=6.0, t_r=4.0, t_c=1.0)
    return p, reservoirs


def test_vacuum_background_solution_structure(conduction_setup):
    p, reservoirs = conduction_setup
    sol = steady_state_vacuum_background_analytic(p, reservoirs)
    pops = sol.populations
    assert pops.sum() == pytest.approx(1.0, abs=1e-15)
    assert pops[3] == pytest.approx(pops[5] / 2.0, rel=1e-15)
    assert np.abs(pops[[0, 1, 2, 4]]).max() == 0.0


def test_vacuum_background_solution_matches_numeric(conduction_setup):
    p, reservoirs = conduction_setup
    sol = steady_state_vacuum_background_analytic(p, reservoirs)
    gen = build_generator(p, VACUUM_TRANSPORT_FILTER, reservoirs,
                          BackgroundSpec.vacuum(p.gamma))
    (state,) = steady_states_numeric(gen)
    assert np.abs(state.populations - sol.populations).max() < 1e-10


def test_vacuum_background_rejects_mismatched_rates(conduction_setup):
    p, reservoirs = conduction_setup
    with pytest.raises(ValueError, match="uniform rate"):
        steady_state_vacuum_background_analytic(p, reservoirs, gamma=0.123)


# --- propagation ------------------------------------------------------------


def rk4_reference(rho0, gen, t_final, dt, eps_ss=DEFAULT_EPS_SS):
    """Stage-wise RK4 on the 64x64 ``gen.liouvillian``, one Python iteration
    per step, with the same stop rule and time accounting as ``propagate``
    but no step-size rule.  Returns ``(state, time, converged, steps)``."""
    liou = gen.liouvillian
    v = np.asarray(rho0, dtype=complex).flatten(order="F")
    t = 0.0
    steps = 0
    converged = float(np.linalg.norm(liou @ v)) < eps_ss
    while t < t_final and not converged:
        step = min(dt, t_final - t)
        k1 = liou @ v
        k2 = liou @ (v + 0.5 * step * k1)
        k3 = liou @ (v + 0.5 * step * k2)
        k4 = liou @ (v + step * k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
        steps += 1
        if float(np.linalg.norm(liou @ v)) < eps_ss:
            converged = True
    return v.reshape(8, 8, order="F"), t, converged, steps


def assert_matches_rk4_reference(rho0, gen, t_final, dt, eps_ss=DEFAULT_EPS_SS):
    result = propagate(rho0, gen, t_final, dt=dt, eps_ss=eps_ss)
    state, t, converged, steps = rk4_reference(rho0, gen, t_final, dt, eps_ss=eps_ss)
    assert (result.steps, result.time, result.converged) == (steps, t, converged)
    assert np.abs(result.state - state).max() <= 1e-12
    return result


def block_norm(gen):
    """``||L_e||_1``, the largest absolute column sum of the eigenbasis
    generator."""
    return np.abs(gen.eigen_generator[0]).sum(axis=0).max()


def default_dt(gen):
    """``propagate``'s default step, ``0.1 / ||L_e||_1``."""
    return 0.1 / block_norm(gen)


def eigen_liouvillian(gen):
    """``(V^T kron V^T) L (V kron V)``: the 64x64 generator in the eigenbasis,
    from ``gen.liouvillian``."""
    k = np.kron(gen.eigen.vectors, gen.eigen.vectors)
    return k.T @ gen.liouvillian @ k


def dense_blocks(gen):
    """The blocks of ``gen.eigen_generator``: the vec indices of each
    block's coherences, by label, and the mask of the 64x64 entries that
    lie within a block."""
    label = gen.eigen_generator[1]
    blocks = {b: np.flatnonzero(label == b) for b in sorted(set(label.tolist()))}
    return blocks, label[:, None] == label


def live_blocks(gen, rho0):
    """The live coherences of ``rho0`` on ``gen``, those of the blocks on
    which ``(V^T kron V^T) vec(rho0)`` has a nonzero entry, in ascending
    order, and the labels of those blocks."""
    v = gen.eigen.to_eigenbasis(np.asarray(rho0, dtype=complex)).flatten(order="F")
    live = {b: index for b, index in dense_blocks(gen)[0].items() if v[index].any()}
    keep = np.sort(np.concatenate([np.empty(0, dtype=int), *live.values()]))
    return keep, tuple(live)


def test_propagate_matches_rk4_reference_on_dense_state(params, rng):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(params.gamma))
    rho0 = random_density_matrix(rng)  # coherences in every entry
    result = assert_matches_rk4_reference(rho0, gen, t_final=200.0, dt=default_dt(gen))
    assert result.converged and result.steps > 16


def test_propagate_matches_rk4_reference_up_to_t_final(revival_generator, rng):
    dt = default_dt(revival_generator)
    t_final = 2.51
    assert t_final / dt % 1.0 > 0.1  # the last step is a partial one
    result = assert_matches_rk4_reference(random_density_matrix(rng),
                                          revival_generator, t_final, dt)
    assert not result.converged
    assert result.steps == int(np.ceil(t_final / dt))
    assert result.time == pytest.approx(t_final, rel=1e-14)


def test_propagate_matches_rk4_reference_on_multistable_generator(revival_generator, rng):
    assert len(invariant_components(
        build_population_matrix(revival_generator.dissipators))) == 4
    # populations on every branch; dense coherences between the two dark
    # levels would never decay
    rho0 = revival_generator.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
    result = assert_matches_rk4_reference(rho0, revival_generator, t_final=400.0,
                                          dt=default_dt(revival_generator))
    assert result.converged


def block_norms(gen, rho0, dt, blocks):
    """``||L P^k v||`` after each step k of the first ``blocks`` RK4 blocks
    of step ``dt`` from ``rho0``, as a ``(blocks, BLOCK_STEPS)`` array, and
    the block's bound c on ``||P^j||_2``."""
    (_, leap, readout, bound), _ = dynamics._rk4_block(gen.eigen_generator[0], dt,
                                                       BLOCK_STEPS)
    v = gen.eigen.to_eigenbasis(np.asarray(rho0, dtype=complex)).flatten(order="F")
    norms = []
    for _ in range(blocks):
        norms.append(np.linalg.norm((readout[64:] @ v).reshape(BLOCK_STEPS, -1), axis=1))
        v = leap @ v
    return np.array(norms), bound


def test_propagate_matches_rk4_reference_on_vacuum_transport(rng):
    config = load_config(str(CONFIGS / "vacuum_transport.ini"))
    gen = build_generator(config.params, config.filter, config.reservoirs, config.background)
    rho0 = gen.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
    dt = default_dt(gen)
    result = assert_matches_rk4_reference(rho0, gen, t_final=1e4, dt=dt)
    assert result.converged and result.steps > 10_000
    # most blocks are leapt over: their ||L P^m v|| exceeds 2 c eps_ss
    norms, bound = block_norms(gen, rho0, dt, result.steps // BLOCK_STEPS)
    assert (norms[:, -1] > 2 * bound * DEFAULT_EPS_SS).mean() > 0.9


def test_propagate_leaps_a_vacuum_relaxation_in_few_norms(rng, monkeypatch):
    # the slowest relaxation of the shipped scenarios: one norm per leap of up
    # to 1024 steps, where a block-by-block walk takes one per 16 steps
    config = load_config(str(CONFIGS / "vacuum_transport.ini"))
    gen = build_generator(config.params, config.filter, config.reservoirs, config.background)
    rho0 = gen.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
    norm, calls = np.linalg.norm, []

    def counted(*args, **kwargs):
        calls.append(None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    result = propagate(rho0, gen, t_final=1e4)
    assert result.converged and result.steps > 10_000
    assert len(calls) < 200  # the ladder's build included


def test_propagate_settles_in_the_first_block_it_does_not_leap(revival_generator, rng):
    # a step five times the default lets ||L v|| fall by more than 2 c
    # within one block, so a threshold exists whose first settled step lies
    # in the first block that the bound does not leap over
    rho0 = revival_generator.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
    dt = 5 * default_dt(revival_generator)
    norms, bound = block_norms(revival_generator, rho0, dt, 3)
    leapt = norms[:2, -1].min() / (2 * bound)  # an eps_ss below this leaps blocks 0 and 1
    eps_ss = np.sqrt(norms[2].min() * leapt)
    assert norms[2].min() < eps_ss < leapt and norms[:2].min() > eps_ss
    result = assert_matches_rk4_reference(rho0, revival_generator, t_final=1e4, dt=dt,
                                          eps_ss=eps_ss)
    assert result.converged and 2 * BLOCK_STEPS < result.steps <= 3 * BLOCK_STEPS


def jordan_dip(decay):
    """A generator whose L has a Jordan block, ``L = -decay I + E_01``, its
    state ``e_1``, a step, ``||L P^k v||`` after each of its first 1024
    steps (``flat[k - 1]``), the index ``dip`` before the norm first rises,
    and an ``eps_ss`` above ``flat[dip]`` but below every earlier norm.
    Its eigenbasis is the computational one, and its blocks are given
    directly: the 2x2 Jordan block on vec indices 0 and 1, and 62 1x1
    blocks ``-decay``."""
    liou = -decay * np.eye(64, dtype=complex)
    liou[0, 1] = 1.0
    label = np.arange(64)
    label[1] = 0
    gen = SimpleNamespace(liouvillian=liou, eigen_generator=(liou, label),
                          eigen=EigenSystem(np.zeros(8), np.eye(8)), _rk4_blocks={})
    assert not liou[~dense_blocks(gen)[1]].any()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1, 0] = 1.0  # vec(rho0) = e_1
    dt = 0.5 / np.linalg.norm(liou, 1)
    flat = block_norms(gen, rho0, dt, 1024 // BLOCK_STEPS)[0].ravel()
    dip = int(np.flatnonzero(flat[1:] > flat[:-1])[0])
    eps_ss = (flat[dip] + flat[:dip].min()) / 2
    assert flat[dip] < eps_ss < flat[:dip].min()
    return gen, rho0, dt, flat, dip, eps_ss


def test_propagate_leaps_no_block_where_the_derivative_norm_rises():
    # with a Jordan block in L, ||L v|| dips below eps_ss and rises again
    # before its block ends; only the factor c >= ||P^j||_2 of the rule
    # keeps that block from being leapt over
    gen, rho0, dt, flat, dip, eps_ss = jordan_dip(0.1)
    bound = dynamics._rk4_block(gen.eigen_generator[0], dt, BLOCK_STEPS)[0][3]
    block_end = flat[(dip // BLOCK_STEPS + 1) * BLOCK_STEPS - 1]
    assert 2 * eps_ss < block_end <= 2 * bound * eps_ss
    result = assert_matches_rk4_reference(rho0, gen, t_final=1e3, dt=dt, eps_ss=eps_ss)
    assert result.converged and result.steps == dip + 1
    # a slower decay puts the dip after step 300, deep inside the rungs of
    # 512 and 1024 steps that the run tries first; their ends have risen
    # above 2 eps_ss, and only c_M keeps them from being leapt over
    gen, rho0, dt, flat, dip, eps_ss = jordan_dip(0.005)
    assert dip > 300
    v = rho0.flatten(order="F")
    _, rungs = dynamics._rk4_block(gen.eigen_generator[0], dt, BLOCK_STEPS, LADDER_RUNGS)
    spanning = [(last, bound) for m, _, last, bound in rungs if m > dip + 1]
    assert len(spanning) == 2
    for last, bound in spanning:
        assert 2 * eps_ss < np.linalg.norm(last @ v) <= 2 * bound * eps_ss
    result = assert_matches_rk4_reference(rho0, gen, t_final=1e4, dt=dt, eps_ss=eps_ss)
    assert result.converged and result.steps == dip + 1


def test_rk4_block_bound_covers_every_power_of_the_step(revival_generator):
    gen = revival_generator
    liou = eigen_liouvillian(gen)
    for dt in np.array([0.1, 1.0, RK4_STABLE_RADIUS]) / block_norm(gen):
        (step, leap, readout, bound), rungs = dynamics._rk4_block(
            gen.eigen_generator[0], dt, BLOCK_STEPS, LADDER_RUNGS)
        powers = [np.linalg.matrix_power(step, j) for j in range(BLOCK_STEPS + 1)]
        assert max(np.linalg.norm(a, 2) for a in powers[:-1]) <= bound < 8.0
        # P and P^16 are 0 off the blocks, and P^16 of each block is its
        # matrix_power up to rounding
        blocks, covered = dense_blocks(gen)
        assert not step[~covered].any() and not leap[~covered].any()
        for index in blocks.values():
            at = np.ix_(index, index)
            assert np.abs(leap[at] - np.linalg.matrix_power(step[at], BLOCK_STEPS)).max() < 1e-14
        assert np.abs(readout[:64] - liou).max() < 1e-14 * np.linalg.norm(liou, 1)
        assert np.abs(readout[-64:] - liou @ powers[-1]).max() < 1e-12
        # every rung of the ladder: c_M bounds every power below M, and
        # P^M and L P^M are those of M single steps
        assert [r[0] for r in rungs] == [BLOCK_STEPS * 2**j for j in range(LADDER_RUNGS)]
        assert rungs[0][1] is leap and rungs[0][3] == bound
        top = rungs[-1][0]
        powers = np.empty((top + 1, 64, 64), dtype=complex)
        powers[0] = np.eye(64)
        for j in range(top):
            powers[j + 1] = powers[j] @ step
        norms = np.linalg.norm(powers, 2, axis=(1, 2))
        for m, leap, last, bound in rungs:
            assert norms[:m].max() <= bound
            assert np.abs(leap - np.linalg.matrix_power(step, m)).max() < 1e-12
            assert np.abs(last - liou @ powers[m]).max() < 1e-12


def test_propagate_builds_one_block_per_generator_and_step(revival_generator, rng,
                                                           monkeypatch):
    # one build per generator, step size and live set, on the live blocks
    gen = revival_generator
    built, state = [], {}
    build = dynamics._rk4_block

    def counted(liou, h, m, rungs=0):
        keep, live = live_blocks(gen, state["rho0"])
        assert np.array_equal(liou, gen.eigen_generator[0][np.ix_(keep, keep)])
        built.append((h, m, live))
        return build(liou, h, m, rungs)

    monkeypatch.setattr(dynamics, "_rk4_block", counted)
    dt = default_dt(gen)
    lives = []
    for _ in range(12):
        state["rho0"] = gen.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
        lives.append(live_blocks(gen, state["rho0"])[1])
        assert propagate(state["rho0"], gen, t_final=1e4).converged
    distinct = list(dict.fromkeys(lives))
    assert built == [(dt, BLOCK_STEPS, live) for live in distinct]
    for _ in range(2):
        assert propagate(state["rho0"], gen, t_final=1e4, dt=dt / 2).converged
    assert built[len(distinct):] == [(dt / 2, BLOCK_STEPS, lives[-1])]
    assert list(gen._rk4_blocks) == [(h, live) for h, _, live in built]
    # a state with a coherence in every block builds on every block
    state["rho0"] = random_density_matrix(rng)
    every = tuple(dense_blocks(gen)[0])
    assert live_blocks(gen, state["rho0"])[1] == every
    t_final = 2.51  # not a whole number of steps: the last one is shorter
    result = propagate(state["rho0"], gen, t_final)
    assert not result.converged
    assert len(built) == len(distinct) + 3 and built[-2] == (dt, BLOCK_STEPS, every)
    h, m, live = built[-1]
    assert m == 1 and 0 < h < dt and live == every
    assert list(gen._rk4_blocks)[-1] == (dt, every)


def test_stored_blocks_are_freed_with_their_generator(params, rng):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    rho0 = gen.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
    assert propagate(rho0, gen, t_final=400.0).converged
    branch_weights(rho0, gen)
    assert gen._rk4_blocks and "eigen_generator" in vars(gen)
    alive = weakref.ref(gen)
    del gen
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("arguments", [
    {"dt": np.nan}, {"dt": np.inf}, {"t_final": np.nan}, {"t_final": np.inf},
    {"eps_ss": np.nan},
], ids=["dt_nan", "dt_inf", "t_final_nan", "t_final_inf", "eps_ss_nan"])
def test_propagate_rejects_non_finite_arguments(arguments, revival_generator, rng,
                                                monkeypatch):
    monkeypatch.setattr(dynamics, "_rk4_block", step_taken)
    with pytest.raises(ValueError, match="need a finite"):
        propagate(random_density_matrix(rng), revival_generator,
                  **({"t_final": 5.0} | arguments))


@pytest.mark.parametrize("eps_ss", [-1e-10, -np.inf])
def test_propagate_rejects_negative_eps_ss(eps_ss, revival_generator, rng, monkeypatch):
    monkeypatch.setattr(dynamics, "_rk4_block", step_taken)
    with pytest.raises(ValueError, match="eps_ss >= 0"):
        propagate(random_density_matrix(rng), revival_generator, t_final=5.0, eps_ss=eps_ss)


NOT_8X8 = [(4, 16), (2, 4, 8), (64,), (8, 8, 1), (1, 8, 8)]


@pytest.mark.parametrize("shape", NOT_8X8)
def test_propagate_rejects_states_that_are_not_8x8(shape, revival_generator, rng,
                                                   monkeypatch):
    monkeypatch.setattr(dynamics, "_rk4_block", step_taken)
    with pytest.raises(ValueError, match=re.escape(f"expected 8x8 states, got {shape}")):
        propagate(random_density_matrix(rng).reshape(shape), revival_generator, t_final=5.0)


@pytest.mark.parametrize("shape", NOT_8X8)
def test_branch_weights_rejects_states_that_are_not_8x8(shape, revival_generator, rng):
    with pytest.raises(ValueError, match=re.escape(f"expected 8x8 states, got {shape}")):
        branch_weights(random_density_matrix(rng).reshape(shape), revival_generator)


def test_branch_weights_rejects_non_finite_state(revival_generator, rng):
    for bad in (np.nan, np.inf):
        rho0 = random_density_matrix(rng)
        rho0[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            branch_weights(rho0, revival_generator)


def test_propagate_rejects_eps_ss_below_the_rounding_floor(revival_generator, rng,
                                                           monkeypatch):
    rho0 = random_density_matrix(rng)
    floor = (64 * np.finfo(float).eps * block_norm(revival_generator)
             * np.linalg.norm(rho0))
    with monkeypatch.context() as patched:
        patched.setattr(dynamics, "_rk4_block", step_taken)
        with pytest.raises(ValueError, match="below the rounding floor"):
            propagate(rho0, revival_generator, t_final=5.0, eps_ss=floor * (1 - 1e-12))
    # 0 runs to t_final, and the default is far above the floor
    assert DEFAULT_EPS_SS > 1e3 * floor
    for eps_ss in (0.0, floor, DEFAULT_EPS_SS):
        result = propagate(rho0, revival_generator, t_final=5.0, eps_ss=eps_ss)
        assert result.steps > 0 and result.time == pytest.approx(5.0)


def test_propagate_and_branch_weights_never_build_the_liouvillian(params, rng, monkeypatch):
    def unread(gen):
        raise AssertionError("read gen.liouvillian")

    monkeypatch.setattr(dynamics.Generator, "liouvillian", property(unread))
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    for background in (BackgroundSpec.none(), BackgroundSpec.vacuum(params.gamma)):
        gen = build_generator(params, REVIVAL_FILTER, reservoirs, background)
        rho0 = gen.eigen.diagonal_state(rng.dirichlet(np.ones(8)))
        assert propagate(rho0, gen, t_final=400.0).converged
        assert not propagate(random_density_matrix(rng), gen, t_final=2.51).converged
        assert branch_weights(rho0, gen).sum() == pytest.approx(1.0, abs=1e-12)


_KEPT_SETS = st.frozensets(st.sampled_from((1, 2, 3)))
_BACKGROUNDS = {"none": BackgroundSpec.none(), "vacuum": BackgroundSpec.vacuum(0.05),
                "thermal": BackgroundSpec.thermal(2.0, 0.05)}


@settings(max_examples=15, deadline=None, derandomize=True)
@given(filt=st.builds(FilterConfig, _KEPT_SETS, _KEPT_SETS, _KEPT_SETS),
       model=st.tuples(st.floats(1.2, 5.0), st.floats(0.02, 0.98)),
       background=st.sampled_from(sorted(_BACKGROUNDS)), t_final=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_blocks_are_the_liouvillian_in_the_eigenbasis(filt, model, background,
                                                             t_final, seed):
    omega_h, g = model
    params = SystemParams(omega_c=1.0, omega_h=omega_h, g=g, gamma=0.1)
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=3.0, t_c=1.0)
    gen = dynamics.assemble_generator(params, filt, reservoirs, _BACKGROUNDS[background])
    # each block is labelled by its smallest coherence and holds one Bohr
    # frequency
    blocks, covered = dense_blocks(gen)
    bohr = (gen.eigen.energies[:, None] - gen.eigen.energies).ravel(order="F")
    for b, idx in blocks.items():
        assert idx[0] == b
        assert np.abs(bohr[idx] - bohr[b]).max() <= 1e-12
    # L_e is (V^T kron V^T) L (V kron V), which is 0 between blocks up to
    # rounding, and exactly 0 there
    dense = gen.eigen_generator[0]
    assert not dense[~covered].any()
    assert np.abs(dense - eigen_liouvillian(gen)).max() <= (
        1e-14 * np.linalg.norm(gen.liouvillian, 1))
    rho0 = random_density_matrix(np.random.default_rng(seed))
    assert_matches_rk4_reference(rho0, gen, t_final, default_dt(gen))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(filt=st.builds(FilterConfig, _KEPT_SETS, _KEPT_SETS, _KEPT_SETS),
       model=st.tuples(st.floats(1.2, 5.0), st.floats(0.02, 0.98)),
       background=st.sampled_from(sorted(_BACKGROUNDS)), t_final=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_propagate_keeps_the_blocks_a_state_leaves_empty_at_zero(filt, model, background,
                                                                  t_final, seed):
    omega_h, g = model
    params = SystemParams(omega_c=1.0, omega_h=omega_h, g=g, gamma=0.1)
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=3.0, t_c=1.0)
    gen = dynamics.assemble_generator(params, filt, reservoirs, _BACKGROUNDS[background])
    # the same generator with eigenvectors I, so that a state given in the
    # eigenbasis enters and leaves propagate without rounding
    gen = SimpleNamespace(liouvillian=eigen_liouvillian(gen),
                          eigen_generator=gen.eigen_generator,
                          eigen=EigenSystem(gen.eigen.energies, np.eye(8)), _rk4_blocks={})
    # a random state, its coherences set to 0 on a random subset of blocks
    rng = np.random.default_rng(seed)
    rho0 = random_density_matrix(rng).flatten(order="F")
    blocks, cut = dense_blocks(gen)[0], rng.random()
    for index in blocks.values():
        if rng.random() < cut:
            rho0[index] = 0.0
    rho0 = rho0.reshape(8, 8, order="F")
    keep, live = live_blocks(gen, rho0)
    dead = rho0.flatten(order="F") == 0
    assert not dead[keep].any() and dead.sum() == 64 - keep.size
    dt = default_dt(gen)
    result = assert_matches_rk4_reference(rho0, gen, t_final, dt)
    assert not result.state.flatten(order="F")[dead].any()
    # the run built its matrices on the live coherences alone
    n = keep.size
    assert list(gen._rk4_blocks) == [(dt, live)]
    (step, leap, readout, _), rungs = gen._rk4_blocks[dt, live]
    assert step.shape == leap.shape == (n, n)
    assert readout.shape == ((BLOCK_STEPS + 1) * n, n)
    assert all(p.shape == last.shape == (n, n) for _, p, last, _ in rungs)


def test_propagate_of_the_zero_state_takes_the_steps_of_any_state():
    # rho0 = 0 has no live block; it settles at once, or with eps_ss = 0
    # runs every step up to t_final on 0x0 matrices
    config = load_config(str(CONFIGS / "vacuum_transport.ini"))
    gen = build_generator(config.params, config.filter, config.reservoirs, config.background)
    rho0 = np.zeros((8, 8))
    result = propagate(rho0, gen, t_final=1.0)
    assert (result.steps, result.time, result.converged) == (0, 0.0, True)
    assert not result.state.any()
    result = assert_matches_rk4_reference(rho0, gen, 1.0, default_dt(gen), eps_ss=0.0)
    assert (result.steps, result.time, result.converged) == (81, 1.0, False)
    assert not result.state.any()
    (step, _, readout, bound), rungs = gen._rk4_blocks[default_dt(gen), ()]
    assert step.shape == readout.shape == (0, 0) and bound == 0.0
    assert len(rungs) == LADDER_RUNGS


def rk4_amplification(z):
    """RK4's stability function: one step multiplies an eigenmode of L with
    eigenvalue lambda by R(dt * lambda)."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def test_rk4_stable_radius_keeps_the_left_half_disk_stable():
    # R is a polynomial, so by the maximum-modulus principle |R| <= 1 on the
    # boundary of the half-disk |z| <= r, Re z <= 0, holds on all of it
    r = RK4_STABLE_RADIUS
    arc = r * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, 100_001))
    axis = 1j * np.linspace(-r, r, 100_001)
    assert np.abs(rk4_amplification(arc)).max() <= 1.0
    assert np.abs(rk4_amplification(axis)).max() <= 1.0 + 1e-15  # R(0) = 1
    # and the radius is nearly the largest one that works
    wider = 2.6157 * np.exp(1j * np.linspace(np.pi / 2, np.pi, 100_001))
    assert np.abs(rk4_amplification(wider)).max() > 1.0


def test_propagate_admits_step_at_stable_radius(revival_generator, rng):
    liou = revival_generator.liouvillian
    dt = RK4_STABLE_RADIUS / block_norm(revival_generator)
    # every eigenvalue of L lies in the left half-disk of radius ||L_e||_1
    eigs = np.linalg.eigvals(liou)
    assert eigs.real.max() <= 1e-12
    assert np.abs(eigs).max() <= block_norm(revival_generator)
    assert np.abs(rk4_amplification(dt * eigs)).max() <= 1.0 + 1e-12
    t_final = 0.0
    for _ in range(40):  # the time of 40 steps, summed as propagate sums it
        t_final += dt
    result = assert_matches_rk4_reference(random_density_matrix(rng),
                                          revival_generator, t_final=t_final, dt=dt)
    assert result.steps == 40
    assert np.abs(result.state).max() <= 1.0


def step_taken(*args):
    raise AssertionError("propagate built an RK4 step for an unstable dt")


def test_propagate_rejects_step_that_explodes_silently(revival_generator, rng, monkeypatch):
    # the growing modes of this step are traceless, so the stage-wise loop
    # blows the state up with its trace still at 1
    rho0 = random_density_matrix(rng)
    dt = 4.0 / np.linalg.norm(revival_generator.liouvillian, 1)
    state, _, converged, steps = rk4_reference(rho0, revival_generator, 20 * dt, dt)
    assert steps == 20 and not converged
    assert np.abs(state).max() > 1e12
    assert abs(np.trace(state) - 1.0) < 1e-6
    monkeypatch.setattr(dynamics, "_rk4_block", step_taken)
    with pytest.raises(ValueError, match="RK4 stability radius"):
        propagate(rho0, revival_generator, 20 * dt, dt=dt)


@pytest.mark.parametrize("factor", [50.0, 1000.0])
def test_propagate_rejects_unstable_step_before_stepping(
        factor, revival_generator, rng, monkeypatch):
    dt = factor / np.linalg.norm(revival_generator.liouvillian, 1)
    monkeypatch.setattr(dynamics, "_rk4_block", step_taken)
    with pytest.raises(ValueError, match="RK4 stability radius"):
        propagate(random_density_matrix(rng), revival_generator, 1e4, dt=dt)


def test_propagate_matches_matrix_exponential_to_fourth_order(revival_generator, rng):
    rho0 = random_density_matrix(rng)
    liou = revival_generator.liouvillian
    t_final = 2.5
    exact = (scipy.linalg.expm(liou * t_final) @ rho0.flatten(order="F")).reshape(
        8, 8, order="F")
    dt = 0.1 / np.linalg.norm(liou, 1)
    errors = [
        np.abs(propagate(rho0, revival_generator, t_final, dt=h, eps_ss=0.0).state
               - exact).max()
        for h in (dt, dt / 2)
    ]
    assert errors[0] < 2e-6
    assert 15.0 < errors[0] / errors[1] < 17.0  # global error O(dt^4)


def test_propagate_rejects_non_finite_state(revival_generator, rng):
    rho0 = random_density_matrix(rng)
    rho0[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        propagate(rho0, revival_generator, t_final=5.0)


def test_propagate_zero_time_is_identity(revival_generator, rng):
    rho = random_density_matrix(rng)
    result = propagate(rho, revival_generator, t_final=0.0)
    assert result.steps == 0
    assert np.abs(result.state - rho).max() == 0.0


def test_propagate_selects_branch_from_support(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[1, 1] = 1.0  # |110> is the second eigenlevel: support {1, 3, 5}
    result = propagate(rho0, gen, t_final=400.0)
    assert result.converged
    plus, _ = oracle_branch_populations(params, reservoirs)
    end = dm_validate(result.state)
    assert np.abs(np.diag(gen.eigen.to_eigenbasis(end.matrix)) - plus).max() < 1e-8


def test_propagate_vacuum_background_reaches_ground(params, rng):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(params.gamma))
    rho0 = random_density_matrix(rng)
    result = propagate(rho0, gen, t_final=200.0)
    assert result.converged
    target = np.zeros((8, 8))
    target[7, 7] = 1.0
    assert np.abs(result.state - target).max() < 1e-7


def test_propagate_preserves_trace_and_hermiticity(revival_generator, rng):
    rho0 = random_density_matrix(rng)
    result = propagate(rho0, revival_generator, t_final=20.0)
    out = result.state
    assert abs(np.trace(out) - 1.0) < 1e-9
    assert np.abs(out - out.conj().T).max() < 1e-9
    dm_validate(out)  # default tolerances accept propagation output


def test_propagate_mixed_support_reaches_mixture(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    eig = gen.eigen
    rho0 = 0.5 * eig.diagonal_state(np.eye(8)[0]) \
        + 0.5 * eig.diagonal_state(np.eye(8)[1])
    weights = branch_weights(rho0, gen)
    assert np.abs(weights - [0.5, 0.5, 0.0, 0.0]).max() < 1e-15
    result = propagate(rho0, gen, t_final=400.0)
    plus, _ = oracle_branch_populations(params, reservoirs)
    expected = 0.5 * np.eye(8)[0] + 0.5 * plus
    end_pops = np.real(np.diag(eig.to_eigenbasis(result.state)))
    assert np.abs(end_pops - expected).max() < 1e-8


def test_branch_weights_route_transients_through_absorption(params, rng):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(params.gamma))
    rho0 = random_density_matrix(rng)
    weights = branch_weights(rho0, gen)
    assert weights.shape == (1,)
    assert weights[0] == pytest.approx(1.0, abs=1e-12)


def branch_weights_reference(rho0, gen):
    """Absorption weights with W and its classes built afresh, step for step
    as ``branch_weights`` takes them."""
    w = build_population_matrix(gen.dissipators)
    closed = invariant_components(w)
    pops = np.real(np.diag(gen.eigen.to_eigenbasis(rho0)))
    weights = np.array([pops[sorted(cls)].sum() for cls in closed])
    if tr := sorted(set(range(8)).difference(*closed)):
        tau = np.linalg.solve(-w[np.ix_(tr, tr)], pops[tr])
        for k, cls in enumerate(closed):
            weights[k] += float(w[np.ix_(sorted(cls), tr)].sum(axis=0) @ tau)
    return weights


def test_branch_weights_build_w_once_per_generator(params, rng, monkeypatch):
    built = []
    build = dynamics.build_population_matrix
    monkeypatch.setattr(dynamics, "build_population_matrix",
                        lambda ds: built.append(1) or build(ds))
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    for background in (BackgroundSpec.none(), BackgroundSpec.vacuum(params.gamma)):
        gen = build_generator(params, REVIVAL_FILTER, reservoirs, background)
        for _ in range(13):
            rho0 = random_density_matrix(rng)
            assert np.array_equal(branch_weights(rho0, gen),
                                  branch_weights_reference(rho0, gen))
    assert len(built) == 2  # once per generator


# --- stacked rows -------------------------------------------------------------

#: Hot temperatures of the stacked-row tests: a bath at T = 0 (j+ = 0 on
#: that row only), one so cold that j+ underflows to 0, and ordinary ones.
STACK_T_H = [0.0, 0.004, 0.3, 1.0, 2.5, 6.0, 30.0, 1e4]


def row_dissipators(gen, t_h):
    """The dissipators of ``gen`` with the hot bath at ``t_h``, rates from
    ``channel_rates`` one channel at a time."""
    hot = replace(gen.reservoirs.hot, temperature=t_h)
    return tuple(channel_rates(d.channel, hot)
                 if d.source == "engineered" and d.channel.qubit == "H" else d
                 for d in gen.dissipators)


def test_population_matrix_stack_equals_rows(params):
    # each row of the rate tables equals channel_rates and background_rates
    # at that row's baths, bit for bit, and so does W of that row
    for gen in kernel_generators(params):
        rates = hot_rates(gen, STACK_T_H)
        assert [r.shape for r in rates] == [(len(STACK_T_H), len(gen.dissipators))] * 2
        w = build_population_matrix(gen.dissipators, rates)
        assert w.shape == (len(STACK_T_H), 8, 8) and w.flags.c_contiguous
        for k, t_h in enumerate(STACK_T_H):
            row = rate_table(row_dissipators(gen, t_h))
            assert [r[k].tobytes() for r in rates] == [r[0].tobytes() for r in row]
            assert np.array_equal(w[k], build_population_matrix(row_dissipators(gen, t_h)))


def failing_svd_of(marked: np.ndarray):
    """``np.linalg.svd``, except that it does not converge on any stack that
    holds the matrix ``marked``."""
    svd = np.linalg.svd

    def failing(a, *args, **kwargs):
        if any(np.array_equal(m, marked) for m in np.reshape(a, (-1, *np.shape(a)[-2:]))):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)
    return failing


def assert_rows_equal_alone(gen, t_hs, rows):
    """Each of ``rows`` equals ``steady_states_numeric`` at its hot
    temperature alone: the same states, bit for bit, or the same failure."""
    for t_h, got in zip(t_hs, rows, strict=True):
        try:
            want = steady_states_numeric(replace(gen, dissipators=row_dissipators(gen, t_h)))
        except np.linalg.LinAlgError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.support == b.support
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.state.matrix, b.state.matrix)


def stacked_complex_states(vectors, pops):
    """The density matrices of the stack ``pops`` ``(S, 8)`` in complex
    arithmetic, as one stacked ``V diag(p) V^dag`` over complex vectors."""
    v = vectors.astype(complex)
    diag = np.zeros((len(pops), 64), dtype=complex)
    diag[:, ::9] = pops
    diag = diag.reshape(-1, 8, 8)
    return np.matmul(v @ diag, v.conj().T, out=diag)


def test_steady_state_rows_build_states_only_when_read(params, monkeypatch):
    # the solve builds no density matrix; a state's matrix, built from its
    # populations on first read, equals the complex stacked build bit for bit
    calls = []
    diagonal_state = EigenSystem.diagonal_state

    def counted(self, populations):
        calls.append(np.shape(populations))
        return diagonal_state(self, populations)

    monkeypatch.setattr(EigenSystem, "diagonal_state", counted)
    grid = np.linspace(0.0, 30.0, 25).tolist()
    for gen in kernel_generators(params):
        rows = state_sets(steady_state_rows(build_population_matrix(
            gen.dissipators, hot_rates(gen, grid))), gen.eigen, len(grid))
        assert calls == []
        states = [s for row in rows for s in row]
        want = stacked_complex_states(gen.eigen.vectors, [s.populations for s in states])
        for s, rho in zip(states, want, strict=True):
            assert s.state is s.state and s.state.matrix.dtype == np.float64
            assert not rho.imag.any()
            assert s.state.matrix.tobytes() == np.ascontiguousarray(rho.real).tobytes()
        assert len(calls) == len(states)
        calls.clear()


def test_steady_state_stack_equals_rows(params, monkeypatch):
    for gen in kernel_generators(params):
        w = build_population_matrix(gen.dissipators, hot_rates(gen, STACK_T_H))
        rows = state_sets(steady_state_rows(w), gen.eigen, len(w))
        assert not any(isinstance(row, Exception) for row in rows)
        assert_rows_equal_alone(gen, STACK_T_H, rows)
    # a grid of 25 rows in one pass, as the CLI takes it; the SVD of the
    # first class block of row 8 fails, and the stacks that hold it are
    # redone matrix by matrix
    grid = np.linspace(0.0, 30.0, 25).tolist()
    for gen in kernel_generators(params):
        w = build_population_matrix(gen.dissipators, hot_rates(gen, grid))
        cls = sorted(next(c for c in invariant_components(w[8]) if len(c) > 1))
        monkeypatch.setattr(np.linalg, "svd", failing_svd_of(w[8][np.ix_(cls, cls)]))
        rows = state_sets(steady_state_rows(w), gen.eigen, len(w))
        assert [isinstance(row, Exception) for row in rows] == [k == 8 for k in range(len(grid))]
        assert_rows_equal_alone(gen, grid, rows)
        monkeypatch.undo()


def chain_stack(rates) -> np.ndarray:
    """One W per rate r of ``rates``: levels 0-1-2 joined both ways by the
    rates 1 (0-1) and r (1-2), the other levels closed singletons."""
    w = np.zeros((len(rates), 8, 8))
    for k, r in enumerate(rates):
        for a, b, rate in ((0, 1, 1.0), (1, 2, r)):
            for frm, to in ((a, b), (b, a)):
                w[k, to, frm] += rate
                w[k, frm, frm] -= rate
    return w


def test_steady_state_stack_warns_and_fails_row_by_row(params, monkeypatch):
    # levels 0-1-2 joined by rates 1 and r, the rest closed singletons.  At
    # r = 1e-3 the class spreads 1e3 and takes the SVD; at r <= 1e-9 it
    # spreads past GTH_SPREAD and takes GTH, which gives its detailed-balance
    # populations, 1/3 each, and neither warns nor fails.  On the SVD alone
    # (GTH_SPREAD = inf) the class's second singular value is 1.5 r against a
    # rank cut of 2e-10, so r = 1e-9 and 5e-10 warn, 1e-10 warns and fails,
    # and 1e-11 fails silently
    import warnings

    from qfridge.matrixcore import RankAmbiguityWarning

    gen = kernel_generators(params)[3]
    rates = [1e-9, 1e-3, 1e-10, 5e-10, 1e-11, 1e-3]
    w = chain_stack(rates)

    def solve(rows):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = rows()
        return out, [(x.category, str(x.message)) for x in seen]

    def alone():
        out = []
        for k in range(len(rates)):
            monkeypatch.setattr(dynamics, "build_population_matrix", lambda _, k=k: w[k])
            try:
                out.append(steady_states_numeric(gen))
            except dynamics.SolverFailure as exc:
                out.append(exc)
        return out

    def stacked_equals_alone():
        stacked, stacked_warnings = solve(
            lambda: state_sets(steady_state_rows(w), gen.eigen, len(w)))
        want, want_warnings = solve(alone)
        assert stacked_warnings == want_warnings
        for got, one in zip(stacked, want, strict=True):
            if isinstance(one, Exception):
                assert type(got) is type(one) and str(got) == str(one)
            else:
                assert [s.populations.tolist() for s in got] == \
                    [s.populations.tolist() for s in one]
        return stacked, [c for c, _ in stacked_warnings]

    stacked, seen = stacked_equals_alone()
    assert seen == [] and not any(isinstance(r, Exception) for r in stacked)
    for r, row in zip(rates, stacked):
        pops = row[0].populations
        assert sorted(row[0].support) == [0, 1, 2] and not pops[3:].any()
        if r * dynamics.GTH_SPREAD < 1.0:
            assert pops[:3].tolist() == [1 / 3] * 3
        else:
            assert pops[:3] == pytest.approx([1 / 3] * 3, rel=1e-14)
    monkeypatch.setattr(dynamics, "GTH_SPREAD", np.inf)
    stacked, seen = stacked_equals_alone()
    assert seen == [RankAmbiguityWarning] * 3
    assert [isinstance(r, Exception) for r in stacked] == [False, False, True, False, True, False]


def test_every_ambiguous_class_warns_on_a_failed_row(params, monkeypatch):
    # one row: levels 0-1-2 joined by rates 1 and 1e-11, levels 3-4-5 by
    # rates 1 and 1e-9.  Both classes spread past GTH_SPREAD: GTH solves
    # them, 1/3 on each level, with no warning.  On the SVD alone
    # (GTH_SPREAD = inf) the first fails with a 2-dimensional null space, the
    # second is solved too, and its rank ambiguity is reported
    import warnings

    from qfridge.matrixcore import RankAmbiguityWarning

    w = np.zeros((1, 8, 8))
    for a, b, rate in ((0, 1, 1.0), (1, 2, 1e-11), (3, 4, 1.0), (4, 5, 1e-9)):
        for frm, to in ((a, b), (b, a)):
            w[0, to, frm] += rate
            w[0, frm, frm] -= rate

    def solve():
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            (row,) = state_sets(steady_state_rows(w), eigensystem(params), 1)
        return row, [x.category for x in seen]

    row, seen = solve()
    assert seen == []
    by_levels = by_support(row)
    for levels in ((0, 1, 2), (3, 4, 5)):
        assert by_levels[levels].populations[list(levels)].tolist() == [1 / 3] * 3
    monkeypatch.setattr(dynamics, "GTH_SPREAD", np.inf)
    row, seen = solve()
    assert seen == [RankAmbiguityWarning]
    assert isinstance(row, dynamics.SolverFailure)
    assert "[0, 1, 2] yielded a 2-dimensional stationary space" in str(row)


# --- GTH on wide classes ---------------------------------------------------

#: The largest relative population error of a class solved by GTH against
#: the 60-digit GTH of ``test_exactness.stationary``, in units of eps; a
#: ratchet that no change may exceed.  Measured: 1.73 eps on the REVIVAL
#: grids from T_C = 0.1 down to 0.01, 4.52 eps over 3000 random irreducible
#: blocks of 2-8 levels with rates log-uniform over 1e-30 to 1.
GTH_RATCHET = 5.0


def class_spread(w: np.ndarray, levels) -> float:
    """The rate spread of the class ``levels`` of W: its block's largest
    positive off-diagonal rate over its smallest."""
    block = w[np.ix_(list(levels), list(levels))]
    return block.max() / block[block > 0.0].min()


def population_error(w: np.ndarray, populations: np.ndarray, levels: list[int]) -> float:
    """The largest relative error, in eps, of the ``populations`` of the
    closed class ``levels`` of W against its 60-digit GTH solve."""
    with mp.workdps(60):
        exact = stationary(w, levels)
        return max(float(abs(mp.mpf(populations[k]) - x) / x)
                   for k, x in zip(levels, exact)) / np.finfo(float).eps


def test_gth_pivot_that_underflows_fails_its_row_alone(params):
    # the chain 0-1-2 with rates 1 and r spreads past GTH_SPREAD.  At
    # r = 5e-324 the scaling that brings the largest rate into [1/2, 1)
    # rounds r to 0, so level 2 has no rate out: its row fails with a
    # SolverFailure naming the class, and nothing non-finite reaches the
    # residual gate.  Its neighbours solve as they do alone, bit for bit
    w = chain_stack([1e-9, 5e-324, 1e-10])
    eigen = eigensystem(params)
    rows = state_sets(steady_state_rows(w), eigen, len(w))
    assert isinstance(rows[1], dynamics.SolverFailure) and str(rows[1]) == (
        "class [0, 1, 2] has GTH pivot 0.000e+00 out of level 2 after scaling; "
        "expected a positive finite rate sum")
    for k in (0, 2):
        (alone,) = state_sets(steady_state_rows(w[k:k + 1]), eigen, 1)
        assert [(s.support, s.populations.tolist()) for s in rows[k]] == \
            [(s.support, s.populations.tolist()) for s in alone]
        assert rows[k][0].populations[:3].tolist() == [1 / 3] * 3


@pytest.mark.parametrize("t_c", [0.1, 0.05, 0.03, 0.02, 0.01])
def test_cold_edge_populations_match_the_exact_solve(monkeypatch, t_c):
    # the REVIVAL mask at T_R = 4 T_C on the cold-edge benchmark's t_h grid:
    # every class of more than one level spreads past GTH_SPREAD, and every
    # population lies within GTH_RATCHET eps of the exact solve of its W
    from qfridge.cli import parse_config, sweep_th

    text = (f"[system]\nomega_c = 1.0\nomega_h = 3.0\ng = 0.25\ngamma = 0.05\n"
            f"[reservoirs]\nt_h = 0.5\nt_r = {4.0 * t_c!r}\nt_c = {t_c!r}\n"
            "[filter]\nh = 3\nr = 2\nc = 1\n"
            "[sweep]\nvariable = t_h\nstart = 0.5\nstop = 12.0\npoints = 25\n")
    ((_, _, w, finite), readout), = solved_grids(monkeypatch, lambda: sweep_th(parse_config(text)))
    assert finite.all() and np.bincount(readout.row, minlength=len(w)).all()
    worst = 0.0
    for j, (k, code) in enumerate(zip(readout.row.tolist(), readout.support.tolist())):
        levels = [i for i in range(8) if code >> i & 1]
        if len(levels) > 1:
            assert class_spread(w[k], levels) > dynamics.GTH_SPREAD
            worst = max(worst, population_error(w[k], readout.populations[j], levels))
    assert 0.0 < worst <= GTH_RATCHET


@st.composite
def irreducible_blocks(draw):
    """W with one closed class on levels 0..m-1, 2 <= m <= 8, joined by the
    ring i -> i + 1 and any other edges, each rate log-uniform over 1e-30
    to 1; the other levels are closed singletons."""
    m = draw(st.integers(2, 8))
    w = np.zeros((8, 8))
    for a in range(m):
        for b in range(m):
            if a != b and (b == (a + 1) % m or draw(st.booleans())):
                w[b, a] = 10.0 ** draw(st.floats(-30.0, 0.0))
    w[np.diag_indices(8)] = -w.sum(axis=0)
    return w, m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(irreducible_blocks())
def test_wide_random_blocks_get_populations_within_the_gth_ratchet(block):
    w, m = block
    levels = list(range(m))
    assume(class_spread(w, levels) > dynamics.GTH_SPREAD)
    populations, _, support, failures = steady_state_rows(w[np.newaxis])
    assert not failures
    (j,) = np.flatnonzero(support == (1 << m) - 1)
    assert population_error(w, populations[j], levels) <= GTH_RATCHET


# --- the residual gate ---------------------------------------------------

def uniform_rates_stack(n: int) -> np.ndarray:
    """``n`` copies of W with every rate 1: one class of all eight levels,
    stationary state uniform, largest entry 7 < largest column 2-norm
    sqrt(56) < ||W||_2 = 8."""
    return np.broadcast_to(np.ones((8, 8)) - 8.0 * np.eye(8), (n, 8, 8)).copy()


def test_residual_gate_bounds_on_the_largest_entry_of_w(params, monkeypatch):
    # rows 1 and 2 are pushed off their stationary state along e0 - e1, to a
    # residual of 6.5 and 7.5 TOL: row 1 passes the bound 7 TOL, row 2 fails
    # it, though a bound on the largest column norm or on ||W||_2 passes it
    w = uniform_rates_stack(4)
    tol = dynamics.STEADY_RESIDUAL_TOL
    shift = {1: 6.5 * tol, 2: 7.5 * tol}  # target residuals
    populations = dynamics._class_populations

    def shifted(blocks, idx, classes, faults, ambiguities):
        pops = populations(blocks, idx, classes, faults, ambiguities)
        for c, k in enumerate(classes.tolist()):
            if k in shift:  # ||W (e0 - e1)|| = 8 sqrt(2)
                pops[c, :2] += np.array([1.0, -1.0]) * shift[k] / (8.0 * math.sqrt(2.0))
        return pops

    monkeypatch.setattr(dynamics, "_class_populations", shifted)
    out = state_sets(steady_state_rows(w), eigensystem(params), len(w))
    assert [isinstance(row, Exception) for row in out] == [False, False, True, False]
    assert np.linalg.norm(w[1] @ out[1][0].populations) == pytest.approx(shift[1])
    assert isinstance(out[2], dynamics.SolverFailure) and str(out[2]) == (
        "steady state on [0, 1, 2, 3, 4, 5, 6, 7] has residual 7.500e-09 (bound 7.000e-09)")


def test_residual_gate_passes_a_w_of_zeros(params):
    # a grid row that keeps no channel: eight one-level classes with W p = 0,
    # though the largest entry of W, which scales the residual, is 0
    (row,) = state_sets(steady_state_rows(np.zeros((1, 8, 8))), eigensystem(params), 1)
    assert [sorted(s.support) for s in row] == [[k] for k in range(8)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [(7, 7), (0, 1)], ids=["transient", "class_block"])
def test_non_finite_w_raises_before_any_product(params, revival_generator, monkeypatch,
                                                bad, at):
    # level 7 drains into the closed class of levels 0-6: W[7, 7] lies
    # outside every class block, W[0, 1] inside that class's block
    w = uniform_rates_stack(3)
    w[1] = 0.0
    w[1, :7, :7] = np.ones((7, 7)) - 7.0 * np.eye(7)
    w[1, 0, 7] = 1.0
    w[1][at] = bad

    def unreached(*args):
        raise AssertionError("the stack was used before its finiteness check")

    monkeypatch.setattr(dynamics, "_class_codes", unreached)
    monkeypatch.setattr(dynamics, "svd_rows", unreached)
    with pytest.raises(ValueError, match="^rate matrix contains non-finite entries$"):
        steady_state_rows(w)
    # a non-finite rate is no missing edge: no class can be read from W
    monkeypatch.setattr(dynamics, "build_population_matrix", lambda dissipators: w[1])
    for classes in (lambda: invariant_components(w[1]),
                    lambda: branch_weights(np.eye(8) / 8.0, revival_generator)):
        with pytest.raises(ValueError, match="^rate matrix contains non-finite entries$"):
            classes()


def test_shipped_grids_pass_the_residual_gate_far_inside_the_bound(monkeypatch):
    # figure_sweep, both census modes and the eight cold-edge grids: the gate
    # fails no row, every class lies within 1e-3 of its bound, and a grid
    # takes one SVD per size of its narrow class blocks (spread at most
    # GTH_SPREAD) and no other; the shipped grids have no wide class, and
    # the cold-edge grids no narrow one
    from qfridge import cli
    from qfridge.cli import parse_config, scan_filters, sweep_th

    failed, ratios, rows, svd, calls = [], [], cli.steady_state_rows, np.linalg.svd, [0]
    spreads = []  # the spread of each class of more than one level

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    def gated(w):
        calls[0] = 0
        table = rows(w)
        out = state_sets(table, None, len(w))  # no state's matrix is read
        narrow = set()
        for wk, row in zip(w, out):
            for s in () if isinstance(row, Exception) else row:
                if len(s.support) > 1:
                    spreads.append(class_spread(wk, sorted(s.support)))
                    if spreads[-1] <= dynamics.GTH_SPREAD:
                        narrow.add(len(s.support))
        assert calls[0] == len(narrow)
        for wk, row in zip(w, out):
            if isinstance(row, Exception):
                failed.append(row)
                continue
            bound = dynamics.STEADY_RESIDUAL_TOL * np.abs(wk).max()
            ratios.extend(np.linalg.norm(wk @ s.populations) / bound for s in row)
        return table

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(cli, "steady_state_rows", gated)
    assert not any(r.failed for r in sweep_th(load_config(str(CONFIGS / "figure_sweep.ini"))).rows)
    census = load_config(str(CONFIGS / "filter_census.ini"))
    for mode in ("single_channel", "all"):
        assert not any(r.error for r in scan_filters(census, mode=mode).rows)
    assert spreads and max(spreads) <= dynamics.GTH_SPREAD
    shipped = len(spreads)
    for t_c in np.geomspace(0.1, 0.01, 8).tolist():
        text = (f"[system]\nomega_c = 1.0\nomega_h = 3.0\ng = 0.25\ngamma = 0.05\n"
                f"[reservoirs]\nt_h = 0.5\nt_r = {4.0 * t_c!r}\nt_c = {t_c!r}\n"
                "[filter]\nh = 3\nr = 2\nc = 1\n"
                "[sweep]\nvariable = t_h\nstart = 0.5\nstop = 12.0\npoints = 25\n")
        sweep_th(parse_config(text))
    assert len(spreads) > shipped and min(spreads[shipped:]) > dynamics.GTH_SPREAD
    assert not failed and len(ratios) > 400 and max(ratios) <= 1e-3
