import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_params
from qfridge import (
    BackgroundSpec,
    FilterConfig,
    ReservoirSet,
    SystemParams,
    build_generator,
    build_population_matrix,
    build_report,
    channel_rates,
    classify_stage,
    cooling_predicate,
    currents_cycle_analytic,
    currents_vacuum_background_analytic,
    efficiency,
    entropy_production,
    heat_current,
    heat_currents,
    steady_state_branches_analytic,
    steady_state_vacuum_background_analytic,
    steady_states_numeric,
)
from qfridge.dynamics import (
    VACUUM_TRANSPORT_FILTER,
    steady_state_rows,
    take_rows,
)
from conftest import by_support, hot_baths, hot_stack, state_sets, states_table
from qfridge.reservoirs import COOLING_FILTERS, HIGH_EFFICIENCY_FILTER, REVIVAL_FILTER
from qfridge.thermo import (
    DegenerateTemperaturesError,
    build_reports,
    NumericalFault,
    StageLabel,
)

G_FIGURE = 9.0 / 17.0


def trace_currents(gen, state):
    """Per-reservoir engineered currents straight from the trace formula."""
    out = {"H": 0.0, "R": 0.0, "C": 0.0}
    for d in (d for d in gen.dissipators if d.source == "engineered"):
        out[d.channel.qubit] += heat_current(gen.hamiltonian, d, state.state)
    return out


# --- heat_current -----------------------------------------------------------


def test_equal_temperatures_null_currents(params):
    t = 2.3
    reservoirs = ReservoirSet.from_temperatures(params, t_h=t, t_r=t, t_c=t)
    for filt in (FilterConfig.all_channels(), REVIVAL_FILTER):
        gen = build_generator(params, filt, reservoirs)
        for state in steady_states_numeric(gen):
            for d in gen.dissipators:
                assert abs(heat_current(gen.hamiltonian, d, state.state)) <= 1e-12


def test_vacuum_background_all_currents_vanish(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    gen = build_generator(params, REVIVAL_FILTER, reservoirs,
                          BackgroundSpec.vacuum(params.gamma))
    (state,) = steady_states_numeric(gen)
    for d in gen.dissipators:
        assert abs(heat_current(gen.hamiltonian, d, state.state)) <= 1e-12


def test_heat_current_rejects_large_imaginary_part(mild_params, mild_reservoirs, rng):
    gen = build_generator(mild_params, REVIVAL_FILTER, mild_reservoirs)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    anti_hermitian = 0.5 * (g - g.conj().T)
    with pytest.raises(NumericalFault, match="imaginary"):
        heat_current(gen.hamiltonian, gen.dissipators[0], anti_hermitian)


def test_trace_currents_match_closed_form(mild_params, mild_reservoirs):
    gen = build_generator(mild_params, REVIVAL_FILTER, mild_reservoirs)
    states = steady_states_numeric(gen)
    analytic = currents_cycle_analytic(mild_params, mild_reservoirs)
    got = trace_currents(gen, by_support(states)[1, 3, 5])
    scale = abs(analytic.cold) + abs(analytic.hot) + abs(analytic.room)
    assert abs(got["C"] - analytic.cold) < 1e-12 * scale
    assert abs(got["H"] - analytic.hot) < 1e-12 * scale
    assert abs(got["R"] - analytic.room) < 1e-12 * scale


def test_trace_currents_match_closed_form_at_figure_temperatures(params):
    from qfridge.reservoirs import natural_from_kelvin

    unit_scale = 2.0 * np.pi * 210e9
    reservoirs = ReservoirSet.from_temperatures(
        params,
        t_h=natural_from_kelvin(66.7, unit_scale),
        t_r=natural_from_kelvin(40.0, unit_scale),
        t_c=natural_from_kelvin(10.0, unit_scale),
    )
    gen = build_generator(params, REVIVAL_FILTER, reservoirs)
    states = steady_states_numeric(gen)
    analytic = currents_cycle_analytic(params, reservoirs)
    got = trace_currents(gen, by_support(states)[1, 3, 5])
    scale = abs(analytic.cold) + abs(analytic.hot) + abs(analytic.room)
    for key, expect in (("C", analytic.cold), ("H", analytic.hot), ("R", analytic.room)):
        assert abs(got[key] - expect) < 1e-10 * scale


# --- closed-form currents for matched masks ----------------------------------


def test_cycle_currents_ratio_and_conservation(mild_params, mild_reservoirs):
    cur = currents_cycle_analytic(mild_params, mild_reservoirs)
    p = mild_params
    assert cur.hot / cur.cold == pytest.approx(
        (p.omega_h + p.g) / (p.omega_c - p.g), rel=1e-14)
    assert cur.cold + cur.hot + cur.room == 0.0


def test_cycle_currents_vanish_at_equal_temperatures(params):
    t = 1.9
    reservoirs = ReservoirSet.from_temperatures(params, t_h=t, t_r=t, t_c=t)
    cur = currents_cycle_analytic(params, reservoirs)
    assert max(abs(c) for c in cur) < 1e-15


def test_flowing_branches_share_ratios_and_signs(mild_params, mild_reservoirs):
    gen = build_generator(mild_params, REVIVAL_FILTER, mild_reservoirs)
    states = steady_states_numeric(gen)
    plus = trace_currents(gen, by_support(states)[1, 3, 5])
    minus = trace_currents(gen, by_support(states)[2, 4, 6])
    ratio_expect = (mild_params.omega_h + mild_params.g) / (mild_params.omega_c - mild_params.g)
    for cur in (plus, minus):
        assert cur["H"] / cur["C"] == pytest.approx(ratio_expect, rel=1e-12)
        assert abs(cur["C"] + cur["H"] + cur["R"]) \
            <= 1e-10 * (abs(cur["C"]) + abs(cur["H"]) + abs(cur["R"]))
    assert np.sign(plus["C"]) == np.sign(minus["C"])


def test_flowing_branch_magnitudes_differ_by_tree_sums(mild_params, mild_reservoirs):
    # The two flowing branches carry identical current ratios but not
    # identical magnitudes: each branch's flux is normalized by its own
    # spanning-tree sum.  This pins the exact relationship.
    gen = build_generator(mild_params, REVIVAL_FILTER, mild_reservoirs)
    states = steady_states_numeric(gen)
    plus = trace_currents(gen, by_support(states)[1, 3, 5])
    minus = trace_currents(gen, by_support(states)[2, 4, 6])
    branches = steady_state_branches_analytic(mild_params, mild_reservoirs)
    n_plus = branches.triangles[0].tree_sum
    n_minus = branches.triangles[1].tree_sum
    assert n_plus != pytest.approx(n_minus, rel=1e-3)
    for q in ("H", "R", "C"):
        assert minus[q] == pytest.approx(plus[q] * n_plus / n_minus, rel=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="the two flowing branches carry identical current ratios and "
    "signs but not identical magnitudes: each branch's flux is normalized "
    "by its own spanning-tree sum",
)
def test_flowing_branch_current_triples_literally_identical(mild_params, mild_reservoirs):
    gen = build_generator(mild_params, REVIVAL_FILTER, mild_reservoirs)
    states = steady_states_numeric(gen)
    plus = trace_currents(gen, by_support(states)[1, 3, 5])
    minus = trace_currents(gen, by_support(states)[2, 4, 6])
    for q in ("H", "R", "C"):
        assert minus[q] == pytest.approx(plus[q], rel=1e-12)


# --- vacuum-background currents ----------------------------------------------


@pytest.fixture
def conduction_setup():
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=0.25, gamma=0.05)
    reservoirs = ReservoirSet.from_temperatures(p, t_h=6.0, t_r=4.0, t_c=1.0)
    return p, reservoirs


def test_vacuum_background_currents_conserve_and_sign(conduction_setup):
    p, reservoirs = conduction_setup
    engineered, background = currents_vacuum_background_analytic(p, reservoirs)
    scale = sum(abs(v) for v in (*engineered.values(), *background.values()))
    total = sum([engineered[q] for q in "CHR"] + [background[q] for q in "CHR"])
    assert abs(total) <= 1e-15 * scale
    assert all(v > 0 for v in engineered.values())
    assert all(v < 0 for v in background.values())


def test_vacuum_background_current_closed_forms(conduction_setup):
    p, reservoirs = conduction_setup
    sol = steady_state_vacuum_background_analytic(p, reservoirs)
    _, background = currents_vacuum_background_analytic(p, reservoirs)
    r66 = sol.populations[5]
    # hot background: its two populated channels at omega_h and omega_h - g
    assert background["H"] == pytest.approx(
        -(2 * p.omega_h - p.g) * p.gamma * r66, rel=1e-14)
    # room background: one populated channel at omega_r - g
    assert background["R"] == pytest.approx(
        -(p.omega_r - p.g) * p.gamma * r66, rel=1e-14)
    # cold background, recovered from conservation, equals its closed form
    expected_bc = -(((sol.k + 2 * sol.l) / sol.k) * p.omega_c - p.g) \
        * p.gamma * r66
    assert background["C"] == pytest.approx(expected_bc, rel=1e-12)


def test_vacuum_background_currents_match_trace(conduction_setup):
    p, reservoirs = conduction_setup
    engineered, background = currents_vacuum_background_analytic(p, reservoirs)
    gen = build_generator(p, VACUUM_TRANSPORT_FILTER, reservoirs,
                          BackgroundSpec.vacuum(p.gamma))
    (state,) = steady_states_numeric(gen)
    report = build_report(gen, state)
    for q in ("H", "R", "C"):
        assert report.engineered[q] == pytest.approx(engineered[q], rel=1e-11)
        assert report.background[q] == pytest.approx(background[q], rel=1e-11)


def test_vacuum_background_sign_claim_fails_outside_regime():
    # outside the intended regime the hot engineered current can reverse;
    # the sign guarantees are regional, not universal
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=0.25, gamma=0.05)
    reservoirs = ReservoirSet.from_temperatures(p, t_h=5.74, t_r=4.11, t_c=0.73)
    engineered, _ = currents_vacuum_background_analytic(p, reservoirs)
    assert engineered["H"] < 0


# --- efficiency ---------------------------------------------------------------


def test_efficiency_values_for_named_masks():
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=G_FIGURE, gamma=0.6)
    reservoirs = ReservoirSet.from_temperatures(p, t_h=8.0, t_r=3.0, t_c=1.0)
    cur = currents_cycle_analytic(p, reservoirs, REVIVAL_FILTER)
    assert efficiency(cur.cold, cur.hot) == pytest.approx(2.0 / 15.0, abs=1e-13)

    p2 = SystemParams(omega_c=1.0, omega_h=3.0, g=0.5, gamma=0.1)
    reservoirs2 = ReservoirSet.from_temperatures(p2, t_h=8.0, t_r=3.0, t_c=1.0)
    cur2 = currents_cycle_analytic(p2, reservoirs2, HIGH_EFFICIENCY_FILTER)
    eta2 = efficiency(cur2.cold, cur2.hot)
    assert eta2 == pytest.approx((p2.omega_c + p2.g) / (p2.omega_h - p2.g), abs=1e-13)
    assert eta2 == pytest.approx(0.6, abs=1e-13)
    assert eta2 > p2.omega_c / p2.omega_h


def test_efficiency_undefined_and_negative():
    assert efficiency(1.0, 0.0) is None
    assert efficiency(1.0, 5e-15) is None
    assert efficiency(-0.5, 1.0) == -0.5


def test_trace_efficiency_is_temperature_independent(rng):
    # structural identity: for the revival mask the trace-based efficiency
    # equals the kept-frequency ratio whatever the temperatures
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=G_FIGURE, gamma=0.3)
    target = (p.omega_c - p.g) / (p.omega_h + p.g)
    for temps in ((8.0, 3.0, 1.0), (2.0, 5.0, 0.7), (10.0, 2.0, 1.5), (3.0, 2.9, 0.4)):
        reservoirs = ReservoirSet.from_temperatures(p, *temps)
        gen = build_generator(p, REVIVAL_FILTER, reservoirs)
        states = steady_states_numeric(gen)
        cur = trace_currents(gen, by_support(states)[1, 3, 5])
        if abs(cur["H"]) < 1e-8:  # too close to the reversal point to resolve
            continue
        assert cur["C"] / cur["H"] == pytest.approx(target, rel=1e-12)


# --- cooling predicate ---------------------------------------------------------


def test_unfiltered_cooling_impossible_at_fig_temperatures():
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=G_FIGURE, gamma=0.6)
    temps = {"R": 40.0, "C": 10.0}
    for t_h in (41.0, 100.0, 1e4, 1e9, 1e15):
        verdict = cooling_predicate(p, {"H": t_h, **temps})
        assert not verdict.cooling
        assert verdict.margin < 0
    # the threshold only reaches the frequency ratio in the infinite limit
    assert cooling_predicate(p, {"H": 1e15, **temps}).threshold \
        < p.omega_c / p.omega_h


def test_revival_cooling_threshold_at_fig_temperatures():
    p = SystemParams(omega_c=1.0, omega_h=3.0, g=G_FIGURE, gamma=0.6)
    temps = {"R": 40.0, "C": 10.0}
    t_star = 200.0 / 3.0
    below = cooling_predicate(p, {"H": t_star * (1 - 1e-9), **temps}, REVIVAL_FILTER)
    above = cooling_predicate(p, {"H": t_star * (1 + 1e-9), **temps}, REVIVAL_FILTER)
    assert not below.cooling and above.cooling
    at = cooling_predicate(p, {"H": t_star, **temps}, REVIVAL_FILTER)
    assert at.margin == pytest.approx(0.0, abs=1e-15)


def test_cooling_predicate_equal_hot_room_is_false(params):
    verdict = cooling_predicate(params, {"H": 40.0, "R": 40.0, "C": 10.0}, REVIVAL_FILTER)
    assert not verdict.cooling and verdict.threshold == 0.0


def test_cooling_predicate_rejects_degenerate_temperatures(params):
    with pytest.raises(DegenerateTemperaturesError):
        cooling_predicate(params, {"H": 50.0, "R": 10.0, "C": 10.0}, REVIVAL_FILTER)
    with pytest.raises(DegenerateTemperaturesError):
        cooling_predicate(params, {"H": 50.0, "R": 5.0, "C": 10.0}, REVIVAL_FILTER)


def test_filter_predicate_generalizes_named_modes(params):
    # the revival and high-efficiency masks take their closed-form ratios;
    # without a mask the ratio is the unfiltered omega_c / omega_h
    temps = {"H": 6.0, "R": 4.0, "C": 1.0}
    p = params
    assert cooling_predicate(p, temps, REVIVAL_FILTER).ratio == \
        (p.omega_c - p.g) / (p.omega_h + p.g)
    assert cooling_predicate(p, temps, HIGH_EFFICIENCY_FILTER).ratio == \
        (p.omega_c + p.g) / (p.omega_h - p.g)
    assert cooling_predicate(p, temps).ratio == p.omega_c / p.omega_h
    for filt in COOLING_FILTERS:
        assert cooling_predicate(p, temps, filt).ratio > 0


def test_filter_predicate_accepts_exactly_the_masks_with_two_cycles(params):
    # of the 27 single-channel masks, seven are cycle-matched; H1+R2+C3 is
    # the one whose channels join a six-level cycle instead of two triangles
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    accepted, split = set(), set()
    for h, r, c in itertools.product((1, 2, 3), repeat=3):
        filt = FilterConfig.single(h, r, c)
        for kept, check in ((accepted, cooling_predicate),
                            (split, steady_state_branches_analytic)):
            try:
                check(params, reservoirs, filt)
                kept.add(filt)
            except ValueError:
                pass
    assert accepted == split == set(COOLING_FILTERS)
    with pytest.raises(ValueError, match="does not split into two 3-level cycles"):
        steady_state_branches_analytic(params, reservoirs, FilterConfig.single(1, 2, 3))


# --- entropy production ---------------------------------------------------------


def test_entropy_production_zero_at_equilibrium(params):
    t = 2.0
    reservoirs = ReservoirSet.from_temperatures(params, t_h=t, t_r=t, t_c=t)
    gen = build_generator(params, FilterConfig.all_channels(), reservoirs)
    (state,) = steady_states_numeric(gen)
    report = build_report(gen, state)
    assert abs(report.sigma) <= 1e-12


def test_entropy_production_positive_in_cooling_window(mild_params, mild_reservoirs):
    cur = currents_cycle_analytic(mild_params, mild_reservoirs)
    sigma = entropy_production(
        {"H": cur.hot, "R": cur.room, "C": cur.cold}, mild_reservoirs)
    assert sigma > 0


def test_entropy_production_background_conventions():
    temps = {"H": 3.0, "R": 2.0, "C": 1.0}
    eng = {"H": 0.3, "R": -0.4, "C": 0.1}
    with pytest.raises(ValueError, match="temperature"):
        entropy_production(eng, temps, background={"H": -0.1, "R": 0.0, "C": 0.0})
    assert entropy_production(
        eng, temps, background={"H": -0.1, "R": 0.0, "C": 0.0},
        background_temperature=0.0) == math.inf
    assert math.isfinite(entropy_production(
        eng, temps, background={"H": 0.0, "R": 0.0, "C": 0.0},
        background_temperature=0.0))
    with_thermal = entropy_production(
        eng, temps, background={"H": -0.1, "R": -0.1, "C": 0.05},
        background_temperature=0.5)
    base = entropy_production(eng, temps)
    assert with_thermal == pytest.approx(base + (0.1 + 0.1 - 0.05) / 0.5)


def test_second_law_on_random_scenarios(rng):
    for _ in range(50):
        p = draw_params(rng)
        t_c = rng.uniform(0.3, 1.5)
        t_r = t_c + rng.uniform(0.2, 3.0)
        t_h = rng.uniform(0.3, 9.0)
        reservoirs = ReservoirSet.from_temperatures(p, t_h=t_h, t_r=t_r, t_c=t_c)
        filt = rng.choice(COOLING_FILTERS)
        gen = build_generator(p, filt, reservoirs)
        for state in steady_states_numeric(gen):
            report = build_report(gen, state)
            assert report.sigma >= -1e-12


# --- stage classification --------------------------------------------------------


def test_classify_stage_patterns():
    assert classify_stage(-1.0, -1.0, +1.0) is StageLabel.STAGE1
    assert classify_stage(-1.0, +1.0, +1.0) is StageLabel.STAGE2
    assert classify_stage(+1.0, +1.0, +1.0) is StageLabel.STAGE3
    assert classify_stage(+1.0, +1.0, -1.0) is StageLabel.STAGE4
    assert classify_stage(0.0, +1.0, -1.0, tol=1e-12) is StageLabel.BOUNDARY
    assert classify_stage(5e-13, +1.0, -1.0, tol=1e-12) is StageLabel.BOUNDARY
    assert classify_stage(+1.0, -1.0, +1.0) is StageLabel.UNCLASSIFIED


def test_build_report_contents(mild_params, mild_reservoirs):
    gen = build_generator(mild_params, REVIVAL_FILTER, mild_reservoirs)
    states = steady_states_numeric(gen)
    report = build_report(gen, by_support(states)[1, 3, 5])
    assert list(report.per_channel) == ["engineered:H3", "engineered:R2", "engineered:C1"]
    assert report.first_law_residual <= 1e-10
    assert report.efficiency == pytest.approx(2.0 / 15.0, rel=1e-10)
    assert report.sigma > 0
    assert report.stage in (StageLabel.STAGE3, StageLabel.STAGE4)
    assert report.per_channel["engineered:C1"] == report.engineered["C"]


# --- stacked currents ---------------------------------------------------------


def random_states(rng, n):
    g = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def stack_generators(params):
    reservoirs = ReservoirSet.from_temperatures(params, t_h=6.0, t_r=4.0, t_c=1.0)
    return [
        build_generator(params, REVIVAL_FILTER, reservoirs,
                        BackgroundSpec.thermal(1.2, params.gamma)),
        build_generator(params, FilterConfig.all_channels(), reservoirs),
    ]


def test_heat_currents_on_a_stack_equal_single_state_calls(params, rng):
    states = random_states(rng, 6)
    for gen in stack_generators(params):
        got = heat_currents(gen.hamiltonian, gen.dissipators, states)
        assert got.shape == (len(gen.dissipators), 6)
        for k, rho in enumerate(states):
            want = heat_currents(gen.hamiltonian, gen.dissipators, rho)
            assert got[:, k].tolist() == want.tolist()


def test_heat_currents_with_stacked_rates_equal_rows(params, rng):
    # row k of the stacked rates pairs with state k; T = 0 leaves j+ = 0 on
    # that row only
    t_h = [0.0, 0.5, 6.0, 40.0]
    states = random_states(rng, len(t_h))
    for gen in stack_generators(params):
        stack = hot_stack(gen, t_h)
        got = heat_currents(gen.hamiltonian, stack, states)
        for k, (t, rho) in enumerate(zip(t_h, states)):
            hot = ReservoirSet.from_temperatures(params, t_h=t, t_r=4.0, t_c=1.0).hot
            row = [channel_rates(d.channel, hot)
                   if d.source == "engineered" and d.channel.qubit == "H" else d
                   for d in gen.dissipators]
            want = heat_currents(gen.hamiltonian, row, rho)
            assert got[:, k].tolist() == want.tolist()
            assert heat_currents(gen.hamiltonian, take_rows(stack, [k]),
                                 rho[None])[:, 0].tolist() == want.tolist()


def off_balance_row(rng, row):
    """``row`` with its first state's populations replaced by a distribution
    that is not stationary, whose currents break the first law."""
    pops = rng.dirichlet(np.ones(8))
    return (replace(row[0], populations=pops),)


def row_reports(readout, k):
    """The reports of the states of row ``k`` of ``readout``, in state order."""
    return [readout.report(j) for j in np.flatnonzero(readout.row == k).tolist()]


def test_build_reports_equal_build_report_row_by_row(params, rng):
    # seven rows, then a grid of 70 rows in one pass, as the CLI takes it,
    # where each of the 12 dissipators takes one trace-form call over all
    # 70 states, and where row 8 holds a state off the first law
    gen = stack_generators(params)[0]
    short = np.linspace(1.0, 12.0, 7).tolist()
    grid = np.linspace(1.0, 12.0, 70).tolist()
    for t_h, bad in ((short, None), (grid, 8)):
        stack = hot_stack(gen, t_h)
        rows = state_sets(steady_state_rows(build_population_matrix(stack)), gen.eigen, len(t_h))
        if bad is not None:
            rows[bad] = off_balance_row(rng, rows[bad])
        readout = build_reports(gen, stack, states_table(rows), hot_baths(gen, t_h))
        assert len(readout.reporting) == len(t_h)
        assert list(readout.failures) == ([] if bad is None else [bad])
        for k, t in enumerate(t_h):
            hot = ReservoirSet.from_temperatures(params, t_h=t, t_r=4.0, t_c=1.0)
            one = build_generator(params, REVIVAL_FILTER, hot,
                                  BackgroundSpec.thermal(1.2, params.gamma))
            if k != bad:
                want = [build_report(one, s) for s in steady_states_numeric(one)]
                assert row_reports(readout, k) == want
                continue
            with pytest.raises(NumericalFault) as alone:
                build_report(one, rows[k][0])
            fault = readout.failures[k]
            assert isinstance(fault, NumericalFault) and str(fault) == str(alone.value)
            assert readout.reporting[k] == -1


def test_build_reports_keep_a_faulting_state_to_its_row(params, rng):
    # a state off the first law fails its row alone, with the fault that
    # build_report raises on that state alone
    gen = stack_generators(params)[1]
    t_h = [2.0, 4.0, 8.0]
    stack = hot_stack(gen, t_h)
    rows = state_sets(steady_state_rows(build_population_matrix(stack)), gen.eigen, len(t_h))
    rows[1] = off_balance_row(rng, rows[1])
    readout = build_reports(gen, stack, states_table(rows), hot_baths(gen, t_h))
    (fault,) = readout.failures.values()
    assert isinstance(fault, NumericalFault) and "first-law violation" in str(fault)
    # one state per row; the other rows report theirs
    assert readout.row.tolist() == [0, 1, 2] and readout.reporting.tolist() == [0, -1, 2]
    one = build_generator(params, FilterConfig.all_channels(),
                          ReservoirSet.from_temperatures(params, t_h=4.0, t_r=4.0, t_c=1.0))
    with pytest.raises(NumericalFault) as alone:
        build_report(one, rows[1][0])
    assert str(readout.failures[1]) == str(alone.value)


def readout_of(gen, state):
    """The read-out of ``build_report(gen, state)``."""
    baths = np.array([[gen.reservoirs[q].temperature for q in "HRC"]])
    return build_reports(gen, gen.dissipators, states_table([(state,)]), baths)


def test_build_reports_read_an_equal_copy_of_the_eigensystem_bit_for_bit(params):
    # a state carries its eigensystem; an equal copy of gen's (as
    # every eigensystem call builds a new one) gives the same currents
    gen = stack_generators(params)[1]
    state = steady_states_numeric(gen)[0]
    copy = replace(state, eigen=replace(gen.eigen))
    assert copy.eigen is not gen.eigen
    assert readout_of(gen, copy).currents.tolist() == readout_of(gen, state).currents.tolist()


def test_readout_is_real(params):
    # the model matrices are real, so the read-out runs in float64
    for gen in stack_generators(params):
        (state, *_) = steady_states_numeric(gen)
        currents = readout_of(gen, state).currents
        assert currents.dtype == np.float64 and currents.any()
