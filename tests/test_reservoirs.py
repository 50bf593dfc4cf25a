import math
import warnings

import numpy as np
import pytest
import scipy.constants

from qfridge import (
    BackgroundSpec,
    FilterConfig,
    ReservoirSet,
    ReservoirSpec,
    SystemParams,
    channel_rates,
    cycle_match_check,
    mean_photon_number,
    natural_from_ghz,
    natural_from_kelvin,
    select_channels,
    transition_channels,
)
from qfridge.reservoirs import (
    COOLING_FILTERS,
    Dissipator,
    MarkovValidityWarning,
    background_rates,
    cycle_matched,
    ghz_from_natural,
    kelvin_from_natural,
    kept_channel_table,
    warn_if_markov_strained,
)

UNIT_SCALE = 2.0 * math.pi * 210e9


def test_mean_photon_number_basics():
    assert mean_photon_number(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)
    assert mean_photon_number(1.0, 0.0) == 0.0
    assert mean_photon_number(1e4, 1.0) == 0.0  # far beyond overflow guard
    with pytest.raises(ValueError):
        mean_photon_number(-1.0, 1.0)
    with pytest.raises(ValueError):
        mean_photon_number(0.0, 1.0)
    with pytest.raises(ValueError):
        mean_photon_number(1.0, -0.5)


def test_occupation_overflows_where_omega_over_t_underflows():
    # 1.1e-16 / 1e308 underflows to 0.0; a subnormal omega / T already
    # gave inf through 1 / expm1
    assert 1.1e-16 / 1e308 == 0.0
    assert mean_photon_number(1.1e-16, 1e308) == math.inf
    assert mean_photon_number(5e-324, 1.0) == math.inf
    # a grid row that filters the channel out keeps its rates at exactly 0
    # against that occupation
    from qfridge.dynamics import assemble_generator, grid_rates

    params = SystemParams(1.0, 3.0, 1.0 - 2**-53, 0.05)
    gen = assemble_generator(params, FilterConfig.all_channels(),
                             ReservoirSet.from_temperatures(params, 4.0, 2.0, 1.0),
                             BackgroundSpec.none())
    (col,) = [k for k, d in enumerate(gen.dissipators) if d.channel.key == ("C", 1)]
    c1 = gen.dissipators[col].channel
    assert c1.frequency == pytest.approx(1.1e-16, rel=0.01)
    c1_only = FilterConfig(frozenset(), frozenset(), frozenset({1}))
    nothing = FilterConfig(frozenset(), frozenset(), frozenset())
    j_plus, j_minus = grid_rates(gen, kept_channel_table([c1_only, nothing, c1_only]),
                                 [[4.0, 2.0, 1e308], [4.0, 2.0, 1e308], [4.0, 2.0, 1.0]])
    assert j_plus[:, col].tolist() == [math.inf, 0.0,
                                       0.05 * mean_photon_number(c1.frequency, 1.0)]
    assert j_minus[:, col].tolist()[:2] == [math.inf, 0.0]
    assert not j_plus[:, np.arange(9) != col].any() and not j_minus[:, np.arange(9) != col].any()


def test_mean_photon_number_physical_entry():
    # 2*pi * 210 GHz at 10 K, checked against scipy's CODATA constants
    omega = natural_from_ghz(210.0, UNIT_SCALE)
    temp = natural_from_kelvin(10.0, UNIT_SCALE)
    assert omega == pytest.approx(1.0, abs=1e-15)
    x = scipy.constants.hbar * (2 * math.pi * 210e9) / (scipy.constants.k * 10.0)
    assert omega / temp == pytest.approx(x, rel=1e-12)
    assert x == pytest.approx(1.0078, abs=5e-5)
    n = mean_photon_number(omega, temp)
    assert n == pytest.approx(1.0 / math.expm1(x), rel=1e-12)
    assert n == pytest.approx(0.5748184, abs=5e-8)


def test_unit_conversion_round_trip():
    assert ghz_from_natural(natural_from_ghz(17.5, UNIT_SCALE), UNIT_SCALE) \
        == pytest.approx(17.5, rel=1e-14)
    assert kelvin_from_natural(natural_from_kelvin(12.0, UNIT_SCALE), UNIT_SCALE) \
        == pytest.approx(12.0, rel=1e-14)


def test_channel_rates_values(params):
    channels = transition_channels(params)
    (c3,) = [c for c in channels if c.key == ("C", 3)]  # frequency omega_c
    temp = natural_from_kelvin(10.0, UNIT_SCALE)
    spec = ReservoirSpec("C", temp, 0.6)
    rates = channel_rates(c3, spec)
    n = mean_photon_number(1.0, temp)
    assert rates.j_plus == pytest.approx(0.6 * n, rel=1e-15)
    assert rates.j_plus == pytest.approx(0.3448911, abs=5e-7)
    assert rates.j_minus == pytest.approx(0.9448911, abs=5e-7)
    # exact by construction
    assert rates.gamma == 0.6
    assert rates.j_minus == rates.j_plus + rates.gamma
    # detailed balance
    assert rates.j_minus / rates.j_plus == pytest.approx(
        math.exp(c3.frequency / temp), rel=1e-12)


def test_channel_rates_vacuum_and_mismatch(params):
    channels = transition_channels(params)
    (h1,) = [c for c in channels if c.key == ("H", 1)]
    rates = channel_rates(h1, ReservoirSpec("H", 0.0, 0.25))
    assert rates.j_plus == 0.0
    assert rates.j_minus == 0.25
    with pytest.raises(ValueError, match="reservoir couples to"):
        channel_rates(h1, ReservoirSpec("C", 1.0, 0.25))


def test_mean_photon_monotonicity():
    temps = np.linspace(0.2, 5.0, 25)
    ns = [mean_photon_number(1.3, t) for t in temps]
    assert all(b > a for a, b in zip(ns, ns[1:]))
    omegas = np.linspace(0.3, 6.0, 25)
    ns = [mean_photon_number(w, 2.1) for w in omegas]
    assert all(b < a for a, b in zip(ns, ns[1:]))


def test_rates_ordered_for_positive_temperature(params, rng):
    channels = transition_channels(params)
    for ch in channels:
        spec = ReservoirSpec(ch.qubit, rng.uniform(0.2, 5.0), rng.uniform(0.01, 1.0))
        rates = channel_rates(ch, spec)
        assert 0.0 < rates.j_plus < rates.j_minus


def test_select_channels_revival_set(params):
    channels = transition_channels(params)
    kept = select_channels(channels, FilterConfig.single(3, 2, 1))
    assert [c.key for c in kept] == [("H", 3), ("R", 2), ("C", 1)]
    assert [c.frequency for c in kept] == [
        params.omega_h + params.g, params.omega_r, params.omega_c - params.g]


def test_select_channels_all_and_disconnected(params):
    channels = transition_channels(params)
    assert len(select_channels(channels, FilterConfig.all_channels())) == 9
    no_h = FilterConfig(kept_h=frozenset(), kept_r=frozenset((1, 2, 3)),
                        kept_c=frozenset((1, 2, 3)))
    kept = select_channels(channels, no_h)
    assert len(kept) == 6
    assert all(c.qubit != "H" for c in kept)


def test_cycle_match_examples():
    assert cycle_match_check(FilterConfig.single(3, 2, 1)) == \
        ("matched", "H3 + C1 closes onto R2")
    assert cycle_match_check(FilterConfig.single(2, 2, 2))[0] == "matched"
    status, _ = cycle_match_check(FilterConfig.single(1, 2, 1))
    assert status == "mismatched"
    status, _ = cycle_match_check(FilterConfig.all_channels())
    assert status == "not-applicable"


def test_cycle_matched_table_equals_cycle_match_check_on_every_mask():
    # all 512 masks, empty kept sets included: the array rule and the
    # per-mask check agree, and seven masks close a cycle (the six cooling
    # masks and H1+R2+C3)
    import itertools

    subsets = [frozenset(c) for n in range(4) for c in itertools.combinations((1, 2, 3), n)]
    masks = [FilterConfig(h, r, c) for h in subsets for r in subsets for c in subsets]
    matched = cycle_matched(kept_channel_table(masks))
    assert len(masks) == 512 and matched.dtype == bool
    assert matched.tolist() == [cycle_match_check(f)[0] == "matched" for f in masks]
    assert {f for f, m in zip(masks, matched.tolist()) if m} == \
        {*COOLING_FILTERS, FilterConfig.single(1, 2, 3)}


def test_all_cooling_filters_are_matched():
    for filt in COOLING_FILTERS:
        assert cycle_match_check(filt)[0] == "matched", str(filt)


def test_background_spec_validation():
    with pytest.raises(ValueError):
        BackgroundSpec(mode="thermal", temperature=None, gamma=0.1)
    with pytest.raises(ValueError):
        BackgroundSpec(mode="vacuum", gamma=None)
    with pytest.raises(ValueError):
        BackgroundSpec(mode="blue", gamma=0.1)
    assert not BackgroundSpec.none().active
    assert BackgroundSpec.vacuum(0.1).effective_temperature == 0.0


def test_dissipator_holds_scalar_rates(params):
    # a grid's rates are tables (dynamics.grid_rates), not array dissipators
    ch = transition_channels(params)[0]
    d = channel_rates(ch, ReservoirSpec(ch.qubit, 2.0, 0.05))
    for rates in ((np.array([d.j_plus]), np.array([d.j_minus]), np.array([d.gamma])),
                  (d.j_plus, d.j_minus, np.array([d.gamma, d.gamma]))):
        with pytest.raises(ValueError, match="rates are scalars"):
            Dissipator(ch, *rates)
    with pytest.raises(ValueError, match="exact float sum"):
        Dissipator(ch, d.j_plus, d.j_minus, d.gamma * (1.0 + 1e-12))


def test_background_rates(params):
    channels = transition_channels(params)
    vac = BackgroundSpec.vacuum(0.3)
    for ch in channels:
        rates = background_rates(ch, vac)
        assert rates.j_plus == 0.0 and rates.j_minus == 0.3
    thermal = BackgroundSpec.thermal(1.2, 0.3)
    (c3,) = [c for c in channels if c.key == ("C", 3)]
    assert background_rates(c3, thermal).j_plus == pytest.approx(
        0.3 * mean_photon_number(c3.frequency, 1.2), rel=1e-15)
    with pytest.raises(ValueError):
        background_rates(c3, BackgroundSpec.none())


def test_markov_validity_report(params):
    keys = [("H", 3), ("R", 2), ("C", 1)]
    with pytest.warns(MarkovValidityWarning, match="Markov/secular treatment is strained"):
        warn_if_markov_strained(params, keys, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warn_if_markov_strained(params, keys, 1e-4)


def test_reservoir_set_helpers(params):
    rs = ReservoirSet.from_temperatures(params, t_h=3.0, t_r=2.0, t_c=1.0)
    assert rs["H"].temperature == 3.0
    assert rs.temperatures == {"H": 3.0, "R": 2.0, "C": 1.0}
    with pytest.raises(ValueError):
        ReservoirSet(hot=rs.cold, room=rs.room, cold=rs.hot)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build, name", [
    (lambda x: SystemParams(omega_c=x, omega_h=3.0, g=0.25, gamma=0.05), "omega_c"),
    (lambda x: SystemParams(omega_c=1.0, omega_h=x, g=0.25, gamma=0.05), "omega_h"),
    (lambda x: SystemParams(omega_c=1.0, omega_h=3.0, g=x, gamma=0.05), "g"),
    (lambda x: SystemParams(omega_c=1.0, omega_h=3.0, g=0.25, gamma=x), "gamma"),
    (lambda x: SystemParams(omega_c=1.0, omega_h=3.0, g=0.25, gamma=0.05,
                            unit_scale=x), "unit_scale"),
    (lambda x: ReservoirSpec("H", temperature=x, gamma=0.05), "temperature"),
    (lambda x: ReservoirSpec("H", temperature=1.0, gamma=x), "gamma"),
    (lambda x: BackgroundSpec.thermal(temperature=x, gamma=0.05), "temperature"),
    (lambda x: BackgroundSpec.vacuum(gamma=x), "gamma"),
    (lambda x: mean_photon_number(x, 1.0), "omega"),
    (lambda x: mean_photon_number(1.0, x), "temperature"),
])
def test_value_types_reject_non_finite(build, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(bad)
