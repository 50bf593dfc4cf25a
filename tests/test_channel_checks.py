"""The array check of a kept-channel table against a mask-by-mask oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfridge import (
    BackgroundSpec,
    DegenerateChannelsError,
    FilterConfig,
    MarkovValidityWarning,
    ReservoirSet,
    ReservoirSpec,
    SystemParams,
)
from qfridge.dynamics import build_generator, check_channel_table
from qfridge.reservoirs import kept_channel_table
from qfridge.spectrum import channel_frequency

KEYS = [(q, j) for q in "HRC" for j in (1, 2, 3)]
EPS = float(np.finfo(float).eps)


def oracle_checks(params, masks, reservoirs, background):
    """Mask by mask: the error text of each mask whose participating
    channels coincide pairwise (a loop over their keys), and each distinct
    Markov message of the other masks in mask order (the smallest gap of
    their sorted frequencies)."""
    freq = {key: channel_frequency(params, *key) for key in KEYS}
    tol = 1e3 * EPS * params.omega_c
    failures, messages = {}, []
    for m, filt in enumerate(masks):
        keys = [(q, j) for q, j in KEYS if j in filt.kept_for(q)]
        gamma_max = max((reservoirs[q].gamma for q in "HRC" if filt.kept_for(q)), default=0.0)
        if background.active:
            keys, gamma_max = KEYS, max(gamma_max, background.gamma)
        pairs = [f"{a[0]}{a[1]}~{b[0]}{b[1]}" for i, a in enumerate(keys)
                 for b in keys[i + 1:] if abs(freq[a] - freq[b]) < tol]
        if pairs:
            failures[m] = f"coinciding channel frequencies: {', '.join(pairs)}"
        elif len(keys) >= 2:
            values = sorted(freq[key] for key in keys)
            gap = min(b - a for a, b in zip(values, values[1:]))
            if gamma_max >= 0.1 * gap:
                messages.append(f"gamma = {gamma_max:.4g} is not small against the minimum "
                                f"channel-frequency gap {gap:.4g}; the Markov/secular "
                                f"treatment is strained")
    return failures, list(dict.fromkeys(messages))


def checked(run):
    """``run()`` and the text of every warning it emitted, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    assert all(w.category is MarkovValidityWarning for w in caught)
    return result, [str(w.message) for w in caught]


kept_sets = st.frozensets(st.sampled_from((1, 2, 3)))
masks = st.lists(st.builds(FilterConfig, kept_sets, kept_sets, kept_sets), min_size=1,
                 max_size=12)
# (omega_h, g) where channel frequencies coincide, exactly, to rounding or
# just inside and just outside the tolerance (H2 ~ C2 at 500 and 2000 eps),
# and random ones
models = st.one_of(
    st.sampled_from([(2.0, 0.5), (2.0, 1 / 3), (1.5, 0.5), (4 / 3, 1 / 3), (3.0, 0.5),
                     (3.0, 0.25), (2.0 + 500 * EPS, 0.5), (2.0 + 2000 * EPS, 0.5)]),
    st.tuples(st.floats(1.2, 5.0), st.floats(0.02, 0.98)),
)
gammas = st.floats(1e-3, 1.0)
backgrounds = st.one_of(
    st.just(BackgroundSpec.none()),
    st.builds(BackgroundSpec.vacuum, gammas),
    st.builds(BackgroundSpec.thermal, st.floats(0.05, 5.0), gammas),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(masks=masks, model=models, bath_gammas=st.tuples(gammas, gammas, gammas),
       background=backgrounds)
def test_table_check_matches_the_mask_by_mask_oracle(masks, model, bath_gammas, background):
    omega_h, g = model
    params = SystemParams(omega_c=1.0, omega_h=omega_h, g=g, gamma=bath_gammas[0])
    reservoirs = ReservoirSet(*(ReservoirSpec(q, 1.0, gamma)
                                for q, gamma in zip("HRC", bath_gammas)))
    want_failures, want_messages = oracle_checks(params, masks, reservoirs, background)

    failures, messages = checked(lambda: check_channel_table(
        params, kept_channel_table(masks), reservoirs, background))
    assert {m: str(exc) for m, exc in failures.items()} == want_failures
    assert all(type(exc) is DegenerateChannelsError for exc in failures.values())
    assert messages == want_messages

    # the one-mask case, which build_generator runs: a mask fails with its
    # text, or warns its message
    for m, filt in enumerate(masks):
        one_failures, one_messages = oracle_checks(params, [filt], reservoirs, background)
        if m in want_failures:
            with pytest.raises(DegenerateChannelsError) as info:
                checked(lambda: build_generator(params, filt, reservoirs, background))
            assert str(info.value) == want_failures[m]
        else:
            _, messages = checked(lambda: build_generator(params, filt, reservoirs, background))
            assert messages == one_messages and not one_failures


@pytest.mark.parametrize("offset, fails", [(500, True), (2000, False)])
def test_channels_coincide_within_1e3_eps_omega_c(offset, fails):
    # H2 = omega_h - g lies `offset` eps above C2 = omega_c + g = 1.5
    params = SystemParams(omega_c=1.0, omega_h=2.0 + offset * EPS, g=0.5, gamma=0.01)
    reservoirs = ReservoirSet.from_temperatures(params, 1.0, 1.0, 1.0)
    kept = kept_channel_table([FilterConfig.single(2, 2, 2)])
    failures, messages = checked(lambda: check_channel_table(params, kept, reservoirs,
                                                             BackgroundSpec.none()))
    if fails:
        assert {m: str(exc) for m, exc in failures.items()} == {
            0: "coinciding channel frequencies: H2~C2"} and messages == []
    else:
        assert failures == {} and len(messages) == 1


def test_kept_channel_table_columns_are_the_channel_order():
    table = kept_channel_table([FilterConfig(frozenset({1, 3}), frozenset(), frozenset({2})),
                                FilterConfig()])
    assert table.dtype == bool and table.shape == (2, 9)
    assert table.tolist() == [[True, False, True, False, False, False, False, True, False],
                              [True] * 9]
    assert kept_channel_table([]).shape == (0, 9)
