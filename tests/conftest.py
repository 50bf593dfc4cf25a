import numpy as np
import pytest

from qfridge import FilterConfig, ReservoirSet, SystemParams
from qfridge.dynamics import SteadyState, grid_dissipators
from qfridge.reservoirs import kept_channel_table
from qfridge.spectrum import DIM, QUBITS

# Fig.-2-style scenario: cold frequency 2*pi*210 GHz anchors the scale.
UNIT_SCALE = 2.0 * np.pi * 210e9
G_FIGURE = 9.0 / 17.0


@pytest.fixture
def params():
    return SystemParams(omega_c=1.0, omega_h=3.0, g=G_FIGURE, gamma=0.6)


@pytest.fixture
def mild_params():
    # away from cooling boundaries and with a modest rate: currents are
    # O(gamma), so relative identities hold to near machine precision
    return SystemParams(omega_c=1.0, omega_h=3.0, g=G_FIGURE, gamma=0.3)


@pytest.fixture
def mild_reservoirs(mild_params):
    return ReservoirSet.from_temperatures(mild_params, t_h=8.0, t_r=3.0, t_c=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def draw_params(rng, gamma_low=0.01, gamma_high=0.3) -> SystemParams:
    """Random valid model numbers with omega_c = 1 as the scale."""
    return SystemParams(
        omega_c=1.0,
        omega_h=rng.uniform(1.6, 4.0),
        g=rng.uniform(0.05, 0.95),
        gamma=rng.uniform(gamma_low, gamma_high),
    )


def draw_reservoirs(rng, params, ordered=True) -> ReservoirSet:
    t_c = rng.uniform(0.3, 1.5)
    t_r = t_c + rng.uniform(0.5, 3.0)
    t_h = t_r + rng.uniform(0.5, 6.0)
    if not ordered:
        temps = rng.permutation([t_c, t_r, t_h])
        t_h, t_r, t_c = temps
        if t_r <= t_c:  # keep the cooling threshold well defined
            t_r, t_c = t_c, t_r
    return ReservoirSet.from_temperatures(params, t_h=t_h, t_r=t_r, t_c=t_c)


def hot_baths(gen, t_h):
    """The ``(N, 3)`` bath table of ``gen``'s reservoirs with the hot bath at
    each of ``t_h``."""
    baths = np.array([[gen.reservoirs[q].temperature for q in QUBITS]] * len(t_h))
    baths[:, 0] = t_h
    return baths


def hot_stack(gen, t_h):
    """The dissipators of ``gen`` with the hot bath at each of ``t_h`` and
    every channel kept on every row."""
    return grid_dissipators(gen, kept_channel_table([FilterConfig.all_channels()] * len(t_h)),
                            hot_baths(gen, t_h))


def state_sets(table, eigen, n: int) -> list:
    """The states' table of ``dynamics.steady_state_rows`` (populations,
    rows, supports as bit sets, failures by row) as each of ``n`` rows'
    tuple of :class:`SteadyState` in ``eigen``'s basis, or the exception that
    failed it: the one-row form of ``steady_states_numeric``."""
    populations, rows, support, failures = table
    return [failures[k] if k in failures else tuple(
        SteadyState(frozenset(i for i in range(DIM) if code >> i & 1), populations[j], eigen)
        for j, code in zip(np.flatnonzero(rows == k).tolist(), support[rows == k].tolist()))
        for k in range(n)]


def by_support(states) -> dict:
    """The steady states of ``states`` keyed by their levels as a sorted tuple."""
    return {tuple(sorted(s.support)): s for s in states}


def states_table(rows) -> tuple:
    """The states' table that ``thermo.build_reports`` reads, of a list of
    each row's steady states or exception: the inverse of
    :func:`state_sets`."""
    solved = [(k, s) for k, row in enumerate(rows) if not isinstance(row, Exception) for s in row]
    return (np.reshape([s.populations for _, s in solved], (-1, DIM)),
            np.array([k for k, _ in solved], dtype=int),
            np.array([sum(1 << i for i in s.support) for _, s in solved], dtype=int),
            {k: row for k, row in enumerate(rows) if isinstance(row, Exception)})
