"""Dissipators, the full generator, population rate matrix, and steady states.

Superoperators use column-stacking vectorization: ``vec(A rho B) =
(B^T kron A) vec(rho)`` with ``vec = rho.flatten(order="F")``.

Steady states come from one route: the dynamics restricted to eigenlevel
occupations, an 8x8 real rate matrix W.  This is exact here because every
channel operator has diagonal A^dag A and A A^dag in the eigenbasis, so
states diagonal in the eigenbasis form an invariant sector of the full
generator and W is that generator restricted to it.  The full 64x64
Liouvillian is built only when read (time propagation, cross-checks in the
tests).

Multiple steady states are enumerated per closed communicating class of the
population rate graph rather than returned as raw null-space vectors, so
each returned state is a physical density matrix with a definite support.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .matrixcore import DensityMatrix, null_space_from_svd, require_finite, svd_rows
from .reservoirs import (
    REVIVAL_FILTER,
    BackgroundSpec,
    ChannelRates,
    FilterConfig,
    ReservoirSet,
    background_rates,
    channel_rate_stack,
    channel_rates,
    cycle_match_check,
    select_channels,
    warn_if_markov_strained,
)
from .spectrum import (
    DIM,
    QUBITS,
    EigenSystem,
    SystemParams,
    TransitionChannel,
    build_hamiltonian,
    check_nondegenerate,
    eigensystem,
    transition_channels,
)

__all__ = [
    "Dissipator",
    "Generator",
    "ComponentDecomposition",
    "SteadyState",
    "SteadyStateSet",
    "SolverFailure",
    "TriangleBranch",
    "AnalyticBranches",
    "VacuumBackgroundSolution",
    "PropagationResult",
    "apply_dissipator",
    "apply_dissipators",
    "build_generator",
    "participating_channels",
    "stacked_dissipators",
    "take_rows",
    "build_population_matrix",
    "invariant_components",
    "steady_state_rows",
    "steady_states_numeric",
    "steady_state_branches_analytic",
    "steady_state_vacuum_background_analytic",
    "propagate",
    "branch_weights",
]

#: Residual bound for accepting a steady state: ||W p|| <= RES_TOL ||W||.
STEADY_RESIDUAL_TOL = 1e-9

#: Default convergence threshold for time propagation, ||d rho / dt|| < eps.
DEFAULT_EPS_SS = 1e-10

#: RK4 steps that ``propagate`` checks with one matrix-vector product.
BLOCK_STEPS = 16

#: Largest ``dt * ||L||_1`` that ``propagate`` admits: the left half-disk of
#: radius 2.6155 lies inside RK4's stability region.
RK4_STABLE_RADIUS = 2.6


class SolverFailure(RuntimeError):
    """A steady-state solve did not meet its residual or structure checks."""


@dataclass(frozen=True)
class Dissipator:
    """One channel's dissipative contribution, engineered or background."""

    channel: TransitionChannel
    rates: ChannelRates
    source: str  # engineered | background

    def __str__(self) -> str:
        return f"{self.source}:{self.channel}"


def apply_dissipators(dissipators: Sequence[Dissipator], rho: np.ndarray) -> np.ndarray:
    """Action of each dissipator on a state or a stack of states
    ``(..., 8, 8)``, stacked as ``(n, ..., 8, 8)``:

    j- (2 A rho A^dag - A^dag A rho - rho A^dag A)
    + j+ (2 A^dag rho A - A A^dag rho - rho A A^dag),

    the j+ term added only where j+ != 0.  Stacked rates (``(N,)`` arrays,
    see :func:`stacked_dissipators`) broadcast against the last batch axis
    of ``rho``: state ``rho[..., k, :, :]`` sees row k of the rates.  Slice k
    equals the one-channel formula evaluated for ``dissipators[k]`` alone,
    at one row of its rates, bit for bit.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected {DIM}x{DIM} states, got {rho.shape}")
    lead = (-1,) + (1,) * (rho.ndim - 2)  # the dissipator axis, broadcast over states
    channels = [d.channel for d in dissipators]
    a = _stack([ch.operator for ch in channels], lead)
    ad = _stack([ch.adjoint for ch in channels], lead)
    ada = _stack([ch.ada for ch in channels], lead)
    j_plus = [d.rates.j_plus for d in dissipators]
    batch = _batch(j_plus)
    jp = _rates(j_plus, batch, rho.ndim)
    jm = _rates([d.rates.j_minus for d in dissipators], batch, rho.ndim)
    out = jm * (2.0 * (a @ rho @ ad) - ada @ rho - rho @ ada)
    if batch:  # a stacked j+ can be zero on some rows only
        warm = jp != 0.0
        hot = np.flatnonzero(warm.any(axis=tuple(range(1, warm.ndim))))
        partly = not warm[hot].all()
    else:
        hot, partly = np.flatnonzero(jp), False
    if hot.size:
        a, ad = a[hot], ad[hot]
        aad = _stack([channels[k].aad for k in hot], lead)
        term = jp[hot] * (2.0 * (ad @ rho @ a) - aad @ rho - rho @ aad)
        if partly:  # the rows where j+ = 0 stay as they are
            out[hot] = np.where(warm[hot], out[hot] + term, out[hot])
        else:
            out[hot] += term
    return out


def apply_dissipator(d: Dissipator, rho: np.ndarray) -> np.ndarray:
    """Action of one dissipator on a state; see :func:`apply_dissipators`."""
    return apply_dissipators((d,), rho)[0]


def _stack(mats, lead: tuple[int, ...]) -> np.ndarray:
    return np.array(mats, dtype=complex).reshape(*lead, DIM, DIM)


def _batch(values) -> tuple[int, ...]:
    """Shape of the stacked rates among ``values`` (``()`` if all are scalars)."""
    return next((v.shape for v in values if isinstance(v, np.ndarray)), ())


def _rates(values, batch: tuple[int, ...], ndim: int) -> np.ndarray:
    """One rate per dissipator as an ``(n, ..., 1, 1)`` array that broadcasts
    against states of ``ndim`` dimensions, stacked rates (of shape
    ``batch``) along their last batch axis."""
    if not batch:
        return np.array(values, dtype=float).reshape((-1,) + (1,) * ndim)
    rates = np.empty((len(values),) + batch)
    for k, v in enumerate(values):
        rates[k] = v
    return rates.reshape((-1,) + (1,) * (ndim - 2 - len(batch)) + batch + (1, 1))


@dataclass(frozen=True)
class Generator:
    """Assembled dynamics for one scenario.

    ``dissipators`` holds the engineered (filtered) dissipators and, when a
    background is active, the background dissipators over all nine
    channels.  ``liouvillian`` is the 64x64 matrix generating ``d vec(rho)/dt``,
    built on first read from the 64 matrix units: the coherent commutator
    term plus each dissipator's :func:`apply_dissipators` action, in order.
    The commutator never touches eigenlevel populations, so every
    population-level result is independent of it; it is kept so that
    undamped coherences between nondegenerate levels do not masquerade as
    extra stationary states of the full generator.
    """

    params: SystemParams
    reservoirs: ReservoirSet
    background: BackgroundSpec
    hamiltonian: np.ndarray = field(repr=False)
    eigen: EigenSystem = field(repr=False)
    dissipators: tuple[Dissipator, ...] = field(repr=False)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        # units[k] is the matrix unit with vec(units[k]) = e_k, and column k
        # of L is vec(L units[k])
        n = DIM * DIM
        units = np.eye(n, dtype=complex).reshape(n, DIM, DIM).transpose(0, 2, 1)
        h = self.hamiltonian
        out = -1j * (h @ units - units @ h)
        for term in apply_dissipators(self.dissipators, units):
            out += term
        return out.transpose(2, 1, 0).reshape(n, n)


def participating_channels(
    filt: FilterConfig, reservoirs: ReservoirSet, background: BackgroundSpec
) -> tuple[list[tuple[str, int]], float]:
    """Keys of the channels that carry a dissipator, and the largest decay
    rate among them: the kept channels at their reservoirs' rates or, with
    an active background, all nine channels and the background rate too."""
    keys = filt.kept_keys
    gamma_max = max((reservoirs[q].gamma for q, _ in keys), default=0.0)
    if background.active:
        keys = [(q, j) for q in QUBITS for j in (1, 2, 3)]
        gamma_max = max(gamma_max, background.gamma)
    return keys, gamma_max


def build_generator(
    params: SystemParams,
    filt: FilterConfig,
    reservoirs: ReservoirSet,
    background: BackgroundSpec | None = None,
) -> Generator:
    """Assemble the dissipators of a scenario.

    Engineered dissipators cover exactly the kept channels; an active
    background couples through all nine channels.  Parameter sets where two
    participating channel frequencies coincide are rejected, since the
    secular dissipator form presumes distinct frequencies.  A warning (never
    an error) is emitted when decay rates strain the Markov validity margin.
    """
    background = background or BackgroundSpec.none()
    channels = transition_channels(params)
    kept = select_channels(channels, filt)

    participating, gamma_max = participating_channels(filt, reservoirs, background)
    if participating:
        check_nondegenerate(params, participating)

    dissipators = [
        Dissipator(ch, channel_rates(ch, reservoirs[ch.qubit]), "engineered")
        for ch in kept
    ]
    if background.active:
        dissipators += [
            Dissipator(ch, background_rates(ch, background), "background")
            for ch in channels
        ]

    if participating:
        warn_if_markov_strained(params, participating, gamma_max)

    return Generator(
        params=params,
        reservoirs=reservoirs,
        background=background,
        hamiltonian=build_hamiltonian(params),
        eigen=eigensystem(params),
        dissipators=tuple(dissipators),
    )


def stacked_dissipators(gen: Generator, temperatures: np.ndarray) -> tuple[Dissipator, ...]:
    """The dissipators of ``gen`` with the hot bath at each of
    ``temperatures``: its engineered channels carry ``(N,)`` rate arrays
    (:func:`channel_rate_stack`), every other dissipator is ``gen``'s own.
    Row k is the scenario with the hot bath at ``temperatures[k]``."""
    gamma = gen.reservoirs.hot.gamma
    return tuple(
        replace(d, rates=channel_rate_stack(d.channel, gamma, temperatures))
        if d.source == "engineered" and d.channel.qubit == "H" else d
        for d in gen.dissipators
    )


def take_rows(dissipators: Sequence[Dissipator], rows) -> tuple[Dissipator, ...]:
    """The dissipators at ``rows`` of their stacked rates; a dissipator with
    scalar rates is kept as it is."""
    return tuple(
        d if not isinstance(d.rates.j_plus, np.ndarray) else replace(
            d, rates=replace(d.rates, j_plus=d.rates.j_plus[rows],
                             j_minus=d.rates.j_minus[rows]))
        for d in dissipators
    )


def build_population_matrix(dissipators) -> np.ndarray:
    """Total rate matrix W with d p / dt = W p for the level populations.

    Columns sum to zero (probability conservation) and off-diagonal entries
    are nonnegative by construction.  With stacked rates (``(N,)`` arrays)
    the result is an ``(N, 8, 8)`` stack whose row k equals W of the rates'
    row k, bit for bit: every entry sums the same terms in the same order.
    """
    batch = _batch([d.rates.j_plus for d in dissipators])
    w = np.zeros((DIM, DIM) + batch)  # rows last: w[to, frm] takes a float or a row of rates
    for d in dissipators:
        jp, jm = d.rates.j_plus, d.rates.j_minus
        weight = d.channel.pair_weight
        for to, frm, _ in d.channel.elements:
            w[frm, frm] -= weight * jm
            w[to, frm] += weight * jm
            w[to, to] -= weight * jp
            w[frm, to] += weight * jp
    if not batch:
        return w
    return np.ascontiguousarray(w.transpose(2, 0, 1))


@dataclass(frozen=True)
class ComponentDecomposition:
    """Closed communicating classes of the population transition graph.

    ``closed`` holds the classes that admit a stationary distribution, each
    a frozenset of 0-based levels, sorted by smallest member.  Levels not in
    any closed class are transient.
    """

    closed: tuple[frozenset[int], ...]
    transient: tuple[int, ...]

    @property
    def partition(self) -> tuple[frozenset[int], ...]:
        """Closed classes plus transient singletons, covering all levels."""
        cells = list(self.closed) + [frozenset((t,)) for t in self.transient]
        return tuple(sorted(cells, key=min))


def invariant_components(w: np.ndarray) -> ComponentDecomposition:
    """Decompose levels by the directed graph with an edge i -> j wherever
    the rate W[j, i] is positive."""
    n = w.shape[0]
    # step[i, j]: edge i -> j exists (rate into j from i)
    step = (np.asarray(w).T > 0.0)
    np.fill_diagonal(step, True)
    # boolean transitive closure by repeated squaring (n is tiny)
    reach = step.copy()
    for _ in range(4):
        reach = reach | (reach @ reach)
    # mutual reachability defines the communicating classes
    seen: set[int] = set()
    classes: list[frozenset[int]] = []
    for i in range(n):
        if i in seen:
            continue
        cls = frozenset(j for j in range(n) if reach[i, j] and reach[j, i])
        classes.append(cls)
        seen |= cls
    closed = []
    for cls in classes:
        outside = [j for j in range(n) if j not in cls]
        if not outside or not step[np.ix_(sorted(cls), outside)].any():
            closed.append(cls)
    closed.sort(key=min)
    transient = tuple(sorted(set(range(n)).difference(*closed)))
    return ComponentDecomposition(tuple(closed), transient)


@dataclass(frozen=True)
class SteadyState:
    state: DensityMatrix
    support: frozenset[int]
    populations: np.ndarray


@dataclass(frozen=True)
class SteadyStateSet:
    states: tuple[SteadyState, ...]
    unique: bool

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def by_support(self, support) -> SteadyState:
        target = frozenset(support)
        for s in self.states:
            if s.support == target:
                return s
        raise KeyError(f"no steady state supported on {sorted(target)}")


def _stationary_on_class(cls: frozenset[int], svd) -> np.ndarray:
    """Stationary populations of one closed class, embedded in 8 levels, by
    the rules of :func:`~qfridge.matrixcore.null_space` applied to the SVD
    ``svd`` of the class's block of W (``(s, vh)``, or the ``LinAlgError``
    it raised); a one-level class needs none."""
    idx = sorted(cls)
    pops = np.zeros(DIM)
    if len(idx) == 1:
        pops[idx[0]] = 1.0
        return pops
    if isinstance(svd, Exception):
        raise svd
    basis = null_space_from_svd(*svd)
    if basis.shape[1] != 1:
        raise SolverFailure(
            f"class {idx} yielded a {basis.shape[1]}-dimensional stationary "
            f"space; expected exactly 1"
        )
    v = np.real(basis[:, 0])
    v = v / v.sum()
    if v.min() < -1e-12:
        raise SolverFailure(f"negative stationary population {v.min():.3e} on {idx}")
    pops[idx] = np.clip(v, 0.0, None)
    pops /= pops.sum()
    return pops


def steady_states_numeric(gen: Generator) -> SteadyStateSet:
    """One steady state per closed communicating class.

    Each class is solved on the 8x8 population rate matrix W.  Every
    returned state has clipped, renormalised populations and a finite residual
    within ``||W p|| <= STEADY_RESIDUAL_TOL * ||W||``.  W is the full generator
    restricted, through an isometry, to the states diagonal in the
    eigenbasis, so ``||W p||`` equals ``||L vec(rho)||`` and, as
    ``||W|| <= ||L||``, the bound is at least as strict as one on L.
    This is the one-row case of :func:`steady_state_rows`.
    """
    w = build_population_matrix(gen.dissipators)
    (result,) = steady_state_rows(w[np.newaxis], gen.eigen)
    if isinstance(result, SteadyStateSet):
        return result
    try:
        raise result
    finally:
        del result  # the traceback refers to this frame: no cycle through it


def steady_state_rows(
    w: np.ndarray, eigen: EigenSystem
) -> list[SteadyStateSet | SolverFailure | np.linalg.LinAlgError]:
    """:func:`steady_states_numeric` of each rate matrix of a stack
    ``(N, 8, 8)``: per row its :class:`SteadyStateSet`, or the
    :class:`SolverFailure` or ``LinAlgError`` that fails the row.

    Rows with one zero pattern share one :func:`invariant_components`, each
    closed class of a pattern is one stacked SVD, and the norms ``||W||`` of
    all rows are one more (:func:`~qfridge.matrixcore.svd_rows`).  The
    null-space rules, the residual gate and any ``RankAmbiguityWarning``
    then follow row by row and class by class, so row k equals
    ``steady_states_numeric`` on ``w[k]`` alone, bit for bit and warning for
    warning.  The SVDs of all N rows are held at once: callers bound N.
    """
    n = len(w)
    patterns: dict[bytes, list[int]] = {}
    for k in range(n):
        patterns.setdefault((w[k] > 0.0).tobytes(), []).append(k)
    closed: list[tuple[frozenset[int], ...]] = [()] * n
    svds: dict[tuple[int, frozenset[int]], tuple] = {}  # (row, class) -> SVD of its block
    for rows in patterns.values():
        classes = invariant_components(w[rows[0]]).closed
        for k in rows:
            closed[k] = classes
        for cls in classes:
            if len(cls) > 1:
                idx = np.array(sorted(cls))
                blocks = w[np.array(rows)[:, None, None], idx[:, None], idx]
                # a non-finite block is a fault of the program, not of a row
                blocks = require_finite(blocks, "null_space input")
                svds.update(zip([(k, cls) for k in rows], svd_rows(blocks)))
    norms = svd_rows(w, compute_uv=False)

    out: list = []
    for k in range(n):
        try:
            pops = [_stationary_on_class(cls, svds.pop((k, cls), None)) for cls in closed[k]]
            if isinstance(norms[k], Exception):
                raise norms[k]
            bound = STEADY_RESIDUAL_TOL * norms[k].max()
            for cls, p in zip(closed[k], pops):
                resid = np.linalg.norm(w[k] @ p)
                if not resid <= bound:
                    raise SolverFailure(
                        f"steady state on {sorted(cls)} has residual {resid:.3e} "
                        f"(bound {bound:.3e})"
                    )
        except (SolverFailure, np.linalg.LinAlgError) as exc:
            out.append(exc)
        else:
            matrices = eigen.diagonal_state(np.array(pops))
            states = tuple(SteadyState(DensityMatrix(m), cls, p)
                           for cls, p, m in zip(closed[k], pops, matrices))
            out.append(SteadyStateSet(states, unique=(len(states) == 1)))
    return out


# ---------------------------------------------------------------------------
# Closed-form steady states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleBranch:
    """One flowing branch: a three-level cycle driven by all three baths.

    ``tree_sum`` is the matrix-tree normalization of the stationary
    populations and ``cycle_flux`` the net probability flux around the cycle,
    oriented so that positive flux absorbs from the cold and hot reservoirs
    and emits into the room reservoir.
    """

    support: frozenset[int]
    populations: np.ndarray
    tree_sum: float
    cycle_flux: float


@dataclass(frozen=True)
class AnalyticBranches:
    """All four steady-state branches of a cycle-matched single-channel mask:
    two dark levels untouched by every kept channel, plus two three-level
    cycles.  Ordered by smallest support level, matching the numeric solver.
    """

    dark: tuple[int, int]
    triangles: tuple[TriangleBranch, TriangleBranch]

    @property
    def states(self) -> list[tuple[frozenset[int], np.ndarray]]:
        out = []
        for lvl in self.dark:
            pops = np.zeros(DIM)
            pops[lvl] = 1.0
            out.append((frozenset((lvl,)), pops))
        for tri in self.triangles:
            out.append((tri.support, tri.populations))
        return sorted(out, key=lambda sp: min(sp[0]))


def _kept_rate_triples(params, reservoirs, filt):
    """(channel, rates, weight) for the three kept channels of a
    single-channel mask."""
    channels = select_channels(transition_channels(params), filt)
    out = {}
    for ch in channels:
        rates = channel_rates(ch, reservoirs[ch.qubit])
        out[ch.qubit] = (ch, rates, ch.pair_weight)
    return out


def steady_state_branches_analytic(
    params: SystemParams,
    reservoirs: ReservoirSet,
    filt: FilterConfig | None = None,
) -> AnalyticBranches:
    """Closed-form steady states for a cycle-matched single-channel mask.

    The kept channels split the eight levels into two untouched dark levels
    and two disjoint three-level cycles; on each cycle the stationary
    populations follow from the matrix-tree formula (sums of two-factor rate
    products), so no numerical rank decisions are involved.
    """
    filt = filt if filt is not None else REVIVAL_FILTER
    match = cycle_match_check(filt)
    if not match.matched:
        raise ValueError(f"filter {filt} is not a matched cycle: {match.detail}")

    triples = _kept_rate_triples(params, reservoirs, filt)
    # edge list: (upper, lower, up_rate, down_rate) per channel
    edges = {}
    touched = set()
    for q, (ch, rates, weight) in triples.items():
        for to, frm, _ in ch.elements:
            edges.setdefault(q, []).append(
                (frm, to, weight * rates.j_plus, weight * rates.j_minus)
            )
            touched.update((frm, to))
    dark = tuple(sorted(set(range(DIM)) - touched))
    if len(dark) != 2:
        raise ValueError(f"filter {filt} does not leave exactly two dark levels")

    # group the six edges into the two triangles
    components: list[set[int]] = []
    for q in edges:
        for up, lo, _, _ in edges[q]:
            hit = [c for c in components if up in c or lo in c]
            merged = {up, lo}.union(*hit) if hit else {up, lo}
            components = [c for c in components if c not in hit] + [merged]
    components.sort(key=min)
    if len(components) != 2 or any(len(c) != 3 for c in components):
        raise ValueError(f"filter {filt} does not split into two 3-level cycles")

    triangles = []
    for comp in components:
        idx = sorted(comp)
        pos = {lvl: i for i, lvl in enumerate(idx)}
        rate = np.zeros((3, 3))
        up_product = 1.0
        down_product = 1.0
        for q, qedges in edges.items():
            for up, lo, r_up, r_down in qedges:
                if up not in comp:
                    continue
                rate[pos[lo], pos[up]] = r_down
                rate[pos[up], pos[lo]] = r_up
                # cycle orientation: absorb on H and C, emit on R
                if q in ("H", "C"):
                    up_product *= r_up
                    down_product *= r_down
                else:
                    up_product *= r_down
                    down_product *= r_up
        # matrix-tree stationary weights for a 3-state chain
        k = np.empty(3)
        for i in range(3):
            j, l = [x for x in range(3) if x != i]
            out_j = rate[:, j].sum()
            out_l = rate[:, l].sum()
            k[i] = out_j * out_l - rate[j, l] * rate[l, j]
        tree_sum = k.sum()
        pops = np.zeros(DIM)
        pops[idx] = k / tree_sum
        triangles.append(
            TriangleBranch(
                support=frozenset(comp),
                populations=pops,
                tree_sum=tree_sum,
                cycle_flux=(up_product - down_product) / tree_sum,
            )
        )
    return AnalyticBranches(dark=dark, triangles=tuple(triangles))


@dataclass(frozen=True)
class VacuumBackgroundSolution:
    """Closed-form unique steady state of the heat-conduction demo: the
    high-efficiency mask keeping (H2, R1, C3) plus a vacuum background with
    the same uniform rate on every channel."""

    populations: np.ndarray
    k: float
    l: float
    n: float
    rates: dict[tuple[str, int], ChannelRates]
    gamma: float


VACUUM_TRANSPORT_FILTER = FilterConfig.single(2, 1, 3)


def steady_state_vacuum_background_analytic(
    params: SystemParams,
    reservoirs: ReservoirSet,
    gamma: float | None = None,
) -> VacuumBackgroundSolution:
    """Closed-form populations for the (H2, R1, C3) mask with a vacuum
    background of uniform rate ``gamma`` (default: ``params.gamma``).

    The vacuum drains the four upper levels, leaving support on the four
    lowest; the populations follow a matrix-tree form in the engineered
    absorption rates j+ and the vacuum-augmented emission rates j- + gamma.
    """
    gamma = params.gamma if gamma is None else gamma
    for q in ("H", "R", "C"):
        if abs(reservoirs[q].gamma - gamma) > 0:
            raise ValueError(
                "the closed form assumes one uniform rate for engineered and "
                f"background channels; reservoir {q} has {reservoirs[q].gamma}, "
                f"background {gamma}"
            )
    triples = _kept_rate_triples(params, reservoirs, VACUUM_TRANSPORT_FILTER)
    (_, rh, _), (_, rr, _), (_, rc, _) = (triples[q] for q in ("H", "R", "C"))
    jt = lambda rates: rates.j_minus + gamma  # emission with vacuum assist

    k = rh.j_plus * rr.j_plus + 2 * rh.j_plus * rc.j_plus + 2 * rr.j_plus * jt(rc)
    l = (rr.j_plus + 2 * rc.j_plus) * jt(rh) + 2 * rc.j_plus * (jt(rr) + gamma)
    n = rh.j_plus * (jt(rr) + gamma) + 2 * (jt(rh) + jt(rr) + gamma) * jt(rc)
    denom = 3 * k + 2 * (l + n)

    pops = np.zeros(DIM)
    pops[3] = k / denom
    pops[5] = 2 * k / denom
    pops[6] = 2 * l / denom
    pops[7] = 2 * n / denom
    return VacuumBackgroundSolution(
        populations=pops,
        k=k,
        l=l,
        n=n,
        rates={r.key: rates for r, rates, _ in triples.values()},
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# Time propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationResult:
    state: np.ndarray
    time: float
    converged: bool
    steps: int


def _rk4_block(
    liou: np.ndarray, h: float, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 step matrix of size ``h`` and the read-out of ``m`` steps.

    For ``d v / dt = L v`` one RK4 step is exactly ``v <- P v`` with
    ``P = I + hL(I + hL/2(I + hL/3(I + hL/4)))``.  Returns ``P``, ``P^m``
    and an ``(m * DIM**2, DIM**2)`` matrix whose row block ``k - 1`` is
    ``L P^k``.
    """
    n = liou.shape[0]
    eye = np.eye(n)
    hl = h * liou
    step = eye + hl @ (eye + (hl / 2) @ (eye + (hl / 3) @ (eye + hl / 4)))
    readout = np.empty((m, n, n), dtype=complex)
    readout[0] = liou @ step
    for k in range(1, m):
        readout[k] = readout[k - 1] @ step
    return step, np.linalg.matrix_power(step, m), readout.reshape(m * n, n)


def propagate(
    rho0: np.ndarray | DensityMatrix,
    gen: Generator,
    t_final: float,
    dt: float | None = None,
    eps_ss: float = DEFAULT_EPS_SS,
) -> PropagationResult:
    """Fixed-step 4th-order Runge-Kutta integration of d rho / dt = L rho.

    Stops early (``converged=True``) at the first step with
    ``||d rho / dt||_F < eps_ss``.  The default step is 0.1 / ||L||_1, and
    ``dt > RK4_STABLE_RADIUS / ||L||_1`` raises ``ValueError``: every
    eigenvalue of a Lindblad generator has Re <= 0 and modulus at most
    ||L||_1, so every admitted step, the shortened last one ending at
    ``t_final`` included, has an RK4 step matrix of spectral radius <= 1.

    For a linear generator one RK4 step of size h is the matrix
    ``P = I + hL(I + hL/2(I + hL/3(I + hL/4)))``.  The steps are taken in
    blocks of ``BLOCK_STEPS`` = m: one product of the state with the stacked
    rows of ``L P^k``, k = 1..m, gives the derivative norm after every step
    of the block, so convergence is checked at every step, and ``P^m``
    advances the state.  A run that stops inside a block recovers its state
    with single ``P`` steps.  The iterates are those of the stage-wise RK4
    loop up to rounding (about 1e-13 after 15k steps), with the same step
    count, time and convergence flag.
    """
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, complex)
    if not np.isfinite(rho).all():
        raise ValueError("rho0 contains non-finite entries")
    liou = gen.liouvillian
    norm = np.linalg.norm(liou, 1)
    if dt is None:
        dt = 0.1 / norm
    if dt <= 0 or t_final < 0:
        raise ValueError("need dt > 0 and t_final >= 0")
    dt_max = RK4_STABLE_RADIUS / norm
    if dt > dt_max:
        raise ValueError(f"dt = {dt:.3e} is beyond the RK4 stability radius "
                         f"{RK4_STABLE_RADIUS} / ||L||_1 = {dt_max:.3e}")

    n = liou.shape[0]
    full_block = _rk4_block(liou, dt, BLOCK_STEPS)
    v = rho.flatten(order="F")
    t = 0.0
    steps = 0
    converged = float(np.linalg.norm(liou @ v)) < eps_ss
    while t < t_final and not converged:
        # times after each full step of this block, accumulated one by one
        times = []
        s = t
        for _ in range(BLOCK_STEPS):
            if t_final - s < dt:
                break
            s += dt
            times.append(s)
        if times:
            p, p_block, readout = full_block
        else:  # a last, shorter step up to t_final
            step = t_final - t
            p, p_block, readout = _rk4_block(liou, step, 1)
            times.append(t + step)
        k = len(times)
        settled = np.linalg.norm((readout[: k * n] @ v).reshape(k, n), axis=1) < eps_ss
        if settled.any():  # the first step that has settled
            k = int(settled.argmax()) + 1
            converged = True
        if k == BLOCK_STEPS:
            v = p_block @ v
        else:
            for _ in range(k):
                v = p @ v
        t = times[k - 1]
        steps += k
    return PropagationResult(
        state=v.reshape(DIM, DIM, order="F"), time=t, converged=converged, steps=steps
    )


def branch_weights(rho0: np.ndarray | DensityMatrix, gen: Generator) -> np.ndarray:
    """Long-time weight of each closed class for an initial state.

    Mass already on a closed class stays there; mass on transient levels is
    split by the exact absorption probabilities of the rate matrix.  A state
    with support on several closed classes converges to the convex mixture
    of the per-class steady states with these weights.  (For mixed-support
    initial states this mixture reading is an extrapolation beyond the
    single-branch picture; it follows from linearity of the generator.)
    """
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, complex)
    w = build_population_matrix(gen.dissipators)
    decomp = invariant_components(w)
    pops = np.real(np.diag(gen.eigen.to_eigenbasis(rho)))
    weights = np.array([pops[sorted(cls)].sum() for cls in decomp.closed])
    if decomp.transient:
        tr = list(decomp.transient)
        q = w[np.ix_(tr, tr)]
        m0 = pops[tr]
        # expected occupation time of each transient level: solve (-Q) tau = m0
        tau = np.linalg.solve(-q, m0)
        for k, cls in enumerate(decomp.closed):
            into = w[np.ix_(sorted(cls), tr)].sum(axis=0)
            weights[k] += float(into @ tau)
    return weights
