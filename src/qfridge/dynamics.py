"""Dissipators, the full generator, population rate matrix, and steady states.

Superoperators use column-stacking vectorization: ``vec(A rho B) =
(B^T kron A) vec(rho)`` with ``vec = rho.flatten(order="F")``.

Steady states come from one route: the dynamics restricted to eigenlevel
occupations, an 8x8 real rate matrix W.  This is exact here because every
channel operator has diagonal A^dag A and A A^dag in the eigenbasis, so
states diagonal in the eigenbasis form an invariant sector of the full
generator and W is that generator restricted to it.  The full 64x64
Liouvillian is built only when read (cross-checks in the tests); time
propagation runs on the generator's blocks in the eigenbasis.

Multiple steady states are enumerated per closed communicating class of the
population rate graph rather than returned as raw null-space vectors, so
each returned state is a physical density matrix with a definite support.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .matrixcore import (
    DensityMatrix,
    null_dimensions,
    svd_rows,
    warn_rank_ambiguity,
)
from .reservoirs import (
    REVIVAL_FILTER,
    BackgroundSpec,
    Dissipator,
    FilterConfig,
    MarkovValidityWarning,
    ReservoirSet,
    background_rates,
    channel_rate_stack,
    channel_rates,
    cycle_match_check,
    kept_channel_table,
    markov_message,
    select_channels,
)
from .spectrum import (
    CHANNEL_KEYS,
    DIM,
    QUBITS,
    DegenerateChannelsError,
    EigenSystem,
    SystemParams,
    build_hamiltonian,
    channel_gaps,
    degenerate_errors,
    eigensystem,
    transition_channels,
)

__all__ = [
    "Generator",
    "SteadyState",
    "SolverFailure",
    "TriangleBranch",
    "AnalyticBranches",
    "VacuumBackgroundSolution",
    "PropagationResult",
    "apply_dissipator",
    "assemble_generator",
    "build_generator",
    "check_channels",
    "check_channel_table",
    "participating_channels",
    "grid_dissipators",
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

#: Residual bound for accepting a steady state: ||W p|| <= RES_TOL max_ij |W_ij|.
STEADY_RESIDUAL_TOL = 1e-9

#: Default convergence threshold for time propagation, ||d rho / dt|| < eps.
DEFAULT_EPS_SS = 1e-10

#: RK4 steps that ``propagate`` checks with one matrix-vector product.
BLOCK_STEPS = 16

#: Rungs of ``propagate``'s leap ladder: leaps of ``BLOCK_STEPS * 2**j``
#: steps, ``j < LADDER_RUNGS``.
LADDER_RUNGS = 7

#: Largest ``dt * ||L||_1`` that ``propagate`` admits: the left half-disk of
#: radius 2.6155 lies inside RK4's stability region.
RK4_STABLE_RADIUS = 2.6


class SolverFailure(RuntimeError):
    """A steady-state solve did not meet its residual or structure checks."""


def apply_dissipator(d: Dissipator, rho: np.ndarray) -> np.ndarray:
    """Action of one dissipator on a state or a stack of states ``(..., 8, 8)``:

    j- (2 A rho A^dag - A^dag A rho - rho A^dag A)
    + j+ (2 A^dag rho A - A A^dag rho - rho A A^dag),

    the j+ term skipped where j+ = 0 on every row; a row's lone zero j+ adds
    0.0, which may turn a -0.0 entry into +0.0.  Stacked rates (``(N,)``
    arrays, see :func:`grid_dissipators`) broadcast against the last batch
    axis of ``rho``: state ``rho[..., k, :, :]`` sees row k of the rates
    and equals the one-state formula at that row, bit for bit up to that
    sign.  The operators are float64, so a real state gives a float64
    result and a complex one a complex result.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected {DIM}x{DIM} states, got {rho.shape}")
    ch = d.channel
    jp = np.asarray(d.j_plus)[..., None, None]
    out = _lindblad_term(np.asarray(d.j_minus)[..., None, None],
                         ch.operator, ch.adjoint, ch.ada, rho)
    if (jp != 0.0).any():
        out += _lindblad_term(jp, ch.adjoint, ch.operator, ch.aad, rho)
    return out


def _lindblad_term(rate, a, ad, ada, rho) -> np.ndarray:
    """``rate * (2 a rho ad - ada rho - rho ada)``, evaluated in that order
    in one buffer."""
    out = a @ rho @ ad
    out *= 2.0
    out -= ada @ rho
    out -= rho @ ada
    out *= rate
    return out


@dataclass(frozen=True)
class Generator:
    """Assembled dynamics for one scenario.

    ``dissipators`` holds the engineered (filtered) dissipators and, when a
    background is active, the background dissipators over all nine
    channels.  ``liouvillian`` is the 64x64 matrix generating ``d vec(rho)/dt``,
    built on first read from the 64 matrix units: the coherent commutator
    term plus each dissipator's :func:`apply_dissipator` action, in order.
    The commutator never touches eigenlevel populations, so every
    population-level result is independent of it; it is kept so that
    undamped coherences between nondegenerate levels do not masquerade as
    extra stationary states of the full generator.

    ``eigen_blocks`` is the same generator in the eigenbasis, ``L_e = (V^T
    kron V^T) L (V kron V)``, built from the channels' elements
    (:func:`_eigen_blocks`) as the blocks of each size.  A generator also
    keeps what time evolution derives from it, built on first use and freed
    with it: ``_rk4_blocks`` maps each step size that :func:`propagate` has
    used to its block of RK4 step matrices and its leap ladder
    (:func:`_rk4_block`), and ``_absorption`` holds W's closed classes and
    transient levels as :func:`branch_weights` reads them.
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
        for d in self.dissipators:
            out += apply_dissipator(d, units)
        return out.transpose(2, 1, 0).reshape(n, n)

    @cached_property
    def eigen_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return _eigen_blocks(self.eigen.energies, self.dissipators)

    @cached_property
    def _rk4_blocks(self) -> dict[float, tuple]:
        return {}

    @cached_property
    def _absorption(self) -> tuple:
        """The closed classes of W (level lists, by smallest level), its
        transient levels, ``-W`` on them, and per class the rates into it
        from each transient level."""
        w = build_population_matrix(self.dissipators)
        classes = [sorted(cls) for cls in invariant_components(w)]
        tr = sorted(set(range(DIM)).difference(*classes))
        drain = -w[np.ix_(tr, tr)]
        into = [w[np.ix_(cls, tr)].sum(axis=0) for cls in classes]
        return classes, tr, drain, into


def _eigen_blocks(energies: np.ndarray, dissipators: Sequence[Dissipator]
                  ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The generator of ``dissipators`` in the eigenbasis, ``L_e``, as
    ``(index, blocks)`` pairs, one per block size s in ascending order:
    ``index`` ``(G, s)`` lists the vec indices ``i + 8 j`` of the coherences
    ``|i><j|`` of each of G blocks in ascending order, and ``blocks`` ``(G, s,
    s)`` is ``L_e`` on them.  ``L_e`` is 0 between two blocks.

    Every channel has distinct to levels and distinct from levels, so
    ``A^dag A`` and ``A A^dag`` are diagonal, ``c^2`` on the from and to
    levels of each element ``(to, from, c)``: the anticommutators, like the
    commutator ``-i (E_i - E_j)``, only add to the diagonal.  The jumps
    ``2 j- A rho A^dag`` take ``|from_e><from_f|`` to ``|to_e><to_f|`` with
    weight ``2 c_e c_f``, for every pair of elements e, f of a channel, and
    ``2 j+ A^dag rho A`` takes it back.  The blocks are the classes of
    coherences that these jumps link, whatever their rates, from one
    transitive closure: no entry is compared with a tolerance.  Under the
    secular generator each block holds coherences of one Bohr frequency.
    """
    n = DIM * DIM
    elements = np.array([d.channel.elements for d in dissipators]).reshape(-1, 2, 3)
    to, frm, coeff = elements.transpose(2, 0, 1)  # each (D, 2)
    to, frm = to.astype(int), frm.astype(int)
    down = np.array([d.j_minus for d in dissipators], dtype=float)[:, None]
    up = np.array([d.j_plus for d in dissipators], dtype=float)[:, None]
    decay = np.zeros(DIM)  # diag of sum_d j- A^dag A + j+ A A^dag
    np.add.at(decay, frm, down * coeff**2)
    np.add.at(decay, to, up * coeff**2)
    liou = np.diag((-1j * (energies[:, None] - energies) - (decay[:, None] + decay))
                   .ravel(order="F"))
    dst = to[:, :, None] + DIM * to[:, None, :]  # (D, 2, 2): |to_e><to_f|
    src = frm[:, :, None] + DIM * frm[:, None, :]
    weight = 2.0 * coeff[:, :, None] * coeff[:, None, :]
    np.add.at(liou, (dst, src), down[..., None] * weight)
    np.add.at(liou, (src, dst), up[..., None] * weight)
    link = np.eye(n)
    link[dst, src] = link[src, dst] = 1.0
    for _ in range(6):  # paths of up to 2**6 = 64 links join every class
        link = (link @ link > 0.0).astype(float)
    link = link > 0.0
    size = link.sum(axis=1)
    heads = link.argmax(axis=1) == np.arange(n)  # the smallest index of its block
    out = []
    for s in np.flatnonzero(np.bincount(size)).tolist():
        index = np.nonzero(link[heads & (size == s)])[1].reshape(-1, s)
        out.append((index, liou[index[:, :, None], index[:, None, :]]))
    return tuple(out)


def participating_channels(kept: np.ndarray, reservoirs: ReservoirSet,
                           background: BackgroundSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the kept-channel table ``kept`` (``(M, 9)``): the channels
    that carry a dissipator, as a table, and the largest decay rate among
    them.  These are the kept channels at their reservoirs' rates or, with an
    active background, all nine channels and the background rate too."""
    gammas = np.array([reservoirs[q].gamma for q in QUBITS])
    gamma_max = np.where(kept.reshape(-1, 3, 3).any(axis=2), gammas, 0.0).max(axis=1)
    if background.active:
        return np.ones_like(kept), np.maximum(gamma_max, background.gamma)
    return kept, gamma_max


def check_channel_table(params: SystemParams, kept: np.ndarray, reservoirs: ReservoirSet,
                        background: BackgroundSpec) -> dict[int, DegenerateChannelsError]:
    """The checks of the participating channels of every row of the
    kept-channel table ``kept``, in one array pass (:func:`channel_gaps`).
    A row where two of them coincide fails, since the secular dissipator
    form presumes distinct frequencies: its ``DegenerateChannelsError`` is
    returned, keyed by row.  Of the other rows, each distinct warning of the
    Markov margin (:func:`markov_message`) is emitted once, in row order."""
    participating, gamma_max = participating_channels(kept, reservoirs, background)
    degenerate, min_gap = channel_gaps(params, participating)
    passed = ~degenerate.any(axis=(1, 2))
    margins = dict.fromkeys(zip(gamma_max[passed].tolist(), min_gap[passed].tolist()))
    for msg in dict.fromkeys(markov_message(*margin) for margin in margins):
        if msg is not None:
            warnings.warn(msg, MarkovValidityWarning, stacklevel=2)
    return degenerate_errors(degenerate)


def check_channels(params: SystemParams, filt: FilterConfig, reservoirs: ReservoirSet,
                   background: BackgroundSpec) -> None:
    """The one-mask case of :func:`check_channel_table`: raise the
    :class:`~qfridge.spectrum.DegenerateChannelsError` of ``filt``, or else
    emit its Markov warning, if any."""
    kept = kept_channel_table([filt])
    for exc in check_channel_table(params, kept, reservoirs, background).values():
        raise exc


def build_generator(
    params: SystemParams,
    filt: FilterConfig,
    reservoirs: ReservoirSet,
    background: BackgroundSpec | None = None,
) -> Generator:
    """The checked dissipators of a scenario: :func:`check_channels`, then
    :func:`assemble_generator`."""
    background = background or BackgroundSpec.none()
    check_channels(params, filt, reservoirs, background)
    return assemble_generator(params, filt, reservoirs, background)


def assemble_generator(
    params: SystemParams,
    filt: FilterConfig,
    reservoirs: ReservoirSet,
    background: BackgroundSpec,
) -> Generator:
    """The dissipators of a scenario, without :func:`check_channels`.
    Engineered dissipators cover exactly the kept channels; an active
    background couples through all nine channels."""
    channels = transition_channels(params)
    dissipators = [channel_rates(ch, reservoirs[ch.qubit])
                   for ch in select_channels(channels, filt)]
    if background.active:
        dissipators += [background_rates(ch, background) for ch in channels]
    return Generator(
        params=params,
        reservoirs=reservoirs,
        background=background,
        hamiltonian=build_hamiltonian(params),
        eigen=eigensystem(params),
        dissipators=tuple(dissipators),
    )


def grid_dissipators(gen: Generator, kept: np.ndarray, baths) -> tuple[Dissipator, ...]:
    """The dissipators of ``gen`` on a grid of rows: row k keeps those of
    ``gen``'s channels that row k of the kept-channel table ``kept`` keeps
    (``(N, 9)``, :func:`~qfridge.reservoirs.kept_channel_table`) and has its
    baths at the temperatures ``baths[k]``, H, R, C (an ``(N, 3)`` table).

    Every engineered channel that some row keeps carries ``(N,)`` rate
    arrays from its own bath's column (:func:`channel_rate_stack`, one
    occupation per distinct temperature); a channel that a row filters out
    couples on that row at gamma = 0, so its rates there are 0, 0, 0 and
    every term it adds to W or to a current is exactly 0.0.  A channel
    that no row keeps has the scalar rates 0, 0, 0, which broadcast over
    the rows by the same rule.  Background dissipators are ``gen``'s own.
    Row k of W equals W of the scenario with its filter and baths alone,
    bit for bit, and so do the currents of the channels it keeps.
    """
    baths = np.asarray(baths, dtype=float)
    out = []
    for d in gen.dissipators:
        if d.source == "engineered":
            row_keeps = kept[:, CHANNEL_KEYS.index(d.channel.key)]
            if row_keeps.any():
                d = channel_rate_stack(d.channel, np.where(row_keeps, d.gamma, 0.0),
                                       baths[:, QUBITS.index(d.channel.qubit)])
            else:
                d = Dissipator(d.channel, 0.0, 0.0, 0.0)
        out.append(d)
    return tuple(out)


def take_rows(dissipators: Sequence[Dissipator], rows) -> tuple[Dissipator, ...]:
    """The dissipators at ``rows`` of their stacked rates; a dissipator with
    scalar rates is kept as it is."""
    return tuple(
        d if not isinstance(d.j_plus, np.ndarray) else Dissipator(
            d.channel, d.j_plus[rows], d.j_minus[rows], d.gamma[rows], d.source)
        for d in dissipators
    )


def build_population_matrix(dissipators) -> np.ndarray:
    """Total rate matrix W with d p / dt = W p for the level populations.

    Columns sum to zero (probability conservation) and off-diagonal entries
    are nonnegative by construction.  With stacked rates (``(N,)`` arrays)
    the result is an ``(N, 8, 8)`` stack whose row k equals W of the rates'
    row k, bit for bit: every entry sums the same terms in the same order.
    """
    batch = np.broadcast_shapes(*(np.shape(d.j_plus) for d in dissipators))
    w = np.zeros((DIM, DIM) + batch)  # rows last: w[to, frm] takes a float or a row of rates
    for d in dissipators:
        down = d.channel.pair_weight * d.j_minus
        up = d.channel.pair_weight * d.j_plus
        for to, frm, _ in d.channel.elements:
            w[frm, frm] -= down
            w[to, frm] += down
            w[to, to] -= up
            w[frm, to] += up
    return np.ascontiguousarray(np.moveaxis(w, (0, 1), (-2, -1)))


def invariant_components(w: np.ndarray) -> tuple[frozenset[int], ...]:
    """The closed communicating classes of the directed graph with an edge
    i -> j wherever the rate W[j, i] is positive: the classes that admit a
    stationary distribution, each a frozenset of 0-based levels, sorted by
    smallest member.  Levels in no closed class are transient.  A W with a
    non-finite entry raises ``ValueError``."""
    w = np.asarray(w)
    if not np.isfinite(w).all():
        raise ValueError("rate matrix contains non-finite entries")
    (codes,) = _class_codes(w[np.newaxis])
    return tuple(_level_set(c) for c in codes.tolist() if c)


@lru_cache(maxsize=1 << DIM)
def _level_set(code: int) -> frozenset[int]:
    """The set of levels whose bits are set in ``code``."""
    return frozenset(i for i in range(DIM) if code >> i & 1)


_LEVEL_BITS = 1 << np.arange(DIM)
_SELF = np.eye(DIM, dtype=bool)
_BELOW = np.tri(DIM, k=-1, dtype=bool)  # _BELOW[i, j]: j < i
#: The size of the level set of each code, and its levels in ascending
#: order, padded with zeros to eight.
_SIZES = np.array([code.bit_count() for code in range(1 << DIM)], dtype=np.uint8)
_MEMBERS = np.array([sorted(_level_set(code)) + [0] * (DIM - code.bit_count())
                     for code in range(1 << DIM)], dtype=np.uint8)


def _class_codes(w: np.ndarray) -> np.ndarray:
    """The closed classes of :func:`invariant_components` of each rate
    matrix of a stack ``(N, 8, 8)``, from one transitive closure of the
    whole stack: ``(N, 8)`` codes, where entry ``[k, i]`` is the bit set of
    the class whose smallest level is i, or 0 if no closed class of row k
    starts at i."""
    # reach[k, i, j]: a path i -> j of rates into j from i in row k; the
    # squarings are float64 products (BLAS) of 0/1 entries, exact up to 8
    reach = ((np.swapaxes(w, -1, -2) > 0.0) | _SELF).astype(float)
    for _ in range(3):  # paths of up to 2**3 = 8 steps reach every level
        reach = np.minimum(reach @ reach, 1.0)
    reach = reach > 0.0
    back = np.swapaxes(reach, -1, -2)
    mutual = reach & back
    # levels that reach each other form a class; it is closed when every
    # level it reaches reaches it back, and it is named by its first level
    heads = ~((reach > back) | (mutual & _BELOW)).any(axis=-1)
    return np.where(heads, mutual @ _LEVEL_BITS, 0)


@dataclass(frozen=True)
class SteadyState:
    """The stationary state of one closed class: its levels ``support`` and
    their ``populations`` ``(8,)`` in the eigenbasis of ``eigen``.

    ``state``, the density matrix ``V diag(populations) V^T`` in the
    computational basis, is built on first read and kept; it is real,
    since the eigenvectors are.  The steady, sweep and scan commands make
    no such object: they read the populations table of
    :func:`steady_state_rows`.
    """

    support: frozenset[int]
    populations: np.ndarray
    eigen: EigenSystem = field(repr=False, compare=False)

    @cached_property
    def state(self) -> DensityMatrix:
        return DensityMatrix(self.eigen.diagonal_state(self.populations))


def _class_populations(blocks: np.ndarray, idx: np.ndarray, classes: np.ndarray,
                       faults: dict, ambiguities: list) -> np.ndarray:
    """Stationary populations ``(G, 8)`` of G closed classes of one size m,
    on the levels ``idx`` ``(G, m)``, by the rules of
    :func:`~qfridge.matrixcore.null_space` applied to one stacked SVD of
    their blocks of W.  The failure of a class goes to ``faults`` and each
    rank ambiguity to ``ambiguities``, keyed by its entry of ``classes``;
    the populations of a failed class are 0."""
    s, vh, failed = svd_rows(blocks)
    classes = classes.tolist()
    dims, ambiguous, cut = null_dimensions(s)
    for j in np.flatnonzero(ambiguous).tolist():
        ambiguities.append((classes[j], int(ambiguous[j]), float(cut[j])))
    for j, exc in failed.items():
        faults[classes[j]] = exc
    for j in np.flatnonzero(dims != 1).tolist():
        if j not in failed:
            faults[classes[j]] = SolverFailure(
                f"class {idx[j].tolist()} yielded a {dims[j]}-dimensional stationary "
                f"space; expected exactly 1")
    solved = np.flatnonzero(dims == 1)
    v = vh[solved, -1].real
    v = v / v.sum(axis=-1, keepdims=True)
    low = v.min(axis=-1)
    for j in np.flatnonzero(low < -1e-12).tolist():
        faults[classes[solved[j]]] = SolverFailure(
            f"negative stationary population {low[j]:.3e} on {idx[solved[j]].tolist()}")
    p = np.zeros((len(solved), DIM))
    p[np.arange(len(solved))[:, np.newaxis], idx[solved]] = np.clip(v, 0.0, None)
    pops = np.zeros((len(classes), DIM))
    pops[solved] = p / p.sum(axis=-1, keepdims=True)
    return pops


def steady_states_numeric(gen: Generator) -> tuple[SteadyState, ...]:
    """One steady state per closed communicating class, by smallest level.

    Each class is solved on the 8x8 population rate matrix W.  Every
    returned state has clipped, renormalised populations and a residual
    within ``||W p|| <= STEADY_RESIDUAL_TOL * max_ij |W_ij|``.  W is the
    full generator restricted, through an isometry, to the states diagonal
    in the eigenbasis, so ``||W p||`` equals ``||L vec(rho)||`` and, as
    ``max_ij |W_ij| <= ||W||_2 <= ||L||_2``, the bound is at least as strict
    as one on L.  A W with a non-finite entry is a fault of the program,
    not of a state: ``ValueError``.
    This is the one-row case of :func:`steady_state_rows`.
    """
    w = build_population_matrix(gen.dissipators)
    pops, _, support, failures = steady_state_rows(w[np.newaxis])
    if failures:
        try:
            raise failures[0]
        finally:
            del failures  # the traceback refers to this frame: no cycle through it
    return tuple(SteadyState(_level_set(code), p, gen.eigen)
                 for code, p in zip(support.tolist(), pops))


def steady_state_rows(
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """:func:`steady_states_numeric` of each rate matrix of a stack
    ``(N, 8, 8)``, as one table of the S states of the rows that were
    solved, in row order and by smallest level within a row: their
    populations ``(S, 8)``, their rows ``(S,)`` and their supports ``(S,)``
    as bit sets (bit i for level i), and the :class:`SolverFailure` or
    ``LinAlgError`` that fails each other row, by row.

    The whole stack is one pass.  Its classes are one transitive closure;
    the blocks of W on all closed classes of one size, across rows, are one
    stacked SVD (:func:`~qfridge.matrixcore.svd_rows`).  The null-space
    rule (:func:`~qfridge.matrixcore.null_dimensions`), the normalisation
    of each class's populations and the residual gate are array operations.
    A row fails with the first failure of its classes in class order, then
    the first residual above the bound; every rank-ambiguous class warns,
    failed row or not.  Row k equals ``steady_states_numeric`` on ``w[k]``
    alone, bit for bit and warning for warning.  A non-finite entry
    anywhere in the stack raises ``ValueError`` before any product.  The
    pass holds W of all rows at once, and the class blocks and SVDs of one
    size at a time.
    """
    if not np.isfinite(w).all():
        raise ValueError("rate matrix contains non-finite entries")
    codes = _class_codes(w)
    rows, heads = np.nonzero(codes)  # the closed classes, row by row in class order
    codes = codes[rows, heads]
    sizes = _SIZES[codes]
    faults: dict[int, Exception] = {}  # class -> the failure it raises
    ambiguities: list[tuple[int, int, float]] = []  # (class, values near the cut, cut)
    pops = np.zeros((len(codes), DIM))
    single = sizes == 1
    pops[single, heads[single]] = 1.0
    for size in np.flatnonzero(np.bincount(sizes[sizes > 1])).tolist():
        at = np.flatnonzero(sizes == size)
        idx = _MEMBERS[codes[at], :size]
        blocks = w[rows[at, None, None], idx[:, :, None], idx[:, None]].astype(complex)
        pops[at] = _class_populations(blocks, idx, at, faults, ambiguities)

    row_of = rows.tolist()
    failures: dict[int, Exception] = {}  # row -> its failure
    for c in sorted(faults):
        failures.setdefault(row_of[c], faults[c])
    for _, ambiguous, cut in sorted(ambiguities):
        warn_rank_ambiguity(ambiguous, cut, stacklevel=1)
    # W p on W over its largest entry cannot overflow (on W = 0 it is 0)
    top = np.abs(w).max(axis=(-2, -1))
    r = (w[rows] / np.where(top > 0.0, top, 1.0)[rows, None, None]) @ pops[:, :, np.newaxis]
    resid = np.sqrt(np.swapaxes(r, -1, -2) @ r)[:, 0, 0]
    live = np.array([k not in failures for k in row_of], dtype=bool)
    for c in np.flatnonzero(live & ~(resid <= STEADY_RESIDUAL_TOL)).tolist():
        failures.setdefault(row_of[c], SolverFailure(
            f"steady state on {_MEMBERS[codes[c], :sizes[c]].tolist()} has residual "
            f"{resid[c] * top[rows[c]]:.3e} (bound {STEADY_RESIDUAL_TOL * top[rows[c]]:.3e})"))
    solved = np.array([k not in failures for k in row_of], dtype=bool)
    return pops[solved], rows[solved], codes[solved], dict(sorted(failures.items()))


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
    status, detail = cycle_match_check(filt)
    if status != "matched":
        raise ValueError(f"filter {filt} is not a matched cycle: {detail}")

    # edge list: (upper, lower, up_rate, down_rate) per channel
    edges = {}
    touched = set()
    for ch in select_channels(transition_channels(params), filt):
        d, weight = channel_rates(ch, reservoirs[ch.qubit]), ch.pair_weight
        for to, frm, _ in ch.elements:
            edges.setdefault(ch.qubit, []).append(
                (frm, to, weight * d.j_plus, weight * d.j_minus)
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
    rates: dict[tuple[str, int], Dissipator]
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
    kept = [channel_rates(ch, reservoirs[ch.qubit])
            for ch in select_channels(transition_channels(params), VACUUM_TRANSPORT_FILTER)]
    rh, rr, rc = kept  # H, R, C
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
        rates={d.channel.key: d for d in kept},
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


def _holder(a: np.ndarray) -> np.ndarray:
    """Hoelder's bound ``sqrt(||a||_1 ||a||_inf) >= ||a||_2`` of each matrix
    of a stack."""
    a = np.abs(a)
    return np.sqrt(a.sum(axis=-2).max(axis=-1) * a.sum(axis=-1).max(axis=-1))


def _scatter(index: list[np.ndarray], stacks: list[np.ndarray]) -> np.ndarray:
    """The dense ``(..., 64, 64)`` eigenbasis matrices whose blocks on
    ``index[i]`` are ``stacks[i]`` ``(..., G, s, s)``, and 0 elsewhere."""
    out = np.zeros(stacks[0].shape[:-3] + (DIM * DIM, DIM * DIM), dtype=complex)
    for idx, stack in zip(index, stacks):
        out[..., idx[:, :, None], idx[:, None, :]] = stack
    return out


def _rk4_block(blocks, h: float, m: int, rungs: int = 0) -> tuple[tuple, list[tuple]]:
    """The RK4 block of step ``h`` on the eigenbasis generator ``L_e``, given
    by its blocks (:attr:`Generator.eigen_blocks`), and the first ``rungs``
    rungs of its leap ladder.

    For ``d v / dt = L v`` one RK4 step is exactly ``v <- P v`` with
    ``P = I + hL(I + hL/2(I + hL/3(I + hL/4)))``, a polynomial in ``L``, so
    ``P`` and its powers have the blocks of ``L_e``: every product is taken
    on the stack of the blocks of one size, and each result is scattered
    once into a dense 64x64 eigenbasis matrix.  The block is ``(P, P^m, R,
    c)``: R is the ``((m + 1) * DIM**2, DIM**2)`` read-out whose row block k
    is ``L P^k``, k = 0..m, and ``c >= max ||P^j||_2`` over ``0 <= j < m``.
    The spectral norm of a block-diagonal matrix is that of its largest
    block, and each block's is bounded by Hoelder's ``||A||_2 <= sqrt(||A||_1
    ||A||_inf)``.

    The rungs are ``(M, P^M, L P^M, c_M)``, ``M = m * 2**j``, ``j < rungs``.
    The bottom rung is the block's own ``P^m``, ``L P^m`` and bound.  Each
    higher rung squares the one below it, ``P^2M = P^M P^M``, and takes, per
    block, ``c_2M = c_M max(1, sqrt(||P^M||_1 ||P^M||_inf))``: a power
    ``P^j``, ``j < 2M``, is ``P^j`` or ``P^M P^(j-M)`` with ``j - M < M``, so
    ``c_M >= ||P^j||_2`` holds for every ``j < M`` on every rung.
    """
    n = DIM * DIM
    index = [idx for idx, _ in blocks]
    steps, leaps, readouts, bounds = [], [], [], []
    for _, b in blocks:
        eye = np.eye(b.shape[-1])
        hb = h * b
        step = eye + hb @ (eye + (hb / 2) @ (eye + (hb / 3) @ (eye + hb / 4)))
        powers = np.empty((m + 1,) + b.shape, dtype=complex)
        powers[0] = eye
        for k in range(1, m):
            powers[k] = powers[k - 1] @ step
        powers[m] = np.linalg.matrix_power(step, m)
        steps.append(step)
        leaps.append(powers[m])
        readouts.append(b @ powers)
        bounds.append(_holder(powers[:m]).max(axis=0))
    block = (_scatter(index, steps), _scatter(index, leaps),
             _scatter(index, readouts).reshape(-1, n), max(c.max() for c in bounds))
    ladder = [(m, block[1], block[2][-n:], block[3])][:rungs]
    lasts = [r[-1] for r in readouts]
    for j in range(1, rungs):
        bounds = [c * np.maximum(1.0, _holder(p)) for c, p in zip(bounds, leaps)]
        lasts = [last @ p for last, p in zip(lasts, leaps)]
        leaps = [p @ p for p in leaps]
        ladder.append((m << j, _scatter(index, leaps), _scatter(index, lasts),
                       max(c.max() for c in bounds)))
    return block, ladder


def _full_steps(t: float, t_final: float, dt: float, m: int) -> tuple[int, float]:
    """How many of the next ``m`` steps from time ``t`` are full steps of
    ``dt`` (each taken while ``t_final - s >= dt``, s the time before it), and
    the time after them.  ``np.add.accumulate`` adds in order, so the times
    are those of ``s += dt`` step by step, bit for bit."""
    s = np.full(m + 1, dt)
    s[0] = t
    np.add.accumulate(s, out=s)
    full = t_final - s[:-1] >= dt
    k = m if full.all() else int(full.argmin())
    return k, float(s[k])


def _state_matrix(rho0: np.ndarray | DensityMatrix) -> np.ndarray:
    """The 8x8 matrix of a state, checked to be 8x8 and finite."""
    rho = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, complex)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected {DIM}x{DIM} states, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("rho0 contains non-finite entries")
    return rho


def propagate(
    rho0: np.ndarray | DensityMatrix,
    gen: Generator,
    t_final: float,
    dt: float | None = None,
    eps_ss: float = DEFAULT_EPS_SS,
) -> PropagationResult:
    """Fixed-step 4th-order Runge-Kutta integration of d rho / dt = L rho.

    The state runs in the eigenbasis, ``v = (V^T kron V^T) vec(rho)``, on
    the dense 64x64 eigenbasis matrices of :func:`_rk4_block`, which are
    built from the blocks of ``L_e`` (:attr:`Generator.eigen_blocks`); the
    64x64 ``Generator.liouvillian`` is not read.  ``V^T kron V^T`` is
    orthogonal, so ``||L_e v||`` is ``||L vec(rho)||`` up to rounding.  A
    run that takes no step returns a copy of ``rho0`` itself.

    Stops early (``converged=True``) at the first step with
    ``||d rho / dt||_F < eps_ss``.  The default step is 0.1 / ||L_e||_1, the
    largest column sum of the blocks, and ``dt > RK4_STABLE_RADIUS /
    ||L_e||_1`` raises ``ValueError``: every eigenvalue of a Lindblad
    generator has Re <= 0, and modulus at most any induced norm of ``L_e``,
    which is similar to L, so every admitted step, the shortened last one
    ending at ``t_final`` included, has an RK4 step matrix of spectral
    radius <= 1.  A ``rho0`` that is not a finite 8x8 matrix, a non-finite
    ``dt`` or ``t_final``, or a NaN or negative ``eps_ss`` raises
    ``ValueError`` too.

    ``eps_ss = 0`` runs to ``t_final``.  A positive ``eps_ss`` below the
    rounding floor ``DIM**2 eps ||L_e||_1 ||rho0||_F`` of ``||L v||`` (eps
    the machine epsilon) raises ``ValueError``: each entry of the computed
    ``L v`` sums DIM**2 products and carries a rounding error of up to about
    ``DIM**2 eps sum_k |L_ik| |v_k|``, which is of the order of
    ``DIM**2 eps ||L||_1 ||v||_F``, and ``||v||_F`` starts at
    ``||rho0||_F``.  Below that floor the stop rule would read rounding
    noise, and the factor 2 of the leap rule below would not cover it.

    For a linear generator one RK4 step of size h is the matrix
    ``P = I + hL(I + hL/2(I + hL/3(I + hL/4)))``, a polynomial in ``L``, so
    ``L P^M v = P^(M-k) L P^k v`` and ``||L P^k v|| >= ||L P^M v|| / c_M``
    for ``k <= M``, with ``c_M >= max ||P^j||_2`` over ``j < M``: a run of M
    full steps with ``||L P^M v|| > 2 c_M eps_ss`` cannot settle, and one
    product with ``L P^M`` checks it before ``P^M`` advances the state.
    (The factor 2 leaves room for the rounding of both norms.)  The runs
    form a ladder, M = ``BLOCK_STEPS * 2**j`` for ``j < LADDER_RUNGS``
    (:func:`_rk4_block`), built once per generator and step size and kept
    on the generator.  Each pass tries the rungs downward, from the highest
    one that has not failed, and leaps by the first that passes; a rung
    that fails once, by its norm or by reaching past ``t_final``, is not
    tried again in the call.  When no rung leaps, the next block of
    ``BLOCK_STEPS`` = m steps takes one product of the state with the
    stacked rows of ``L P^k``, k = 1..m, which gives the derivative norm
    after every step of the block, so convergence is checked at every step;
    a run that stops inside a block recovers its state with single ``P``
    steps.  The time is accumulated step by step, leaps included.  The
    iterates are those of the stage-wise RK4 loop up to rounding (about
    1e-13 after 15k steps), with the same step count, time and convergence
    flag.
    """
    rho = _state_matrix(rho0)
    if not (math.isfinite(t_final) and t_final >= 0) or not eps_ss >= 0:
        raise ValueError(f"need a finite t_final >= 0 and a number eps_ss >= 0, "
                         f"got t_final = {t_final}, eps_ss = {eps_ss}")
    blocks = gen.eigen_blocks
    norm = max(float(np.abs(b).sum(axis=-2).max()) for _, b in blocks)
    if dt is None:
        dt = 0.1 / norm
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite dt > 0, got dt = {dt}")
    dt_max = RK4_STABLE_RADIUS / norm
    if dt > dt_max:
        raise ValueError(f"dt = {dt:.3e} is beyond the RK4 stability radius "
                         f"{RK4_STABLE_RADIUS} / ||L_e||_1 = {dt_max:.3e}")

    floor = DIM**2 * np.finfo(float).eps * norm * float(np.linalg.norm(rho))
    if 0 < eps_ss < floor:
        raise ValueError(f"eps_ss = {eps_ss:.3e} is below the rounding floor "
                         f"{DIM**2} eps ||L_e||_1 ||rho0||_F = {floor:.3e} of ||L v||")

    n = DIM * DIM
    if dt not in gen._rk4_blocks:
        gen._rk4_blocks[dt] = _rk4_block(blocks, dt, BLOCK_STEPS, LADDER_RUNGS)
    full_block, rungs = gen._rk4_blocks[dt]
    v = gen.eigen.to_eigenbasis(rho).flatten(order="F")
    t = 0.0
    steps = 0
    top = len(rungs) - 1  # the highest rung that has not failed
    converged = float(np.linalg.norm(full_block[2][:n] @ v)) < eps_ss
    while t < t_final and not converged:
        if top >= 0:
            m, leap, last, bound = rungs[top]
            if np.linalg.norm(last @ v) > 2.0 * bound * eps_ss:
                k, s = _full_steps(t, t_final, dt, m)
                if k == m:  # no step of this rung can settle
                    v = leap @ v
                    t, steps = s, steps + m
                    continue
            top -= 1  # not tried again in this call
            continue
        k, _ = _full_steps(t, t_final, dt, BLOCK_STEPS)
        if k:
            step, (p, p_block, readout, _) = dt, full_block
        else:  # a last, shorter step up to t_final
            step = t_final - t
            (p, p_block, readout, _), _ = _rk4_block(blocks, step, 1)
            k = 1
        settled = np.linalg.norm((readout[n:(k + 1) * n] @ v).reshape(k, n), axis=1) < eps_ss
        if settled.any():  # the first step that has settled
            k = int(settled.argmax()) + 1
            converged = True
        if k == BLOCK_STEPS:
            v = p_block @ v
        else:
            for _ in range(k):
                v = p @ v
        for _ in range(k):
            t += step
        steps += k
    vectors = gen.eigen.vectors
    state = rho.copy() if steps == 0 else vectors @ v.reshape(DIM, DIM, order="F") @ vectors.T
    return PropagationResult(state=state, time=t, converged=converged, steps=steps)


def branch_weights(rho0: np.ndarray | DensityMatrix, gen: Generator) -> np.ndarray:
    """Long-time weight of each closed class for an initial state.

    Mass already on a closed class stays there; mass on transient levels is
    split by the exact absorption probabilities of the rate matrix.  A state
    with support on several closed classes converges to the convex mixture
    of the per-class steady states with these weights.  (For mixed-support
    initial states this mixture reading is an extrapolation beyond the
    single-branch picture; it follows from linearity of the generator.)
    W, its classes and the absorption system are built once per generator
    and kept on it (``Generator._absorption``).  A ``rho0`` that is not a
    finite 8x8 matrix raises ``ValueError``.
    """
    rho = _state_matrix(rho0)
    classes, tr, drain, into = gen._absorption
    pops = np.real(np.diag(gen.eigen.to_eigenbasis(rho)))
    weights = np.array([pops[cls].sum() for cls in classes])
    if tr:
        # expected occupation time of each transient level: solve (-Q) tau = m0
        tau = np.linalg.solve(drain, pops[tr])
        for k, rates in enumerate(into):
            weights[k] += float(rates @ tau)
    return weights
