"""Sink components of response chains and their stationary distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .dynamics import BEST, TransitionKernel, build_kernel, stacked_kernel
from .errors import DegenerateWelfareError, InvalidParametersError, NumericalFailureError
from .game import NormalFormGame, positive_optimum

STATIONARY_TOL = 1e-10
POWER_MAX_STEPS = 10**6
POWER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SinkEquilibrium:
    """Stationary distribution supported on one sink component."""

    support: tuple[int, ...]
    probabilities: np.ndarray
    expected_welfare: float


def _tarjan(kernel: TransitionKernel) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """SCCs in the order Tarjan's algorithm pops them, and each state's
    position in that list.

    Iterative, with an explicit work stack; recursion would overflow on
    chains with ~1e5 states.  A state is on the Tarjan stack while it has an
    index but no component label yet.
    """
    n = kernel.num_states
    indptr = kernel.indptr.tolist()
    indices = kernel.indices.tolist()
    index = [-1] * n
    lowlink = [0] * n
    label = [-1] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, indptr[root]]]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        while work:
            frame = work[-1]
            v, pos = frame
            end = indptr[v + 1]
            descended = False
            while pos < end:
                w = indices[pos]
                pos += 1
                if index[w] == -1:
                    frame[1] = pos
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append([w, indptr[w]])
                    descended = True
                    break
                if label[w] == -1 and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                cid = len(components)
                split = len(stack) - 1
                while stack[split] != v:
                    split -= 1
                comp = stack[split:]
                del stack[split:]
                for w in comp:
                    label[w] = cid
                components.append(tuple(sorted(comp)))
    return components, np.array(label, dtype=np.int64)


def _tarjan_sinks(kernel: TransitionKernel) -> list[tuple[int, ...]]:
    """Sinks in the order ``_tarjan`` pops them, from its SCC labels."""
    components, label = _tarjan(kernel)
    src_label = np.repeat(label, np.diff(kernel.indptr))
    escapes = np.zeros(len(components), dtype=bool)
    escapes[src_label[src_label != label[kernel.indices]]] = True
    return [components[cid] for cid in np.flatnonzero(~escapes).tolist()]


# Sweeps over the edges that ``sink_components`` may make, marking and
# coloring together, before it hands the kernel to ``_tarjan``.  On the
# 12-player interference games one coloring sweep, pointer jump included,
# costs about E x 4 ns and ``_tarjan`` about E x 250-300 ns, so 80 sweeps
# cost about one Tarjan pass, and a kernel that runs out of budget takes
# about twice as long as Tarjan alone (up to 2.5 times on rows of one or two
# edges, where reduceat's cost per row dominates).  The sweeps needed grow
# with the length of response paths, which nothing bounds.  Along rising
# labels a color's reach doubles with each sweep (about log2(L) sweeps for a
# path of L states), but along falling labels it moves one edge per sweep.
_SWEEP_BUDGET = 80


def _absorbing_sinks(kernel: TransitionKernel) -> tuple[np.ndarray | None, int]:
    """The absorbing states, in increasing order, when every state reaches
    one of them, else None; with the sweeps spent.

    An absorbing state's row holds only its self-loop.  Each sweep marks the
    states with an edge into a marked one.  A state of a multi-state sink
    reaches no absorbing state, as its sink is closed, so once every state
    is marked the absorbing states are all the sinks.  Stops unsettled when
    a sweep marks nothing new or the sweeps would exceed ``_SWEEP_BUDGET``;
    needs a kernel with no empty row, as ``_colored_sinks`` does.
    """
    indptr, indices = kernel.indptr, kernel.indices
    single = np.flatnonzero(np.diff(indptr) == 1)
    absorbing = single[indices[indptr[single]] == single]
    if not absorbing.size:
        return None, 0
    marked = np.zeros(kernel.num_states, dtype=bool)
    marked[absorbing] = True
    count, sweeps = absorbing.size, 0
    while count < kernel.num_states:
        if sweeps == _SWEEP_BUDGET:
            return None, sweeps
        sweeps += 1
        marked |= np.logical_or.reduceat(marked[indices], indptr[:-1])
        grown = int(np.count_nonzero(marked))
        if grown == count:
            return None, sweeps
        count = grown
    return absorbing, sweeps


def _colored_sinks(kernel: TransitionKernel, budget: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Sinks by reachability coloring (Orzan 2004) with pointer jumping
    (Shiloach & Vishkin 1982), as ``_sink_partition`` gives them, or None
    once the sweeps would exceed ``budget``.

    Needs a kernel with no empty row, as every stochastic kernel is:
    ``np.maximum.reduceat`` reads an empty row as the next row's first entry.
    """
    indptr, indices = kernel.indptr, kernel.indices
    states = np.arange(kernel.num_states)
    sweeps = 0

    # (a) color[v] becomes the largest state reachable from v, and is always
    # a state v reaches, so color[color[v]] is one too.  A root
    # (color[v] == v) reaches nothing above itself.
    color = states
    while True:
        if sweeps == budget:
            return None
        sweeps += 1
        grown = np.maximum(color, np.maximum.reduceat(color[indices], indptr[:-1]))
        np.maximum(grown, grown[grown], out=grown)
        if np.array_equal(grown, color):
            break
        color = grown

    # (b) The states a root reaches without changing color are the ones that
    # also reach it back: exactly the root's SCC.  The label spread from a
    # root is its color, so one flag per state carries it.
    tails = np.repeat(states, np.diff(indptr))
    inside = color[tails] == color[indices]
    leaves = np.zeros(kernel.num_states, dtype=bool)
    leaves[tails[~inside]] = True
    tails, heads = tails[inside], indices[inside]
    reached = color == states
    frontier = reached.copy()
    while True:
        if sweeps == budget:
            return None
        sweeps += 1
        hits = heads[frontier[tails]]
        hits = hits[~reached[hits]]
        if not hits.size:
            break
        reached[hits] = True
        frontier = np.zeros(kernel.num_states, dtype=bool)
        frontier[hits] = True

    # (c) A root heads a sink when no state of its SCC has an edge to
    # another color.
    escapes = np.zeros(kernel.num_states, dtype=bool)
    escapes[color[reached & leaves]] = True
    members = np.flatnonzero(reached & ~escapes[color])
    # Members are increasing, so each sink's first one is its smallest; a
    # stable sort by the position of that first member keeps them in order.
    _, firsts, group = np.unique(color[members], return_index=True, return_inverse=True)
    order = np.argsort(firsts[group], kind="stable")
    return members[order], np.bincount(group)[np.argsort(firsts)]


def _sink_partition(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """``sink_components`` as arrays: every sink's states laid end to end,
    sink after sink, and the sinks' sizes."""
    absorbing, spent = _absorbing_sinks(kernel)
    if absorbing is not None:
        return absorbing, np.ones(absorbing.size, dtype=np.int64)
    found = _colored_sinks(kernel, _SWEEP_BUDGET - spent)
    if found is None:
        # Sinks are disjoint, so tuples sort by their smallest state.
        sinks = sorted(_tarjan_sinks(kernel))
        found = np.fromiter(chain.from_iterable(sinks), np.int64), np.array(list(map(len, sinks)))
    return found


def sink_components(kernel: TransitionKernel) -> list[tuple[int, ...]]:
    """SCCs with no outgoing transition, ordered by their smallest state,
    each in increasing order.

    First trims the absorbing states, whose row holds only their self-loop,
    and marks every state that reaches one in numpy sweeps over the CSR
    arrays; when that marks every state, the absorbing states are the sinks.
    Otherwise colors every state by reachability in a few more sweeps.  The
    marking and the coloring share ``_SWEEP_BUDGET`` sweeps; a kernel that
    needs more goes to ``_tarjan`` instead.
    """
    return _sink_tuples(*_sink_partition(kernel))


def _sink_tuples(members: np.ndarray, sizes: np.ndarray) -> list[tuple[int, ...]]:
    """``_sink_partition``'s arrays as one tuple of states per sink."""
    members, ends = members.tolist(), np.cumsum(sizes).tolist()
    return [tuple(members[a:b]) for a, b in zip([0] + ends[:-1], ends)]


# The chain on supports laid end to end, on local indices, row after row:
# each row's entry count, then every entry's column and probability.
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]


def _support_rows(
    kernel: TransitionKernel, supports: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The supports' states laid end to end, each support's in increasing
    order, and the supports' sizes; refused unless every support lists
    distinct integer states of the kernel."""
    arrays = [np.asarray(support) for support in supports]
    if any(array.ndim != 1 or not array.size for array in arrays):
        raise InvalidParametersError("support must be a nonempty sequence of states")
    for array in arrays:
        if array.dtype.kind not in "iu":
            raise InvalidParametersError(f"support states must be integers, not {array.dtype}")
    sizes = np.array([array.size for array in arrays])
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate(arrays, dtype=np.int64, casting="unsafe")
    lows = np.minimum.reduceat(rows, starts)
    highs = np.maximum.reduceat(rows, starts)
    outside = np.flatnonzero((lows < 0) | (highs >= kernel.num_states))
    if outside.size:
        j = outside[0]
        bad = lows[j] if lows[j] < 0 else highs[j]
        raise InvalidParametersError(
            f"support state {bad} is outside [0, {kernel.num_states})"
        )
    owner = np.repeat(np.arange(sizes.size), sizes)
    rows = rows[np.lexsort((rows, owner))]
    repeats = np.flatnonzero((rows[1:] == rows[:-1]) & (owner[1:] == owner[:-1]))
    if repeats.size:
        raise InvalidParametersError(f"support repeats state {rows[repeats[0]]}")
    return rows, sizes


def _support_triples(kernel: TransitionKernel, rows: np.ndarray, sizes: np.ndarray) -> Triples:
    """Entries of the chain on supports laid end to end, ``sizes`` states
    each in increasing order, gathered from the kernel's CSR rows in row
    order.  Refuses supports that share a state or that an edge leaves."""
    starts = kernel.indptr[rows]
    lengths = kernel.indptr[rows + 1] - starts
    # CSR positions of every entry in the supports' rows, row after row.
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    edge = np.arange(offsets.size) + offsets
    targets = kernel.indices[edge]
    # Local column of every state, -1 outside the supports.
    local = np.full(kernel.num_states, -1)
    positions = np.arange(rows.size)
    local[rows] = positions
    shared = np.flatnonzero(local[rows] != positions)
    if shared.size:
        raise InvalidParametersError(f"supports share state {rows[shared[0]]}")
    cols = local[targets]
    owner = np.repeat(np.arange(sizes.size), sizes)
    leaving = np.flatnonzero((cols < 0) | (owner[cols] != np.repeat(owner, lengths)))
    if leaving.size:
        first = leaving[0]
        raise InvalidParametersError(
            f"support is not closed: {np.repeat(rows, lengths)[first]} -> "
            f"{targets[first]} leaves it"
        )
    return lengths, cols, kernel.probs[edge]


def _left_product(pi: np.ndarray, triples: Triples) -> np.ndarray:
    """``pi @ P`` for the sparse matrix P given by its entries."""
    lengths, col, prob = triples
    return np.bincount(col, weights=np.repeat(pi, lengths) * prob, minlength=pi.size)


def _residuals(pi: np.ndarray, triples: Triples, starts: np.ndarray) -> np.ndarray:
    """``max |pi P - pi|`` on each support."""
    return np.maximum.reduceat(np.abs(_left_product(pi, triples) - pi), starts)


def _diagonal(triples: Triples, k: int) -> np.ndarray:
    """Self-loop probability of each state; a row holds at most one, since
    its columns strictly increase."""
    lengths, col, prob = triples
    loops = np.flatnonzero(np.repeat(np.arange(k), lengths) == col)
    d = np.zeros(k)
    d[col[loops]] = prob[loops]
    return d


# Relaxation weight of the damped Jacobi step in ``_power_iteration``.  Below
# 1 the step is aperiodic on every irreducible chain; at 1 it swaps mass
# forever on a periodic one, and every multi-state sink of a two-action game
# is bipartite once its self-loops are removed.  Mean products per solve on
# the ten games of the random-sink pool of seed 1, better / best mode, where
# stepping with P itself took 167 / 143: 66 / 90 at 0.75, 54 / 74 at 0.9,
# 48 / 66 at 1.  Nearer 1 costs more on periodic chains: the 3-state path
# 0 <-> 1 <-> 2 takes 40, 120 and 253 products at 0.75, 0.9 and 0.95.
_OMEGA = 0.9


def _power_iteration(triples: Triples, d: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Damped Jacobi (JOR) iteration on the balance equations
    ``pi (I - D) = pi (P - D)`` of every support, D the diagonal of P:

        pi_c <- (1 - w) pi_c + w ((pi P)_c - d_c pi_c) / (1 - d_c),

    which is ``pi + w (pi P - pi) / (1 - d)``, so the product that makes a
    step also gives each support's stop test ``max |pi P - pi| <=
    POWER_TOL``.  One product per step serves every support; a support stops
    moving at the step that passes its test, and a one-state support never
    moves.  Each support is renormalized by the sum of its own slice, which
    adds in the order a sum over that support alone does.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    spans = list(zip(starts.tolist(), ends.tolist()))
    moving = np.flatnonzero(sizes > 1).tolist()
    scale = np.zeros(d.size)
    np.divide(_OMEGA, 1.0 - d, out=scale, where=np.repeat(sizes > 1, sizes))
    pi = np.repeat(1.0 / sizes, sizes)
    steps = 0
    while moving:
        if steps == POWER_MAX_STEPS:
            j = moving[0]
            raise NumericalFailureError(
                f"power iteration on a {sizes[j]}-state sink did not converge in "
                f"{POWER_MAX_STEPS} steps (residual {_residuals(pi, triples, starts)[j]:.3e})"
            )
        steps += 1
        step = _left_product(pi, triples) - pi
        moves = np.maximum.reduceat(np.abs(step), starts).tolist()
        settled = [j for j in moving if moves[j] <= POWER_TOL]
        if settled:
            for j in settled:
                a, b = spans[j]
                scale[a:b] = 0.0
            moving = [j for j in moving if not moves[j] <= POWER_TOL]
            if not moving:
                break
        pi += step * scale
        for j in moving:
            a, b = spans[j]
            pi[a:b] /= pi[a:b].sum()
    return pi


def stationary_distributions(
    kernel: TransitionKernel, supports: Sequence[Sequence[int]]
) -> list[np.ndarray]:
    """Unique stationary vector of the chain restricted to each of several
    disjoint sink components, in the order given.

    Iterates on the sinks' sparse CSR rows, laid end to end, so no k-by-k
    matrix is built and one product per step serves every sink.  Each step
    is a damped Jacobi (JOR) step on the balance equations, ``pi <- pi + w
    (pi P - pi) / (1 - d)`` with d the self-loop probability of each state
    and ``w = _OMEGA`` below 1, then a renormalization; its fixed point is
    the vector with ``pi = pi P``.  Dividing by ``1 - d`` takes out the
    self-loops, which hold about a third of each row's mass on response
    chains, mass that a step with P itself leaves in place; a weight below 1
    keeps the step aperiodic on every irreducible chain, self-loops or not.
    A state of a multi-state support that only loops to itself makes
    ``1 - d`` zero; such a support is no sink and is refused.  Each sink
    stops once its ``max |pi P - pi| <= POWER_TOL``, read from the product
    that also makes the next step, and the residual of its normalized
    vector is then certified against STATIONARY_TOL on the same rows.  The
    products are ordered ``np.bincount`` sums with no BLAS call, and every
    sink's numbers are those of a solve on that sink alone, so the bits do
    not depend on the BLAS library, its thread count or the other sinks.
    Each support lists distinct integer states of the kernel, in any order,
    and no two share a state; anything else is refused.  A one-state
    support is closed only when its row is its self-loop alone, and needs
    no solve.  When several supports fail, the first check that any fails
    names the first support to fail it, in the order: the states, sharing,
    closure, self-loops, convergence, normalization, residual, positivity.
    """
    if len(supports) == 0:
        return []
    rows, sizes = _support_rows(kernel, supports)
    pi = _stationary(kernel, rows, sizes)
    pi.setflags(write=False)
    return np.split(pi, np.cumsum(sizes)[:-1])


def _stationary(kernel: TransitionKernel, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``stationary_distributions`` of supports laid end to end, ``sizes``
    states each in increasing order, as one array laid out alike; the
    states are taken as distinct states of the kernel."""
    triples = _support_triples(kernel, rows, sizes)
    multi = sizes > 1
    d = _diagonal(triples, rows.size)
    stuck = np.flatnonzero(np.repeat(multi, sizes) & (d >= 1.0))
    if stuck.size:
        raise InvalidParametersError(
            f"support is not a sink: state {rows[stuck[0]]} only loops to itself"
        )
    pi = _power_iteration(triples, d, sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    spans = list(zip(starts.tolist(), ends.tolist()))
    for j in np.flatnonzero(multi).tolist():
        a, b = spans[j]
        total = pi[a:b].sum()
        if not np.isfinite(total) or total <= 0:
            raise NumericalFailureError("stationary solve produced a non-distribution")
        pi[a:b] /= total
    residuals = _residuals(pi, triples, starts)
    failed = np.flatnonzero(multi & (residuals > STATIONARY_TOL))
    if failed.size:
        raise NumericalFailureError(
            f"stationary residual {residuals[failed[0]]:.3e} exceeds {STATIONARY_TOL:.0e}"
        )
    if np.any(multi & (np.minimum.reduceat(pi, starts) <= 0.0)):
        raise NumericalFailureError("stationary distribution is not strictly positive")
    return pi


def _solved_sinks(kernel: TransitionKernel, welfare: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_sink_partition``, the stationary vectors laid out alike, and each
    sink's expected welfare: its ``math.fsum`` clamped to the sink's welfare
    range, as pi may sum to one only up to rounding (so a one-state sink's
    is its state's welfare)."""
    members, sizes = _sink_partition(kernel)
    pi = _stationary(kernel, members, sizes)
    values = welfare[members]
    ends = np.cumsum(sizes)
    expected = values[ends - sizes]
    multi = np.flatnonzero(sizes > 1).tolist()
    if multi:
        terms = (pi * values).tolist()
        lows = np.minimum.reduceat(values, ends - sizes).tolist()
        highs = np.maximum.reduceat(values, ends - sizes).tolist()
        ends = ends.tolist()
        for j in multi:
            total = math.fsum(terms[ends[j] - sizes[j] : ends[j]])
            expected[j] = min(max(total, lows[j]), highs[j])
    return members, sizes, pi, expected


def sink_equilibria(
    game: NormalFormGame, mode: str = BEST, tie_tol: float = 0.0
) -> list[SinkEquilibrium]:
    """One equilibrium per sink of the chosen response chain, ordered by the
    smallest support state."""
    kernel = build_kernel(game, mode=mode, tie_tol=tie_tol)
    members, sizes, pi, expected = _solved_sinks(kernel, game.welfare)
    pi.setflags(write=False)
    sinks = zip(_sink_tuples(members, sizes), np.split(pi, np.cumsum(sizes)[:-1]))
    return [SinkEquilibrium(*sink, value) for sink, value in zip(sinks, expected.tolist())]


def price_of_sinking(
    game: NormalFormGame, mode: str = BEST, tie_tol: float = 0.0
) -> tuple[float, SinkEquilibrium]:
    """Worst sink expected welfare over the optimal welfare, with the
    minimizing equilibrium (the first of equal minima)."""
    _, wopt = positive_optimum(game)
    worst = min(sink_equilibria(game, mode, tie_tol), key=lambda eq: eq.expected_welfare)
    return worst.expected_welfare / wopt, worst


def batch_prices(counts: np.ndarray, welfare: np.ndarray, utilities: np.ndarray) -> list[float]:
    """Best-response ``price_of_sinking`` of each of one or more games, given
    by their action counts, one row per game, and their checked tables laid
    end to end: one kernel, sink search and solve for all, exact for each."""
    sizes = counts.prod(axis=1)
    ends = np.cumsum(sizes)
    optima = np.maximum.reduceat(welfare, ends - sizes)
    if not np.all(optima > 0.0):
        raise DegenerateWelfareError("optimal welfare is zero")
    members, sinks, _, expected = _solved_sinks(stacked_kernel(counts, utilities), welfare)
    # Sinks come ordered by their smallest state, so game by game, and
    # every game has one.
    game = np.searchsorted(ends, members[np.cumsum(sinks) - sinks], side="right")
    worst = np.minimum.reduceat(expected, np.flatnonzero(np.diff(game, prepend=-1)))
    return (worst / optima).tolist()
