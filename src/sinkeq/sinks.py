"""Sink components of response chains and their stationary distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .dynamics import (
    BEST,
    BestResponseFibers,
    TransitionKernel,
    best_response_fibers,
    build_kernel,
    stacked_kernel,
)
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


# Sweeps that a sink search may make, marking and coloring together, before
# it hands the chain to ``_tarjan``: over the edges in ``sink_components``,
# over the best-response fibers in ``batch_prices``, where a sweep marks and
# colors exactly the states an edge sweep does.  On the 12-player
# interference games one coloring sweep over the edges, pointer jump
# included, costs about E x 4 ns and ``_tarjan`` about E x 250-300 ns, so 80
# sweeps cost about one Tarjan pass, and a kernel that runs out of budget
# takes about twice as long as Tarjan alone (up to 2.5 times on rows of one
# or two edges, where reduceat's cost per row dominates).  The sweeps needed
# grow with the length of response paths, which nothing bounds.  Along
# rising labels a color's reach doubles with each sweep (about log2(L)
# sweeps for a path of L states), but along falling labels it moves one
# edge per sweep.
_SWEEP_BUDGET = 80


def _marking(
    absorbing: np.ndarray, num_states: int, reach: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray | None, int]:
    """The ``absorbing`` states when every state reaches one of them, else
    None; with the sweeps spent.

    Each sweep marks the states that ``reach(marked)`` flags, those with an
    edge into a marked one.  A state of a multi-state sink reaches no
    absorbing state, as its sink is closed, so once every state is marked
    the absorbing states are all the sinks.  Stops unsettled when no state
    is absorbing, a sweep marks nothing new or the sweeps would exceed
    ``_SWEEP_BUDGET``.
    """
    if not absorbing.size:
        return None, 0
    marked = np.zeros(num_states, dtype=bool)
    marked[absorbing] = True
    count, sweeps = absorbing.size, 0
    while count < num_states:
        if sweeps == _SWEEP_BUDGET:
            return None, sweeps
        sweeps += 1
        marked |= reach(marked)
        grown = int(np.count_nonzero(marked))
        if grown == count:
            return None, sweeps
        count = grown
    return absorbing, sweeps


def _absorbing_sinks(kernel: TransitionKernel) -> tuple[np.ndarray | None, int]:
    """``_marking`` on a kernel's rows, from its absorbing states in
    increasing order, those whose row holds only their self-loop; needs a
    kernel with no empty row, as ``_colored_sinks`` does."""
    indptr, indices = kernel.indptr, kernel.indices
    single = np.flatnonzero(np.diff(indptr) == 1)
    absorbing = single[indices[indptr[single]] == single]
    return _marking(
        absorbing,
        kernel.num_states,
        lambda marked: np.logical_or.reduceat(marked[indices], indptr[:-1]),
    )


def _colors(
    num_states: int, highest: Callable[[np.ndarray], np.ndarray], budget: int
) -> tuple[np.ndarray | None, int]:
    """Step (a) of the coloring: ``color[v]`` becomes the largest state
    reachable from v, or None once the sweeps would exceed ``budget``; with
    the sweeps spent.  ``highest(color)`` gives the largest color among each
    state's targets.  A color is always a state v reaches, so color[color[v]]
    is one too.  A root (color[v] == v) reaches nothing above itself."""
    color = np.arange(num_states)
    sweeps = 0
    while True:
        if sweeps == budget:
            return None, sweeps
        sweeps += 1
        grown = np.maximum(color, highest(color))
        np.maximum(grown, grown[grown], out=grown)
        if np.array_equal(grown, color):
            return color, sweeps
        color = grown


def _rooted_sinks(
    color: np.ndarray,
    inside: Callable[[np.ndarray], np.ndarray],
    leaves: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Steps (b) and (c) of the coloring, from the colors of step (a): the
    sinks as ``_sink_partition`` gives them, or None once the sweeps would
    exceed ``budget``.

    (b) The states a root reaches without changing color are the ones that
    also reach it back: exactly the root's SCC.  ``inside(frontier)`` gives
    the targets of the frontier's edges that keep their color.  The label
    spread from a root is its color, so one flag per state carries it.
    (c) A root heads a sink when no state of its SCC is one of the
    ``leaves``, the states with an edge to another color.
    """
    num_states = color.size
    reached = color == np.arange(num_states)
    frontier = reached.copy()
    sweeps = 0
    while True:
        if sweeps == budget:
            return None
        sweeps += 1
        hits = inside(frontier)
        hits = hits[~reached[hits]]
        if not hits.size:
            break
        reached[hits] = True
        frontier = np.zeros(num_states, dtype=bool)
        frontier[hits] = True

    escapes = np.zeros(num_states, dtype=bool)
    escapes[color[reached & leaves]] = True
    members = np.flatnonzero(reached & ~escapes[color])
    # Members are increasing, so each sink's first one is its smallest; a
    # stable sort by the position of that first member keeps them in order.
    _, firsts, group = np.unique(color[members], return_index=True, return_inverse=True)
    order = np.argsort(firsts[group], kind="stable")
    return members[order], np.bincount(group)[np.argsort(firsts)]


def _colored_sinks(
    kernel: TransitionKernel, budget: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Sinks by reachability coloring (Orzan 2004) with pointer jumping
    (Shiloach & Vishkin 1982), as ``_sink_partition`` gives them, or None
    once the sweeps would exceed ``budget``.

    Needs a kernel with no empty row, as every stochastic kernel is:
    ``np.maximum.reduceat`` reads an empty row as the next row's first entry.
    """
    indptr, indices = kernel.indptr, kernel.indices
    color, sweeps = _colors(
        kernel.num_states, lambda color: np.maximum.reduceat(color[indices], indptr[:-1]), budget
    )
    if color is None:
        return None
    tails = np.repeat(np.arange(kernel.num_states), np.diff(indptr))
    inside = color[tails] == color[indices]
    leaves = np.zeros(kernel.num_states, dtype=bool)
    leaves[tails[~inside]] = True
    tails, heads = tails[inside], indices[inside]
    return _rooted_sinks(color, lambda frontier: heads[frontier[tails]], leaves, budget - sweeps)


def _sink_partition(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """``sink_components`` as arrays: every sink's states laid end to end,
    sink after sink, and the sinks' sizes."""
    absorbing, spent = _absorbing_sinks(kernel)
    if absorbing is not None:
        return absorbing, np.ones(absorbing.size, dtype=np.int64)
    found = _colored_sinks(kernel, _SWEEP_BUDGET - spent)
    return _tarjan_partition(kernel) if found is None else found


def _tarjan_partition(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """``_sink_partition`` from ``_tarjan``'s SCC labels: the SCCs that no
    edge leaves."""
    components, label = _tarjan(kernel)
    src_label = np.repeat(label, np.diff(kernel.indptr))
    escapes = np.zeros(len(components), dtype=bool)
    escapes[src_label[src_label != label[kernel.indices]]] = True
    # Sinks are disjoint, so tuples sort by their smallest state.
    sinks = sorted(components[cid] for cid in np.flatnonzero(~escapes).tolist())
    return np.fromiter(chain.from_iterable(sinks), np.int64), np.array(list(map(len, sinks)))


def _fiber_sinks(fibers: BestResponseFibers) -> tuple[np.ndarray, np.ndarray] | None:
    """``_sink_partition`` of the kernel whose best-response fibers are
    ``fibers``, read from the fibers with no edge list, or None once the
    sweeps would exceed ``_SWEEP_BUDGET``.

    Every state of a fiber has an edge to each best response of the fiber,
    so a sweep reduces over each fiber's best responses, then over each
    state's n fibers; it marks and colors what a sweep over the edges does,
    and the marking and step (a) spend the sweeps they spend there.  The
    best responses of a fiber form a clique, so after step (a) they share
    one color, the fiber's, which is at most the color of each state of the
    fiber.  So a state's edges on a player's turn keep its color exactly
    when the state has the color of the player's fiber through it, and
    otherwise they all lead to a smaller color.
    """
    targets, fiber = fibers.targets, fibers.fiber
    n, num_states = fiber.shape
    # A state is absorbing when it is the only best response of each of its
    # n fibers.
    single = targets[0][(targets == targets[0]).all(axis=0)]
    absorbing = np.flatnonzero(np.bincount(single, minlength=num_states) == n)
    found, spent = _marking(
        absorbing, num_states, lambda marked: marked[targets].any(axis=0)[fiber].any(axis=0)
    )
    if found is not None:
        return found, np.ones(found.size, dtype=np.int64)
    color, sweeps = _colors(
        num_states,
        lambda color: color[targets].max(axis=0)[fiber].max(axis=0),
        _SWEEP_BUDGET - spent,
    )
    if color is None:
        return None
    top = color[targets[0]]
    keeps = color == top[fiber]

    def inside(frontier: np.ndarray) -> np.ndarray:
        hit = np.zeros(top.size, dtype=bool)
        hit[fiber[keeps & frontier]] = True
        return targets[:, hit].ravel()

    return _rooted_sinks(color, inside, ~keeps.all(axis=0), _SWEEP_BUDGET - spent - sweeps)


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


def _support_triples(kernel: TransitionKernel, rows: np.ndarray, sizes: np.ndarray) -> Triples:
    """Entries of the chain on supports laid end to end, ``sizes`` states
    each in increasing order, gathered from the kernel's CSR rows in row
    order."""
    starts = kernel.indptr[rows]
    lengths = kernel.indptr[rows + 1] - starts
    # CSR positions of every entry in the supports' rows, row after row.
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    edge = np.arange(offsets.size) + offsets
    return _local_triples(
        rows, sizes, lengths, kernel.indices[edge], kernel.probs[edge], kernel.num_states
    )


def _fiber_triples(fibers: BestResponseFibers, rows: np.ndarray, sizes: np.ndarray) -> Triples:
    """``_support_triples`` of the kernel whose best-response fibers are
    ``fibers``, bit for bit, from ``_fiber_rows``."""
    return _local_triples(rows, sizes, *_fiber_rows(fibers, rows), fibers.fiber.shape[1])


def _fiber_rows(
    fibers: BestResponseFibers, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the kernel rows ``rows`` of the best-response fibers,
    as ``stacked_kernel`` gives them: each row's entry count, then every
    entry's target and probability, row after row.

    Within a game, player i's targets of state v lie within ``(c_i - 1) s_i
    < s_{i+1}`` of v, so a row lists in increasing order, with no sort, the
    targets of players n - 1 down to 0 below v, then v, then those of
    players 0 up to n - 1 above v.  Each of these parts is a run of one
    fiber's best responses, or v, so one gather reads them all.  A player's
    share is ``1 / (n |B|)`` for its fiber's best responses B; v's
    self-loop adds the shares of the players whose action at v is a best
    response, in player order."""
    n = fibers.fiber.shape[0]
    best = fibers.best
    count = best.sum(axis=0)
    share = 1.0 / (n * count)
    # Every fiber's best responses in slot order, fiber after fiber, then
    # the rows' own states, with their probabilities but the self-loops'.
    pool = np.concatenate([fibers.targets.T[best.T], rows])
    columns, actions = fibers.fiber.T[rows], fibers.action.T[rows]
    looped = best[actions, columns]
    below = (np.cumsum(best, axis=0) - best)[actions, columns]
    first = (np.cumsum(count) - count)[columns]
    diag = np.zeros(rows.size)
    for player in range(n):
        diag += np.where(looped[:, player], share[columns[:, player]], 0.0)
    own = pool.size - rows.size + np.arange(rows.size)
    # Each row's parts: where in the pool each starts, and its length.
    starts = np.concatenate([first[:, ::-1], own[:, None], first + below + looped], axis=1).ravel()
    lengths = np.concatenate(
        [below[:, ::-1], (diag > 0)[:, None], count[columns] - below - looped], axis=1
    ).ravel()
    at = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    probs = np.concatenate([np.repeat(share, count), diag])
    return lengths.reshape(rows.size, 2 * n + 1).sum(axis=1), pool[at], probs[at]


def _local_triples(
    rows: np.ndarray,
    sizes: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    probs: np.ndarray,
    num_states: int,
) -> Triples:
    """The entries ``targets`` and ``probs`` of ``rows``, ``lengths`` each
    row after row, on the supports' local columns, where the supports are
    ``rows`` laid end to end, ``sizes`` states each.  Refuses supports that
    share a state or that an edge leaves."""
    # Local column of every state, -1 outside the supports.
    local = np.full(num_states, -1)
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
    return lengths, cols, probs


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


def _solve(triples: Triples, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Unique stationary vector of the chain on each of several supports,
    given by their entries ``triples``, laid out as ``rows``: the supports
    laid end to end, ``sizes`` states each in increasing order.

    The products are ordered ``np.bincount`` sums with no BLAS call, and
    every sink's numbers are those of a solve on that sink alone, so the bits
    do not depend on the BLAS library, its thread count or the other sinks.
    When several supports fail, the first check that any fails names the
    first support to fail it, in the order: sharing and closure (refused by
    ``_local_triples``), self-loops, convergence, normalization, residual,
    positivity.
    """
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


def _expected_welfare(
    values: np.ndarray, sizes: np.ndarray, stationary: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Expected welfare of each sink of ``_sink_partition``, given the
    welfare ``values`` of its members: a sink's ``math.fsum`` under its
    stationary vector, clamped to its welfare range, as the vector may sum
    to one only up to rounding.  ``stationary(varying)``
    gives the vectors of the sinks flagged in ``varying``, laid end to end.
    A sink whose welfare is constant takes that value under any
    distribution, so its vector is neither asked for nor read; a sum of
    zeros is +0.0, as ``math.fsum`` gives, and a one-state sink's value is
    its state's welfare."""
    starts = np.cumsum(sizes) - sizes
    lows = np.minimum.reduceat(values, starts)
    highs = np.maximum.reduceat(values, starts)
    expected = values[starts]
    # -0.0 + 0.0 is +0.0, as math.fsum sums zeros.
    expected[sizes > 1] += 0.0
    varying = lows < highs
    if not varying.any():
        return expected
    terms = (stationary(varying) * values[np.repeat(varying, sizes)]).tolist()
    ends = np.cumsum(sizes[varying]).tolist()
    sums = [math.fsum(terms[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    ranges = zip(sums, lows[varying].tolist(), highs[varying].tolist())
    expected[varying] = [min(max(total, low), high) for total, low, high in ranges]
    return expected


def sink_equilibria(
    game: NormalFormGame, mode: str = BEST, tie_tol: float = 0.0
) -> list[SinkEquilibrium]:
    """One equilibrium per sink of the chosen response chain, ordered by the
    smallest support state."""
    kernel = build_kernel(game, mode=mode, tie_tol=tie_tol)
    members, sizes = _sink_partition(kernel)
    pi = _solve(_support_triples(kernel, members, sizes), members, sizes)
    expected = _expected_welfare(
        game.welfare[members], sizes, lambda varying: pi[np.repeat(varying, sizes)]
    )
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


def batch_prices(counts: np.ndarray, tables: np.ndarray, rows: np.ndarray) -> list[float]:
    """Best-response ``price_of_sinking`` of each of one or more games, given
    by their action counts, one row per game, and their checked tables in
    the batch form: ``tables`` holds welfare, then each player's utility,
    one row each, and the games' states, laid end to end, read their
    entries from columns ``rows``.  One sink search and solve serve all,
    exact for each.  The search reads the games' best-response fibers
    (``best_response_fibers``) and builds no edge list; only when it spends
    ``_SWEEP_BUDGET`` is the kernel built, for ``_tarjan``.  Only sinks
    whose welfare varies are solved, on their rows alone, built from the
    fibers.  A sink of constant welfare takes no solve, and so no residual
    is certified for it: no vector of it is read."""
    sizes = counts.prod(axis=1)
    ends = np.cumsum(sizes)
    welfare, utilities = tables[0], tables[1:]
    optima = np.maximum.reduceat(welfare[rows], ends - sizes)
    if not np.all(optima > 0.0):
        raise DegenerateWelfareError("optimal welfare is zero")
    fibers = best_response_fibers(counts, utilities, rows)
    found = _fiber_sinks(fibers)
    if found is None:
        found = _tarjan_partition(stacked_kernel(counts, utilities[:, rows]))
    members, sinks = found

    def stationary(varying: np.ndarray) -> np.ndarray:
        states, lengths = members[np.repeat(varying, sinks)], sinks[varying]
        return _solve(_fiber_triples(fibers, states, lengths), states, lengths)

    expected = _expected_welfare(welfare[rows[members]], sinks, stationary)
    # Sinks come ordered by their smallest state, so game by game, and
    # every game has one.
    game = np.searchsorted(ends, members[np.cumsum(sinks) - sinks], side="right")
    worst = np.minimum.reduceat(expected, np.flatnonzero(np.diff(game, prepend=-1)))
    return (worst / optima).tolist()
