"""Per-game kernel construction and block-diagonal stacking, kept as
references for the batch kernel builder and for tests that stack kernels
of any shape, with a per-state response-set oracle, a kernel row reader,
the batch form of games' tables and the stationary solve of given
supports."""

import numpy as np

from sinkeq.dynamics import BEST, TransitionKernel
from sinkeq.sinks import _solve, _support_triples


def stacked_tables(games):
    """Games with one player count in the batch form ``batch_prices`` reads:
    their action counts, one row per game, their welfare and utility tables
    laid end to end, one row each, and ``rows``, each state's own column."""
    counts = np.array([game.action_counts for game in games])
    tables = np.hstack([np.vstack([game.welfare, game.utilities]) for game in games])
    return counts, tables, np.arange(tables.shape[1])


def solve_supports(kernel, supports):
    """The stationary vector of each of ``supports``, on its states in
    increasing order, from one solve of them all, as ``sink_equilibria``
    runs it."""
    rows = np.concatenate([np.sort(support) for support in supports]).astype(np.int64)
    sizes = np.array([len(support) for support in supports])
    pi = _solve(_support_triples(kernel, rows, sizes), rows, sizes)
    return np.split(pi, np.cumsum(sizes)[:-1])


def row(kernel, state):
    """Row ``state`` of the kernel as ``(target, probability)`` pairs, in
    increasing target order."""
    lo, hi = kernel.indptr[state], kernel.indptr[state + 1]
    return tuple(zip(kernel.indices[lo:hi].tolist(), kernel.probs[lo:hi].tolist()))


def response_set(game, player, state, mode=BEST, tie_tol=0.0):
    """The player's response set at flat ``state``: its actions within
    ``tie_tol`` of its best payoff there, or (better mode) those paying at
    least its current payoff, read from its utility table one action at a
    time."""
    coords = game.index_to_joint(state).coords
    table = game.utilities[player]
    values = [
        table[game.joint_to_index(coords[:player] + (k,) + coords[player + 1:])]
        for k in range(game.action_counts[player])
    ]
    floor = max(values) - tie_tol if mode == BEST else table[state]
    return tuple(k for k, v in enumerate(values) if v >= floor)


def per_game_kernel(game, mode=BEST, tie_tol=0.0):
    """One game's response kernel, built player by player over its own
    states, with the edges sorted by one global ``argsort``."""
    n = game.num_players
    num_states = game.num_profiles
    states = np.arange(num_states)
    srcs, dsts, probs = [], [], []
    diag = np.zeros(num_states)
    for player in range(n):
        # Each state with the player's action replaced by each of its actions.
        s, c = game.strides[player], game.action_counts[player]
        fiber = states - states // s % c * s + s * np.arange(c)[:, None]
        table = game.utilities[player]
        val = table[fiber]
        if mode == BEST:
            mask = val >= val.max(axis=0) - tie_tol
        else:
            mask = val >= table[states]
        share = 1.0 / (n * mask.sum(axis=0))
        own = fiber == states
        diag += np.where((mask & own).any(axis=0), share, 0.0)
        mask &= ~own
        src = np.nonzero(mask)[1]
        srcs.append(src)
        dsts.append(fiber[mask])
        probs.append(share[src])
    looped = np.flatnonzero(diag)
    srcs.append(looped)
    dsts.append(looped)
    probs.append(diag[looped])

    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    order = np.argsort(src * num_states + dst)
    return TransitionKernel(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(src, minlength=num_states)))),
        indices=dst[order],
        probs=np.concatenate(probs)[order],
    )


def stack_kernels(kernels):
    """Block-diagonal kernel of ``kernels``: each one's states follow those
    of the kernels before it, and no edge joins two blocks.  One kernel is
    returned as it is."""
    if len(kernels) == 1:
        return kernels[0]
    state_offsets = np.cumsum([0] + [k.num_states for k in kernels])
    edge_offsets = np.cumsum([0] + [k.indices.size for k in kernels])
    kernel = TransitionKernel(
        indptr=np.concatenate(
            [[0]] + [k.indptr[1:] + e for k, e in zip(kernels, edge_offsets.tolist())]
        ),
        indices=np.concatenate(
            [k.indices + s for k, s in zip(kernels, state_offsets.tolist())]
        ),
        probs=np.concatenate([k.probs for k in kernels]),
    )
    for arr in (kernel.indptr, kernel.indices, kernel.probs):
        arr.setflags(write=False)
    return kernel
