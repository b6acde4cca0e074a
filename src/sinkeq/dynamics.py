"""The Markov kernels that best- and better-response sets induce.

Each step of the response process picks a player uniformly at random; that
player then moves to an action drawn uniformly from its response set.  A
target reachable through several players therefore accumulates probability
``1 / (n * |set_i|)`` from every player i that can produce it.  Summing the
overlaps is the only convention that keeps rows stochastic; overlaps occur
exactly at self-loops, where a player's current action is already a
(best or better) response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidParametersError
from .game import NormalFormGame, stacked_tables

BEST = "best"
BETTER = "better"


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Sparse row-stochastic kernel over the joint-action space, in CSR form.

    Row ``a`` holds targets ``indices[indptr[a]:indptr[a + 1]]``, strictly
    increasing, with probabilities at the same positions of ``probs``; every
    target differs from ``a`` in at most one player coordinate.
    """

    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray

    @property
    def num_states(self) -> int:
        return self.indptr.size - 1

    def edges(self) -> Iterator[tuple[int, int, float]]:
        src = np.repeat(np.arange(self.num_states), np.diff(self.indptr))
        return zip(src.tolist(), self.indices.tolist(), self.probs.tolist())


def _check_tie_tol(tie_tol: float) -> None:
    """Refuse a ``tie_tol`` that is negative, NaN or infinite."""
    if not tie_tol >= 0:
        raise InvalidParametersError("tie_tol must be nonnegative")
    if tie_tol == math.inf:
        raise InvalidParametersError("tie_tol must be finite")


def build_kernel(
    game: NormalFormGame,
    mode: str = BEST,
    tie_tol: float = 0.0,
) -> TransitionKernel:
    """Transition kernel of the uniform-player response process.

    ``mode`` selects best-response (argmax within ``tie_tol``) or
    better-response (weak self-improvement) sets.  This is
    ``build_batch_kernel`` on one game.
    """
    return build_batch_kernel([game], mode, tie_tol)


def build_batch_kernel(
    games: Sequence[NormalFormGame],
    mode: str = BEST,
    tie_tol: float = 0.0,
) -> TransitionKernel:
    """Block-diagonal kernel of one or more games with one player count:
    each game's states follow those of the games before it, each block is
    the game's ``build_kernel``, bit for bit, and no edge joins two blocks.
    This is ``stacked_kernel`` of the games' action counts and utilities.
    """
    if mode not in (BEST, BETTER):
        raise InvalidParametersError(f"mode must be '{BEST}' or '{BETTER}'")
    _check_tie_tol(tie_tol)
    if not games:
        raise InvalidParametersError("need at least one game")
    n = games[0].num_players
    if any(game.num_players != n for game in games):
        raise InvalidParametersError("games in one batch must have the same number of players")
    counts, _, utilities = stacked_tables(games)
    return stacked_kernel(counts, utilities, mode, tie_tol)


def stacked_kernel(
    counts: np.ndarray, utilities: np.ndarray, mode: str = BEST, tie_tol: float = 0.0
) -> TransitionKernel:
    """``build_batch_kernel`` of games given by their action counts, one row
    per game, and their utility tables laid end to end, with a checked mode.
    One pass per player covers every game, with its stride and action count
    per state; where action counts differ, shorter fibers are padded and the
    padded slots masked out.  One sort of packed int64 keys orders the edges."""
    sizes = counts.prod(axis=1)
    # Exact: each entry of the running product is a multiple of the count.
    strides = np.cumprod(counts, axis=1) // counts
    num_states = int(sizes.sum())
    n = counts.shape[1]
    states = np.arange(num_states)
    local = states if len(counts) == 1 else states - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # One int64 key per edge packs its source, its target and the player
    # whose share it carries (n for a self-loop), in 63 bits unless the tables
    # exceed 16 GiB.  Keys never tie, as the targets of different players
    # differ in different coordinates.  A share is ``1 / denoms[player, src]``;
    # the self-loops' sums, in player order, are then written over theirs.
    state_bits = (num_states - 1).bit_length()
    player_bits = n.bit_length()
    keys = []
    denoms = np.ones((n + 1, num_states), np.min_scalar_type(n * int(counts.max())))
    diag = np.zeros(num_states)
    for player in range(n):
        c, s = counts[:, player], strides[:, player]
        width, ragged = int(c.max()), bool(c.max() > c.min())
        if not ragged and (s == s[0]).all():
            c, s = width, int(s[0])
        else:
            c, s = np.repeat(c, sizes), np.repeat(s, sizes)
        fiber = states - local // s % c * s + s * np.arange(width)[:, None]
        if ragged:
            # A padded slot points at the state itself, whose payoff is
            # already in the fiber, so the best payoff stays as it is.
            padded = np.arange(width)[:, None] >= c
            fiber = np.where(padded, states, fiber)
        val = utilities[player][fiber]
        # Best response: within tie_tol of the best payoff; better: weakly improving.
        mask = val >= (val.max(axis=0) - tie_tol if mode == BEST else utilities[player])
        if ragged:
            mask &= ~padded
        denoms[player] = denom = n * mask.sum(axis=0)
        own = fiber == states
        diag += np.where((mask & own).any(axis=0), 1.0 / denom, 0.0)
        mask &= ~own
        # Positions in the (actions, states) table, read as flat indices:
        # a gather by them is much cheaper than by the boolean mask.
        at = np.flatnonzero(mask)
        keys.append(((at % num_states << state_bits) | fiber.ravel()[at]) << player_bits | player)
    looped = np.flatnonzero(diag)
    keys.append(((looped << state_bits) | looped) << player_bits | n)
    loops = keys[-1]

    key = np.concatenate(keys)
    del keys
    key.sort()
    src = key >> (state_bits + player_bits)
    kernel = TransitionKernel(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(src, minlength=num_states)))),
        indices=(key >> player_bits) & ((1 << state_bits) - 1),
        probs=1.0 / denoms.ravel()[(key & ((1 << player_bits) - 1)) * num_states + src],
    )
    kernel.probs[np.searchsorted(key, loops)] = diag[looped]
    for arr in (kernel.indptr, kernel.indices, kernel.probs):
        arr.setflags(write=False)
    return kernel


def is_singleton_br(
    game: NormalFormGame, tie_tol: float = 0.0
) -> tuple[bool, tuple[int, int] | None]:
    """Whether every best-response set within ``tie_tol`` has exactly one
    element; ``tie_tol=0`` checks the exact argmax sets.

    Returns ``(True, None)`` or ``(False, (player, state))`` for the violation
    with the smallest state index (smallest player breaking ties).
    """
    _check_tie_tol(tie_tol)
    firsts = []
    for player, table in enumerate(game.utilities):
        v = game.action_axis(table, player)
        tied = (v >= v.max(axis=1, keepdims=True) - tie_tol).sum(axis=1) > 1
        if tied.any():
            # The first tied fiber (high, low) starts at state high * c * s + low.
            high, low = divmod(int(tied.argmax()), v.shape[2])
            firsts.append((high * v.shape[1] * v.shape[2] + low, player))
    if not firsts:
        return True, None
    state, player = min(firsts)
    return False, (player, state)
