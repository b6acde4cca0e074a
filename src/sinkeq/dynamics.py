"""Best- and better-response sets and the Markov kernels they induce.

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
from .game import JointAction, NormalFormGame

BEST = "best"
BETTER = "better"


@dataclass(frozen=True)
class ResponseSet:
    """A player's admissible replies at some state."""

    player: int
    actions: tuple[int, ...]


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

    def row(self, state: int) -> tuple[tuple[int, float], ...]:
        lo, hi = self.indptr[state], self.indptr[state + 1]
        return tuple(zip(self.indices[lo:hi].tolist(), self.probs[lo:hi].tolist()))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        src = np.repeat(np.arange(self.num_states), np.diff(self.indptr))
        return zip(src.tolist(), self.indices.tolist(), self.probs.tolist())


def _response_mask(
    game: NormalFormGame, player: int, mode: str, tie_tol: float, states
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean ``mask[k, ...]``: action k is in the player's response set at
    each of ``states``.

    Also returns the player's fiber of ``states``, the targets of those
    actions.  ``tie_tol`` must be a finite nonnegative number in either
    mode, so NaN and infinity are refused.
    """
    if not tie_tol >= 0:
        raise InvalidParametersError("tie_tol must be nonnegative")
    if tie_tol == math.inf:
        raise InvalidParametersError("tie_tol must be finite")
    fiber = game.fiber(player, states)
    table = game.utilities[player]
    val = table[fiber]
    if mode == BEST:
        mask = val >= val.max(axis=0) - tie_tol
    else:
        mask = val >= table[states]
    return mask, fiber


def best_response_set(
    game: NormalFormGame,
    player: int,
    action: JointAction | int,
    tie_tol: float = 0.0,
) -> ResponseSet:
    """Actions within ``tie_tol`` of the player's best payoff at the state.

    With the default ``tie_tol=0`` this is the exact argmax set.
    """
    mask, _ = _response_mask(game, player, BEST, tie_tol, game.joint(action).flat)
    return ResponseSet(player=player, actions=tuple(np.flatnonzero(mask).tolist()))


def better_response_set(
    game: NormalFormGame,
    player: int,
    action: JointAction | int,
) -> ResponseSet:
    """Actions weakly improving the player's payoff; always contains the
    current action."""
    mask, _ = _response_mask(game, player, BETTER, 0.0, game.joint(action).flat)
    return ResponseSet(player=player, actions=tuple(np.flatnonzero(mask).tolist()))


def build_kernel(
    game: NormalFormGame,
    mode: str = BEST,
    tie_tol: float = 0.0,
) -> TransitionKernel:
    """Transition kernel of the uniform-player response process.

    ``mode`` selects best-response (argmax within ``tie_tol``) or
    better-response (weak self-improvement) sets.
    """
    if mode not in (BEST, BETTER):
        raise InvalidParametersError(f"mode must be '{BEST}' or '{BETTER}'")

    n = game.num_players
    num_states = game.num_profiles
    states = np.arange(num_states)
    srcs, dsts, probs = [], [], []
    # Off-diagonal targets come from exactly one player; only self-loops
    # collect shares from several, summed in player order.
    diag = np.zeros(num_states)
    for player in range(n):
        mask, fiber = _response_mask(game, player, mode, tie_tol, states)
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
    kernel = TransitionKernel(
        indptr=np.concatenate(([0], np.cumsum(np.bincount(src, minlength=num_states)))),
        indices=dst[order],
        probs=np.concatenate(probs)[order],
    )
    for arr in (kernel.indptr, kernel.indices, kernel.probs):
        arr.setflags(write=False)
    return kernel


def stack_kernels(kernels: Sequence[TransitionKernel]) -> TransitionKernel:
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


def is_singleton_br(
    game: NormalFormGame, tie_tol: float = 0.0
) -> tuple[bool, tuple[int, int] | None]:
    """Whether every best-response set within ``tie_tol`` has exactly one
    element; ``tie_tol=0`` checks the exact argmax sets.

    Returns ``(True, None)`` or ``(False, (player, state))`` for the violation
    with the smallest state index (smallest player breaking ties).
    """
    states = np.arange(game.num_profiles)
    counts = [
        _response_mask(game, player, BEST, tie_tol, states)[0].sum(axis=0)
        for player in range(game.num_players)
    ]
    stacked = np.vstack(counts) > 1
    broken_states = np.flatnonzero(stacked.any(axis=0))
    if broken_states.size == 0:
        return True, None
    state = int(broken_states[0])
    player = int(np.flatnonzero(stacked[:, state])[0])
    return False, (player, state)
