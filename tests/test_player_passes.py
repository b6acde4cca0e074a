"""The per-player passes (Nash mask, singleton best responses, deviation
totals) against per-state references built from ``joint_to_index``, and
their memory: each reduces a view of the player's action axis, so none
allocates a table of shape (actions, states)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_kernels import response_set

import sinkeq
from sinkeq.dynamics import BEST, is_singleton_br
from sinkeq.game import NormalFormGame, enumerate_nash, is_nash, optimal_profile
from sinkeq.smoothness import _deviation_totals

TIE_TOLS = (0.0, 0.5, 1.0, 3.0)


def integer_game(rng):
    """Small integer payoffs, so ties are common, with ragged action counts,
    one-action players and ``-0.0`` entries in every table."""
    counts = tuple(int(c) for c in rng.integers(1, 4, size=rng.integers(1, 5)))
    total = int(np.prod(counts))

    def table(low, size):
        values = rng.integers(low, 3, size=size).astype(float)
        return np.where((values == 0.0) & (rng.random(size) < 0.5), -0.0, values)

    return NormalFormGame(counts, table(0, total), table(-2, (len(counts), total)))


def deviated(game, state, player, action):
    coords = game.index_to_joint(state).coords
    return game.joint_to_index(coords[:player] + (action,) + coords[player + 1:])


def reference_nash(game):
    return [
        state
        for state in range(game.num_profiles)
        if all(
            game.index_to_joint(state).coords[player] in response_set(game, player, state)
            for player in range(game.num_players)
        )
    ]


def reference_singleton(game, tie_tol):
    for state in range(game.num_profiles):
        for player in range(game.num_players):
            if len(response_set(game, player, state, BEST, tie_tol)) > 1:
                return False, (player, state)
    return True, None


def reference_totals(game, target, common_interest):
    out = []
    for state in range(game.num_profiles):
        total = 0.0
        for player, action in enumerate(target.coords):
            table = game.welfare if common_interest else game.utilities[player]
            total += table[state] - table[deviated(game, state, player, action)]
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("seed", range(40))
def test_passes_match_per_state_references(seed):
    rng = np.random.default_rng(seed)
    game = integer_game(rng)

    nash = reference_nash(game)
    assert [ne.flat for ne in enumerate_nash(game)] == nash
    assert [s for s in range(game.num_profiles) if is_nash(game, s)] == nash

    for tie_tol in TIE_TOLS:
        assert is_singleton_br(game, tie_tol) == reference_singleton(game, tie_tol)

    other = game.index_to_joint(int(rng.integers(game.num_profiles)))
    for target in (optimal_profile(game)[0], other):
        for common_interest in (False, True):
            got = _deviation_totals(game, target, common_interest)
            want = reference_totals(game, target, common_interest)
            assert got.tobytes() == want.tobytes()


def test_first_tie_held_only_by_later_players():
    # Player 0 strictly prefers action 1 everywhere. Player 1 is tied where
    # (a0, a2) = (1, 0), at states 1 and 3; player 2 where (a0, a1) = (1, 0),
    # at states 1 and 5. The first tied state is 1, held by players 1 and 2.
    utilities = np.zeros((3, 8))
    for state in range(8):
        a0, a1, a2 = state & 1, state >> 1 & 1, state >> 2
        tied_1, tied_2 = (a0, a2) == (1, 0), (a0, a1) == (1, 0)
        utilities[:, state] = (a0, 0 if tied_1 else a1, 0 if tied_2 else a2)
    game = NormalFormGame((2, 2, 2), np.ones(8), utilities)
    assert reference_singleton(game, 0.0) == (False, (1, 1))
    assert is_singleton_br(game) == (False, (1, 1))
    # Within 1 every fiber ties, the state-0 fiber of player 0 first.
    assert is_singleton_br(game, 1.0) == (False, (0, 0))


def test_passes_allocate_no_per_action_tables():
    # Each pass reduces a view, so on a 65,536-state radio game (16 players,
    # 8 MB of utilities) the peak RSS of a fresh process barely moves; index
    # and value tables of shape (actions, states) would add 1 MB each.
    code = (
        "import resource\n"
        "from sinkeq.dynamics import is_singleton_br\n"
        "from sinkeq.game import enumerate_nash\n"
        "from sinkeq.generators import make_radio_game, sample_radio_instance\n"
        "from sinkeq.smoothness import best_smoothness\n"
        "game = make_radio_game(sample_radio_instance(16, 0.8, 1))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "enumerate_nash(game)\n"
        "is_singleton_br(game)\n"
        "best_smoothness(game, common_interest=True)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sinkeq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    rise_kb = int(done.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
    assert rise_kb < 4 * 1024
