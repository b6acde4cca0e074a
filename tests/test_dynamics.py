import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkeq.dynamics import (
    BEST,
    BETTER,
    build_batch_kernel,
    build_kernel,
    is_singleton_br,
)
from sinkeq.errors import InvalidParametersError
from sinkeq.game import NormalFormGame, is_nash
from sinkeq.generators import counterexample_game, philox_rng, sample_random_game

from reference_kernels import per_game_kernel, response_set, row, stack_kernels


def single_player(utility):
    u = np.asarray(utility, dtype=float)
    return NormalFormGame((len(u),), np.abs(u), u.reshape(1, -1))


def row_dict(kernel, state):
    return dict(row(kernel, state))


class TestBestResponseSet:
    """Best-response sets, read from kernel rows: a one-player game moves
    to each action of the set with equal probability."""

    def test_unique_maximum(self):
        k = build_kernel(single_player([0.0, 1.0]), BEST)
        assert row_dict(k, 0) == {1: 1.0}

    def test_constant_utility_gives_full_set(self):
        g = NormalFormGame((3,), np.zeros(3), np.zeros((1, 3)))
        assert row_dict(build_kernel(g, BEST), 0) == {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}

    def test_gap_game_row_player_at_cross_state(self):
        # Row utilities over (e1, e2, e3) against f2 are (0, 1, -2), so the
        # row player moves to e2; f2 is the column player's best reply to e1.
        g = counterexample_game(1.0, 2.0)
        cross = g.joint_to_index((0, 1))
        assert response_set(g, 0, cross) == (1,)
        k = build_kernel(g, BEST)
        assert row_dict(k, cross) == {g.joint_to_index((1, 1)): 0.5, cross: 0.5}

    def test_tie_tol_widens_the_set(self):
        g = single_player([0.0, 0.5, 1.0])
        assert row_dict(build_kernel(g, BEST, tie_tol=0.0), 0) == {2: 1.0}
        assert row_dict(build_kernel(g, BEST, tie_tol=0.5), 0) == {1: 0.5, 2: 0.5}
        with pytest.raises(InvalidParametersError):
            build_kernel(g, BEST, tie_tol=-1e-9)


class TestBetterResponseSet:
    """Better-response sets, read from kernel rows."""

    def test_always_contains_current_action(self):
        rng = philox_rng(21, 0)
        for _ in range(20):
            counts = tuple(int(rng.integers(2, 4)) for _ in range(2))
            k = build_kernel(sample_random_game(rng, counts), BETTER)
            for flat in range(k.num_states):
                assert flat in row_dict(k, flat)

    def test_single_player_examples(self):
        # Ties with the current payoff count as better responses.
        k = build_kernel(single_player([1.0, 0.0, 1.0, 2.0]), BETTER)
        assert row_dict(k, 0) == {0: 1 / 3, 2: 1 / 3, 3: 1 / 3}
        assert row_dict(k, 1) == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
        assert row_dict(k, 3) == {3: 1.0}


class TestKernel:
    def test_single_player_best_rows(self):
        k = build_kernel(single_player([0.0, 1.0]), BEST)
        assert row_dict(k, 0) == {1: 1.0}
        assert row_dict(k, 1) == {1: 1.0}

    def test_nash_state_is_absorbing(self):
        w = np.array([0.1, 0.2, 0.3, 4.0])
        g = NormalFormGame((2, 2), w, np.vstack([w, w]))
        k = build_kernel(g, BEST)
        assert row_dict(k, 3) == {3: 1.0}

    def test_split_row_with_two_way_tie(self):
        # Player 0 ties between actions 1 and 2; player 1 stays put.
        u0 = np.array([0.0, 5.0, 5.0, 0.0, 5.0, 5.0])
        u1 = np.array([7.0, 7.0, 7.0, 1.0, 1.0, 1.0])
        g = NormalFormGame((3, 2), np.zeros(6), np.vstack([u0, u1]))
        k = build_kernel(g, BEST)
        assert row_dict(k, 0) == {0: 0.5, 1: 0.25, 2: 0.25}

    def test_single_player_better_rows(self):
        k = build_kernel(single_player([0.0, 1.0]), BETTER)
        assert row_dict(k, 0) == {0: 0.5, 1: 0.5}
        assert row_dict(k, 1) == {1: 1.0}

    def test_rows_are_stochastic(self):
        rng = philox_rng(22, 0)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            counts = tuple(int(rng.integers(2, 5)) for _ in range(n))
            g = sample_random_game(rng, counts)
            for mode in (BEST, BETTER):
                k = build_kernel(g, mode)
                for entries in (row(k, s) for s in range(k.num_states)):
                    assert abs(sum(p for _, p in entries) - 1.0) <= 1e-12
                    assert all(p > 0 for _, p in entries)

    def test_transitions_change_at_most_one_coordinate(self):
        rng = philox_rng(23, 0)
        for _ in range(10):
            counts = tuple(int(rng.integers(2, 4)) for _ in range(3))
            g = sample_random_game(rng, counts)
            for mode in (BEST, BETTER):
                k = build_kernel(g, mode)
                for src, dst, _ in k.edges():
                    a = g.index_to_joint(src).coords
                    b = g.index_to_joint(dst).coords
                    assert sum(x != y for x, y in zip(a, b)) <= 1

    def test_self_loop_iff_nash_under_singleton_responses(self):
        rng = philox_rng(24, 0)
        for _ in range(25):
            counts = tuple(int(rng.integers(2, 4)) for _ in range(2))
            g = sample_random_game(rng, counts)
            if not is_singleton_br(g)[0]:
                continue
            k = build_kernel(g, BEST)
            for flat in range(g.num_profiles):
                absorbed = row_dict(k, flat).get(flat, 0.0) == 1.0
                assert absorbed == is_nash(g, flat)

    def test_better_rows_keep_a_self_loop(self):
        rng = philox_rng(25, 0)
        for _ in range(15):
            counts = tuple(int(rng.integers(2, 4)) for _ in range(2))
            g = sample_random_game(rng, counts)
            k = build_kernel(g, BETTER)
            for flat in range(g.num_profiles):
                floor = 0.0
                for i in range(g.num_players):
                    floor += 1.0 / len(response_set(g, i, flat, BETTER))
                floor /= g.num_players
                assert row_dict(k, flat).get(flat, 0.0) >= floor - 1e-12
                assert row_dict(k, flat).get(flat, 0.0) > 0.0

    def test_mode_validation(self):
        g = single_player([0.0, 1.0])
        with pytest.raises(InvalidParametersError):
            build_kernel(g, "softmax")
        with pytest.raises(InvalidParametersError):
            build_kernel(g, BEST, tie_tol=-0.1)


def assert_same_kernel(got, want):
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.probs, want.probs)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def games_of(draw, n):
    """A random game of ``n`` players with 1 to 4 actions each; payoffs on
    a grid of quarters, so best and better responses often tie."""
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    rng = philox_rng(draw(st.integers(0, 2**32)), 0)
    total = math.prod(counts)
    return NormalFormGame(
        counts, rng.uniform(0.0, 1.0, size=total), rng.integers(-4, 5, size=(n, total)) / 4
    )


@st.composite
def game_batches(draw):
    """One to five games that share a player count, with ragged action
    counts."""
    n = draw(st.integers(1, 3))
    return draw(st.lists(games_of(n), min_size=1, max_size=5))


class TestBatchKernel:
    """The batch builder against per-game kernels stacked block-diagonally;
    every array must match bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(game_batches(), st.sampled_from([BEST, BETTER]), st.sampled_from([0.0, 0.25, 0.6]))
    def test_equals_stacked_per_game_kernels(self, games, mode, tie_tol):
        want = stack_kernels([per_game_kernel(game, mode, tie_tol) for game in games])
        assert_same_kernel(build_batch_kernel(games, mode, tie_tol), want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(games_of), st.sampled_from([BEST, BETTER]))
    def test_a_batch_of_one_is_build_kernel(self, game, mode):
        kernel = build_kernel(game, mode, 0.25)
        assert_same_kernel(build_batch_kernel([game], mode, 0.25), kernel)
        assert_same_kernel(kernel, per_game_kernel(game, mode, 0.25))

    def test_ragged_batch_with_one_action_players(self):
        rng = philox_rng(3, 0)
        batches = [
            [(1, 4, 2), (3, 1, 1), (2, 2, 4), (1, 1, 1), (4, 3, 1)],
            # Each edge key packs two state fields and a player field.  The
            # player field widens at 4 and 8 players; 7 players fill it.
            # The state fields widen past 2^k states: batches of 16 and 17,
            # 128 and 129, 256 and 257 states, and of 1 and 2 states, whose
            # fields take no bit and one bit.
            [(1, 1, 1)],
            [(1, 1, 1, 1), (1, 1, 1, 1)],
            [(2, 2, 2, 2)],
            [(2, 2, 2, 2), (1, 1, 1, 1)],
            [(2, 1, 3, 1), (1, 2, 1, 5)],
            [(2, 1, 2, 1, 2, 1, 2), (1, 1, 1, 1, 1, 1, 1)],
            [(2, 2, 2, 2, 2, 2, 2)],
            [(2, 2, 2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1, 1)],
            [(2, 2, 2, 2, 2, 2, 2, 2)],
            [(2, 2, 2, 2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1, 1, 1)],
            [(4, 1, 2, 1, 2, 1, 3, 1), (2, 2, 1, 1, 1, 1, 2, 2)],
            # n times a response-set size passes 255, so the table of those
            # products takes 16 bits.
            [(130, 1), (3, 2)],
        ]
        for counts in batches:
            games = [sample_random_game(rng, c) for c in counts]
            for mode in (BEST, BETTER):
                want = stack_kernels([per_game_kernel(game, mode) for game in games])
                assert_same_kernel(build_batch_kernel(games, mode), want)

    def test_mixed_player_counts_are_refused(self):
        games = [single_player([0.0, 1.0]), counterexample_game(1.0, 2.0)]
        with pytest.raises(
            InvalidParametersError,
            match=r"^games in one batch must have the same number of players$",
        ):
            build_batch_kernel(games)

    def test_refusals_match_build_kernel(self):
        g = single_player([0.0, 1.0])
        with pytest.raises(InvalidParametersError, match=r"^need at least one game$"):
            build_batch_kernel([])
        for mode, tie_tol in (("softmax", 0.0), (BEST, -0.1), (BEST, math.inf), (BETTER, math.nan)):
            with pytest.raises(InvalidParametersError) as alone:
                build_kernel(g, mode, tie_tol)
            with pytest.raises(InvalidParametersError) as batched:
                build_batch_kernel([g, g], mode, tie_tol)
            assert str(batched.value) == str(alone.value)


class TestSingletonCheck:
    def test_constant_player_breaks_it(self):
        u0 = np.zeros(4)
        u1 = np.array([0.0, 1.0, 2.0, 3.0])
        g = NormalFormGame((2, 2), np.ones(4), np.vstack([u0, u1]))
        flag, witness = is_singleton_br(g)
        assert not flag
        assert witness == (0, 0)

    def test_gap_game_is_singleton(self):
        assert is_singleton_br(counterexample_game(1.0, 2.0)) == (True, None)

    def test_single_player_strict(self):
        assert is_singleton_br(single_player([0.0, 1.0])) == (True, None)

    def test_tie_tol_widens_the_check(self):
        g = single_player([0.0, 0.5, 1.0])
        assert is_singleton_br(g, tie_tol=0.4) == (True, None)
        assert is_singleton_br(g, tie_tol=0.5) == (False, (0, 0))
        with pytest.raises(InvalidParametersError):
            is_singleton_br(g, tie_tol=-1e-9)
