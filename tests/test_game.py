import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkeq.errors import (
    DegenerateWelfareError,
    InvalidActionError,
    NoEquilibriumError,
    SchemaError,
    ValidationError,
)
from sinkeq.game import (
    NormalFormGame,
    enumerate_nash,
    game_from_dict,
    game_to_dict,
    is_nash,
    load_game,
    optimal_profile,
    price_of_anarchy,
)
from sinkeq.generators import counterexample_game, philox_rng, sample_random_game


def two_by_two_common(welfare=(1.0, 0.0, 0.0, 2.0)):
    w = np.asarray(welfare)
    return NormalFormGame((2, 2), w, np.vstack([w, w]))


def single_player(utility):
    u = np.asarray(utility, dtype=float)
    return NormalFormGame((len(u),), np.abs(u), u.reshape(1, -1))


def matching_pennies():
    u1 = np.array([1.0, -1.0, -1.0, 1.0])
    return NormalFormGame((2, 2), np.ones(4), np.vstack([u1, -u1]))


def brute_force_nash(game):
    """Independent oracle: check every profile against every deviation."""
    out = []
    for flat in range(game.num_profiles):
        ja = game.index_to_joint(flat)
        good = True
        for i in range(game.num_players):
            for k in range(game.action_counts[i]):
                dev = flat + (k - ja.coords[i]) * game.strides[i]
                if game.utilities[i][dev] > game.utilities[i][flat]:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(flat)
    return out


class TestIndexing:
    def test_mixed_radix_examples(self):
        g33 = NormalFormGame((3, 3), np.zeros(9), np.zeros((2, 9)))
        assert g33.joint_to_index((1, 2)) == 7
        g1 = NormalFormGame((2,), np.zeros(2), np.zeros((1, 2)))
        assert g1.joint_to_index((0,)) == 0
        g222 = NormalFormGame((2, 2, 2), np.zeros(8), np.zeros((3, 8)))
        assert g222.joint_to_index((1, 1, 1)) == 7

    def test_out_of_range_coordinate(self):
        g = two_by_two_common()
        with pytest.raises(InvalidActionError):
            g.joint_to_index((2, 0))
        with pytest.raises(InvalidActionError):
            g.index_to_joint(4)
        with pytest.raises(InvalidActionError):
            g.joint_to_index((0,))

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, counts):
        counts = tuple(counts)
        total = int(np.prod(counts))
        g = NormalFormGame(counts, np.zeros(total), np.zeros((len(counts), total)))
        for flat in range(total):
            ja = g.index_to_joint(flat)
            assert g.joint_to_index(ja.coords) == flat
            assert all(c < n for c, n in zip(ja.coords, counts))

    @pytest.mark.parametrize("counts", [(1,), (4,), (1, 1), (3, 1, 2), (2, 5, 1, 3), (6, 6, 6, 10)])
    def test_coords_match_index_to_joint(self, counts):
        total = int(np.prod(counts))
        g = NormalFormGame(counts, np.zeros(total), np.zeros((len(counts), total)))
        states = np.arange(total)
        expected = [list(g.index_to_joint(s).coords) for s in states]
        assert g.coords(states) == expected
        assert g.coords(tuple(states[::-3])) == expected[::-3]
        assert g.coords(np.array([], dtype=np.int64)) == []
        assert g.coords(()) == []

    def test_deviation_map(self):
        g = two_by_two_common()
        states = np.arange(g.num_profiles)
        np.testing.assert_array_equal(g.fiber(0, states)[1], [1, 1, 3, 3])
        np.testing.assert_array_equal(g.fiber(1, states)[0], [0, 1, 0, 1])
        np.testing.assert_array_equal(g.fiber(1, 3), [1, 3])


class TestValidation:
    def test_negative_welfare_rejected(self):
        with pytest.raises(ValidationError):
            NormalFormGame((2,), np.array([-1.0, 0.0]), np.zeros((1, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            NormalFormGame((2,), np.array([np.nan, 0.0]), np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            NormalFormGame((2,), np.zeros(2), np.array([[np.inf, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NormalFormGame((2, 2), np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            NormalFormGame((2, 2), np.zeros(4), np.zeros((1, 4)))

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NormalFormGame(
                (2,), np.zeros(2), np.zeros((1, 2)), action_labels=(("a",),)
            )

    def test_tables_frozen(self):
        g = two_by_two_common()
        with pytest.raises(ValueError):
            g.welfare[0] = 5.0


class TestOptimum:
    def test_single_player_argmax(self):
        g = single_player([0.0, 1.0])
        opt, w = optimal_profile(g)
        assert opt.flat == 1 and w == 1.0

    def test_gap_game_optimum(self):
        opt, w = optimal_profile(counterexample_game(1.0, 2.0))
        assert opt.coords == (0, 0) and w == 1.0

    def test_tie_breaks_to_smallest_index(self):
        g = two_by_two_common((5.0, 5.0, 5.0, 5.0))
        opt, w = optimal_profile(g)
        assert opt.flat == 0 and w == 5.0


class TestNash:
    def test_single_player(self):
        g = single_player([0.0, 1.0])
        assert is_nash(g, (1,))
        assert not is_nash(g, (0,))

    def test_gap_game_optimum_not_nash(self):
        g = counterexample_game(1.0, 2.0)
        assert not is_nash(g, (0, 0))

    def test_common_interest_maximum_is_nash(self):
        assert is_nash(two_by_two_common(), (1, 1))

    def test_matching_pennies_has_no_pure_nash(self):
        assert enumerate_nash(matching_pennies()) == []

    def test_common_interest_enumeration(self):
        flats = [ne.flat for ne in enumerate_nash(two_by_two_common())]
        assert flats == [0, 3]

    def test_gap_game_enumeration_empty(self):
        g = counterexample_game(1.0, 2.0)
        assert brute_force_nash(g) == []
        assert enumerate_nash(g) == []

    def test_enumeration_matches_brute_force(self):
        rng = philox_rng(11, 0)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            counts = tuple(int(rng.integers(2, 5)) for _ in range(n))
            if np.prod(counts) > 64:
                continue
            g = sample_random_game(rng, counts)
            assert [ne.flat for ne in enumerate_nash(g)] == brute_force_nash(g)
            for flat in range(g.num_profiles):
                assert is_nash(g, flat) == (flat in brute_force_nash(g))

    def test_common_interest_optimum_always_nash(self):
        rng = philox_rng(12, 0)
        for _ in range(30):
            counts = tuple(int(rng.integers(2, 4)) for _ in range(2))
            w = rng.uniform(0, 1, size=int(np.prod(counts)))
            g = NormalFormGame(counts, w, np.vstack([w] * 2))
            opt, _ = optimal_profile(g)
            assert is_nash(g, opt)


class TestPriceOfAnarchy:
    def test_common_interest_ratio(self):
        assert price_of_anarchy(two_by_two_common()) == pytest.approx(0.5)

    def test_single_player_is_one(self):
        assert price_of_anarchy(single_player([0.3, 0.9, 0.1])) == 1.0

    def test_unique_maximum_only_equilibrium(self):
        w = np.array([0.1, 0.2, 0.3, 4.0])
        g = NormalFormGame((2, 2), w, np.vstack([w, w]))
        assert price_of_anarchy(g) == 1.0

    def test_no_equilibrium_error(self):
        with pytest.raises(NoEquilibriumError):
            price_of_anarchy(matching_pennies())

    def test_degenerate_welfare_error(self):
        g = NormalFormGame((2,), np.zeros(2), np.zeros((1, 2)))
        with pytest.raises(DegenerateWelfareError):
            price_of_anarchy(g)


class TestJson:
    def test_round_trip(self):
        g = counterexample_game(0.5, 3.0)
        clone = game_from_dict(json.loads(json.dumps(game_to_dict(g))))
        assert clone.action_counts == g.action_counts
        np.testing.assert_array_equal(clone.welfare, g.welfare)
        np.testing.assert_array_equal(clone.utilities, g.utilities)
        assert clone.action_labels == g.action_labels

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_of_any_game(self, data):
        counts = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        total = int(np.prod(counts))

        def table(**bounds):
            return st.lists(st.floats(**bounds), min_size=total, max_size=total)

        welfare = data.draw(table(min_value=0.0, max_value=1e300))
        utilities = [
            data.draw(table(allow_nan=False, allow_infinity=False)) for _ in counts
        ]
        labels = data.draw(
            st.none() | st.tuples(*(st.lists(st.text(), min_size=c, max_size=c) for c in counts))
        )
        g = NormalFormGame(counts, welfare, utilities, labels)
        # The JSON text of one ``float(x)`` per entry.
        expected = {
            "action_counts": list(counts),
            "welfare": [float(x) for x in g.welfare],
            "utilities": [[float(x) for x in row] for row in g.utilities],
        }
        if labels is not None:
            expected["labels"] = [list(row) for row in g.action_labels]
        assert json.dumps(game_to_dict(g)) == json.dumps(expected)
        clone = game_from_dict(game_to_dict(g))
        assert clone.action_counts == g.action_counts
        np.testing.assert_array_equal(clone.welfare, g.welfare)
        np.testing.assert_array_equal(clone.utilities, g.utilities)
        assert clone.action_labels == g.action_labels

    def test_schema_diagnostics_name_the_field(self):
        with pytest.raises(SchemaError, match="welfare"):
            game_from_dict({"action_counts": [2], "welfare": [1.0], "utilities": [[0.0, 1.0]]})
        with pytest.raises(SchemaError, match=r"utilities\[0\]"):
            game_from_dict({"action_counts": [2], "welfare": [1.0, 2.0], "utilities": [[0.0]]})
        with pytest.raises(SchemaError, match="action_counts"):
            game_from_dict({"action_counts": [], "welfare": [], "utilities": []})
        with pytest.raises(SchemaError, match="unknown"):
            game_from_dict(
                {"action_counts": [2], "welfare": [0, 1], "utilities": [[0, 1]], "extra": 1}
            )

    def test_loader_reports_line_numbers(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "action_counts": [2,]\n}\n')
        with pytest.raises(SchemaError, match="line 2"):
            load_game(str(path))

    def test_loader_accepts_valid_file(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_dict(two_by_two_common())))
        g = load_game(str(path))
        assert g.action_counts == (2, 2)
