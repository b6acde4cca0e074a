import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sinkeq.generators as generators
import sinkeq.sinks as sinks
import sinkeq.streams as streams
from sinkeq.dynamics import BEST
from sinkeq.errors import (
    DegenerateWelfareError,
    GameAnalysisError,
    InvalidParametersError,
    ValidationError,
)
from sinkeq.game import NormalFormGame
from sinkeq.generators import (
    BOUND_TOL,
    MAX_PROFILES,
    CoveringInstance,
    CoveringMonteCarloSpec,
    MonteCarloSummary,
    RadioInstance,
    RadioMonteCarloSpec,
    TrialResult,
    _checked_profiles,
    counterexample_game,
    covering_sinking_bound,
    expected_covering_misalignment,
    make_covering_game,
    make_radio_game,
    philox_rng,
    radio_sinking_bound,
    run_monte_carlo,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)
from sinkeq.sinks import price_of_sinking
from sinkeq.smoothness import measure_misalignment

from samplers import sample_near_common_game, trial_seed

FOLDED_MEAN_3_REGIONS = 0.034998928235261174  # bias = scale = 0.01, three regions


class TestCounterexampleGame:
    def test_welfare_table_values(self):
        g = counterexample_game(1.0, 2.0)
        assert g.welfare[g.joint_to_index((0, 0))] == 1.0
        assert g.welfare[g.joint_to_index((0, 1))] == 0.75
        assert g.welfare[g.joint_to_index((1, 0))] == 0.75
        assert sum(g.welfare) == pytest.approx(2.5)

    def test_utility_table_values(self):
        g = counterexample_game(1.0, 2.0)
        center = g.joint_to_index((1, 1))
        assert (g.utilities[0][center], g.utilities[1][center]) == (1.0, -2.0)
        cross = g.joint_to_index((0, 1))
        assert (g.utilities[0][cross], g.utilities[1][cross]) == (0.0, 0.5)

    def test_zero_lambda_welfare(self):
        g = counterexample_game(0.0, 2.0)
        assert g.welfare[g.joint_to_index((0, 1))] == 0.5

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParametersError):
            counterexample_game(2.0, 2.0)
        with pytest.raises(InvalidParametersError):
            counterexample_game(-1.0, 2.0)


class TestCoveringGames:
    def test_zero_noise_is_common_interest(self):
        inst = sample_covering_instance(2, 3, 0.0, 0.0, seed=7)
        g = make_covering_game(inst)
        for i in range(g.num_players):
            np.testing.assert_array_equal(g.utilities[i], g.welfare)

    def test_union_semantics_single_region(self):
        inst = CoveringInstance(
            values=(1.0,),
            options=(((), (0,)), ((), (0,))),
            bias=0.0,
            scale=0.0,
            seed=0,
        )
        g = make_covering_game(inst)
        # Welfare is 1 unless both agents sit out.
        assert g.welfare[g.joint_to_index((0, 0))] == 0.0
        for coords in [(1, 0), (0, 1), (1, 1)]:
            assert g.welfare[g.joint_to_index(coords)] == 1.0

    def test_estimates_reproduce_bit_exact(self):
        inst = sample_covering_instance(2, 3, 0.01, 0.01, seed=99)
        g1 = make_covering_game(inst)
        g2 = make_covering_game(inst)
        np.testing.assert_array_equal(g1.utilities, g2.utilities)

    def test_distinct_seeds_differ(self):
        a = make_covering_game(sample_covering_instance(2, 3, 0.01, 0.01, seed=1))
        b = make_covering_game(sample_covering_instance(2, 3, 0.01, 0.01, seed=2))
        assert not np.array_equal(a.utilities, b.utilities)

    def test_coverage_value_is_monotone_submodular(self):
        rng = philox_rng(51, 0)
        for _ in range(5):
            m = int(rng.integers(2, 7))
            values = rng.uniform(0.0, 1.0, size=m)

            def cover(subset):
                return float(values[list(subset)].sum()) if subset else 0.0

            subsets = [
                frozenset(r for r in range(m) if mask >> r & 1)
                for mask in range(1 << m)
            ]
            for small in subsets:
                for large in subsets:
                    if not small <= large:
                        continue
                    assert cover(small) <= cover(large) + 1e-12
                    for x in range(m):
                        gain_small = cover(small | {x}) - cover(small)
                        gain_large = cover(large | {x}) - cover(large)
                        assert gain_small >= gain_large - 1e-12

    def test_instance_validation(self):
        with pytest.raises(ValidationError):
            CoveringInstance(values=(), options=((),), bias=0, scale=0, seed=0)
        with pytest.raises(ValidationError):
            CoveringInstance(values=(1.0,), options=((),), bias=0, scale=0, seed=0)
        with pytest.raises(ValidationError):
            CoveringInstance(
                values=(1.0,), options=(((3,),),), bias=0, scale=0, seed=0
            )


def reference_covering_tables(instance):
    """Per-profile loop: OR the chosen options' region masks, then sum the
    true values and each agent's estimates over that union."""
    n, m = instance.num_agents, instance.num_regions
    estimates = reference_covering_estimates(instance)
    values = np.asarray(instance.values)
    option_masks = []
    for opts in instance.options:
        masks = np.zeros((len(opts), m), dtype=bool)
        for k, subset in enumerate(opts):
            masks[k, list(subset)] = True
        option_masks.append(masks)
    counts = [len(opts) for opts in instance.options]
    total = math.prod(counts)
    welfare = np.zeros(total)
    utilities = np.zeros((n, total))
    for flat in range(total):
        rest = flat
        union = np.zeros(m, dtype=bool)
        for i, c in enumerate(counts):
            union |= option_masks[i][rest % c]
            rest //= c
        welfare[flat] = values[union].sum()
        for i in range(n):
            utilities[i, flat] = estimates[i][union].sum()
    return welfare, utilities


def reference_covering_options(num_agents, num_regions, seed, options_per_agent=4):
    """The draws of ``sample_covering_instance``, deduplicated by scanning the
    list of subsets seen so far."""
    return reference_covering_draws(num_agents, num_regions, seed, options_per_agent)[0]


def reference_covering_draws(num_agents, num_regions, seed, options_per_agent):
    """``reference_covering_options`` from one block draw at a time, and the
    number of all-zero blocks drawn again."""
    rng = philox_rng(seed, 0)
    options = []
    redraws = 0
    for _ in range(num_agents):
        while True:
            masks = rng.integers(0, 2, size=(options_per_agent, num_regions))
            if masks.any():
                break
            redraws += 1
        seen = []
        for row in masks:
            subset = tuple(int(r) for r in np.flatnonzero(row))
            if subset not in seen:
                seen.append(subset)
        options.append(tuple(seen))
    return tuple(options), redraws


def reference_covering_estimates(instance):
    """The estimates as ``rng.normal`` draws them over broadcast means and
    deviations."""
    rng = philox_rng(instance.seed, 1)
    values = np.asarray(instance.values)
    n, m = instance.num_agents, instance.num_regions
    return rng.normal(
        loc=np.broadcast_to(values + instance.bias, (n, m)),
        scale=np.broadcast_to(instance.scale * values, (n, m)),
    )


def assert_matches_reference(instance):
    game = make_covering_game(instance)
    welfare, utilities = reference_covering_tables(instance)
    assert game.action_counts == tuple(len(opts) for opts in instance.options)
    assert np.array_equal(game.welfare, welfare)
    assert np.array_equal(game.utilities, utilities)


@st.composite
def covering_instances(draw):
    m = draw(st.integers(1, 70))
    subsets = st.lists(st.integers(0, m - 1), max_size=6).map(tuple)
    options = draw(
        st.lists(st.lists(subsets, min_size=1, max_size=4).map(tuple), min_size=1, max_size=3)
    )
    return CoveringInstance(
        values=tuple(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m))),
        options=tuple(options),
        bias=draw(st.floats(-1.0, 1.0)),
        scale=draw(st.floats(0.0, 2.0)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestCoveringReference:
    """The covering generators against the per-profile loop and list-scan
    dedupe they replace.  Tables must match bit for bit: each union's sums
    must add the same elements in the same order."""

    @pytest.mark.parametrize("master_seed", range(1, 11))
    def test_benchmark_shaped_tables(self, master_seed):
        for trial in range(50):
            seed = trial_seed(master_seed, trial)
            assert_matches_reference(sample_covering_instance(4, 8, 0.01, 0.01, seed))

    def test_benchmark_shaped_options(self):
        for master_seed in range(1, 11):
            for trial in range(50):
                seed = trial_seed(master_seed, trial)
                instance = sample_covering_instance(4, 8, 0.01, 0.01, seed)
                assert instance.options == reference_covering_options(4, 8, seed)

    @pytest.mark.parametrize(
        "values, options",
        [
            ((2.0, 0.5, 1.5), (((0, 2), (1,), ()),)),
            ((1.0,), (((), (0,)), ((0,),), ((),))),
            # Repeated regions collapse, so agent 0 gets (1, 3) twice.
            ((0.3, 0.7, 1.1, 0.2), (((1, 1, 3), (3, 1)), ((0, 0), (), (2, 2, 2)))),
        ],
        ids=["one-agent", "one-region", "duplicate-regions"],
    )
    def test_edge_shapes(self, values, options):
        assert_matches_reference(
            CoveringInstance(values, options, bias=0.02, scale=0.3, seed=5)
        )

    def test_regions_past_one_machine_word(self):
        instance = sample_covering_instance(3, 70, 0.01, 0.2, seed=8, options_per_agent=5)
        assert instance.options == reference_covering_options(3, 70, 8, options_per_agent=5)
        assert_matches_reference(instance)
        # Options that differ only in regions 63 and up must stay distinct.
        values = tuple(np.linspace(0.1, 1.0, 72))
        options = (((64,), (65,), (0, 64, 71)), ((), (63,), (71,)))
        assert_matches_reference(CoveringInstance(values, options, 0.0, 0.1, seed=2))

    @settings(max_examples=60, deadline=None)
    @given(covering_instances())
    def test_random_instances(self, instance):
        assert_matches_reference(instance)

    @pytest.mark.parametrize("options_per_agent", [1, 4])
    @pytest.mark.parametrize("num_regions", [1, 2])
    def test_options_with_redrawn_blocks(self, num_regions, options_per_agent):
        # With few bits a block, many blocks are all zero and drawn again.
        redrawn = 0
        for num_agents in (1, 3, 5):
            for seed in range(200):
                instance = sample_covering_instance(
                    num_agents, num_regions, 0.01, 0.01, seed, options_per_agent
                )
                options, redraws = reference_covering_draws(
                    num_agents, num_regions, seed, options_per_agent
                )
                assert instance.options == options
                redrawn += redraws > 0
        assert redrawn > 0

    def test_estimates_match_the_broadcast_normal_draw(self):
        instances = [
            sample_covering_instance(4, 8, 0.01, 0.01, trial_seed(1, trial)) for trial in range(20)
        ]
        instances += [
            CoveringInstance((0.0, 0.5, 3.0, 1e-300, 7e5), (((0,),),) * 3, bias, scale, seed)
            for bias, scale, seed in [(0.0, 0.0, 1), (-0.3, 2.0, 2), (1e-9, 1e9, 3), (5.0, 0.0, 4)]
        ]
        for instance in instances:
            assert instance.estimates.tobytes() == reference_covering_estimates(instance).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(covering_instances())
    def test_random_estimates_match_the_broadcast_normal_draw(self, instance):
        assert instance.estimates.tobytes() == reference_covering_estimates(instance).tobytes()


class TestCoveringEstimates:
    """``CoveringInstance.estimates``: given, or drawn from spawn child 1 of
    the seed."""

    values, options = (0.5, 1.0, 2.0), (((0, 2), (1,)), ((1,),))

    def instance(self, **kwargs):
        return CoveringInstance(self.values, self.options, bias=0.1, scale=0.3, **kwargs)

    def test_given_estimates_are_kept(self):
        given = np.arange(6.0).reshape(2, 3)
        assert self.instance(seed=1, estimates=given).estimates is given
        listed = self.instance(seed=1, estimates=given.tolist()).estimates
        assert listed.dtype == np.float64 and listed.tobytes() == given.tobytes()

    @pytest.mark.parametrize("shape", [(3, 2), (2, 4), (6,), (1, 2, 3)])
    def test_wrong_shapes_are_refused(self, shape):
        with pytest.raises(ValidationError, match=r"^estimates must have shape \(2, 3\), got "):
            self.instance(seed=1, estimates=np.zeros(shape))

    def test_estimates_are_read_only(self):
        for instance in (self.instance(seed=1), self.instance(seed=1, estimates=np.ones((2, 3)))):
            with pytest.raises(ValueError):
                instance.estimates[0, 0] = 1.0

    def test_replace_keeps_them_and_equality_ignores_them(self):
        instance = self.instance(seed=1)
        replaced = dataclasses.replace(instance, bias=0.2)
        assert replaced.estimates.tobytes() == instance.estimates.tobytes()
        other = self.instance(seed=1, estimates=np.zeros((2, 3)))
        assert other == instance and hash(other) == hash(instance)
        assert other.estimates.tobytes() != instance.estimates.tobytes()

    def test_seeds_past_uint64(self):
        values = np.array(self.values)
        for seed in (2**64, 2**64 + 5, 2**200 + 1):
            z = philox_rng(seed, 1).standard_normal((2, 3))
            expected = (values + 0.1) + (0.3 * values) * z
            assert self.instance(seed=seed).estimates.tobytes() == expected.tobytes()


class TestNonFiniteFields:
    """Each instance field refuses NaN and infinity when the instance is
    built, naming the field."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_covering_estimates(self, bad):
        estimates = np.array([[1.0, bad]])
        with pytest.raises(ValidationError, match=r"^estimates must be finite$"):
            CoveringInstance((1.0, 2.0), (((0,), (1,)),), 0.0, 0.0, 1, estimates)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_covering_values(self, bad):
        with pytest.raises(ValidationError, match=r"^region values must be finite$"):
            CoveringInstance((1.0, bad), (((0,), (1,)),), 0.0, 0.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_radio_weights(self, bad):
        weights = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValidationError, match=r"^weights must be finite$"):
            RadioInstance(weights, 0.5, np.zeros((2, 2, 2)))

    def test_radio_estimates(self):
        estimates = np.zeros((2, 2, 2))
        estimates[1, 0, 1] = math.nan
        with pytest.raises(ValidationError, match=r"^estimates must be finite$"):
            RadioInstance(np.zeros((2, 2)), 0.5, estimates)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_covering_union_sums_past_the_float_range(self):
        # Both estimates are finite, but their sum over the one union is not:
        # the sum is refused, with no overflow warning on the way.
        instance = CoveringInstance((1.0, 1.0), (((0, 1),),), 0.0, 0.0, 0, np.full((1, 2), 1e308))
        with pytest.raises(ValidationError, match=r"^utility entries must be finite$"):
            make_covering_game(instance)


@pytest.mark.parametrize(
    "sample",
    [
        lambda seed: sample_covering_instance(2, 3, 0.0, 0.0, seed=seed),
        lambda seed: sample_radio_instance(3, 0.8, seed),
        lambda seed: CoveringInstance((1.0,), (((0,),),), bias=0.0, scale=0.0, seed=seed),
        lambda seed: philox_rng(seed, 0),
    ],
    ids=["covering-sampler", "radio-sampler", "covering-instance", "philox-rng"],
)
def test_negative_seeds_are_refused(sample):
    with pytest.raises(InvalidParametersError, match=r"^seed must be nonnegative$"):
        sample(-1)


def test_builders_draw_nothing(monkeypatch):
    covering = [sample_covering_instance(4, 8, 0.01, 0.01, seed) for seed in range(5)]
    covering.append(CoveringInstance((0.5, 2.0), (((0,), (1,)),), 0.1, 0.2, 3, np.ones((1, 2))))
    radio = [sample_radio_instance(n, 0.8, n) for n in (2, 5)]
    expected = [make_covering_game(instance) for instance in covering]
    expected += [make_radio_game(instance) for instance in radio]

    def refuse(*args, **kwargs):
        raise AssertionError("a game builder drew")

    for name in ("philox_rng", "philox_generator", "rekeyed"):
        monkeypatch.setattr(generators, name, refuse)
    games = [make_covering_game(instance) for instance in covering]
    games += [make_radio_game(instance) for instance in radio]
    for game, alone in zip(games, expected, strict=True):
        assert game.welfare.tobytes() == alone.welfare.tobytes()
        assert game.utilities.tobytes() == alone.utilities.tobytes()


@pytest.mark.parametrize("sizes", [(8, 9), (127, 129, 300), (8191, 8193, 9000)])
def test_union_sums_match_reference_across_summation_blocks(sizes):
    # Sums of 8 and more terms are unrolled, of more than 128 split in
    # halves, and of more than 8,192 cut at numpy's buffer size; every union
    # size must add in the order of ``x[mask].sum()``.
    m = max(sizes) + 1
    values = tuple(philox_rng(9, 0).uniform(0.0, 1.0, size=m))
    options = (tuple(tuple(range(k)) for k in sizes), ((), (m - 1,)))
    assert_matches_reference(CoveringInstance(values, options, bias=0.02, scale=0.3, seed=4))


def test_union_sums_in_small_blocks_match_reference(monkeypatch):
    monkeypatch.setattr(generators, "_SUM_BLOCK", 7)
    for seed in range(3):
        assert_matches_reference(sample_covering_instance(4, 8, 0.01, 0.01, seed))
    assert_matches_reference(sample_covering_instance(3, 70, 0.01, 0.2, 8, options_per_agent=5))


def covering_batch(instances):
    """The action counts and tables of each of ``instances``, with one agent
    count, built together by ``_covering_tables`` as a Monte Carlo batch is
    built.  A game over fewer regions than the widest gets the missing
    regions with value and estimates 0, which none of its options covers."""
    n, m = instances[0].num_agents, max(instance.num_regions for instance in instances)
    counts = np.array([[len(opts) for opts in instance.options] for instance in instances])
    tables = np.zeros((len(instances), 1 + n, m))
    masks = np.zeros((int(counts.sum()), m), dtype=bool)
    options = itertools.chain.from_iterable(instance.options for instance in instances)
    for mask, subset in zip(masks, itertools.chain.from_iterable(options), strict=True):
        mask[list(subset)] = True
    for table, instance in zip(tables, instances):
        table[0, : instance.num_regions] = instance.values
        table[1:, : instance.num_regions] = instance.estimates
    columns = generators._covering_tables(tables, np.packbits(masks, axis=1), counts)
    return counts, np.split(columns, np.cumsum(counts.prod(axis=1))[:-1], axis=1)


def assert_batch_matches_alone(instances):
    """A batch gives each instance, bit for bit, the tables that
    ``make_covering_game`` gives it alone."""
    counts, tables = covering_batch(instances)
    for row, table, instance in zip(counts.tolist(), tables, instances, strict=True):
        alone = make_covering_game(instance)
        assert tuple(row) == alone.action_counts
        assert table[0].tobytes() == alone.welfare.tobytes()
        assert table[1:].tobytes() == alone.utilities.tobytes()


def wide_instances(m, seeds):
    """Covering instances over ``m`` regions with an empty option for each
    agent and one option of every region, so unions run from 0 to m."""
    values = tuple(philox_rng(m, 1).uniform(0.1, 1.0, size=m))
    out = []
    for seed in seeds:
        drawn = sample_covering_instance(3, m, 0.01, 0.2, seed, options_per_agent=5)
        options = tuple(opts + ((), tuple(range(m))) for opts in drawn.options)
        out.append(CoveringInstance(values, options, bias=0.02, scale=0.3, seed=seed))
    return out


class TestBatchCoveringGames:
    """The table build of a batch against the one-instance builder and the
    per-profile reference loop."""

    @pytest.mark.parametrize("m", [1, 8, 9, 17])
    def test_region_counts(self, m):
        instances = wide_instances(m, range(6))
        assert_batch_matches_alone(instances)
        for instance in instances[:2]:
            assert_matches_reference(instance)

    def test_mixed_region_counts(self):
        # Games of 1, 8, 9 and 17 regions in one batch of three-byte union
        # rows, in both orders, with unions of 8 regions and more; the
        # regions a game gains in the batch add nothing to its sums.
        instances = [wide_instances(m, [m])[0] for m in (1, 8, 9, 17)]
        assert max(len(subset) for opts in instances[-1].options for subset in opts) >= 8
        assert_batch_matches_alone(instances)
        assert_batch_matches_alone(instances[::-1])

    def test_benchmark_shaped_batches(self):
        for master_seed in (1, 1009):
            instances = [
                sample_covering_instance(4, 8, 0.01, 0.01, trial_seed(master_seed, trial))
                for trial in range(50)
            ]
            assert_batch_matches_alone(instances)

    def test_small_summation_blocks(self, monkeypatch):
        monkeypatch.setattr(generators, "_SUM_BLOCK", 7)
        assert_batch_matches_alone(wide_instances(17, range(4)) + wide_instances(9, range(2)))

    def test_game_key_holds_a_full_batch_of_one_profile_games(self):
        # Every game has the same one union but its own estimates; a game
        # key that wrapped would hand one game another's sums.
        values = (0.5, 1.0, 2.0)
        options = (((0, 2),), ((1,),))
        instances = [
            CoveringInstance(values, options, bias=0.01, scale=0.3, seed=seed)
            for seed in range(generators._BATCH_STATES)
        ]
        _, tables = covering_batch(instances)
        assert len({table[1:].tobytes() for table in tables}) == len(tables)
        assert_batch_matches_alone(instances)

    @pytest.mark.parametrize(
        "games, m",
        [(1, 64), (1, 65), (2, 56), (256, 64), (257, 48), (300, 56)],
        ids=str,
    )
    def test_union_keys_of_eight_and_nine_bytes(self, games, m):
        # A key is the game, in 0, 1 or 2 bytes, then ceil(m / 8) bytes of
        # union bits: 8 bytes sort as one integer, 9 as two.  Every game has
        # unions that differ only in the lowest or the highest region.
        prefix = ((games - 1).bit_length() + 7) // 8
        assert prefix + (m + 7) // 8 in (8, 9)
        values = tuple(philox_rng(m, 2).uniform(0.1, 1.0, size=m))
        options = (((0,), (m - 1,), (0, m - 1)), ((), (m - 1,), tuple(range(0, m, 7))))
        instances = [
            CoveringInstance(values, options, bias=0.02, scale=0.3, seed=seed)
            for seed in range(games)
        ]
        assert_batch_matches_alone(instances)
        for instance in instances[:: max(1, games // 3)]:
            assert_matches_reference(instance)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(covering_instances(), min_size=1, max_size=4))
    def test_random_batches(self, instances):
        n = instances[0].num_agents
        assert_batch_matches_alone([i for i in instances if i.num_agents == n])


class TestFoldedNormalMisalignment:
    def test_zero_bias_closed_form(self):
        for scale in (0.01, 0.3):
            expected = 3 * scale * math.sqrt(2.0 / math.pi)
            assert expected_covering_misalignment(0.0, scale, 3) == pytest.approx(
                expected
            )

    def test_frozen_reference_value(self):
        assert expected_covering_misalignment(0.01, 0.01, 3) == pytest.approx(
            FOLDED_MEAN_3_REGIONS, rel=1e-12
        )

    def test_linear_in_region_count(self):
        one = expected_covering_misalignment(0.02, 0.05, 1)
        assert expected_covering_misalignment(0.02, 0.05, 6) == pytest.approx(6 * one)

    def test_requires_positive_scale(self):
        with pytest.raises(InvalidParametersError):
            expected_covering_misalignment(0.01, 0.0, 3)

    def test_matches_sampled_folded_mean(self):
        rng = philox_rng(52, 0)
        samples = np.abs(rng.normal(0.01, 0.01, size=100_000))
        err = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - expected_covering_misalignment(0.01, 0.01, 1)) <= 3 * err


class TestClosedFormBounds:
    def test_covering_bound_values(self):
        assert covering_sinking_bound(2, 0.0) == pytest.approx(0.5)
        assert covering_sinking_bound(2, 0.035) == pytest.approx(0.36)
        assert covering_sinking_bound(3, 0.25) == 0.0

    def test_radio_bound_values(self):
        for n in (1, 2, 5):
            assert radio_sinking_bound(n, 1.0) == pytest.approx(1 / 3)
        for alpha in (1.0, 0.9, 0.5):
            assert radio_sinking_bound(3, alpha) == pytest.approx(1 / 3)
        assert radio_sinking_bound(4, 0.5) == pytest.approx(1 / 3.75)
        with pytest.raises(InvalidParametersError):
            radio_sinking_bound(2, 0.0)


class TestRadioGames:
    def test_exact_estimates_give_common_interest(self):
        g = make_radio_game(sample_radio_instance(3, 1.0, seed=5))
        for i in range(g.num_players):
            np.testing.assert_array_equal(g.utilities[i], g.welfare)

    def test_two_agent_welfare_table(self):
        weights = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = sample_radio_instance(2, 1.0, seed=0, weights=weights)
        g = make_radio_game(inst)
        assert g.welfare[g.joint_to_index((0, 0))] == 0.0
        assert g.welfare[g.joint_to_index((1, 1))] == 0.0
        assert g.welfare[g.joint_to_index((0, 1))] == 2.0
        assert g.welfare[g.joint_to_index((1, 0))] == 2.0
        pos, _ = price_of_sinking(g)
        assert pos == 1.0

    def test_endpoint_estimates_hit_the_misalignment_cap(self):
        alpha = 0.8
        weights = np.array([[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]])
        estimates = np.stack([alpha * weights] * 3)
        inst = RadioInstance(weights=weights, alpha=alpha, estimates=estimates)
        report = measure_misalignment(make_radio_game(inst))
        assert report.beta_geometric == pytest.approx(1 - alpha)

    def test_sampled_misalignment_never_exceeds_cap(self):
        for seed in range(30):
            alpha = 0.8
            g = make_radio_game(sample_radio_instance(3, alpha, seed))
            report = measure_misalignment(g)
            assert report.beta_geometric is not None
            assert report.beta_geometric <= 1 - alpha + 1e-12

    def test_estimate_interval_validation(self):
        weights = np.array([[0.0, 1.0], [1.0, 0.0]])
        estimates = np.stack([2.0 * weights] * 2)
        with pytest.raises(ValidationError):
            RadioInstance(weights=weights, alpha=0.9, estimates=estimates)


def one_shot_radio_tables(instance):
    """Welfare and utilities from one ``(2^n, n, n)`` pair table."""
    n = instance.num_agents
    states = np.arange(1 << n)
    channels = (states[:, None] >> np.arange(n)[None, :]) & 1
    split = channels[:, :, None] != channels[:, None, :]
    welfare = np.einsum("alj,lj->a", split, instance.weights)
    utilities = np.array([np.einsum("alj,lj->a", split, est) for est in instance.estimates])
    return welfare, utilities


@pytest.mark.parametrize("block", [1, 3, 64, 1 << 13])
def test_radio_tables_in_blocks_match_one_shot(monkeypatch, block):
    monkeypatch.setattr(generators, "_RADIO_BLOCK", block)
    for n, seed in ((2, 1), (5, 2), (9, 3), (12, 4)):
        instance = sample_radio_instance(n, 0.8, seed)
        game = make_radio_game(instance)
        welfare, utilities = one_shot_radio_tables(instance)
        assert np.array_equal(game.welfare, welfare)
        assert np.array_equal(game.utilities, utilities)


class TestNearCommonSampler:
    def test_additive_noise_respects_the_budget(self):
        rng = philox_rng(53, 0)
        g = sample_near_common_game(rng, (3, 3), 0.05, noise="additive")
        for i in range(g.num_players):
            assert np.all(np.abs(g.utilities[i] - g.welfare) <= 0.05 * g.welfare + 1e-12)

    def test_multiplicative_noise_respects_the_budget(self):
        rng = philox_rng(54, 0)
        g = sample_near_common_game(rng, (3, 3), 0.05, noise="multiplicative")
        for i in range(g.num_players):
            ratio = g.utilities[i] / g.welfare
            assert np.all(ratio >= 0.95 - 1e-12)
            assert np.all(ratio <= 1 / 0.95 + 1e-12)


class TestSizeLimit:
    # Every size here is refused before any table is allocated.
    def test_limit_is_inclusive(self):
        assert _checked_profiles(MAX_PROFILES) == MAX_PROFILES
        with pytest.raises(InvalidParametersError, match="more than 1048576 joint actions"):
            _checked_profiles(MAX_PROFILES + 1)

    def test_radio_games_are_refused(self):
        with pytest.raises(InvalidParametersError, match="joint actions"):
            sample_radio_instance(62, 0.8, 1)
        instance = RadioInstance(np.zeros((62, 62)), 1.0, np.zeros((62, 62, 62)))
        with pytest.raises(InvalidParametersError, match="joint actions"):
            make_radio_game(instance)

    def test_covering_games_are_refused(self):
        instance = sample_covering_instance(16, 8, 0.01, 0.01, 1)
        with pytest.raises(InvalidParametersError, match="joint actions"):
            make_covering_game(instance)

    def test_random_games_are_refused(self):
        with pytest.raises(InvalidParametersError, match="joint actions"):
            sample_random_game(philox_rng(1, 0), (2,) * 62)


class TestMonteCarlo:
    def test_zero_noise_covering_is_deterministic(self):
        spec = CoveringMonteCarloSpec(num_agents=2, num_regions=2, bias=0.0, scale=0.0)
        summary = run_monte_carlo(spec, trials=20, master_seed=3)
        assert summary.std_err >= 0.0
        assert summary.violations == 0
        assert summary.bound == pytest.approx(0.5)
        # Common-interest coverage sinks are equilibria of a (1, 2)-smooth
        # welfare, so every trial sits above one half.
        assert summary.min_pos >= 0.5 - 1e-9

    def test_same_master_seed_reproduces_summary(self):
        spec = RadioMonteCarloSpec(num_agents=3, alpha=0.8)
        a = run_monte_carlo(spec, trials=25, master_seed=11)
        b = run_monte_carlo(spec, trials=25, master_seed=11)
        assert a == b

    def test_different_master_seeds_draw_different_games(self):
        # Sinking prices can coincide across seeds (often exactly 1), so
        # compare the sampled games themselves.
        a = make_covering_game(
            sample_covering_instance(2, 3, 0.01, 0.01, trial_seed(1, 0))
        )
        b = make_covering_game(
            sample_covering_instance(2, 3, 0.01, 0.01, trial_seed(2, 0))
        )
        assert not np.array_equal(a.utilities, b.utilities)

    def test_radio_trials_never_violate_their_floor(self):
        spec = RadioMonteCarloSpec(num_agents=3, alpha=0.9)
        summary = run_monte_carlo(spec, trials=50, master_seed=8)
        assert summary.violations == 0
        assert summary.min_pos >= summary.bound - 1e-9

    def test_summary_statistics_are_consistent(self):
        spec = RadioMonteCarloSpec(num_agents=2, alpha=0.9)
        summary = run_monte_carlo(spec, trials=30, master_seed=4)
        values = [r.pos for r in summary.results]
        assert summary.trials == 30
        assert summary.mean_pos == pytest.approx(np.mean(values))
        assert summary.min_pos == pytest.approx(min(values))

    def test_trial_count_validation(self):
        with pytest.raises(InvalidParametersError):
            run_monte_carlo(RadioMonteCarloSpec(2, 1.0), trials=0, master_seed=0)

    def test_a_non_finite_bias_and_scale_are_refused_without_a_warning(self):
        spec = CoveringMonteCarloSpec(2, 3, math.inf, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^trial 0 \(master_seed=0\): bias and"):
                run_monte_carlo(spec, trials=2, master_seed=0)

    def test_unknown_spec_is_refused(self):
        with pytest.raises(InvalidParametersError, match=r"^unknown Monte Carlo spec object$"):
            run_monte_carlo(object(), trials=1, master_seed=0)


def per_trial_monte_carlo(spec, trials, master_seed):
    """``run_monte_carlo`` as a loop that draws each trial with the public
    samplers and analyzes it on its own."""
    bound = spec.bound()
    results = []
    for trial in range(trials):
        seed = trial_seed(master_seed, trial)
        try:
            if isinstance(spec, CoveringMonteCarloSpec):
                instance = sample_covering_instance(
                    spec.num_agents, spec.num_regions, spec.bias, spec.scale, seed
                )
                game = make_covering_game(instance)
            else:
                game = make_radio_game(sample_radio_instance(spec.num_agents, spec.alpha, seed))
            pos, _ = price_of_sinking(game, mode=BEST)
        except GameAnalysisError as exc:
            raise type(exc)(f"trial {trial} (master_seed={master_seed}): {exc}") from exc
        results.append(TrialResult(trial=trial, pos=pos, violation=pos < bound - BOUND_TOL))
    pos = np.array([r.pos for r in results])
    std_err = float(np.std(pos, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloSummary(
        trials=trials,
        mean_pos=float(np.mean(pos)),
        std_err=std_err,
        min_pos=float(np.min(pos)),
        bound=bound,
        violations=sum(r.violation for r in results),
        results=tuple(results),
    )


def count_batches(monkeypatch):
    """The action counts of the games of each batch ``run_monte_carlo``
    analyzes, one row per game."""
    batches = []
    analyze = generators.batch_prices

    def counted(counts, welfare, utilities):
        batches.append(counts)
        return analyze(counts, welfare, utilities)

    monkeypatch.setattr(generators, "batch_prices", counted)
    return batches


# Covering specs whose trials draw all-zero blocks again (one region), and
# whose batches mix games of different action counts (two regions, where
# an agent's four options often repeat).
REDRAWN = CoveringMonteCarloSpec(3, 1, -0.5, 1.0)
MIXED = CoveringMonteCarloSpec(3, 2, 0.3, 0.5)


def patch_option_draws(monkeypatch, failures):
    """Make the option draws of the trial seeds in ``failures`` fail: refused
    (``"draw"``) or with every option empty (``"analysis"``), so that the
    optimal welfare is zero.  Both the run and the per-trial loop draw
    every trial's options through ``_option_draws``."""
    draw = generators._option_draws
    keys = {seed: stream_key(seed, 0) for seed in failures}

    def patched(num_agents, num_regions, trial_keys, rng, *args):
        counts, bits = draw(num_agents, num_regions, trial_keys, rng, *args)
        rows = np.cumsum([0, *counts.sum(axis=1)])
        for seed, key in keys.items():
            for t in np.flatnonzero((trial_keys == key).all(axis=1)):
                if failures[seed] == "draw":
                    raise ValidationError("patched failure")
                bits[rows[t] : rows[t + 1]] = 0
        return counts, bits

    monkeypatch.setattr(generators, "_option_draws", patched)


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize(
        "spec, trials, seed, budget",
        [
            (CoveringMonteCarloSpec(4, 8, 0.01, 0.01), 30, 5, None),
            (CoveringMonteCarloSpec(3, 5, 0.2, 0.4), 25, 2, 100),
            (RadioMonteCarloSpec(9, 0.8), 7, 3, None),
            (RadioMonteCarloSpec(12, 0.8), 2, 0, None),
            (RadioMonteCarloSpec(3, 0.7), 40, 1, 50),
            (CoveringMonteCarloSpec(3, 9, 0.2, 0.4), 30, 1, 300),
            (CoveringMonteCarloSpec(3, 70, 0.1, 0.3), 12, 4, 200),
            (REDRAWN, 20, 2, 20),
            (MIXED, 40, 2, 60),
        ],
        ids=[
            "covering", "covering-mixed-sizes", "radio-512", "radio-above-budget", "radio-small",
            "covering-two-byte-codes", "covering-codes-past-one-word", "covering-redrawn-blocks",
            "covering-mixed-action-counts",
        ],
    )
    def test_equals_the_per_trial_loop(self, monkeypatch, spec, trials, seed, budget):
        if budget is not None:
            monkeypatch.setattr(generators, "_BATCH_STATES", budget)
        batches = count_batches(monkeypatch)
        assert run_monte_carlo(spec, trials, seed) == per_trial_monte_carlo(spec, trials, seed)
        sizes = [len(counts) for counts in batches]
        assert sum(sizes) == trials
        if spec != RadioMonteCarloSpec(12, 0.8):
            assert len(sizes) > 1 and max(sizes) > 1
        if spec == REDRAWN:
            redraws = [reference_covering_draws(3, 1, trial_seed(seed, t), 4)[1] for t in range(trials)]
            assert any(redraws)
        if spec == MIXED:
            assert any(len(np.unique(counts, axis=0)) > 1 for counts in batches)

    @pytest.mark.parametrize("failing", [0, 9, 10, 17])
    @pytest.mark.parametrize("where", ["draw", "analysis", "build"])
    def test_a_failing_trial_reports_as_in_the_loop(self, monkeypatch, failing, where):
        # Trials hold at most 256 states, so trials 9 and 10 sit inside
        # the second or third batch of 2,048 states.  Both runs draw every
        # trial's options through ``_option_draws`` and build every game's
        # tables through ``_covering_tables``, so the failures go there.
        spec = CoveringMonteCarloSpec(4, 8, 0.01, 0.01)
        bad_seed = trial_seed(7, failing)
        bad_estimates = sample_covering_instance(4, 8, 0.01, 0.01, bad_seed).estimates
        build = generators._covering_tables

        def patched_build(tables, *args):
            if any(np.array_equal(table[1:], bad_estimates) for table in tables):
                raise ValidationError("patched failure")
            return build(tables, *args)

        if where == "build":
            monkeypatch.setattr(generators, "_covering_tables", patched_build)
        else:
            patch_option_draws(monkeypatch, {bad_seed: where})
        with pytest.raises(GameAnalysisError) as loop:
            per_trial_monte_carlo(spec, 20, 7)
        with pytest.raises(GameAnalysisError) as batched:
            run_monte_carlo(spec, 20, 7)
        assert type(batched.value) is type(loop.value)
        assert str(batched.value) == str(loop.value)
        assert str(loop.value).startswith(f"trial {failing} (master_seed=7): ")
        if where == "analysis":
            assert type(loop.value) is DegenerateWelfareError

    def test_an_overflowing_trial_inside_a_batch_reports_as_in_the_loop(self, monkeypatch):
        # Trial 9 sits inside a batch of 2,048 states.  Its estimates are
        # finite, but any two of them sum to inf.
        draw = generators._estimate_draws
        bad_key = stream_key(trial_seed(7, 9), 1)

        def patched(*args):
            estimates = draw(*args)
            estimates[(args[4] == bad_key).all(axis=1)] = 1e308
            return estimates

        monkeypatch.setattr(generators, "_estimate_draws", patched)
        batches = count_batches(monkeypatch)
        spec = CoveringMonteCarloSpec(4, 8, 0.01, 0.01)
        with np.errstate(over="ignore"), pytest.raises(GameAnalysisError) as loop:
            per_trial_monte_carlo(spec, 20, 7)
        with np.errstate(over="ignore"), pytest.raises(GameAnalysisError) as batched:
            run_monte_carlo(spec, 20, 7)
        message = "trial 9 (master_seed=7): utility entries must be finite"
        assert type(batched.value) is type(loop.value) is ValidationError
        assert str(batched.value) == str(loop.value) == message
        # Trials 0 to 7 fill the first batch; trial 8 shares the second with
        # trial 9, and is priced again alone before trial 9 fails alone.
        assert [len(counts) for counts in batches] == [8, 1]

    def test_a_covering_run_builds_no_per_trial_objects(self, monkeypatch):
        built = []
        for cls, method in (
            (NormalFormGame, "__post_init__"),
            (CoveringInstance, "__post_init__"),
            (sinks.SinkEquilibrium, "__init__"),
        ):
            def counted(self, *args, _original=getattr(cls, method), _cls=cls, **kwargs):
                built.append(_cls)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)
        spec = CoveringMonteCarloSpec(4, 8, 0.01, 0.01)
        summary = run_monte_carlo(spec, 50, 5)
        assert built == []
        assert per_trial_monte_carlo(spec, 50, 5) == summary
        assert {NormalFormGame, CoveringInstance, sinks.SinkEquilibrium} <= set(built)

    @pytest.mark.parametrize("degenerate, refused", [(9, 10), (10, 9), (3, 4), (9, 17)])
    def test_the_earlier_of_two_failing_trials_reports(self, monkeypatch, degenerate, refused):
        # One trial has no welfare to sink and another's draw is refused.  A
        # batch is drawn whole before it is analyzed, so in (9, 10) trial
        # 10's draw fails first, yet trial 9 is the one to report.
        spec = CoveringMonteCarloSpec(4, 8, 0.01, 0.01)
        failures = {trial_seed(7, degenerate): "analysis", trial_seed(7, refused): "draw"}
        patch_option_draws(monkeypatch, failures)
        with pytest.raises(GameAnalysisError) as loop:
            per_trial_monte_carlo(spec, 20, 7)
        with pytest.raises(GameAnalysisError) as batched:
            run_monte_carlo(spec, 20, 7)
        first = min(degenerate, refused)
        assert str(batched.value) == str(loop.value)
        assert str(batched.value).startswith(f"trial {first} (master_seed=7): ")
        expected = DegenerateWelfareError if first == degenerate else ValidationError
        assert type(batched.value) is expected

    @pytest.mark.parametrize(
        "spec, trials",
        [(CoveringMonteCarloSpec(3, 5, 0.2, 0.4), 25), (RadioMonteCarloSpec(3, 0.7), 16)],
        ids=["covering", "radio"],
    )
    def test_seed_chunks_do_not_change_results(self, monkeypatch, spec, trials):
        monkeypatch.setattr(generators, "_KEY_CHUNK", 7)
        assert run_monte_carlo(spec, trials, 4) == per_trial_monte_carlo(spec, trials, 4)

    def test_a_failing_solve_reports_as_in_the_loop(self, monkeypatch):
        # With no steps allowed, every sink of two or more states fails;
        # trials 0 and 1 of this run have only pure equilibria as sinks.
        monkeypatch.setattr(sinks, "POWER_MAX_STEPS", 0)
        spec = CoveringMonteCarloSpec(2, 6, 0.2, 0.4)
        with pytest.raises(GameAnalysisError) as loop:
            per_trial_monte_carlo(spec, 20, 3)
        with pytest.raises(GameAnalysisError) as batched:
            run_monte_carlo(spec, 20, 3)
        assert str(batched.value) == str(loop.value)
        assert str(loop.value).startswith("trial 2 (master_seed=3): power iteration on a ")


class TestSeedPlumbing:
    def test_trial_streams_are_stable(self):
        a = philox_rng(trial_seed(7, 3), 0).uniform(size=4)
        b = philox_rng(trial_seed(7, 3), 0).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_trial_streams_are_distinct(self):
        a = philox_rng(trial_seed(7, 3), 0).uniform(size=4)
        b = philox_rng(trial_seed(7, 4), 0).uniform(size=4)
        assert not np.array_equal(a, b)


def seed_sequence_states(entropy, spawn_key, words):
    return np.random.SeedSequence(entropy, spawn_key=(spawn_key,)).generate_state(words)


def philox_key(seed, stream):
    philox = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    return philox.state["state"]["key"]


def stream_key(seed, stream):
    """The Philox key of ``philox_rng(seed, stream)``, from ``spawn_states``."""
    return streams.spawn_states(seed, stream, 4).view("<u8")[0]


class TestSpawnStates:
    """``spawn_states``, and the Philox keys it gives, against numpy's
    ``SeedSequence``."""

    @settings(max_examples=60, deadline=None)
    @given(
        master=st.one_of(
            st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**160, 2**200 + 3]),
            st.integers(0, 2**300),
        ),
        trials=st.lists(
            st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]), st.integers(0, 2**40)),
            min_size=1,
            max_size=6,
        ),
        words=st.integers(1, 9),
    )
    @example(master=2**160, trials=[2**32, 0, 2**32 + 1, 7], words=2)
    @example(master=2**32, trials=[2**32 - 1, 2**32], words=4)
    def test_trial_seeds(self, master, trials, words):
        got = streams.spawn_states(master, np.array(trials, dtype=np.uint64), words)
        assert got.dtype == np.uint32 and got.shape == (len(trials), words)
        for trial, row in zip(trials, got):
            assert np.array_equal(row, seed_sequence_states(master, trial, words))

    @pytest.mark.parametrize("master_seed", [5, 6, 7, 8, 9, 5045, 2**160])
    def test_trial_seeds_of_a_run(self, master_seed):
        seeds = streams.spawn_states(master_seed, np.arange(50, dtype=np.uint64), 2)
        expected = [trial_seed(master_seed, t) for t in range(50)]
        assert seeds.view("<u8")[:, 0].tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(
                st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)
            ),
            min_size=1,
            max_size=6,
        ),
        stream=st.sampled_from([0, 1]),
    )
    @example(seeds=[0, 2**64 - 1], stream=1)
    def test_stream_keys(self, seeds, stream):
        keys = streams.spawn_states(np.array(seeds, dtype=np.uint64), stream, 4).view("<u8")
        assert keys.shape == (len(seeds), 2)
        for seed, key in zip(seeds, keys):
            assert np.array_equal(key, philox_key(seed, stream))
            assert np.array_equal(stream_key(seed, stream), key)

    def test_negative_entropy_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(ValueError):
            streams.spawn_states(-1, np.zeros(1, dtype=np.uint64), 2)


class TestRekeyedDraws:
    """A re-keyed generator draws what a new ``philox_rng`` draws."""

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.integers(0, 2, size=(3, 4, 5)),
            lambda rng: rng.standard_normal((4, 8)),
            lambda rng: rng.uniform(-1.0, 1.0, size=9),
        ],
        ids=["integers", "standard_normal", "uniform"],
    )
    def test_draws(self, draw):
        rng = streams.philox_generator()
        for seed in (0, 5, 2**64 - 1):
            for stream in (0, 1):
                # Leave half a 64-bit word and a part-read buffer behind.
                rng.integers(0, 2, size=3)
                rng.random(3)
                rekeyed = streams.rekeyed(rng, stream_key(seed, stream))
                assert draw(rekeyed).tobytes() == draw(philox_rng(seed, stream)).tobytes()

    def test_covering_options_with_redrawn_blocks(self):
        # A block of four bits is all zero one time in 16 and drawn again.
        # Every estimate of bias -1 and scale -0.0 is a zero, whose sign
        # must be the one scale 0 gives it.  The trials are drawn together.
        rng = streams.philox_generator()
        seeds = range(40)
        keys = np.array([[stream_key(seed, stream) for stream in (0, 1)] for seed in seeds])
        counts, bits = generators._option_draws(2, 1, keys[:, 0], rng)
        masks = iter(np.unpackbits(bits, axis=1, count=1).tolist())
        for seed, row in zip(seeds, counts.tolist()):
            drawn = tuple(
                tuple(tuple(np.flatnonzero(next(masks)).tolist()) for _ in range(c)) for c in row
            )
            assert drawn == reference_covering_options(2, 1, seed)
        assert any(reference_covering_draws(2, 1, seed, 4)[1] for seed in seeds)
        for bias, scale in [(0.0, 0.0), (0.3, 0.2), (-1.0, -0.0)]:
            estimates = generators._estimate_draws(2, 1, bias, scale, keys[:, 1], rng)
            for seed, drawn in zip(seeds, estimates):
                sampled = sample_covering_instance(2, 1, bias, scale, seed, 4)
                assert drawn.tobytes() == sampled.estimates.tobytes()
                assert drawn.tobytes() == reference_covering_estimates(sampled).tobytes()
