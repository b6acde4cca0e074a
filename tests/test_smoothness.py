import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkeq.dynamics import BEST, BETTER, build_kernel, is_singleton_br
from sinkeq.errors import (
    CertificateNotFoundError,
    DegenerateWelfareError,
    InvalidParametersError,
)
from sinkeq.game import NormalFormGame, optimal_profile, price_of_anarchy
from sinkeq.generators import (
    counterexample_game,
    make_covering_game,
    make_radio_game,
    philox_rng,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)
from sinkeq.sinks import price_of_sinking, sink_components
from sinkeq.smoothness import (
    additive_sinking_bound,
    best_smoothness,
    better_response_witness,
    bound_report,
    check_smoothness,
    measure_misalignment,
    multiplicative_sinking_bound,
    MisalignmentReport,
    RATIO_TOL,
    SLACK_TOL,
)

from samplers import sample_game_with_pure_nash, sample_near_common_game


def single_player_common(welfare):
    w = np.asarray(welfare, dtype=float)
    return NormalFormGame((len(w),), w, w.reshape(1, -1))


def scaled_utilities(welfare, factor, counts=(2, 2)):
    w = np.asarray(welfare, dtype=float)
    return NormalFormGame(counts, w, np.vstack([factor * w] * len(counts)))


def scaled_game(game, scale):
    return NormalFormGame(game.action_counts, game.welfare * scale, game.utilities * scale)


class TestCheckSmoothness:
    def test_zero_lambda_with_large_mu_is_valid(self):
        rng = philox_rng(41, 0)
        g = sample_random_game(rng, (3, 3))
        opt, wopt = optimal_profile(g)
        deviation = np.zeros(g.num_profiles)
        for i in range(g.num_players):
            for a in range(g.num_profiles):
                coords = list(g.index_to_joint(a).coords)
                coords[i] = opt.coords[i]
                deviation[a] += g.utilities[i][a] - g.utilities[i][g.joint_to_index(coords)]
        positive = g.welfare > 0
        mu = max(1.0, float(np.max(deviation[positive] / g.welfare[positive])))
        assert check_smoothness(g, 0.0, mu).valid

    def test_gap_game_grid(self):
        for lam, mu in [(0.0, 1.0), (1.0, 2.0), (1.0, 1.01), (0.5, 3.0), (2.0, 2.5)]:
            cert = check_smoothness(counterexample_game(lam, mu), lam, mu)
            assert cert.valid

    def test_single_player_common_interest_zero_slack(self):
        cert = check_smoothness(
            single_player_common([0.4, 1.0, 0.2]), 1.0, 1.0, common_interest=True
        )
        assert cert.valid
        np.testing.assert_allclose(cert.slack, 0.0, atol=1e-15)

    def test_rejects_bad_parameters(self):
        g = single_player_common([0.0, 1.0])
        with pytest.raises(InvalidParametersError):
            check_smoothness(g, 2.0, 1.0)
        with pytest.raises(InvalidParametersError):
            check_smoothness(g, -0.5, 1.0)

    @pytest.mark.parametrize(
        "lam,mu", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite_parameters(self, lam, mu):
        g = single_player_common([0.0, 1.0])
        with pytest.raises(InvalidParametersError, match=r"^lam and mu must be finite$"):
            check_smoothness(g, lam, mu)
        with pytest.raises(InvalidParametersError, match=r"^lam and mu must be finite$"):
            counterexample_game(lam, mu)

    def test_validity_ignores_power_of_two_scaling(self):
        # (1, 2) leaves zero slack at the gap game's cross states, so a
        # larger lambda fails there by 1e-6 times the game's scale, which the
        # absolute tolerance 1e-9 forgave on a game scaled by 2^-60.
        g = counterexample_game(1.0, 2.0)
        for lam, mu, valid in [(1.0, 2.0, True), (1.0 + 1e-6, 2.0, False), (0.5, 2.0, True)]:
            for k in (-60, 0, 60):
                assert check_smoothness(scaled_game(g, 2.0**k), lam, mu).valid is valid


class TestBestSmoothness:
    def test_single_player_common_interest_reaches_one(self):
        lam, mu = best_smoothness(single_player_common([0.4, 1.0, 0.2]))
        assert lam == pytest.approx(mu)
        assert lam / mu == pytest.approx(1.0)

    def test_covering_ratio_at_least_half(self):
        for seed in range(5):
            inst = sample_covering_instance(2, 3, 0.0, 0.0, seed)
            g = make_covering_game(inst)
            lam, mu = best_smoothness(g, common_interest=True)
            assert lam / mu >= 0.5 - 1e-9

    def test_radio_ratio_at_least_third(self):
        for seed in range(5):
            g = make_radio_game(sample_radio_instance(3, 1.0, seed))
            lam, mu = best_smoothness(g, common_interest=True)
            assert lam / mu >= 1.0 / 3.0 - 1e-9

    def test_certificate_valid_and_sound_against_anarchy(self):
        rng = philox_rng(42, 0)
        for _ in range(100):
            g = sample_game_with_pure_nash(rng)
            lam, mu = best_smoothness(g)
            assert check_smoothness(g, lam, mu).valid
            assert lam / mu <= price_of_anarchy(g) + 1e-6

    def test_walk_ends_when_rounding_brings_a_pair_back(self):
        # The six lines W(a) - t D(a) pass within two ulps of one point, and
        # their rounded crossings send the walk round a cycle of pairs.  The
        # last state is the optimum, whose flat line lies above them all.
        welfare = [2.8424639399686638, 2.8634162185921057, 9.505273253675425,
                   17.017970644285878, 1.0917068176766196, 7.184385229935284, 20.0]
        gains = [-2.388441950712484, -2.3777171184281864, 1.0220468899529624,
                 4.867567511601813, -4.402223950839538, -0.1659448913991346, 0.0]
        game = NormalFormGame((7,), welfare, [gains])
        lam, mu = best_smoothness(game)
        assert check_smoothness(game, lam, mu).valid
        supremum, attained = envelope_oracle(game, False)
        assert attained
        assert abs(lam / mu - float(supremum)) <= 4 * math.ulp(float(supremum))

    def test_degenerate_welfare(self):
        g = NormalFormGame((2,), np.zeros(2), np.array([[0.0, 1.0]]))
        with pytest.raises(DegenerateWelfareError):
            best_smoothness(g)

    def test_no_certificate_when_zero_welfare_state_gains(self):
        # Single player: the zero-welfare state strictly improves on the
        # optimum-coordinate deviation, so no finite pair works.
        g = NormalFormGame((2,), np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
        with pytest.raises(CertificateNotFoundError):
            best_smoothness(g)


def envelope_oracle(game, common_interest):
    """The supremum over t > 0 of ``min_a (W(a) - t D(a)) / W(opt)``, in
    exact fractions, and whether some t > 0 attains it.

    The deviation totals are summed in plain floats in the package's order,
    so the oracle solves the problem the package is given.  The envelope is
    concave and its breaks are crossings of two lines, so the best value on
    t > 0 is at a positive crossing, or at any t (here 1) when the envelope
    is constant; the supremum is that value or the limit t -> 0+, the least
    welfare, whichever is larger.
    """
    welfare = [float(w) for w in game.welfare]
    target = game.index_to_joint(welfare.index(max(welfare))).coords
    lines = []
    for state in range(game.num_profiles):
        coords = game.index_to_joint(state).coords
        total = 0.0
        for player in range(game.num_players):
            table = game.welfare if common_interest else game.utilities[player]
            moved = list(coords)
            moved[player] = target[player]
            total += float(table[state]) - float(table[game.joint_to_index(moved)])
        lines.append((Fraction(welfare[state]), Fraction(total)))
    wopt = Fraction(max(welfare))
    points = {(w2 - w1) / (d2 - d1) for (w1, d1), (w2, d2) in combinations(lines, 2) if d1 != d2}
    best = max(min(w - t * d for w, d in lines) for t in points | {Fraction(1)} if t > 0)
    limit = min(w for w, _ in lines)
    return (best / wopt, True) if best >= limit else (limit / wopt, False)


@st.composite
def small_games(draw):
    counts = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda c: math.prod(c) <= 12)
    )
    total = math.prod(counts)
    # Eighths tie often and make lines concurrent; the floats do not.
    welfare = st.one_of(st.integers(0, 24).map(lambda k: k / 8), st.floats(0.01, 3.0))
    utility = st.one_of(st.integers(-24, 24).map(lambda k: k / 8), st.floats(-3.0, 3.0))
    return NormalFormGame(
        counts,
        draw(st.lists(welfare, min_size=total, max_size=total).filter(lambda w: max(w) > 0)),
        [draw(st.lists(utility, min_size=total, max_size=total)) for _ in counts],
    )


FOUND_WELFARE = [1.0, 0.5, 0.5, 0.7]
FOUND_UTILITIES = [[0.2, 0.9, 0.1, 0.3], [0.4, 0.1, 0.8, 0.2]]


def found_game(scale):
    """A 2x2 game whose supremum 0.5 is approached only as mu grows: its
    least-welfare state (1, 0) gains 0.7 by moving to the optimum."""
    return NormalFormGame(
        (2, 2), np.multiply(FOUND_WELFARE, scale), np.multiply(FOUND_UTILITIES, scale)
    )


class TestBestSmoothnessOracle:
    @pytest.mark.parametrize("common_interest", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(game=small_games())
    @example(game=found_game(1.0))
    @example(game=counterexample_game(1.0, 2.0))
    @example(game=NormalFormGame((2,), [1.0, 0.0], [[0.0, 1.0]]))
    def test_matches_the_exact_envelope(self, game, common_interest):
        supremum, attained = envelope_oracle(game, common_interest)
        if supremum == 0 and not attained:
            with pytest.raises(CertificateNotFoundError):
                best_smoothness(game, common_interest)
            return
        lam, mu = best_smoothness(game, common_interest)
        assert type(lam) is float and type(mu) is float
        assert check_smoothness(game, lam, mu, common_interest).valid
        # An unattained supremum is answered 1e-9 below it, far more than
        # 4 ulp, so the ratio also tells whether the two agree on attainment.
        expected = float(supremum if attained else supremum * (1 - Fraction(RATIO_TOL)))
        assert abs(lam / mu - expected) <= 4 * math.ulp(expected)


class TestScaleLadder:
    def test_powers_of_two_give_the_same_pair(self):
        pairs = {
            tuple(x.hex() for x in best_smoothness(found_game(2.0**k)))
            for k in (-1000, -40, -20, 0, 20, 40)
        }
        assert len(pairs) == 1

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e12])
    def test_ratio_never_exceeds_the_supremum(self, scale):
        game = found_game(scale)
        assert envelope_oracle(game, False) == (Fraction(1, 2), False)
        lam, mu = best_smoothness(game)
        assert lam / mu < 0.5
        assert check_smoothness(game, lam, mu).valid


class TestMisalignment:
    def test_common_interest_is_zero(self):
        g = scaled_utilities([1.0, 0.3, 0.3, 2.0], 1.0)
        report = measure_misalignment(g)
        assert report.beta_arithmetic == 0.0
        assert report.beta_geometric == 0.0

    def test_uniform_inflation(self):
        g = scaled_utilities([1.0, 0.3, 0.3, 2.0], 1.4)
        report = measure_misalignment(g)
        assert report.beta_arithmetic == pytest.approx(0.4)
        # Ratio bound: 1/(1-beta) = 1.4 gives beta = 1 - 1/1.4.
        assert report.beta_geometric == pytest.approx(1.0 - 1.0 / 1.4)

    def test_uniform_deflation(self):
        g = scaled_utilities([1.0, 0.3, 0.3, 2.0], 0.75)
        report = measure_misalignment(g)
        assert report.beta_arithmetic == pytest.approx(0.25)
        assert report.beta_geometric == pytest.approx(0.25)

    def test_zero_welfare_with_nonzero_utility_is_undefined(self):
        w = np.array([1.0, 0.0])
        u = np.array([[1.0, 1.0]])
        report = measure_misalignment(NormalFormGame((2,), w, u))
        assert report.beta_arithmetic is None
        assert report.witness_arithmetic == (0, 1)
        assert report.beta_geometric is None

    def test_nonpositive_ratio_is_undefined_geometrically(self):
        w = np.array([1.0, 1.0])
        u = np.array([[1.0, -0.5]])
        report = measure_misalignment(NormalFormGame((2,), w, u))
        assert report.beta_geometric is None
        assert report.witness_geometric == (0, 1)
        assert report.beta_arithmetic == pytest.approx(1.5)
        assert report.beta_arithmetic > 1.0

    def test_witness_attains_the_maximum(self):
        rng = philox_rng(43, 0)
        for _ in range(20):
            g = sample_random_game(rng, (3, 3), utility_range=(0.1, 2.0))
            report = measure_misalignment(g)
            player, state = report.witness_arithmetic
            ratio = g.utilities[player][state] / g.welfare[state]
            assert abs(ratio - 1.0) == pytest.approx(report.beta_arithmetic)


def reference_misalignment(game):
    """The misalignment definitions applied pair by pair, in (player, state)
    order; each extreme keeps its first pair."""
    arith_bad = ratio_bad = None
    deviation = low = high = None
    for player in range(game.num_players):
        bad_zero = nonpositive = None
        for state in range(game.num_profiles):
            w = float(game.welfare[state])
            u = float(game.utilities[player][state])
            if w == 0.0:
                if u != 0.0 and bad_zero is None:
                    bad_zero = (player, state)
                continue
            r = u / w
            if r <= 0.0 and nonpositive is None:
                nonpositive = (player, state)
            if deviation is None or abs(r - 1.0) > deviation[0]:
                deviation = (abs(r - 1.0), (player, state))
            if low is None or r < low[0]:
                low = (r, (player, state))
            if high is None or r > high[0]:
                high = (r, (player, state))
        arith_bad = arith_bad or bad_zero
        ratio_bad = ratio_bad or bad_zero or nonpositive
    if deviation is None:  # no positive-welfare state: perfectly aligned
        deviation, low, high = (0.0, None), (1.0, None), (1.0, None)

    if arith_bad is not None:
        arithmetic = (None, arith_bad)
    elif not math.isfinite(deviation[0]):
        arithmetic = (None, deviation[1])
    else:
        arithmetic = deviation
    if ratio_bad is not None:
        ratio = (None, ratio_bad)
    else:
        from_low, from_high = 1.0 - low[0], 1.0 - 1.0 / high[0]
        ratio = (from_low, low[1]) if from_low >= from_high else (from_high, high[1])
        if not ratio[0] < 1.0:
            ratio = (None, ratio[1])
    return MisalignmentReport(*arithmetic, *ratio)


# Integer ties, zero welfare, negative utilities, and ratios that underflow,
# overflow or round to the ends of the ratio notion's range.
WELFARE = [0.0, 1.0, 2.0, 3.0, 0.5, 5e-324, 1e-320, 1e-300, 1e-20, 1e20, 1e300, 1.7e308]
UTILITY = [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 5e-324, 1e-300, 1e-20, -1e-20,
           1e20, 1e300, -1e300, 1.7e308]


@st.composite
def misaligned_games(draw):
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    total = math.prod(counts)
    # Half the games keep every entry positive, so the ratio notion is
    # defined unless rounding takes it out of range.
    positive = draw(st.booleans())
    welfare = st.sampled_from([w for w in WELFARE if w > 0] if positive else WELFARE)
    utility = st.one_of(
        st.sampled_from([u for u in UTILITY if u > 0] if positive else UTILITY),
        st.integers(1 if positive else -3, 3).map(float),
    )
    return NormalFormGame(
        counts,
        draw(st.lists(welfare, min_size=total, max_size=total)),
        [draw(st.lists(utility, min_size=total, max_size=total)) for _ in counts],
    )


class TestMisalignmentOracle:
    @settings(max_examples=400, deadline=None)
    @given(game=misaligned_games())
    @example(game=NormalFormGame((2,), [1.0, 1.0], [[1.0, 1e-20]]))
    @example(game=NormalFormGame((2,), [1.0, 1e-320], [[1.0, -1.0]]))
    @example(game=NormalFormGame((2, 2), [1.0, 2.0, 1.0, 2.0], [[2.0, 4.0, 0.5, 1.0]] * 2))
    @example(game=NormalFormGame((2,), [0.0, 0.0], [[0.0, 0.0]]))
    def test_matches_the_definitions(self, game):
        report = measure_misalignment(game)
        assert report == reference_misalignment(game)
        assert report.beta_arithmetic is None or math.isfinite(report.beta_arithmetic)
        assert report.beta_geometric is None or 0.0 <= report.beta_geometric < 1.0


class TestBoundFormulas:
    def test_additive_matches_hand_arithmetic(self):
        assert additive_sinking_bound(1.0, 2.0, 2, 0.035) == pytest.approx(0.36)
        assert additive_sinking_bound(1.0, 2.0, 2, 0.5) == 0.0
        assert additive_sinking_bound(1.0, 2.0, 3, 0.0) == pytest.approx(0.5)

    def test_multiplicative_matches_hand_arithmetic(self):
        assert multiplicative_sinking_bound(1.0, 3.0, 5, 0.0) == pytest.approx(1 / 3)
        kept = 0.9**2
        assert multiplicative_sinking_bound(1.0, 3.0, 4, 0.1) == pytest.approx(
            1.0 / (3 * kept + (1 - kept) * 4)
        )
        with pytest.raises(InvalidParametersError):
            multiplicative_sinking_bound(1.0, 3.0, 2, 1.0)


class TestBoundReport:
    def test_common_interest_bounds_collapse_to_ratio(self):
        w = philox_rng(44, 0).uniform(0.1, 1.0, size=9)
        g = NormalFormGame((3, 3), w, np.vstack([w, w]))
        report = bound_report(g)
        ratio = report.lambda_c / report.mu_c
        assert report.misalignment.beta_arithmetic == 0.0
        assert report.bound_arithmetic == pytest.approx(ratio)
        assert report.bound_geometric == pytest.approx(ratio)

    def test_flags_follow_hypotheses(self):
        rng = philox_rng(45, 0)
        w = rng.uniform(0.1, 1.0, size=8)
        factors = rng.uniform(0.9, 1.1, size=(3, 8))
        g = NormalFormGame((2, 2, 2), w, factors * w)
        report = bound_report(g)
        assert report.singleton_br
        assert report.satisfied_arithmetic is True
        assert report.satisfied_geometric is True
        assert report.bound_arithmetic == pytest.approx(
            additive_sinking_bound(
                report.lambda_c, report.mu_c, 3, report.misalignment.beta_arithmetic
            )
        )

    def test_not_applicable_without_singleton_responses(self):
        u0 = np.zeros(4)
        u1 = np.array([0.0, 1.0, 2.0, 3.0])
        g = NormalFormGame((2, 2), np.ones(4), np.vstack([u0, u1]))
        report = bound_report(g)
        assert not report.singleton_br
        assert report.satisfied_arithmetic is None
        assert report.satisfied_geometric is None

    def test_singleton_check_uses_the_analyzed_tie_tol(self):
        # Exact best responses are singletons here, but within tie_tol=0.5
        # every kernel row has several successors, so the floors do not apply.
        g = sample_near_common_game(philox_rng(1, 0), (3, 3), 0.05)
        assert is_singleton_br(g) == (True, None)
        kernel = build_kernel(g, BEST, tie_tol=0.5)
        assert np.diff(kernel.indptr).min() > 1
        report = bound_report(g, tie_tol=0.5)
        assert not report.singleton_br
        assert report.satisfied_arithmetic is None
        assert report.satisfied_geometric is None


class TestBetterResponseWitness:
    def test_common_interest_sinks_witness_themselves(self):
        # Below a welfare of about 1e-9 an absolute floor let every sink pass.
        for scale in (1.0, 2.0**-40):
            w = philox_rng(46, 0).uniform(0.1, 1.0, size=9) * scale
            g = NormalFormGame((3, 3), w, np.vstack([w, w]))
            lam, mu = best_smoothness(g)
            for witness in better_response_witness(g, lam, mu):
                assert witness.welfare >= (lam / mu - SLACK_TOL) * w.max()
                assert witness.aligned_action is not None

    def test_gap_game_better_sinks_reach_threshold(self):
        g = counterexample_game(1.0, 2.0)
        witnesses = better_response_witness(g, 1.0, 2.0)
        assert len(witnesses) == len(sink_components(build_kernel(g, BETTER)))
        for witness in witnesses:
            assert witness.welfare >= 0.5 - 1e-9

    def test_single_player_witness_is_utility_argmax(self):
        g = single_player_common([0.2, 0.9, 0.4])
        lam, mu = best_smoothness(g)
        (witness,) = better_response_witness(g, lam, mu)
        assert witness.action.flat == 1

    def test_invalid_certificate_rejected(self):
        g = counterexample_game(1.0, 2.0)
        with pytest.raises(InvalidParametersError):
            better_response_witness(g, 2.0, 2.0)


class TestMultiplicativeFloorIsNotUniversal:
    def test_known_ratio_perturbed_game_sits_between_the_two_floor_forms(self):
        # Frozen 2x2 game with singleton best responses whose utilities are a
        # ratio perturbation of the welfare within [0.95, 1/0.95].  Its worst
        # sink is a pure equilibrium with welfare ratio ~0.4224, which falls
        # below the multiplicative floor computed from its own certificate,
        # so a satisfied_geometric of False is a legitimate report.  Scaling
        # the floor's numerator by (1 - beta)^2 restores a true bound; this
        # pins the implemented formula and documents its known slack.
        welfare = np.array(
            [0.35413101624489496, 0.39825422757670503, 0.9429033097452117, 0.3690045797701359]
        )
        utilities = np.array(
            [
                [0.36708133668087484, 0.40490694447340153, 0.9237939725933054, 0.37594228383230427],
                [0.3590220875612458, 0.41501182784025675, 0.961518928697038, 0.3653698070120122],
            ]
        )
        game = NormalFormGame((2, 2), welfare, utilities)
        assert is_singleton_br(game)[0]
        beta = 0.05
        ratios = game.utilities / game.welfare
        assert np.all(ratios >= 1 - beta) and np.all(ratios <= 1 / (1 - beta))

        lam_c, mu_c = best_smoothness(game, common_interest=True)
        pos, worst = price_of_sinking(game, BEST)
        assert worst.support == (1,)
        assert pos == pytest.approx(0.4223701, abs=1e-6)

        stated = multiplicative_sinking_bound(lam_c, mu_c, 2, beta)
        assert pos < stated - 1e-3
        kept = (1 - beta) ** 2
        derived = kept * lam_c / (kept * mu_c + (1 - kept) * 2)
        assert pos >= derived - 1e-9

        report = bound_report(game)
        assert report.singleton_br
        assert report.satisfied_geometric is False
        assert report.satisfied_arithmetic is True


class TestSmoothnessCannotBoundSinking:
    def test_valid_certificates_with_zero_sinking_on_a_grid(self):
        for lam in (0.0, 0.3, 1.0, 2.0):
            for gap in (0.01, 0.5, 2.0):
                mu = lam + gap
                g = counterexample_game(lam, mu)
                assert check_smoothness(g, lam, mu).valid
                pos, _ = price_of_sinking(g)
                assert pos == 0.0
