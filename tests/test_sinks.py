import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinkeq.sinks as sinks
from sinkeq.dynamics import (
    BEST,
    BETTER,
    TransitionKernel,
    build_kernel,
    is_singleton_br,
)
from sinkeq.errors import DegenerateWelfareError, InvalidParametersError, NumericalFailureError
from sinkeq.game import NormalFormGame, enumerate_nash
from sinkeq.generators import (
    CoveringMonteCarloSpec,
    counterexample_game,
    make_covering_game,
    make_radio_game,
    philox_rng,
    run_monte_carlo,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)
from sinkeq.sinks import (
    STATIONARY_TOL,
    _tarjan,
    price_of_sinking,
    sink_components,
    sink_equilibria,
    stationary_distributions,
)

from reference_kernels import response_set, row, stack_kernels
from samplers import sample_action_counts


def single_player(utility):
    u = np.asarray(utility, dtype=float)
    return NormalFormGame((len(u),), np.abs(u), u.reshape(1, -1))


def common_interest(counts, welfare):
    w = np.asarray(welfare, dtype=float)
    return NormalFormGame(counts, w, np.vstack([w] * len(counts)))


def hand_kernel(rows):
    entries = [sorted(r.items()) for r in rows]
    return TransitionKernel(
        indptr=np.cumsum([0] + [len(e) for e in entries]),
        indices=np.array([t for e in entries for t, _ in e], dtype=np.int64),
        probs=np.array([p for e in entries for _, p in e]),
    )


class TestComponents:
    def test_single_player_sink_is_argmax(self):
        k = build_kernel(single_player([0.0, 1.0]), BEST)
        assert sink_components(k) == [(1,)]

    def test_gap_game_unique_four_state_sink(self):
        k = build_kernel(counterexample_game(1.0, 2.0), BEST)
        assert sink_components(k) == [(4, 5, 7, 8)]

    def test_common_interest_sinks_are_equilibria(self):
        g = common_interest((2, 2), [1.0, 0.0, 0.0, 2.0])
        k = build_kernel(g, BEST)
        assert sink_components(k) == [(0,), (3,)]

    def test_scc_on_hand_built_graph(self):
        # 0 <-> 1 feed 2, which self-loops.
        k = hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {2: 1.0}])
        comps = {c for c in _tarjan(k)[0]}
        assert comps == {(0, 1), (2,)}
        assert sink_components(k) == [(2,)]

    def test_every_state_reaches_a_sink(self):
        rng = philox_rng(31, 0)
        for _ in range(20):
            counts = sample_action_counts(rng, max_players=3, max_actions=4)
            g = sample_random_game(rng, counts)
            for mode in (BEST, BETTER):
                k = build_kernel(g, mode)
                sink_states = {s for comp in sink_components(k) for s in comp}
                reached = set(sink_states)
                frontier = list(sink_states)
                incoming = [[] for _ in range(k.num_states)]
                for src, dst, _ in k.edges():
                    incoming[dst].append(src)
                while frontier:
                    state = frontier.pop()
                    for src in incoming[state]:
                        if src not in reached:
                            reached.add(src)
                            frontier.append(src)
                assert reached == set(range(k.num_states))


class TestStationary:
    def test_singleton_support(self):
        k = build_kernel(single_player([0.0, 1.0]), BEST)
        np.testing.assert_allclose(stationary_distributions(k, [(1,)])[0], [1.0])

    def test_symmetric_two_cycle(self):
        k = hand_kernel([{1: 1.0}, {0: 1.0}])
        np.testing.assert_allclose(stationary_distributions(k, [(0, 1)])[0], [0.5, 0.5])

    def test_deterministic_four_cycle_is_uniform(self):
        k = hand_kernel([{1: 1.0}, {2: 1.0}, {3: 1.0}, {0: 1.0}])
        np.testing.assert_allclose(
            stationary_distributions(k, [(0, 1, 2, 3)])[0], [0.25] * 4
        )

    def test_periodic_chain_takes_the_lazy_step(self):
        # No self-loops and period 2: from the uniform start, iterating P
        # alone, or the undamped Jacobi step, would swap mass between {0, 2}
        # and {1} forever; the damped step converges.
        k = hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {1: 1.0}])
        np.testing.assert_allclose(
            stationary_distributions(k, [(0, 1, 2)])[0], [0.25, 0.5, 0.25], rtol=0, atol=1e-12
        )

    def test_open_support_is_rejected(self):
        k = hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {2: 1.0}])
        with pytest.raises(InvalidParametersError):
            stationary_distributions(k, [(0, 1)])

    def test_support_with_an_absorbing_state_is_rejected(self):
        # Closed, but state 1 is a sink of its own, so (0, 1) is no SCC; the
        # Jacobi step would divide by 1 - d = 0 there.
        k = hand_kernel([{1: 1.0}, {1: 1.0}])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidParametersError,
                match=r"^support is not a sink: state 1 only loops to itself$",
            ):
                stationary_distributions(k, [(0, 1)])

    def test_repeated_state_is_rejected(self):
        k = hand_kernel([{0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}])
        with pytest.raises(InvalidParametersError, match=r"^support repeats state 0$"):
            stationary_distributions(k, [(0, 0, 1)])

    @pytest.mark.parametrize("support,bad", [((-1, 0, 1), -1), ((0, 1, 2), 2)])
    def test_state_outside_the_kernel_is_rejected(self, support, bad):
        k = hand_kernel([{0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}])
        with pytest.raises(
            InvalidParametersError, match=rf"^support state {bad} is outside \[0, 2\)$"
        ):
            stationary_distributions(k, [support])

    def test_non_integral_state_is_rejected(self):
        k = hand_kernel([{0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}])
        with pytest.raises(
            InvalidParametersError, match=r"^support states must be integers, not float64$"
        ):
            stationary_distributions(k, [(0, 0.5)])

    def test_one_state_support_must_be_its_own_self_loop(self):
        k = hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {2: 1.0}])
        np.testing.assert_array_equal(stationary_distributions(k, [[np.int32(2)]])[0], [1.0])
        with pytest.raises(
            InvalidParametersError, match=r"^support is not closed: 1 -> 0 leaves it$"
        ):
            stationary_distributions(k, [(1,)])

    def test_residual_and_positivity_on_random_games(self):
        rng = philox_rng(32, 0)
        for _ in range(20):
            counts = sample_action_counts(rng, max_players=3, max_actions=4)
            g = sample_random_game(rng, counts)
            k = build_kernel(g, BEST)
            for support in sink_components(k):
                pi = stationary_distributions(k, [support])[0]
                assert pi.min() > 0.0
                assert abs(pi.sum() - 1.0) <= 1e-10
                pos = {s: i for i, s in enumerate(support)}
                residual = np.zeros(len(support))
                for s in support:
                    for t, p in row(k, s):
                        residual[pos[t]] += pi[pos[s]] * p
                assert np.max(np.abs(residual - pi)) <= 1e-10


class TestSinkEquilibria:
    def test_common_interest_matches_nash(self):
        g = common_interest((2, 2), [1.0, 0.0, 0.0, 2.0])
        eqs = sink_equilibria(g, BEST)
        assert [eq.support for eq in eqs] == [(0,), (3,)]
        assert [eq.expected_welfare for eq in eqs] == [1.0, 2.0]

    def test_gap_game_zero_welfare_sink(self):
        eqs = sink_equilibria(counterexample_game(1.0, 2.0), BEST)
        assert len(eqs) == 1
        assert eqs[0].support == (4, 5, 7, 8)
        assert eqs[0].expected_welfare == 0.0

    def test_single_player_concentrates_on_argmax(self):
        eqs = sink_equilibria(single_player([0.2, 0.9, 0.5]), BEST)
        assert len(eqs) == 1
        assert eqs[0].support == (1,)

    def test_common_interest_sinks_equal_nash_singletons(self):
        rng = philox_rng(33, 0)
        for _ in range(25):
            counts = sample_action_counts(
                rng, max_players=4, max_actions=4, max_profiles=256
            )
            total = int(np.prod(counts))
            g = common_interest(counts, rng.uniform(0.0, 1.0, size=total))
            supports = {eq.support for eq in sink_equilibria(g, BEST)}
            nash = {(ne.flat,) for ne in enumerate_nash(g)}
            assert supports == nash


class TestPriceOfSinking:
    def test_gap_game_is_exactly_zero(self):
        pos, worst = price_of_sinking(counterexample_game(1.0, 2.0), BEST)
        assert pos == 0.0
        assert worst.support == (4, 5, 7, 8)

    def test_common_interest_matches_anarchy(self):
        g = common_interest((2, 2), [1.0, 0.0, 0.0, 2.0])
        pos, worst = price_of_sinking(g, BEST)
        assert pos == pytest.approx(0.5)
        assert worst.support == (0,)

    def test_single_state_game(self):
        g = NormalFormGame((1,), np.array([3.0]), np.array([[1.0]]))
        pos, _ = price_of_sinking(g, BEST)
        assert pos == 1.0

    def test_degenerate_welfare_rejected(self):
        g = NormalFormGame((2,), np.zeros(2), np.array([[0.0, 1.0]]))
        with pytest.raises(DegenerateWelfareError):
            price_of_sinking(g, BEST)

    def test_ratio_in_unit_interval_and_tight_at_optimum(self):
        rng = philox_rng(34, 0)
        for _ in range(20):
            counts = sample_action_counts(rng, max_players=3, max_actions=4)
            g = sample_random_game(rng, counts)
            pos, _ = price_of_sinking(g, BEST)
            assert 0.0 <= pos <= 1.0
        # Sinks inside the welfare argmax force a ratio of one.
        w = np.array([2.0, 0.0, 0.0, 2.0])
        g = NormalFormGame((2, 2), w, np.vstack([w, w]))
        pos, _ = price_of_sinking(g, BEST)
        assert pos == 1.0

    def test_rounding_never_lifts_the_ratio_above_one(self):
        # Trial 31 of master seed 5 has a 126-state sink whose states all
        # have the optimal welfare; its probabilities sum to 1 + 1 ulp.
        spec = CoveringMonteCarloSpec(num_agents=4, num_regions=8, bias=0.01, scale=0.01)
        results = run_monte_carlo(spec, 50, 5).results
        assert results[31].pos == 1.0
        assert all(r.pos <= 1.0 for r in results)


class TestStationarityIdentity:
    def test_best_response_deviation_sums_vanish(self):
        # For singleton best responses, any function g has zero expected
        # total best-response increment under every sink distribution.
        rng = philox_rng(35, 0)
        checked = 0
        while checked < 40:
            counts = sample_action_counts(
                rng, max_players=3, max_actions=4, max_profiles=128
            )
            g = sample_random_game(rng, counts)
            if not is_singleton_br(g)[0]:
                continue
            checked += 1
            for eq in sink_equilibria(g, BEST):
                for _ in range(10):
                    func = rng.uniform(-1.0, 1.0, size=g.num_profiles)
                    total = []
                    for p, s in zip(eq.probabilities, eq.support):
                        ja = g.index_to_joint(s)
                        inner = 0.0
                        for i in range(g.num_players):
                            (br,) = response_set(g, i, s)
                            target = s + (br - ja.coords[i]) * g.strides[i]
                            inner += func[s] - func[target]
                        total.append(p * inner)
                    assert abs(math.fsum(total)) <= 1e-8


def dense_matrix(kernel, support):
    pos = {s: i for i, s in enumerate(support)}
    matrix = np.zeros((len(support), len(support)))
    for s in support:
        for t, p in row(kernel, s):
            matrix[pos[s], pos[t]] = p
    return matrix


def dense_solve(matrix):
    """Balance equations with the last one replaced by normalization."""
    k = matrix.shape[0]
    system = matrix.T - np.eye(k)
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def dense_power_iteration(matrix):
    """The solver's iteration with dense products: the damped Jacobi step
    pi <- (1 - w) pi + w (pi P - d pi) / (1 - d), d the diagonal of P,
    renormalized, stopped once max |pi P - pi| <= POWER_TOL."""
    omega, d = sinks._OMEGA, np.diag(matrix)
    pi = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(sinks.POWER_MAX_STEPS):
        product = pi @ matrix
        if np.max(np.abs(product - pi)) <= sinks.POWER_TOL:
            return pi / pi.sum()
        pi = (1 - omega) * pi + omega * (product - d * pi) / (1 - d)
        pi = pi / pi.sum()
    pytest.fail("dense power iteration did not converge")


def power_corpus():
    rng = philox_rng(41, 0)
    games = [sample_random_game(rng, sample_action_counts(rng)) for _ in range(12)]
    games += [make_radio_game(sample_radio_instance(n, 0.8, n)) for n in (3, 5, 7)]
    games += [
        make_covering_game(sample_covering_instance(4, m, 0.01, 0.01, m))
        for m in (2, 3, 4)
    ]
    return games


@pytest.fixture(scope="module")
def large_sink():
    """The first (6, 6, 6, 10) game of seed 1 with no pure Nash equilibrium;
    its better-response chain has one sink of more than 2000 states."""
    rng = philox_rng(1, 0)
    game = sample_random_game(rng, (6, 6, 6, 10))
    while enumerate_nash(game):
        game = sample_random_game(rng, (6, 6, 6, 10))
    kernel = build_kernel(game, BETTER)
    (support,) = sink_components(kernel)
    assert len(support) > 2000
    return kernel, support


@st.composite
def irreducible_chains(draw):
    """Rows of an irreducible chain on 2-12 states: a cycle through every
    state plus extra edges, in one of three families.

    * periodic: period p in 2..4, states in p classes, every edge from one
      class to the next, so no self-loops;
    * loopless: extra edges anywhere but the diagonal;
    * near-cycle: the cycle edge holds all but 1e-6..1e-2 of each row, with
      or without self-loops among the extras.
    """
    family = draw(st.sampled_from(["periodic", "loopless", "near-cycle"]))
    if family == "periodic":
        period = draw(st.integers(2, 4))
        k = period * draw(st.integers(1, 12 // period))
    else:
        k = draw(st.integers(2, 12))
    order = draw(st.permutations(range(k)))
    position = {state: i for i, state in enumerate(order)}
    eps = draw(st.floats(1e-6, 1e-2))
    rows = []
    for state in range(k):
        following = order[(position[state] + 1) % k]
        if family == "periodic":
            allowed = [t for t in range(k) if position[t] % period == (position[state] + 1) % period]
        elif family == "loopless":
            allowed = [t for t in range(k) if t != state]
        else:
            allowed = list(range(k))
        extras = draw(st.sets(st.sampled_from(allowed), max_size=3)) - {following}
        if family == "near-cycle":
            weights = {t: eps / len(extras) for t in extras}
            weights[following] = 1.0 - eps if extras else 1.0
        else:
            weights = {t: draw(st.floats(0.05, 1.0)) for t in extras | {following}}
            total = sum(weights.values())
            weights = {t: w / total for t, w in weights.items()}
        rows.append(weights)
    return rows


@settings(max_examples=300, deadline=None)
@given(irreducible_chains())
def test_irreducible_chains_match_a_dense_solve(rows):
    kernel = hand_kernel(rows)
    support = tuple(range(len(rows)))
    pi = stationary_distributions(kernel, [support])[0]
    assert pi.min() > 0.0
    np.testing.assert_allclose(
        pi, dense_solve(dense_matrix(kernel, support)), rtol=0, atol=STATIONARY_TOL
    )


class TestPowerPath:
    """The sparse power iteration, which every sink of two or more states
    takes, against dense references."""

    def test_matches_dense_references(self):
        checked = set()
        for game in power_corpus():
            for mode in (BEST, BETTER):
                kernel = build_kernel(game, mode)
                for support in sink_components(kernel):
                    if len(support) == 1:
                        continue
                    pi = stationary_distributions(kernel, [support])[0]
                    matrix = dense_matrix(kernel, support)
                    # Sparse and dense products of the same iteration agree to
                    # rounding; both stop within STATIONARY_TOL of the solve.
                    np.testing.assert_allclose(
                        pi, dense_power_iteration(matrix), rtol=0, atol=1e-15
                    )
                    np.testing.assert_allclose(
                        pi, dense_solve(matrix), rtol=0, atol=STATIONARY_TOL
                    )
                    checked.add((mode, len(support)))
        assert {mode for mode, _ in checked} == {BEST, BETTER}
        assert max(size for _, size in checked) > 100

    def test_real_sink_above_the_limit(self, large_sink):
        kernel, support = large_sink
        pi = stationary_distributions(kernel, [support])[0]
        matrix = dense_matrix(kernel, support)
        assert pi.min() > 0.0
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(pi @ matrix - pi)) <= STATIONARY_TOL
        np.testing.assert_allclose(pi, dense_solve(matrix), rtol=0, atol=STATIONARY_TOL)

    def test_large_sink_takes_at_most_80_products(self, large_sink, monkeypatch):
        # The damped Jacobi step takes 55 products here, the certificate's
        # included; stepping with P itself took 175.
        products = []
        left_product = sinks._left_product

        def counted(pi, triples):
            products.append(pi.size)
            return left_product(pi, triples)

        monkeypatch.setattr(sinks, "_left_product", counted)
        kernel, support = large_sink
        stationary_distributions(kernel, [support])
        assert 0 < len(products) <= 80

    def test_allocates_no_dense_matrix(self, large_sink):
        kernel, support = large_sink
        k = len(support)
        tracemalloc.start()
        try:
            stationary_distributions(kernel, [support])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8 / 10

    def test_open_support_above_the_limit_is_rejected(self):
        k = hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {2: 1.0}])
        with pytest.raises(
            InvalidParametersError, match=r"^support is not closed: 1 -> 2 leaves it$"
        ):
            stationary_distributions(k, [(0, 1)])

    def test_failure_names_size_steps_and_residual(self, monkeypatch):
        monkeypatch.setattr(sinks, "POWER_MAX_STEPS", 3)
        k = hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {0: 1.0}])
        with pytest.raises(NumericalFailureError) as info:
            stationary_distributions(k, [(0, 1, 2)])
        message = str(info.value)
        assert "3-state sink" in message
        assert "3 steps" in message
        residual = float(message.rsplit("residual ", 1)[1].rstrip(")"))
        assert residual > sinks.POWER_TOL


def reference_stationary(kernel, support):
    """The solve on one support alone, as it ran before supports were
    batched: the damped Jacobi iteration on that sink's rows only."""
    rows = np.sort(np.asarray(support)).astype(np.int64)
    k = rows.size
    if k == 1:
        return np.array([1.0])
    local = np.full(kernel.num_states, -1)
    local[rows] = np.arange(k)
    lengths = kernel.indptr[rows + 1] - kernel.indptr[rows]
    edges = np.concatenate([np.arange(kernel.indptr[r], kernel.indptr[r + 1]) for r in rows])
    cols, prob = local[kernel.indices[edges]], kernel.probs[edges]
    src = np.repeat(np.arange(k), lengths)
    d = np.zeros(k)
    d[cols[src == cols]] = prob[src == cols]
    scale = sinks._OMEGA / (1.0 - d)
    pi = np.full(k, 1.0 / k)
    while True:
        step = np.bincount(cols, weights=np.repeat(pi, lengths) * prob, minlength=k) - pi
        if np.max(np.abs(step)) <= sinks.POWER_TOL:
            return pi / pi.sum()
        pi += step * scale
        pi /= pi.sum()


@st.composite
def stacked_kernels(draw):
    """One to five random games' kernels, best or better mode, stacked
    block-diagonally: their sinks mix pure equilibria with cycle classes
    whose solves stop after different numbers of steps."""
    kernels = []
    for _ in range(draw(st.integers(1, 5))):
        rng = philox_rng(draw(st.integers(0, 2**32)), 0)
        game = sample_random_game(rng, sample_action_counts(rng, max_players=3, max_actions=4))
        kernels.append(build_kernel(game, draw(st.sampled_from((BEST, BETTER)))))
    return stack_kernels(kernels)


class TestBatchedStationary:
    @settings(max_examples=150, deadline=None)
    @given(stacked_kernels(), st.randoms(use_true_random=False))
    def test_equals_single_solves_bit_for_bit(self, kernel, random):
        supports = sink_components(kernel)
        random.shuffle(supports)
        supports = [tuple(random.sample(s, len(s))) for s in supports]
        batched = stationary_distributions(kernel, supports)
        assert len(batched) == len(supports)
        for support, pi in zip(supports, batched):
            assert pi.tobytes() == stationary_distributions(kernel, [support])[0].tobytes()
            assert pi.tobytes() == reference_stationary(kernel, support).tobytes()

    def test_sinks_that_stop_at_different_steps(self, monkeypatch):
        # Sinks of the random-sink shape, both modes, beside a covering
        # game's and a pure equilibrium, in one solve.
        rng = philox_rng(1, 0)
        game = sample_random_game(rng, (6, 6, 6, 10))
        while enumerate_nash(game):
            game = sample_random_game(rng, (6, 6, 6, 10))
        kernel = stack_kernels([
            build_kernel(game, BETTER),
            build_kernel(make_covering_game(sample_covering_instance(4, 8, 0.01, 0.01, 3)), BEST),
            build_kernel(game, BEST),
            build_kernel(common_interest((2, 2), [1.0, 0.0, 0.0, 2.0]), BEST),
        ])
        supports = sink_components(kernel)
        products = []
        left_product = sinks._left_product

        def counted(pi, triples):
            products[-1] += 1
            return left_product(pi, triples)

        monkeypatch.setattr(sinks, "_left_product", counted)
        for support in supports:
            products.append(0)
            stationary_distributions(kernel, [support])
        monkeypatch.undo()
        assert min(len(s) for s in supports) == 1 and len(set(products)) > 2
        for support, pi in zip(supports, stationary_distributions(kernel, supports)):
            assert pi.tobytes() == reference_stationary(kernel, support).tobytes()

    KERNEL = [
        {0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}, {2: 0.5, 3: 0.5}, {3: 1.0},
        {4: 0.5, 5: 0.5}, {4: 0.5, 5: 0.5}, {6: 0.5, 7: 0.5}, {0: 1.0},
    ]

    @pytest.mark.parametrize(
        "bad",
        [(), (2, 2, 3), (-1, 3), (3, 8), (2, 2.5), (2,), (6, 7), (2, 3)],
        ids=["empty", "repeat", "negative", "too-large", "non-integer",
             "open-one-state", "open", "absorbing-inside"],
    )
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_bad_support_fails_as_it_does_alone(self, bad, position):
        kernel = hand_kernel(self.KERNEL)
        supports = [(0, 1), (4, 5)]
        supports.insert(position, bad)
        with pytest.raises(InvalidParametersError) as alone:
            stationary_distributions(kernel, [bad])
        with pytest.raises(InvalidParametersError) as batched:
            stationary_distributions(kernel, supports)
        assert str(batched.value) == str(alone.value)

    def test_supports_may_not_share_a_state(self):
        kernel = hand_kernel(self.KERNEL)
        with pytest.raises(InvalidParametersError, match=r"^supports share state 1$"):
            stationary_distributions(kernel, [(0, 1), (4, 5), (7, 1, 6)])

    def test_no_supports(self):
        assert stationary_distributions(hand_kernel(self.KERNEL), []) == []

    def test_failure_names_the_first_unsettled_sink(self, monkeypatch):
        monkeypatch.setattr(sinks, "POWER_MAX_STEPS", 3)
        kernel = stack_kernels([
            hand_kernel([{0: 1.0}]),
            hand_kernel([{1: 1.0}, {0: 1.0}]),
            hand_kernel([{1: 1.0}, {0: 0.5, 2: 0.5}, {0: 1.0}]),
        ])
        supports = [(0,), (1, 2), (3, 4, 5)]
        with pytest.raises(NumericalFailureError) as alone:
            stationary_distributions(kernel, [(3, 4, 5)])
        with pytest.raises(NumericalFailureError) as batched:
            stationary_distributions(kernel, supports)
        assert str(batched.value) == str(alone.value)
        assert "3-state sink" in str(alone.value)
