"""End-to-end acceptance suite.

Each test exercises one headline guarantee at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s`` to see them as they happen).
"""

import math
import time

import numpy as np

from sinkeq.dynamics import BEST, BETTER, build_kernel, is_singleton_br
from sinkeq.game import enumerate_nash, positive_optimum
from sinkeq.generators import (
    CoveringMonteCarloSpec,
    RadioMonteCarloSpec,
    counterexample_game,
    covering_sinking_bound,
    expected_covering_misalignment,
    make_covering_game,
    make_radio_game,
    philox_rng,
    run_monte_carlo,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)
from sinkeq.sinks import (
    price_of_sinking,
    sink_components,
    sink_equilibria,
)
from sinkeq.smoothness import (
    additive_sinking_bound,
    best_smoothness,
    better_response_witness,
    check_smoothness,
    multiplicative_sinking_bound,
)

from reference_kernels import response_set, row, solve_supports
from samplers import (
    sample_action_counts,
    sample_game_with_pure_nash,
    sample_near_common_game,
    trial_seed,
)

TOL = 1e-9


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gap_game_reproduction():
    start = time.perf_counter()
    failures = []
    for lam, mu in [(0.0, 1.0), (1.0, 2.0), (1.0, 1.01), (0.5, 3.0)]:
        game = counterexample_game(lam, mu)
        cert = check_smoothness(game, lam, mu)
        sinks = sink_components(build_kernel(game, BEST))
        pos, _ = price_of_sinking(game, BEST)
        if not (cert.valid and sinks == [(4, 5, 7, 8)] and pos == 0.0):
            failures.append((lam, mu, cert.valid, sinks, pos))
    elapsed = time.perf_counter() - start
    report(
        "gap game reproduction",
        not failures and elapsed < 1.0,
        f"4 parameter pairs, single zero-welfare sink (4,5,7,8), {elapsed:.2f}s"
        + (f", failures={failures}" if failures else ""),
    )


def test_anarchy_bound_soundness():
    start = time.perf_counter()
    rng = philox_rng(2024, 2)
    violations = 0
    for _ in range(1000):
        game = sample_game_with_pure_nash(rng, max_players=3, max_actions=4)
        lam, mu = best_smoothness(game)
        worst = min(game.welfare[ne.flat] for ne in enumerate_nash(game))
        if worst / positive_optimum(game)[1] < lam / mu - TOL:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "anarchy lower bound soundness",
        violations == 0 and elapsed < 30.0,
        f"1000 games with pure equilibria, violations={violations}, {elapsed:.1f}s",
    )


def test_stationary_deviation_identity():
    start = time.perf_counter()
    rng = philox_rng(2024, 3)
    worst = 0.0
    games = 0
    while games < 200:
        counts = sample_action_counts(rng, max_players=4, max_actions=4, max_profiles=256)
        game = sample_random_game(rng, counts)
        if not is_singleton_br(game)[0]:
            continue
        games += 1
        for eq in sink_equilibria(game, BEST):
            for _ in range(10):
                func = rng.uniform(-1.0, 1.0, size=game.num_profiles)
                terms = []
                for p, state in zip(eq.probabilities, eq.support):
                    ja = game.index_to_joint(state)
                    inner = 0.0
                    for i in range(game.num_players):
                        (br,) = response_set(game, i, state)
                        target = state + (br - ja.coords[i]) * game.strides[i]
                        inner += func[state] - func[target]
                    terms.append(p * inner)
                worst = max(worst, abs(math.fsum(terms)))
    elapsed = time.perf_counter() - start
    report(
        "stationary deviation identity",
        worst <= 1e-8 and elapsed < 60.0,
        f"200 singleton-response games x 10 functions, worst |E| = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def _misalignment_floor_run(noise, floor):
    rng = philox_rng(2024, 4 if noise == "additive" else 5)
    betas = (0.001, 0.01, 0.05)
    violations = 0
    worst_margin = math.inf
    for trial in range(500):
        beta = betas[trial % 3]
        players = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(2, 5)) for _ in range(players))
        game = sample_near_common_game(rng, counts, beta, noise=noise)
        lam_c, mu_c = best_smoothness(game, common_interest=True)
        bound = floor(lam_c, mu_c, players, beta)
        pos, _ = price_of_sinking(game, BEST)
        worst_margin = min(worst_margin, pos - bound)
        if pos < bound - TOL:
            violations += 1
    return violations, worst_margin


def test_additive_misalignment_floor():
    start = time.perf_counter()
    violations, margin = _misalignment_floor_run("additive", additive_sinking_bound)
    elapsed = time.perf_counter() - start
    report(
        "additive misalignment floor",
        violations == 0,
        f"500 perturbed common-interest games, violations={violations}, "
        f"worst margin={margin:.4f}, {elapsed:.1f}s",
    )


def test_multiplicative_misalignment_floor():
    start = time.perf_counter()
    violations, margin = _misalignment_floor_run(
        "multiplicative", multiplicative_sinking_bound
    )
    elapsed = time.perf_counter() - start
    report(
        "multiplicative misalignment floor",
        violations == 0,
        f"500 perturbed common-interest games, violations={violations}, "
        f"worst margin={margin:.4f}, {elapsed:.1f}s",
    )


def test_covering_expected_floor():
    start = time.perf_counter()
    spec = CoveringMonteCarloSpec(num_agents=2, num_regions=3, bias=0.01, scale=0.01)
    summary = run_monte_carlo(spec, trials=2000, master_seed=2024)
    bound = covering_sinking_bound(
        2, expected_covering_misalignment(0.01, 0.01, 3)
    )
    elapsed = time.perf_counter() - start
    ok = summary.mean_pos >= bound - 3 * summary.std_err and elapsed < 120.0
    report(
        "covering expected floor",
        ok,
        f"2000 trials, mean={summary.mean_pos:.4f} (se {summary.std_err:.5f}) "
        f"vs bound {bound:.6f}, {elapsed:.1f}s",
    )


def test_radio_per_instance_floor():
    start = time.perf_counter()
    total_violations = 0
    mismatch = 0
    below_third = 0
    for players in (2, 3, 4):
        for alpha in (1.0, 0.9, 0.8):
            spec = RadioMonteCarloSpec(num_agents=players, alpha=alpha)
            summary = run_monte_carlo(spec, trials=500, master_seed=2024)
            total_violations += summary.violations
            if alpha == 1.0:
                if summary.min_pos < 1.0 / 3.0 - TOL:
                    below_third += 1
                for trial in range(500):
                    seed = trial_seed(2024, trial)
                    game = make_radio_game(
                        sample_radio_instance(players, 1.0, seed)
                    )
                    supports = {eq.support for eq in sink_equilibria(game, BEST)}
                    nash = {(ne.flat,) for ne in enumerate_nash(game)}
                    if supports != nash:
                        mismatch += 1
    elapsed = time.perf_counter() - start
    ok = total_violations == 0 and mismatch == 0 and below_third == 0
    report(
        "radio per-instance floor",
        ok,
        f"9 configs x 500 trials, violations={total_violations}, "
        f"exact-estimate sink/equilibrium mismatches={mismatch}, {elapsed:.1f}s",
    )


def test_common_interest_smoothness_constants():
    start = time.perf_counter()
    rng = philox_rng(2024, 8)
    radio_failures = 0
    for _ in range(200):
        players = int(rng.integers(2, 7))
        game = make_radio_game(
            sample_radio_instance(players, 0.8, int(rng.integers(0, 2**32)))
        )
        if not check_smoothness(game, 1.0, 3.0, common_interest=True).valid:
            radio_failures += 1
    covering_failures = 0
    for _ in range(200):
        agents = int(rng.integers(1, 4))
        regions = int(rng.integers(1, 7))
        instance = sample_covering_instance(
            agents, regions, 0.01, 0.01, int(rng.integers(0, 2**32))
        )
        game = make_covering_game(instance)
        if not check_smoothness(game, 1.0, 2.0, common_interest=True).valid:
            covering_failures += 1
    elapsed = time.perf_counter() - start
    report(
        "common-interest smoothness constants",
        radio_failures == 0 and covering_failures == 0,
        f"(1,3) on 200 interference games, (1,2) on 200 covering games, "
        f"failures={radio_failures}+{covering_failures}, {elapsed:.1f}s",
    )


def test_better_response_sink_witness():
    start = time.perf_counter()
    rng = philox_rng(2024, 9)
    failures = 0
    for _ in range(300):
        counts = sample_action_counts(rng, max_players=3, max_actions=4)
        game = sample_random_game(rng, counts)
        lam, mu = best_smoothness(game)
        floor = lam / mu * game.welfare.max()
        witnesses = better_response_witness(game, lam, mu)
        if not all(w.welfare >= floor - TOL for w in witnesses):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        "better-response sink witness",
        failures == 0,
        f"300 games, witness failures={failures}, {elapsed:.1f}s",
    )


def test_numerical_hygiene():
    start = time.perf_counter()
    rng = philox_rng(2024, 10)

    worst_row = 0.0
    worst_residual = 0.0
    games = [counterexample_game(1.0, 2.0), counterexample_game(0.0, 1.0)]
    for _ in range(15):
        games.append(sample_random_game(rng, sample_action_counts(rng)))
    for seed in range(5):
        games.append(make_radio_game(sample_radio_instance(4, 0.8, seed)))
        games.append(
            make_covering_game(sample_covering_instance(2, 3, 0.01, 0.01, seed))
        )
    for game in games:
        for mode in (BEST, BETTER):
            kernel = build_kernel(game, mode)
            for s in range(kernel.num_states):
                worst_row = max(worst_row, abs(sum(p for _, p in row(kernel, s)) - 1.0))
            for support in sink_components(kernel):
                pi = solve_supports(kernel, [support])[0]
                pos = {s: i for i, s in enumerate(support)}
                flow = np.zeros(len(support))
                for s in support:
                    for t, p in row(kernel, s):
                        flow[pos[t]] += pi[pos[s]] * p
                worst_residual = max(worst_residual, float(np.max(np.abs(flow - pi))))

    samples = np.abs(philox_rng(2024, 11).normal(0.01, 0.01, size=100_000))
    sample_err = float(samples.std(ddof=1) / math.sqrt(samples.size))
    folded_gap = abs(
        float(samples.mean()) - expected_covering_misalignment(0.01, 0.01, 1)
    )
    elapsed = time.perf_counter() - start
    ok = worst_row <= 1e-12 and worst_residual <= 1e-10 and folded_gap <= 3 * sample_err
    report(
        "numerical hygiene",
        ok,
        f"row-sum err {worst_row:.1e}, stationary residual {worst_residual:.1e}, "
        f"folded-normal gap {folded_gap:.2e} vs 3se {3 * sample_err:.2e}, {elapsed:.1f}s",
    )
