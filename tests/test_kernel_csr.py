"""The CSR kernel against the per-state reference construction, and the
sink detection against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinkeq.sinks as sinks
from sinkeq.dynamics import (
    BEST,
    BETTER,
    TransitionKernel,
    best_response_fibers,
    build_kernel,
    stacked_kernel,
)
from sinkeq.game import NormalFormGame, enumerate_nash
from sinkeq.generators import (
    CoveringMonteCarloSpec,
    RadioMonteCarloSpec,
    make_covering_game,
    make_radio_game,
    philox_rng,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)
from sinkeq.sinks import _tarjan, price_of_sinking, sink_components
from sinkeq.streams import philox_generator

from reference_kernels import row, solve_supports, stack_kernels, stacked_tables
from samplers import sample_action_counts, trial_seed


def reference_sets(game, mode, tie_tol):
    """``sets[a][player]``: the response set at state a and the flat index of
    each of the player's actions there, from a plain loop over coordinates."""
    sets = []
    for a in range(game.num_profiles):
        coords = game.index_to_joint(a).coords
        per_player = []
        for player, table in enumerate(game.utilities):
            targets = [
                game.joint_to_index(coords[:player] + (k,) + coords[player + 1:])
                for k in range(game.action_counts[player])
            ]
            values = [table[t] for t in targets]
            floor = max(values) - tie_tol if mode == BEST else table[a]
            acts = tuple(k for k, v in enumerate(values) if v >= floor)
            per_player.append((acts, targets))
        sets.append(per_player)
    return sets


def reference_rows(sets):
    """Row-by-row dict accumulation: each player adds ``1 / (n * |set|)`` to
    every target in its response set, in player order."""
    rows = []
    for per_player in sets:
        acc = {}
        for acts, targets in per_player:
            share = 1.0 / (len(per_player) * len(acts))
            for k in acts:
                acc[targets[k]] = acc.get(targets[k], 0.0) + share
        rows.append(tuple(sorted(acc.items())))
    return rows


def corpus():
    rng = philox_rng(61, 0)
    games = [sample_random_game(rng, sample_action_counts(rng)) for _ in range(8)]
    games += [make_radio_game(sample_radio_instance(n, 0.8, n)) for n in (3, 5, 7)]
    games += [
        make_covering_game(sample_covering_instance(m, 3, 0.01, 0.01, m))
        for m in (2, 3, 4)
    ]
    return games


GAMES = corpus()
CASES = [(mode, tie_tol) for mode in (BEST, BETTER) for tie_tol in (0.0, 0.5)]


@pytest.mark.parametrize("mode,tie_tol", CASES)
def test_kernel_equals_reference_exactly(mode, tie_tol):
    for game in GAMES:
        sets = reference_sets(game, mode, tie_tol)
        kernel = build_kernel(game, mode, tie_tol)
        rows = [row(kernel, s) for s in range(kernel.num_states)]
        assert rows == reference_rows(sets)


def networkx_graph(kernel):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(kernel.num_states))
    graph.add_edges_from((src, dst) for src, dst, _ in kernel.edges())
    return graph


def networkx_sinks(kernel):
    return sorted(tuple(sorted(c)) for c in nx.attracting_components(networkx_graph(kernel)))


def count_tarjan_calls(monkeypatch):
    calls = []

    def counted(kernel):
        calls.append(kernel.num_states)
        return _tarjan(kernel)

    monkeypatch.setattr(sinks, "_tarjan", counted)
    return calls


def count_coloring_calls(monkeypatch):
    calls = []

    def counted(kernel, budget):
        calls.append(budget)
        return colored(kernel, budget)

    colored = sinks._colored_sinks
    monkeypatch.setattr(sinks, "_colored_sinks", counted)
    return calls


def assert_every_path_finds(kernel, expected):
    """The trimmed path, the coloring with trimming bypassed and the Tarjan
    pass forced all give the expected sinks."""
    assert sink_components(kernel) == expected
    with pytest.MonkeyPatch.context() as patch:
        # Unbounded, the marking settles exactly the kernels whose sinks are
        # all single states.
        patch.setattr(sinks, "_SWEEP_BUDGET", 10**6)
        trimmed, _ = sinks._absorbing_sinks(kernel)
        if all(len(c) == 1 for c in expected):
            assert [(s,) for s in trimmed.tolist()] == expected
        else:
            assert trimmed is None
    assert sinks._sink_tuples(*sinks._colored_sinks(kernel, 10**6)) == expected
    with pytest.MonkeyPatch.context() as patch:
        # With no sweeps to spend, a kernel that needs a sweep takes the
        # Tarjan fallback; one whose states are all absorbing needs none.
        patch.setattr(sinks, "_SWEEP_BUDGET", 0)
        calls = count_tarjan_calls(patch)
        assert sink_components(kernel) == expected
        all_absorbing = expected == [(s,) for s in range(kernel.num_states)]
        assert calls == ([] if all_absorbing else [kernel.num_states])
    assert sinks._sink_tuples(*sinks._tarjan_partition(kernel)) == expected


@pytest.mark.parametrize("mode,tie_tol", CASES)
def test_components_match_networkx(mode, tie_tol):
    for game in GAMES:
        kernel = build_kernel(game, mode, tie_tol)
        graph = networkx_graph(kernel)
        sccs = {tuple(sorted(c)) for c in nx.strongly_connected_components(graph)}
        expected = sorted(tuple(sorted(c)) for c in nx.attracting_components(graph))
        assert set(_tarjan(kernel)[0]) == sccs
        assert_every_path_finds(kernel, expected)


def staircase_game(m):
    """Two players with m actions each: the row player's best response to
    column b is b + 1 (capped at m - 1), the column player's best response
    to row a is a.  Best responses climb one step at a time from (0, 0) to
    the Nash equilibrium (m - 1, m - 1), a path of 2m - 2 moves."""
    a, b = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
    row = (a == np.minimum(b + 1, m - 1)).astype(float).ravel()
    col = (b == a).astype(float).ravel()
    return NormalFormGame((m, m), row + col, np.vstack([row, col]))


class CountingSweeps:
    """Stands in for numpy in ``sinkeq.sinks`` and counts the ``reduceat``
    calls, one per marking sweep and one per coloring sweep of step (a)."""

    def __init__(self):
        self.sweeps = 0
        counter = self

        class Ufunc:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, *args, **kwargs):
                return self.ufunc(*args, **kwargs)

            def reduceat(self, *args, **kwargs):
                counter.sweeps += 1
                return self.ufunc.reduceat(*args, **kwargs)

        self.logical_or = Ufunc(np.logical_or)
        self.maximum = Ufunc(np.maximum)

    def __getattr__(self, name):
        return getattr(np, name)


def test_long_staircase_takes_the_tarjan_fallback(monkeypatch):
    # 4,096 states that reach the absorbing equilibrium along a path of 126
    # moves, so the marking needs more sweeps than the budget holds.
    kernel = build_kernel(staircase_game(64), BEST)
    calls = count_tarjan_calls(monkeypatch)
    colorings = count_coloring_calls(monkeypatch)
    counter = CountingSweeps()
    monkeypatch.setattr(sinks, "np", counter)
    found = sink_components(kernel)
    monkeypatch.undo()
    assert calls == [kernel.num_states]
    assert 0 < counter.sweeps <= sinks._SWEEP_BUDGET
    assert colorings in ([], [0])
    assert found == networkx_sinks(kernel)
    assert (63 + 63 * 64,) in found


def test_long_staircase_spends_the_fiber_budget_then_takes_tarjan(monkeypatch):
    # The fiber search marks as the edge search does, so it too spends the
    # whole budget on the staircase's marking; ``batch_prices`` then builds
    # the kernel for one Tarjan pass.
    game = staircase_game(64)
    want, _ = price_of_sinking(game, BEST)
    spent = []

    def counted(*args):
        found, sweeps = marking(*args)
        spent.append(sweeps)
        return found, sweeps

    marking = sinks._marking
    monkeypatch.setattr(sinks, "_marking", counted)
    calls = count_tarjan_calls(monkeypatch)
    got = sinks.batch_prices(*stacked_tables([game]))
    assert spent == [sinks._SWEEP_BUDGET]
    assert calls == [game.num_profiles]
    assert np.array(got).tobytes() == np.array([want]).tobytes()


def test_short_staircase_in_a_covering_batch_settles_without_tarjan(monkeypatch):
    games = [staircase_game(8)] + [
        make_covering_game(sample_covering_instance(2, 8, 0.0, 1.0, trial_seed(5, trial)))
        for trial in range(6)
    ]
    want = [price_of_sinking(game, BEST)[0] for game in games]
    calls = count_tarjan_calls(monkeypatch)
    got = sinks.batch_prices(*stacked_tables(games))
    assert calls == []
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("length", [1_000, 10_000])
def test_long_rising_path_finishes_in_the_coloring(monkeypatch, length):
    # Each state moves to the next, up to a two-state sink at the end: no
    # state is absorbing, and a color that moved one edge per sweep would
    # need more sweeps than the budget holds.  A state also takes the color
    # of its color, so along rising labels the colors cover twice the
    # distance each sweep.
    targets = np.append(np.arange(1, length), length - 2)
    kernel = TransitionKernel(
        indptr=np.arange(length + 1),
        indices=targets,
        probs=np.ones(length),
    )
    calls = count_tarjan_calls(monkeypatch)
    colorings = count_coloring_calls(monkeypatch)
    found = sink_components(kernel)
    monkeypatch.undo()
    assert calls == []
    assert colorings == [sinks._SWEEP_BUDGET]
    assert found == networkx_sinks(kernel) == [(length - 2, length - 1)]


@st.composite
def chains(draw):
    """Hand-built kernels: a run of blocks in topological order, each block
    a cycle (a single state may lack its self-loop when it has an exit),
    with edges from a block to later ones, and the states relabeled by a
    random permutation.  Runs of single states make long paths; blocks with
    no exit are sinks, the others transient SCCs."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=40))
    starts = np.cumsum([0] + sizes).tolist()
    blocks = [list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    rows = [set() for _ in range(starts[-1])]
    for b, block in enumerate(blocks):
        later = list(range(b + 1, len(blocks)))
        exits = draw(st.lists(st.sampled_from(later), max_size=3)) if later else []
        if later and draw(st.booleans()):
            exits.append(b + 1)  # continue a path
        for target in exits:
            rows[draw(st.sampled_from(block))].add(draw(st.sampled_from(blocks[target])))
        if len(block) > 1 or not exits or draw(st.booleans()):
            for i, state in enumerate(block):
                rows[state].add(block[(i + 1) % len(block)])
    perm = draw(st.permutations(range(len(rows))))
    relabeled = [None] * len(rows)
    for state, row in enumerate(rows):
        relabeled[perm[state]] = sorted(perm[t] for t in row)
    return TransitionKernel(
        indptr=np.cumsum([0] + [len(r) for r in relabeled]),
        indices=np.array([t for r in relabeled for t in r], dtype=np.int64),
        probs=np.concatenate([np.full(len(r), 1.0 / len(r)) for r in relabeled]),
    )


@settings(max_examples=300, deadline=None)
@given(chains())
def test_coloring_and_tarjan_agree_with_networkx(kernel):
    assert_every_path_finds(kernel, networkx_sinks(kernel))


@settings(max_examples=100, deadline=None)
@given(st.lists(chains(), min_size=1, max_size=4))
def test_stacked_kernels_keep_each_block(kernels):
    stacked = stack_kernels(kernels)
    offsets = np.cumsum([0] + [k.num_states for k in kernels]).tolist()
    expected_rows, expected_sinks = [], []
    for kernel, offset in zip(kernels, offsets):
        expected_rows += [
            tuple((t + offset, p) for t, p in row(kernel, s)) for s in range(kernel.num_states)
        ]
        expected_sinks += [tuple(s + offset for s in sink) for sink in networkx_sinks(kernel)]
    assert [row(stacked, s) for s in range(stacked.num_states)] == expected_rows
    assert sink_components(stacked) == expected_sinks


def covering_batch_kernels(master):
    """The block-diagonal kernels that run_monte_carlo searches in a
    benchmark ``covering-mc`` run, built as it builds them."""
    spec = CoveringMonteCarloSpec(4, 8, 0.01, 0.01)
    for counts, tables, rows in spec.batches(range(50), master, philox_generator()):
        yield stacked_kernel(counts, tables[1:, rows], BEST)


def radio_pool_kernels(seed):
    """The best-response kernels of the benchmark's 12-player radio pool."""
    for i in range(15):
        game = make_radio_game(sample_radio_instance(12, 0.8, seed * 15 + i))
        yield build_kernel(game, BEST)


def benchmark_pool_kernels():
    """The response kernels that the benchmark's three workloads analyze,
    on seeds 1 and 1009."""
    for seed in (1, 1009):
        yield from radio_pool_kernels(seed)
        rng = philox_rng(seed, 0)
        found = 0
        while found < 10:
            game = sample_random_game(rng, (6, 6, 6, 10))
            if enumerate_nash(game):
                continue
            found += 1
            yield build_kernel(game, BETTER)
            yield build_kernel(game, BEST)
        for master in range(seed * 5, seed * 5 + 5):
            for trial in range(50):
                instance = sample_covering_instance(4, 8, 0.01, 0.01, trial_seed(master, trial))
                yield build_kernel(make_covering_game(instance), BEST)
            yield from covering_batch_kernels(master)


def test_radio_pool_sinks_are_settled_by_marking(monkeypatch):
    # Every sink of these games is a pure equilibrium, an absorbing state.
    colorings = count_coloring_calls(monkeypatch)
    for seed in (1, 1009):
        for kernel in radio_pool_kernels(seed):
            assert all(len(sink) == 1 for sink in sink_components(kernel))
    assert colorings == []


def test_benchmark_pools_take_no_fallback(monkeypatch):
    calls = count_tarjan_calls(monkeypatch)
    for kernel in benchmark_pool_kernels():
        sink_components(kernel)
    assert calls == []


def partition_kernels():
    """The staircases, the covering batches that run_monte_carlo searches
    on two benchmark master seeds, and the corpus games' best- and
    better-response kernels: the marking, coloring and Tarjan paths."""
    yield "staircase-64", build_kernel(staircase_game(64), BEST)
    yield "staircase-8", build_kernel(staircase_game(8), BEST)
    for master in (5, 6):
        for batch, kernel in enumerate(covering_batch_kernels(master)):
            yield f"covering-{master}-{batch}", kernel
    for i, game in enumerate(GAMES):
        for mode in (BEST, BETTER):
            yield f"corpus-{i}-{mode}", build_kernel(game, mode)


def test_sink_partition_arrays():
    for name, kernel in partition_kernels():
        members, sizes = sinks._sink_partition(kernel)
        assert members.dtype == sizes.dtype == np.int64, name
        found = sinks._sink_tuples(members, sizes)
        tarjan = sinks._sink_tuples(*sinks._tarjan_partition(kernel))
        assert found == sink_components(kernel) == tarjan, name
        # The solve of every sink at once, as ``sink_equilibria`` runs it,
        # against the solve of each alone.
        for support, vector in zip(found, solve_supports(kernel, found)):
            if len(support) > 1:
                alone = solve_supports(kernel, [support])[0]
                assert vector.tobytes() == alone.tobytes(), name


def fiber_search_batches():
    """Batches as ``batch_prices`` reads them: the covering batches of
    master seeds 5-9 in the benchmark setting and one whose sinks' welfare
    varies, the ``radio-mc --n 8`` batches, both staircases and each corpus
    game alone."""
    for spec in (CoveringMonteCarloSpec(4, 8, 0.01, 0.01), CoveringMonteCarloSpec(4, 8, 0, 1)):
        for master in range(5, 10):
            for batch, arrays in enumerate(spec.batches(range(50), master, philox_generator())):
                yield f"covering-{spec.bias}-{master}-{batch}", *arrays
    spec = RadioMonteCarloSpec(8, 0.8)
    for batch, arrays in enumerate(spec.batches(range(50), 5, philox_generator())):
        yield f"radio-8-{batch}", *arrays
    for m in (8, 64):
        yield f"staircase-{m}", *stacked_tables([staircase_game(m)])
    for i, game in enumerate(GAMES):
        yield f"corpus-{i}", *stacked_tables([game])


def test_fiber_search_arrays():
    ragged, fallbacks = set(), []
    for name, counts, tables, rows in fiber_search_batches():
        ragged.add(bool((counts != counts[0]).any()))
        found = sinks._fiber_sinks(best_response_fibers(counts, tables[1:], rows))
        want = sinks._sink_partition(stacked_kernel(counts, tables[1:, rows], BEST))
        if found is None:
            fallbacks.append(name)
            continue
        for got, array in zip(found, want):
            assert got.dtype == array.dtype == np.int64, name
            assert got.tobytes() == array.tobytes(), name
    # Only the long staircase spends the budget.
    assert fallbacks == ["staircase-64"]
    assert ragged == {False, True}


@st.composite
def tied_batches(draw):
    """One to four games that share a player count, with utilities in {0,
    1, 2}, so that ties, and with them multi-state sinks, are everywhere."""
    n = draw(st.integers(1, 3))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        counts = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        total = int(np.prod(counts))
        values = draw(st.lists(st.integers(0, 2), min_size=n * total, max_size=n * total))
        u = np.array(values, dtype=float).reshape(n, total)
        batch.append(NormalFormGame(counts, u.sum(axis=0) + 1.0, u))
    return batch


@settings(max_examples=300, deadline=None)
@given(tied_batches())
def test_fiber_search_agrees_with_networkx(games):
    counts, tables, rows = stacked_tables(games)
    kernel = stacked_kernel(counts, tables[1:], BEST)
    found = sinks._fiber_sinks(best_response_fibers(counts, tables[1:], rows))
    assert sinks._sink_tuples(*found) == networkx_sinks(kernel)
    for got, want in zip(found, sinks._sink_partition(kernel)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def games(draw):
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    total = int(np.prod(counts))
    # Small integer payoffs make ties, and so multi-action response sets.
    utilities = draw(
        st.lists(st.integers(0, 3), min_size=len(counts) * total, max_size=len(counts) * total)
    )
    u = np.array(utilities, dtype=float).reshape(len(counts), total)
    return NormalFormGame(counts, u.sum(axis=0) + 1.0, u)


@settings(max_examples=150, deadline=None)
@given(games(), st.sampled_from(CASES))
def test_csr_invariants(game, case):
    mode, tie_tol = case
    kernel = build_kernel(game, mode, tie_tol)
    indptr, indices, probs = kernel.indptr, kernel.indices, kernel.probs
    assert indptr[0] == 0 and indptr[-1] == indices.size == probs.size
    assert np.all(np.diff(indptr) >= 0)
    src = np.repeat(np.arange(kernel.num_states), np.diff(indptr))
    same_row = src[1:] == src[:-1]
    assert np.all(np.diff(indices)[same_row] > 0)
    row_sums = np.bincount(src, weights=probs, minlength=kernel.num_states)
    assert np.all(np.abs(row_sums - 1.0) <= 1e-12)
    coords = np.array([game.index_to_joint(a).coords for a in range(kernel.num_states)])
    changed = (coords[src] != coords[indices]).sum(axis=1)
    assert np.all(changed <= 1)
    if mode == BETTER:
        assert np.all(np.isin(np.arange(kernel.num_states), indices[src == indices]))


@settings(max_examples=150, deadline=None)
@given(games(), st.sampled_from(CASES))
def test_every_state_of_a_multi_state_sink_has_a_self_loop(game, case):
    # The stationary solver's Jacobi step divides these self-loops out, as
    # stepping with P itself would leave their mass in place each step.  Its
    # damping, not this diagonal, keeps the step aperiodic.
    kernel = build_kernel(game, *case)
    src = np.repeat(np.arange(kernel.num_states), np.diff(kernel.indptr))
    looped = np.zeros(kernel.num_states, dtype=bool)
    looped[src[src == kernel.indices]] = True
    for support in sink_components(kernel):
        if len(support) > 1:
            assert looped[list(support)].all()
