"""The CSR kernel against the per-state reference construction, and the
sink detection against networkx."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkeq.dynamics import (
    BEST,
    BETTER,
    best_response_set,
    better_response_set,
    build_kernel,
)
from sinkeq.game import NormalFormGame
from sinkeq.generators import (
    make_covering_game,
    make_radio_game,
    philox_rng,
    sample_action_counts,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)
from sinkeq.sinks import sink_components, strongly_connected_components


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


def library_sets(game, mode, tie_tol):
    return [
        [
            best_response_set(game, player, a, tie_tol).actions
            if mode == BEST
            else better_response_set(game, player, a).actions
            for player in range(game.num_players)
        ]
        for a in range(game.num_profiles)
    ]


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
        rows = [kernel.row(s) for s in range(kernel.num_states)]
        assert rows == reference_rows(sets)
        expected = [[acts for acts, _ in per_player] for per_player in sets]
        assert library_sets(game, mode, tie_tol) == expected


@pytest.mark.parametrize("mode,tie_tol", CASES)
def test_components_match_networkx(mode, tie_tol):
    nx = pytest.importorskip("networkx")
    for game in GAMES:
        kernel = build_kernel(game, mode, tie_tol)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(kernel.num_states))
        graph.add_edges_from((src, dst) for src, dst, _ in kernel.edges())
        sccs = {tuple(sorted(c)) for c in nx.strongly_connected_components(graph)}
        sinks = sorted(tuple(sorted(c)) for c in nx.attracting_components(graph))
        assert set(strongly_connected_components(kernel)) == sccs
        assert sink_components(kernel) == sinks


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
    # The stationary solver iterates P itself, not the lazy (P+I)/2, when
    # this holds: a positive diagonal makes the sink's chain aperiodic.
    kernel = build_kernel(game, *case)
    src = np.repeat(np.arange(kernel.num_states), np.diff(kernel.indptr))
    looped = np.zeros(kernel.num_states, dtype=bool)
    looped[src[src == kernel.indices]] = True
    for support in sink_components(kernel):
        if len(support) > 1:
            assert looped[list(support)].all()
