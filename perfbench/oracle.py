"""Independent reference analysis that the benchmark checks reports against.

Nothing here calls sinkeq's analysis code.  The response graph is built from
the utility tables with numpy masks over a reshaped payoff tensor, stored as
a ``scipy.sparse`` matrix, and its sinks are the attracting components of its ``networkx`` condensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-10
SUM_TOL = 1e-9
POS_TOL = 1e-9


def response_matrix(action_counts, utilities, mode: str, tie_tol: float = 0.0) -> sp.csr_matrix:
    """Row-stochastic kernel of the uniform-player response process.

    A player at state ``a`` moves to action ``k`` with probability
    ``1 / (n * |R_i(a)|)`` for each ``k`` in its best-response set (argmax
    within ``tie_tol``) or better-response set (weakly improving); targets
    reached through several players add up.
    """
    # Imported here, not at the top: the measured process imports this
    # module, and scipy must not count in its peak_rss_mb.
    import scipy.sparse as sp

    counts = tuple(int(c) for c in action_counts)
    n = len(counts)
    num_states = math.prod(counts)
    shape = counts[::-1]  # C order: player 0 is the last axis
    flat = np.arange(num_states).reshape(shape)
    rows, cols, probs = [], [], []
    for player in range(n):
        axis = n - 1 - player
        u = np.moveaxis(np.asarray(utilities[player], dtype=float).reshape(shape), axis, -1)
        f = np.moveaxis(flat, axis, -1)
        # allowed[..., j, k]: at the state with own action j, k is a response.
        if mode == "best":
            best = u >= u.max(axis=-1, keepdims=True) - tie_tol
            allowed = np.broadcast_to(best[..., None, :], u.shape + (u.shape[-1],))
        elif mode == "better":
            allowed = u[..., None, :] >= u[..., :, None]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        share = 1.0 / (n * allowed.sum(axis=-1))
        src = np.broadcast_to(f[..., :, None], allowed.shape)
        dst = np.broadcast_to(f[..., None, :], allowed.shape)
        rows.append(src[allowed])
        cols.append(dst[allowed])
        probs.append(np.broadcast_to(share[..., None], allowed.shape)[allowed])
    matrix = sp.coo_matrix(
        (np.concatenate(probs), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_states, num_states),
    ).tocsr()
    matrix.sum_duplicates()
    return matrix


def nash_states(action_counts, utilities) -> list[int]:
    """States where every player's own action is an exact best response."""
    counts = tuple(int(c) for c in action_counts)
    n = len(counts)
    shape = counts[::-1]
    ok = np.ones(shape, dtype=bool)
    for player in range(n):
        u = np.asarray(utilities[player], dtype=float).reshape(shape)
        ok &= u == u.max(axis=n - 1 - player, keepdims=True)
    return [int(s) for s in np.flatnonzero(ok.ravel())]


def singleton_best_responses(action_counts, utilities) -> bool:
    counts = tuple(int(c) for c in action_counts)
    n = len(counts)
    shape = counts[::-1]
    for player in range(n):
        u = np.asarray(utilities[player], dtype=float).reshape(shape)
        ties = (u == u.max(axis=n - 1 - player, keepdims=True)).sum(axis=n - 1 - player)
        if np.any(ties > 1):
            return False
    return True


@dataclass
class Graph:
    """The response graph of one game in one mode, with its shape counts."""

    matrix: sp.csr_matrix
    sinks: list[tuple[int, ...]]
    sccs: int

    @property
    def edges(self) -> int:
        return int(self.matrix.nnz)

    @property
    def largest_sink(self) -> int:
        return max(len(s) for s in self.sinks)


def response_graph(action_counts, utilities, mode: str, tie_tol: float = 0.0) -> Graph:
    import networkx as nx  # off the measured process, like scipy

    matrix = response_matrix(action_counts, utilities, mode, tie_tol)
    # The sinks are the attracting components: the SCCs with no way out,
    # i.e. the condensation's nodes without successors.
    dag = nx.condensation(nx.from_scipy_sparse_array(matrix, create_using=nx.DiGraph))
    members = nx.get_node_attributes(dag, "members")
    sinks = sorted(
        tuple(sorted(int(s) for s in members[c])) for c in dag if dag.out_degree(c) == 0
    )
    return Graph(matrix=matrix, sinks=sinks, sccs=dag.number_of_nodes())


def residual(matrix: sp.csr_matrix, support, probabilities) -> float:
    """``||pi P - pi||_inf`` with ``pi`` placed on ``support``."""
    pi = np.zeros(matrix.shape[0])
    pi[np.asarray(support, dtype=int)] = probabilities
    return float(np.max(np.abs(matrix.T @ pi - pi)))


def stationary(matrix: sp.csr_matrix, support) -> np.ndarray:
    """Dense least-squares stationary vector on a small closed support."""
    idx = np.asarray(support, dtype=int)
    block = matrix[idx][:, idx].toarray()
    k = idx.size
    system = np.vstack([block.T - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return pi


def check_sinks(
    graph: Graph, welfare: np.ndarray, sinks: list[dict], tol_scale: float
) -> tuple[list[str], list[float]]:
    """Check reported sinks (support, probabilities, expected_welfare).

    Returns the problems found and each sink's expected welfare recomputed
    from the reported probabilities.
    """
    problems = []
    supports = [tuple(s["support"]) for s in sinks]
    if supports != graph.sinks:
        problems.append(
            f"sink supports differ: {len(supports)} reported, {len(graph.sinks)} expected"
        )
        return problems, []
    expected = []
    for idx, sink in enumerate(sinks):
        probs = np.asarray(sink["probabilities"], dtype=float)
        if probs.size != len(sink["support"]) or np.any(probs <= 0.0):
            problems.append(f"sink {idx}: probabilities not strictly positive")
            continue
        if abs(math.fsum(probs) - 1.0) > SUM_TOL:
            problems.append(f"sink {idx}: probabilities sum to {math.fsum(probs)!r}")
        r = residual(graph.matrix, sink["support"], probs)
        if r > RESIDUAL_TOL:
            problems.append(f"sink {idx}: residual {r:.3e} exceeds {RESIDUAL_TOL:.0e}")
        ew = math.fsum(probs * welfare[list(sink["support"])])
        if abs(ew - sink["expected_welfare"]) > POS_TOL * tol_scale:
            problems.append(f"sink {idx}: expected welfare {sink['expected_welfare']!r} != {ew!r}")
        expected.append(ew)
    return problems, expected
