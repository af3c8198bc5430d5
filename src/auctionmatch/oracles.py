"""Exact desk-scale reference solvers.

These are deliberately built on non-auction algorithms (augmenting paths,
an exact assignment solver, max-flow) so that agreement with the auction
engines is evidence rather than a tautology. They exist to verify bounds at
test scale and refuse instances beyond ORACLE_SIZE_LIMIT vertex pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import BipartiteInstance

__all__ = ["OracleResult", "exact_mcm", "exact_mwm", "exact_mcbm", "ORACLE_SIZE_LIMIT"]

ORACLE_SIZE_LIMIT = 1 << 20  # n_l * n_r


@dataclass(frozen=True)
class OracleResult:
    value: int
    pairs: tuple[tuple[int, int], ...]


def _check_size(inst: BipartiteInstance) -> None:
    if inst.n_l * inst.n_r > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"instance with {inst.n_l}x{inst.n_r} vertex pairs exceeds the oracle size limit")


def exact_mcm(inst: BipartiteInstance) -> OracleResult:
    """Maximum-cardinality matching by repeated augmenting paths.

    Each bidder in turn searches depth-first for an augmenting path,
    trying its items in adjacency order. The search keeps its own stack,
    so a path may be as long as the instance allows.
    """
    _check_size(inst)
    adj = [[j for j, _ in nbrs] for nbrs in inst.bidder_adjacency()]
    match_item = [-1] * inst.n_r

    def try_augment(root: int) -> bool:
        visited = [False] * inst.n_r
        # stack[d] is (bidder, its untried items); path[d] the item it is
        # trying, whose owner is the bidder of stack[d + 1].
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            for j in stack[-1][1]:
                if not visited[j]:
                    visited[j] = True
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append(j)
            if match_item[j] == -1:
                for (i, _), item in zip(stack, path):
                    match_item[item] = i
                return True
            stack.append((match_item[j], iter(adj[match_item[j]])))
        return False

    size = 0
    for i in range(inst.n_l):
        if try_augment(i):
            size += 1
    pairs = tuple(sorted((i, j) for j, i in enumerate(match_item) if i != -1))
    return OracleResult(value=size, pairs=pairs)


def exact_mwm(inst: BipartiteInstance) -> OracleResult:
    """Maximum-weight matching via an exact rectangular assignment solve.

    Non-edges get weight 0, so the optimal assignment restricted to real
    edges is a maximum-weight matching (weights are >= 1). Integer weights
    at desk scale stay exactly representable in the solver's arithmetic.
    """
    _check_size(inst)
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    cost = np.zeros((inst.n_l, inst.n_r), dtype=np.int64)
    for i, j, w in inst.edges:
        cost[i, j] = w
    rows, cols = linear_sum_assignment(cost, maximize=True)
    pairs = []
    value = 0
    for i, j in zip(rows, cols):
        w = int(cost[i, j])
        if w > 0:
            pairs.append((int(i), int(j)))
            value += w
    return OracleResult(value=value, pairs=tuple(sorted(pairs)))


def exact_mcbm(inst: BipartiteInstance) -> OracleResult:
    """Maximum-cardinality b-matching via integral max-flow.

    Network: source -> bidder i with capacity b_i, unit edge capacities,
    item j -> sink with capacity b_j. Breadth-first augmentation keeps the
    flow integral; the saturated bidder-item edges are the witness.
    """
    _check_size(inst)
    n_l, n_r = inst.n_l, inst.n_r
    source = 0
    sink = 1 + n_l + n_r
    node_count = sink + 1

    cap: list[dict[int, int]] = [dict() for _ in range(node_count)]

    def add_edge(u: int, v: int, c: int) -> None:
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for i in range(n_l):
        add_edge(source, 1 + i, inst.b_l[i])
    for j in range(n_r):
        add_edge(1 + n_l + j, sink, inst.b_r[j])
    for i, j, _ in inst.edges:
        add_edge(1 + i, 1 + n_l + j, 1)

    total = 0
    while True:
        parent = [-1] * node_count
        parent[source] = source
        queue = [source]
        for u in queue:
            if u == sink:
                break
            for v, c in cap[u].items():
                if c > 0 and parent[v] == -1:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = cap[u][v] if bottleneck is None else min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        total += bottleneck

    pairs = []
    for i, j, _ in inst.edges:
        u, v = 1 + i, 1 + n_l + j
        if cap[u][v] == 0:  # unit capacity fully used
            pairs.append((i, j))
    return OracleResult(value=total, pairs=tuple(sorted(pairs)))
