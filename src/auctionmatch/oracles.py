"""Exact desk-scale reference solvers.

These are deliberately built on non-auction algorithms (augmenting paths,
an exact assignment solver, max-flow) so that agreement with the auction
engines is evidence rather than a tautology. They exist to verify bounds at
test scale and refuse instances beyond ORACLE_SIZE_LIMIT vertex pairs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple

from .graph import BipartiteInstance

__all__ = ["OracleResult", "check_oracle_size", "exact_mcm", "exact_mwm", "exact_mcbm",
           "ORACLE_SIZE_LIMIT"]

ORACLE_SIZE_LIMIT = 1 << 20  # n_l * n_r


class OracleResult(NamedTuple):
    value: int
    pairs: tuple[tuple[int, int], ...]


def check_oracle_size(inst: BipartiteInstance) -> None:
    """``ValueError`` with a one-line reason when ``inst`` has more than
    ORACLE_SIZE_LIMIT vertex pairs."""
    if inst.n_l * inst.n_r > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"instance with {inst.n_l}x{inst.n_r} vertex pairs exceeds the oracle size limit")


def exact_mcm(inst: BipartiteInstance) -> OracleResult:
    """Maximum-cardinality matching by Hopcroft-Karp (Hopcroft & Karp, 1973).

    A greedy start gives each bidder in turn its first free item. Each
    phase then layers the graph breadth-first from the free bidders up to
    the first layer that sees a free item, and augments along
    vertex-disjoint shortest paths found by a depth-first search with
    per-bidder arc pointers. The search keeps its own stack, so a path may
    be as long as the instance allows. O(m * sqrt(n)) in all.
    """
    check_oracle_size(inst)
    n_l = inst.n_l
    adj: list[list[int]] = [[] for _ in range(n_l)]
    for i, j, _ in inst.edges:
        adj[i].append(j)
    match_item = [-1] * inst.n_r
    item_of = [-1] * n_l
    free = []
    for i, items in enumerate(adj):
        for j in items:
            if match_item[j] < 0:
                match_item[j], item_of[i] = i, j
                break
        else:
            if items:
                free.append(i)

    while free:
        # Layer the bidders; a matched item leads to its owner one layer on.
        dist = [-1] * n_l
        for i in free:
            dist[i] = 0
        layer, depth, found = free, 0, False
        while layer and not found:
            nxt = []
            for i in layer:
                for j in adj[i]:
                    o = match_item[j]
                    if o < 0:
                        found = True
                    elif dist[o] < 0:
                        dist[o] = depth + 1
                        nxt.append(o)
            layer, depth = nxt, depth + 1
        if not found:
            break
        for i in layer:  # past the last layer a path can end in
            dist[i] = -1

        ptr = [0] * n_l
        still_free = []
        for root in free:
            # stack[d] is a bidder; adj[stack[d]][ptr[stack[d]]] the item it
            # tries, whose owner is stack[d + 1].
            stack = [root]
            while stack:
                u = stack[-1]
                items, p, want = adj[u], ptr[u], dist[u] + 1
                while p < len(items):
                    o = match_item[items[p]]
                    if o < 0 or dist[o] == want:
                        break
                    p += 1
                ptr[u] = p
                if p == len(items):
                    # Dead end: drop u from the layers and retreat.
                    dist[u] = -1
                    stack.pop()
                    if stack:
                        ptr[stack[-1]] += 1
                elif o < 0:
                    # Augment, and keep later paths of the phase off this one.
                    for u in stack:
                        j = adj[u][ptr[u]]
                        match_item[j], item_of[u] = u, j
                        dist[u] = -1
                    break
                else:
                    stack.append(o)
            else:
                still_free.append(root)
        free = still_free

    pairs = tuple((i, j) for i, j in enumerate(item_of) if j >= 0)
    return OracleResult(value=len(pairs), pairs=pairs)


def exact_mwm(inst: BipartiteInstance) -> OracleResult:
    """Maximum-weight matching by sparse shortest augmenting paths.

    The rows are the smaller side's vertices and the columns the other
    side's. Each row gets one private dummy column at cost ``w_max + 1``
    (staying unmatched) and a real edge costs ``w_max + 1 - w``, so a
    minimum-cost assignment of every row maximises the real weight. A
    greedy start gives each row a free column of its minimum cost; each
    row left over then runs one Dijkstra over the columns with reduced
    costs under column potentials (Jonker & Volgenant, 1987). All
    arithmetic is in Python ints.

    A search that ends at a dummy scans every column closer than it. With
    more rows than columns at least the surplus rows end there, which is
    why the smaller side is the one that must be assigned.
    """
    check_oracle_size(inst)
    if not inst.edges:
        return OracleResult(value=0, pairs=())
    flip = inst.n_r < inst.n_l
    n_rows, n_cols = (inst.n_r, inst.n_l) if flip else (inst.n_l, inst.n_r)
    big = inst.w_max + 1
    # Row i's columns and costs; column n_cols + i is its dummy.
    cols: list[list[int]] = [[] for _ in range(n_rows)]
    costs: list[list[int]] = [[] for _ in range(n_rows)]
    for i, j, w in inst.edges:
        if flip:
            i, j = j, i
        cols[i].append(j)
        costs[i].append(big - w)
    for i in range(n_rows):
        cols[i].append(n_cols + i)
        costs[i].append(big)
    n_c = n_cols + n_rows

    v = [0] * n_c  # column potentials
    row_of = [-1] * n_c
    col_of = [-1] * n_rows
    cost_of = [0] * n_rows  # cost of each row's matched edge
    # Under zero potentials a row's cheapest edge is tight.
    free_rows = []
    for i in range(n_rows):
        c_min = min(costs[i])
        for j, c in zip(cols[i], costs[i]):
            if c == c_min and row_of[j] == -1:
                row_of[j], col_of[i], cost_of[i] = i, j, c
                break
        else:
            free_rows.append(i)

    # Per-column search state, valid where reached[j] holds the current
    # search's stamp.
    dist = [0] * n_c
    pred = [0] * n_c
    pred_cost = [0] * n_c
    reached = [0] * n_c
    for stamp, root in enumerate(free_rows, 1):
        heap: list[tuple[int, int]] = []
        for j, c in zip(cols[root], costs[root]):
            d = c - v[j]
            reached[j] = stamp
            dist[j], pred[j], pred_cost[j] = d, root, c
            heappush(heap, (d, j))
        # The nearest free column known so far: a column no closer is never
        # scanned before the search ends, so it is not pushed.
        bound = dist[n_cols + root]
        scanned = []
        sink = -1
        while sink < 0:
            d, j = heappop(heap)
            if d != dist[j]:
                continue  # a stale entry; the column's own has a smaller d
            i = row_of[j]
            if i == -1:
                sink = j
                break
            scanned.append(j)
            # Reduced cost of edge (i, j2) is c - v[j2] - (cost_of[i] - v[j]),
            # zero on i's matched edge and never negative.
            base = d + v[j] - cost_of[i]
            for j2, c in zip(cols[i], costs[i]):
                nd = base + c - v[j2]
                if nd < bound and (reached[j2] != stamp or nd < dist[j2]):
                    reached[j2] = stamp
                    dist[j2], pred[j2], pred_cost[j2] = nd, i, c
                    if row_of[j2] == -1:
                        if nd == d:
                            sink = j2  # no column is closer than d
                            break
                        bound = nd
                    heappush(heap, (nd, j2))
        for js in scanned:
            v[js] += dist[js] - d
        j = sink
        while True:
            i = pred[j]
            row_of[j] = i
            j, col_of[i], cost_of[i] = col_of[i], j, pred_cost[j]
            if i == root:
                break

    matched = [i for i in range(n_rows) if col_of[i] < n_cols]
    value = sum(big - cost_of[i] for i in matched)
    if flip:
        pairs = tuple(sorted((col_of[i], i) for i in matched))
    else:
        pairs = tuple((i, col_of[i]) for i in matched)
    return OracleResult(value=value, pairs=pairs)


def exact_mcbm(inst: BipartiteInstance) -> OracleResult:
    """Maximum-cardinality b-matching via integral max-flow.

    Network: source -> bidder i with capacity b_i, unit edge capacities,
    item j -> sink with capacity b_j. Dinic's blocking flows (Dinic, 1970)
    on list-based arcs, where arc ``e ^ 1`` is the reverse of arc ``e``:
    a breadth-first level graph per phase and an iterative depth-first
    search with per-node arc pointers. A greedy start first sends one unit
    along each edge in turn whose bidder and item both have capacity
    left. The saturated bidder-item arcs are the witness.
    """
    check_oracle_size(inst)
    n_l, n_r = inst.n_l, inst.n_r
    source = 0
    sink = 1 + n_l + n_r
    node_count = sink + 1

    to: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(node_count)]

    def add_arc(u: int, v: int, c: int) -> None:
        out[u].append(len(to))
        to.append(v)
        cap.append(c)
        out[v].append(len(to))
        to.append(u)
        cap.append(0)

    for i in range(n_l):
        add_arc(source, 1 + i, inst.b_l[i])
    first_edge_arc = len(to)
    for i, j, _ in inst.edges:
        add_arc(1 + i, 1 + n_l + j, 1)
    sink_arcs = len(to)
    for j in range(n_r):
        add_arc(1 + n_l + j, sink, inst.b_r[j])

    total = 0
    # arc 2 * i leaves the source for bidder i
    for e, (i, j, _) in enumerate(inst.edges):
        if cap[2 * i] and cap[sink_arcs + 2 * j]:
            for a in (2 * i, first_edge_arc + 2 * e, sink_arcs + 2 * j):
                cap[a] -= 1
                cap[a ^ 1] += 1
            total += 1
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = [source]
        for u in queue:
            nxt = level[u] + 1
            for e in out[u]:
                v = to[e]
                if cap[e] and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
        if level[sink] < 0:
            break
        ptr = [0] * node_count
        path: list[int] = []  # arcs from the source to u
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                total += push
                # Retreat to the tail of the first saturated arc.
                k = next(k for k, e in enumerate(path) if not cap[e])
                u = to[path[k] ^ 1]
                del path[k:]
                continue
            arcs, p, want = out[u], ptr[u], level[u] + 1
            while p < len(arcs):
                e = arcs[p]
                if cap[e] and level[to[e]] == want:
                    break
                p += 1
            ptr[u] = p
            if p < len(arcs):
                path.append(arcs[p])
                u = to[arcs[p]]
            elif u == source:
                break
            else:
                # Dead end: drop u from the level graph and retreat.
                level[u] = -1
                e = path.pop()
                u = to[e ^ 1]
                ptr[u] += 1

    pairs = tuple(sorted(
        (i, j) for e, (i, j, _) in enumerate(inst.edges)
        if not cap[first_edge_arc + 2 * e]))
    return OracleResult(value=total, pairs=pairs)
