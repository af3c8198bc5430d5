"""Weight-range reduction for approximate maximum-weight matching.

Edge weights are grouped into geometric buckets relative to the minimum
weight.  The reduction builds C = k copies of the instance; copy r drops
every bucket congruent to r mod C, which splits the surviving buckets
into levels of C - 1 consecutive buckets each.  Each level has weight
spread below k^(C-1), so the core auction needs few phases on it.  The
per-level matchings of a copy are combined greedily from the heaviest
level down, and the best copy wins.  Every bucket is dropped in exactly
one copy, so the copies' removed weights partition the total weight.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .graph import BipartiteInstance, Epsilon, scale_and_prune
from .mwm import run_mwm
from .results import MatchingResult, RunTrace
from .suite import check_run

Edge = tuple[int, int, int]


def weight_bucket(w: int, w_min: int, k: int) -> int:
    """Index b >= 0 with k^b * w_min <= w < k^(b+1) * w_min."""
    if w < w_min:
        raise ValueError(f"weight {w} below minimum {w_min}")
    b = 0
    bound = k * w_min
    while w >= bound:
        bound *= k
        b += 1
    return b


class LevelGraph(NamedTuple):
    """Edges of one copy that fall into one level of buckets."""

    level: int
    edges: tuple[Edge, ...]

    @property
    def w_max(self) -> int:
        return max(w for _, _, w in self.edges)

    @property
    def w_min(self) -> int:
        return min(w for _, _, w in self.edges)


class CopyPartition(NamedTuple):
    """One copy of the instance: kept levels plus the dropped edges."""

    index: int
    levels: tuple[LevelGraph, ...]
    removed: tuple[Edge, ...]

    @property
    def removed_weight(self) -> int:
        return sum(w for _, _, w in self.removed)


def build_partition(inst: BipartiteInstance, eps: Epsilon) -> tuple[CopyPartition, ...]:
    """Split the instance into C = k copies of leveled subgraphs.

    In copy r an edge of bucket b survives iff b is not congruent to
    r mod C, landing on level (b - r - 1) // C.  Levels may be negative
    for buckets below the first dropped one; only their order matters.
    """
    c = eps.k
    w_min = inst.w_min
    buckets = [weight_bucket(w, w_min, c) for _, _, w in inst.edges]

    copies = []
    for r in range(c):
        level_edges: dict[int, list[Edge]] = {}
        removed: list[Edge] = []
        for edge, b in zip(inst.edges, buckets):
            if b % c == r:
                removed.append(edge)
            else:
                level_edges.setdefault((b - r - 1) // c, []).append(edge)
        levels = tuple(
            LevelGraph(level=lv, edges=tuple(level_edges[lv]))
            for lv in sorted(level_edges)
        )
        copies.append(CopyPartition(index=r, levels=levels, removed=tuple(removed)))
    return tuple(copies)


class DisplacementRecord(NamedTuple):
    """A taken edge plus the lower-level matched edges it blocked."""

    edge: Edge
    level: int
    displaced: tuple[tuple[Edge, int], ...]

    @property
    def displaced_weight(self) -> int:
        return sum(w for (_, _, w), _ in self.displaced)


class CombineOutcome:
    """The (edge, level) pairs one copy's combine took, and the per-level
    matchings they were taken from. Two outcomes are equal when their copy
    index and taken pairs are."""

    def __init__(self, copy_index: int, taken: tuple[tuple[Edge, int], ...],
                 level_matchings: dict[int, list[Edge]]) -> None:
        self.copy_index = copy_index
        self.taken = taken
        self.level_matchings = level_matchings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.copy_index, self.taken) == (other.copy_index, other.taken)

    @property
    def weight(self) -> int:
        return sum(w for (_, _, w), _ in self.taken)

    @cached_property
    def records(self) -> tuple[DisplacementRecord, ...]:
        """Per taken edge, the matched edges from strictly lower levels that
        share an endpoint with it, heaviest level first; the group never
        outweighs the taken edge by more than a factor (k + 3) / k.

        Built on first use: it costs O(taken x level edges), and only the
        audits of the reduction read it.
        """
        level_order = sorted(self.level_matchings, reverse=True)
        return tuple(
            DisplacementRecord(edge=edge, level=lv, displaced=tuple(
                (other, lv2)
                for lv2 in level_order
                if lv2 < lv
                for other in self.level_matchings[lv2]
                if other[0] == edge[0] or other[1] == edge[1]
            ))
            for edge, lv in self.taken
        )


def combine_levels(
    copy_part: CopyPartition,
    level_matchings: dict[int, list[Edge]],
) -> CombineOutcome:
    """Merge per-level matchings, heaviest level first.

    An edge survives when both endpoints are still free.  The outcome's
    ``records`` say which lower-level edges each taken edge blocked.
    """
    used_l: set[int] = set()
    used_r: set[int] = set()
    taken: list[tuple[Edge, int]] = []
    for lv in sorted(level_matchings, reverse=True):
        for edge in sorted(level_matchings[lv]):
            i, j, _ = edge
            if i in used_l or j in used_r:
                continue
            used_l.add(i)
            used_r.add(j)
            taken.append((edge, lv))
    return CombineOutcome(copy_index=copy_part.index, taken=tuple(taken),
                          level_matchings=level_matchings)


class ReductionDetail(NamedTuple):
    """Instrumentation for the reduction, kept for audits and reports: the
    copies, each copy's combine outcome, and each level's result and trace
    keyed by (copy index, level)."""

    partition: tuple[CopyPartition, ...]
    outcomes: tuple[CombineOutcome, ...]
    level_results: dict[tuple[int, int], MatchingResult]
    level_traces: dict[tuple[int, int], RunTrace]


def run_reduced_mwm(
    inst: BipartiteInstance,
    eps: Epsilon,
    schedule: str | None = None,
    kernel: str = "det",
    seed: int = 0,
    audit: bool = False,
) -> tuple[MatchingResult, RunTrace]:
    """Solve weighted matching through the bucket-copy reduction.

    With no ``schedule`` each level runs the in-memory auction with the
    given kernel.  Schedule "sequential" streams the copies one after
    another (each pass is shared by all levels of the current copy);
    schedule "concurrent" streams all copies at once.  Both run
    ``stream_mwm`` per level, so they take kernel "det" only, ignore
    ``seed`` and find ``run_mwm``'s per-level results under kernel
    "stream"; they differ only in pass and space accounting.  A run that
    ``suite.check_run`` refuses raises its ``ValueError``.  The trace
    has no blackboard, even under kernel "rand": each level prices over
    its own width, k times its w_max, so the level blackboards in the
    detail's ``level_traces`` do not add up to one.  Returns (result,
    trace); the trace's ``notes["detail"]`` holds the ``ReductionDetail``.
    """
    check_run("mwm", "gp", kernel, schedule)
    copies = build_partition(inst, eps)
    outcomes: list[CombineOutcome] = []
    level_results: dict[tuple[int, int], MatchingResult] = {}
    level_traces: dict[tuple[int, int], RunTrace] = {}
    b_l, b_r = (1,) * inst.n_l, (1,) * inst.n_r

    for cp in copies:
        level_matchings: dict[int, list[Edge]] = {}
        for lg in cp.levels:
            # A level's edges are some of inst's own, already checked, edges.
            level_inst = BipartiteInstance._checked_by_reader(
                inst.n_l, inst.n_r, lg.edges, b_l, b_r)
            if schedule is None:
                sg = scale_and_prune(level_inst, eps)
                res, tr = run_mwm(sg, eps, kernel=kernel, seed=seed, audit=audit)
            else:
                from .streaming import EdgeStream, stream_mwm

                stream = EdgeStream.from_instance(level_inst)
                res, tr = stream_mwm(stream, eps, audit=audit)
            level_results[cp.index, lg.level] = res
            level_traces[cp.index, lg.level] = tr
            # The matched level edges, in res.pairs' order (by bidder).
            mate = dict(res.pairs)
            level_matchings[lg.level] = sorted(
                e for e in lg.edges if mate.get(e[0]) == e[1])
        outcomes.append(combine_levels(cp, level_matchings))

    best = max(outcomes, key=lambda oc: (oc.weight, -oc.copy_index))
    result = MatchingResult(
        pairs=tuple(sorted((i, j) for (i, j, _), _ in best.taken)),
        value=best.weight, round_captured=0)
    trace = _aggregate_trace(schedule, len(copies), level_traces)
    trace.notes["best_copy"] = best.copy_index
    trace.notes["detail"] = ReductionDetail(copies, tuple(outcomes),
                                            level_results, level_traces)
    return result, trace


def _aggregate_trace(schedule: str | None, n_copies: int,
                     traces: dict[tuple[int, int], RunTrace]) -> RunTrace:
    """Fold the level traces, keyed by (copy, level), into one per schedule.

    A streamed schedule runs its levels in groups, one after another: one
    group per copy under "sequential", one of every level under
    "concurrent".  A group's levels share each pass, so it costs one
    stats pass plus two passes per phase of its slowest level, and keeps
    all of their state live at once.
    """
    trace = RunTrace(rounds_executed=sum(tr.rounds_executed for tr in traces.values()),
                     round_budget=sum(tr.round_budget for tr in traces.values()))
    trace.notes["n_copies"] = n_copies
    trace.notes["n_levels"] = len(traces)
    if schedule is None:
        return trace

    groups: dict[int, list[RunTrace]] = {}
    for (r, _), tr in traces.items():
        groups.setdefault(r if schedule == "sequential" else 0, []).append(tr)
    trace.passes = sum(1 + 2 * max((tr.passes - 1) // 2 for tr in group)
                       for group in groups.values())
    trace.peak_words = max(sum(tr.peak_words for tr in group)
                           for group in groups.values())
    return trace
