"""Maximal-matching kernels run on per-round demand subgraphs.

Every engine round boils down to one maximal matching on the bipartite
subgraph of unmatched bidders and their demanded items. The 'rand' mcm
round hands a kernel that subgraph as a candidate dict: each demanding
bidder maps to its demanded items, already in scan priority order
(ascending price, then id); ``mwm._phase`` hands ``bucket_sweep`` one
sorted list of candidate tuples, and the 'det' mcm and mcbm rounds do
their greedy inline. Kernels never read prices or owners.
``nondup_maximal`` is one greedy sweep with no sub-phase for unowned
copies: a bidder copy's demanded copies share one price, so they are all
unowned (price 0) or all owned, and the two groups share no item. No
engine calls it: the 'det' mcbm round makes the same sweep inline, and
the tests pin the two equal.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter

__all__ = [
    "KernelMatching",
    "greedy_maximal",
    "bucket_ordered_maximal",
    "bucket_sweep",
    "nondup_maximal",
    "randomized_proposal_mm",
]


class KernelMatching:
    """Pairs, (bidder, item) or with the price step (bidder, item, step),
    plus the communication stats randomized kernels accumulate."""

    def __init__(self, pairs: list[tuple[int, ...]] | None = None,
                 proposal_rounds: int = 0, proposals: int = 0) -> None:
        self.pairs = [] if pairs is None else pairs
        self.proposal_rounds = proposal_rounds
        self.proposals = proposals


def _as_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def greedy_maximal(candidates: dict[int, Sequence[int]]) -> KernelMatching:
    """One greedy pass, bidders ascending and ``candidates[i]`` in list
    order; maximal because items never become free again."""
    taken: set[int] = set()
    out = KernelMatching()
    for i in sorted(candidates):
        for j in candidates[i]:
            if j not in taken:
                taken.add(j)
                out.pairs.append((i, j))
                break
    return out


def randomized_proposal_mm(candidates: dict[int, Sequence[int]], seed=0
                           ) -> KernelMatching:
    """Folklore proposal rounds: each unmatched bidder proposes to a uniform
    random still-unmatched candidate, each item accepts its lowest-id
    proposer; repeat until no proposals are possible. Counts rounds."""
    rng = _as_rng(seed)
    out = KernelMatching()
    matched_items: set[int] = set()
    active = sorted(i for i, items in candidates.items() if items)
    while True:
        proposals: dict[int, int] = {}
        still_active = []
        for i in active:
            avail = [j for j in candidates[i] if j not in matched_items]
            if not avail:
                continue
            still_active.append(i)
            j = avail[rng.randrange(len(avail))]
            out.proposals += 1
            if j not in proposals or i < proposals[j]:
                proposals[j] = i
        if not still_active:
            break
        out.proposal_rounds += 1
        for j, i in proposals.items():
            matched_items.add(j)
            out.pairs.append((i, j))
        accepted = {i for _, i in proposals.items()}
        active = [i for i in still_active if i not in accepted]
    out.pairs.sort()
    return out


def bucket_ordered_maximal(candidates: dict[int, Sequence[int]],
                           buckets: dict[int, Sequence[int]], kernel: str = "det",
                           seed=0) -> KernelMatching:
    """``bucket_sweep`` over a candidate dict: ``buckets[i][t]`` is the
    weight bucket (1 the heaviest) of ``candidates[i][t]``, and t keeps the
    bidder's scan order within a bucket."""
    ranked = [(b, i, t, j, 0) for i, items in candidates.items()
              for t, (j, b) in enumerate(zip(items, buckets[i]))]
    ranked.sort()
    out = bucket_sweep(ranked, _as_rng(seed) if kernel == "rand" else None)
    out.pairs = [(i, j) for i, j, _ in out.pairs]
    return out


def bucket_sweep(ranked: list[tuple[int, int, int, int, int]],
                 rng: random.Random | None = None) -> KernelMatching:
    """Sweep weight buckets from heaviest (index 1) to lightest, keeping
    earlier matches; the union is maximal on the whole subgraph.

    ``ranked`` holds one (bucket, bidder, key, item, weight) tuple per
    candidate, sorted, so each bidder's candidates in a bucket come in
    ``key`` order. Without ``rng`` this is the deterministic greedy inside
    each bucket (bidders ascending, the first still-free candidate); with
    it, the randomized proposal kernel on each bucket's still-free
    candidates (proposal rounds accumulate across buckets). Pairs come back
    as (bidder, item, weight), sorted.
    """
    matched_bidders: set[int] = set()
    matched_items: set[int] = set()
    out = KernelMatching()
    if rng is None:
        for _, i, _, j, w in ranked:
            if i not in matched_bidders and j not in matched_items:
                matched_bidders.add(i)
                matched_items.add(j)
                out.pairs.append((i, j, w))
        out.pairs.sort()
        return out
    for _, run in groupby(ranked, itemgetter(0)):
        candidates: dict[int, list[int]] = {}
        weight: dict[tuple[int, int], int] = {}
        for _, i, _, j, w in run:
            if i not in matched_bidders and j not in matched_items:
                candidates.setdefault(i, []).append(j)
                weight[i, j] = w
        if not candidates:
            continue
        got = randomized_proposal_mm(candidates, rng)
        out.proposal_rounds += got.proposal_rounds
        out.proposals += got.proposals
        for i, j in got.pairs:
            matched_bidders.add(i)
            matched_items.add(j)
            out.pairs.append((i, j, weight[i, j]))
    out.pairs.sort()
    return out


def nondup_maximal(candidates: dict[int, Sequence[int]], *,
                   bidder_orig: Sequence[int],
                   item_orig: Sequence[int],
                   held: set[tuple[int, int]]) -> KernelMatching:
    """Maximal matching on a copy graph that never pairs two copies of the
    same original (bidder, item) combination.

    One greedy sweep, bidder copies ascending and ``candidates[ic]`` in
    list order. ``held`` lists original pairs already matched in the
    engine state; together with the pairs formed here it blocks
    duplicates.
    """
    out = KernelMatching()
    claimed_items: set[int] = set()
    used_pairs: set[tuple[int, int]] = set(held)
    for ic in sorted(candidates):
        oi = bidder_orig[ic]
        for jc in candidates[ic]:
            if jc in claimed_items:
                continue
            oj = item_orig[jc]
            if (oi, oj) in used_pairs:
                continue
            claimed_items.add(jc)
            used_pairs.add((oi, oj))
            out.pairs.append((ic, jc))
            break
    return out
