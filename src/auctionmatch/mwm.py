"""Auction engine for approximate maximum-weight matching.

Runs on a ScaledGraph. Valuations v_i(j) = w_ij / w_max and prices are kept
as integer multiples of the base unit 1/(k * w_max): the valuation of an
edge of original weight w is k*w units and a price increment eps * v_i(j)
is exactly w units. Each phase, unmatched bidders demand the items whose
margin is within eps * v_i(j) of their best margin, one maximal matching
over the demands is committed bucket by bucket (heaviest first), winners'
prices rise by eps times the winning valuation, and the best phase-end
matching by weight is returned in original units.

The deterministic guarantee is (1 - 6*eps) of the optimum and the
randomized-kernel guarantee (1 - 7*eps); both are enforced by the test
suite against exact oracles rather than re-derived here.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import NamedTuple

from .auction import Auction, blackboard_trace, check_demand, phase_budget
from .errors import InvariantViolation
from .graph import Epsilon, ScaledGraph, ceil_log
from .kernels import KernelMatching, bucket_sweep
from .kernels import bucket_ordered_maximal  # noqa: F401 -- bench/tracer.py wraps mwm.bucket_ordered_maximal
from .results import MatchingResult, RunTrace

__all__ = [
    "DemandSpec",
    "MwmState",
    "demand_set_mwm",
    "phase_budget",
    "run_mwm",
]


class DemandSpec(NamedTuple):
    """One bidder's demand for a phase: the best achievable margin in base
    units (None when no item has positive margin), the demanded items and,
    parallel to them, the bidder's original weight on each."""

    max_utility: int | None
    items: tuple[int, ...]
    weights: tuple[int, ...]


class MwmState(Auction):
    """Auction state with prices in base units 1/(k * w_max); a win at
    original weight w steps the price by w units and the value by w.
    ``adj[i]`` lists bidder i's own (i, j, w) tuples of ``sg.edges``."""

    def __init__(self, *, sg: ScaledGraph, k: int,
                 adj: list[list[tuple[int, int, int]]], **auction) -> None:
        super().__init__(**auction)
        self.sg = sg
        self.k = k
        self.adj = adj


def _new_state(sg: ScaledGraph, eps: Epsilon) -> MwmState:
    inst = sg.instance
    # The lists hold sg.edges' own tuples: no per-edge copy.
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(inst.n_l)]
    for e in sg.edges:
        adj[e[0]].append(e)
    return MwmState(
        sg=sg,
        k=eps.k,
        prices=[0] * inst.n_r,
        assignment=[None] * inst.n_l,
        owner=[None] * inst.n_r,
        adj=adj,
    )


def demand_set_mwm(state: MwmState, bidder: int) -> DemandSpec:
    """Items with positive margin within eps * v_i(j) of the best margin.

    Exact in base units: v = k*w, the slack eps * v_i(j) is w, so item j
    qualifies when p_j < v and v - p_j >= U - w.
    """
    k, prices, adj = state.k, state.prices, state.adj[bidder]
    best = 0
    for _, j, w in adj:
        margin = k * w - prices[j]
        if margin > best:
            best = margin
    if not best:
        return DemandSpec(max_utility=None, items=(), weights=())
    ranked = []
    for _, j, w in adj:
        p = prices[j]
        v = k * w
        if p < v and v - p >= best - w:
            ranked.append((p, j, w))
    # Scan priority: cheapest first, then item id (unique per bidder, so
    # the weight never breaks a tie). The best-margin item always qualifies.
    ranked.sort()
    _, items, weights = zip(*ranked)
    return DemandSpec(max_utility=best, items=items, weights=weights)


def _audit_phase(state: MwmState, prev_prices: list[int], optimum: int | None,
                 weight: dict[tuple[int, int], int]) -> None:
    """Check one phase's end state; ``weight`` maps each edge (i, j) of the
    scaled graph to its original weight."""
    k, prices = state.k, state.prices
    state.check_prices(prev_prices)
    # The owner bid below its valuation k*w and stepped the price by w.
    for j, (p, owner) in enumerate(zip(prices, state.owner)):
        if owner is not None and p >= (k + 1) * weight[(owner, j)]:
            raise InvariantViolation(
                "owned-price-bound",
                f"item {j} price {p} not below (k + 1) * w = "
                f"{(k + 1) * weight[(owner, j)]} of its owner {owner}")
    # Owned prices sum below (k + 1) times the assignment's weight.
    if optimum is not None and sum(prices) > (k + 1) * optimum:
        raise InvariantViolation(
            "price-sum-bound",
            f"sum of prices {sum(prices)} exceeds (k + 1) * optimum "
            f"{(k + 1) * optimum} (base units)")
    # Matched bidders are 2*eps*v_i(a_i)-happy against every item, where
    # non-neighbors count as valuation 0. Only a neighbor can break it: with
    # w the weight of (i, a), owned-price-bound above (a's owner is i) gives
    # u = k*w - p_a > -w, while a non-neighbor's margin less the slack is
    # -p_j - 2*w <= -2*w.
    n_r = len(prices)
    for i, a in enumerate(state.assignment):
        if a is None:
            continue
        u = k * weight[(i, a)] - prices[a]
        slack = 2 * weight[(i, a)]
        if u >= max(k * w - prices[j] for _, j, w in state.adj[i]) - slack:
            continue
        # Report the first violating item, in item order.
        for j in range(n_r):
            rhs = k * weight.get((i, j), 0) - prices[j] - slack
            if u < rhs:
                raise InvariantViolation(
                    "weighted-happiness",
                    f"bidder {i} utility {u} below margin {rhs} at item {j}")


def _live(state: MwmState, bidders) -> list[int]:
    """The ``bidders`` with a neighbour priced below its valuation k*w,
    whose demand set is not empty."""
    k, prices, adj = state.k, state.prices, state.adj
    return [i for i in bidders if any(k * w > prices[j] for _, j, w in adj[i])]


def _phase_audit(state: MwmState, bidders: list[int], optimum: int | None,
                 weight: dict[tuple[int, int], int]) -> Callable[[list[int]], None]:
    """The audit of one phase of either weighted engine.

    Run at phase start: keeps the prices and the ``bidders`` that are
    ``_live``. Returns the check run at phase end, after the commits, on
    the bidders that demanded: ``_audit_phase``, then ``check_demand``.
    """
    prev_prices, live = list(state.prices), _live(state, bidders)

    def check(demanders):
        _audit_phase(state, prev_prices, optimum, weight)
        check_demand(live, demanders)
    return check


def _phase(state: MwmState, bidders: list[int], kernel: str, rng: random.Random,
           bucket_of: dict[int, int]) -> tuple[list[int], KernelMatching]:
    """One phase's demand sets and bucket-ordered maximal matching, at
    phase-start prices.

    Returns the bidders, ascending, whose demand set is not empty, and the
    matching as (i, j, w) pairs. Each bidder's adjacency is scanned twice,
    for its best margin and then for the items ``demand_set_mwm`` would
    list; every demanded item goes into one list as (bucket, bidder,
    price, item, weight), sorted once for ``bucket_sweep``. ``bucket_of``
    caches each weight's bucket across phases: the b >= 1 with
    eps**(b-1) <= w / w_max < eps**(b-2), which is 1 + ceil_log(k, w_max, w).
    """
    k, prices, adj, w_max = state.k, state.prices, state.adj, state.sg.w_max
    demanders: list[int] = []
    ranked: list[tuple[int, int, int, int, int]] = []
    for i in bidders:
        row = adj[i]
        best = 0
        for _, j, w in row:
            margin = k * w - prices[j]
            if margin > best:
                best = margin
        if not best:
            continue
        demanders.append(i)
        for _, j, w in row:
            p = prices[j]
            v = k * w
            if p < v and v - p >= best - w:
                b = bucket_of.get(w)
                if b is None:
                    b = bucket_of[w] = 1 + ceil_log(k, w_max, w)
                ranked.append((b, i, p, j, w))
    ranked.sort()
    return demanders, bucket_sweep(ranked, rng if kernel == "rand" else None)


def run_mwm(sg: ScaledGraph, eps: Epsilon, kernel: str = "det", seed: int = 0,
            audit: bool = False, optimum: int | None = None
            ) -> tuple[MatchingResult, RunTrace]:
    """Run the weighted auction over its phase budget.

    kernel 'det' sweeps weight buckets heaviest-first with a deterministic
    greedy, 'rand' replaces the per-bucket greedy with seeded proposal
    rounds and records a blackboard trace, 'stream' matches the first
    qualifying edge in stream order (the same maximal matching the
    streaming engine builds on the fly). Weight is reported in original
    units. ``optimum``, when given, additionally audits the price-sum bound
    ``sum(prices) <= (k + 1) * optimum``.
    """
    if kernel not in ("det", "rand", "stream"):
        raise ValueError(f"unknown kernel {kernel!r} for the weighted engine")
    if not sg.edges:
        raise ValueError("scaled graph has no surviving edges")
    inst = sg.instance
    state = _new_state(sg, eps)
    budget = phase_budget(sg.bucket_count, eps)
    rng = random.Random(seed)

    bucket_of: dict[int, int] = {}  # weight -> bucket, filled on demand
    # The audit's edge -> weight table, built once per audited run.
    weight = {(i, j): w for i, j, w in sg.edges} if audit else None

    def step(bidders):
        # The stream kernel scans every unmatched bidder's edges itself; a
        # bidder off the worklist is priced out, so it demands nothing there.
        if kernel == "stream":
            demanders, got = _stream_order_matching(state)
        else:
            demanders, got = _phase(state, bidders, kernel, rng, bucket_of)
        return (demanders,
                state.next_bidders(demanders, state.commit_round(got.pairs)), got)

    totals = state.run_rounds(
        [i for i in range(inst.n_l) if state.adj[i]], budget, step,
        (lambda bidders: _phase_audit(state, bidders, optimum, weight))
        if audit else None)

    result = MatchingResult(pairs=state.best_pairs(), value=state.best_value,
                            round_captured=state.best_round)
    blackboard = None
    if kernel == "rand":
        blackboard = blackboard_trace(inst.n_r, eps.k * sg.w_max, *totals)
    trace = RunTrace(rounds_executed=totals[0], round_budget=budget,
                     blackboard=blackboard)
    return result, trace


def _stream_order_matching(state: MwmState) -> tuple[list[int], KernelMatching]:
    """Greedy maximal matching in stream (edge list) order, as (i, j, w).

    Matches an edge the moment it qualifies for the bidder's demand set,
    using phase-start prices throughout; mirrors the streaming engine's
    second pass exactly. Returns, as ``_phase`` does, the demanders (the
    unmatched bidders with a positive best margin) and the matching.
    """
    k = state.k
    margin_best: dict[int, int] = {}
    for i in range(state.sg.instance.n_l):
        if state.assignment[i] is not None:
            continue
        for _, j, w in state.adj[i]:
            margin = k * w - state.prices[j]
            if margin > 0 and margin > margin_best.get(i, 0):
                margin_best[i] = margin
    pairs: list[tuple[int, int, int]] = []
    newly_matched: set[int] = set()
    claimed: set[int] = set()
    for i, j, w in state.sg.edges:
        if state.assignment[i] is not None or i in newly_matched:
            continue
        if j in claimed or i not in margin_best:
            continue
        v = k * w
        if state.prices[j] < v and v - state.prices[j] >= margin_best[i] - w:
            newly_matched.add(i)
            claimed.add(j)
            pairs.append((i, j, w))
    return list(margin_best), KernelMatching(pairs=pairs)
