"""Auction engine for approximate maximum-cardinality matching.

Every bidder values every neighboring item at 1. Prices live on the grid of
multiples of eps = 1/k and are stored as integer counts of that unit, so all
comparisons are exact. Each round, every unmatched bidder demands its
cheapest neighbors priced below 1, one maximal matching over those demands
is committed (evicting previous owners), and winning items get eps added to
their price. The best assignment over all rounds is returned; with
eps = 1/(n_l + 1) the result is exactly optimal.
"""

from __future__ import annotations

import random

from .auction import Auction, blackboard_trace, check_demand
from .auction import round_budget as mcm_round_budget
from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon
from .kernels import KernelMatching, randomized_proposal_mm
from .kernels import greedy_maximal  # noqa: F401 -- bench/tracer.py wraps mcm.greedy_maximal
from .results import MatchingResult, RunTrace

__all__ = ["McmState", "demand_set_mcm", "run_mcm", "mcm_round_budget"]


class McmState(Auction):
    """Auction state whose prices are integers in [0, k] counting units of
    1/k; every commit steps a price by one unit and the value by one.
    ``adj[i]`` lists bidder i's items ascending."""

    def __init__(self, *, k: int, adj: list[list[int]], **auction) -> None:
        super().__init__(**auction)
        self.k = k
        self.adj = adj


def _new_state(inst: BipartiteInstance, eps: Epsilon) -> McmState:
    adj: list[list[int]] = [[] for _ in range(inst.n_l)]
    for i, j, _ in inst.edges:
        adj[i].append(j)
    for items in adj:
        items.sort()
    return McmState(
        k=eps.k,
        prices=[0] * inst.n_r,
        assignment=[None] * inst.n_l,
        owner=[None] * inst.n_r,
        adj=adj,
    )


def demand_set_mcm(state: McmState, bidder: int) -> list[int]:
    """Cheapest neighbors with price below 1, ascending by item id."""
    prices, k = state.prices, state.k
    # Until a price below k is seen, ``items`` only collects items priced k.
    best = k
    items: list[int] = []
    for j in state.adj[bidder]:
        p = prices[j]
        if p < best:
            best = p
            items = [j]
        elif p == best:
            items.append(j)
    if best == k:
        return []
    items.sort()
    return items


def _audit_round(state: McmState, prev_prices: list[int]) -> None:
    k = state.k
    state.check_prices(prev_prices, k)
    # eps-happiness: matched bidders satisfy u_i >= 1 - p_j - eps for every
    # neighbor j; a priced-out bidder, with u_i = 0, cannot break it.
    for i, a in enumerate(state.assignment):
        if a is None:
            continue
        u = k - state.prices[a]
        for j in state.adj[i]:
            if u < k - state.prices[j] - 1:
                raise InvariantViolation(
                    "eps-happiness",
                    f"bidder {i} has utility {u}/{k} but item {j} offers "
                    f"{k - state.prices[j]}/{k} - eps")


def _round(state: McmState, bidders: list[int], kernel: str,
           rng: random.Random) -> tuple[list[int], list[int], KernelMatching]:
    """One round's demand sets and maximal matching at round-start prices,
    committed.

    Returns the bidders, ascending, whose demand set is not empty, the next
    worklist, ascending, and the matching as (i, j, 1) pairs. With 'rand'
    their ``demand_set_mcm`` lists go to ``randomized_proposal_mm`` and the
    pairs to ``commit_round``. With 'det' each bidder's adjacency is
    scanned once: its items come ascending, so the cheapest ones below k
    come in the order ``demand_set_mcm`` lists them, and the bidder takes
    the first of them that no earlier bidder took, as ``greedy_maximal``
    would with bidders ascending. The scan commits each pick as it makes
    it, as ``commit_round`` would, except that the won items' price steps
    wait until the scan ends: every bidder reads round-start prices.
    """
    if kernel == "rand":
        candidates: dict[int, list[int]] = {}
        for i in bidders:
            demand = demand_set_mcm(state, i)
            if demand:
                candidates[i] = demand
        got = randomized_proposal_mm(candidates, rng)
        got.pairs = [(i, j, 1) for i, j in got.pairs]
        kept = list(candidates)
        return kept, state.next_bidders(kept, state.commit_round(got.pairs)), got
    prices, k, adj = state.prices, state.k, state.adj
    owner, assignment, gain = state.owner, state.assignment, state.gain
    demanders: list[int] = []
    following: list[int] = []
    taken: set[int] = set()
    pairs: list[tuple[int, int, int]] = []
    value = state.value
    for i in bidders:
        # ``pick`` is the first untaken item at the cheapest price so far.
        best = k
        pick = None
        for j in adj[i]:
            p = prices[j]
            if p < best:
                best = p
                pick = None if j in taken else j
            elif p == best and pick is None and j not in taken:
                pick = j
        if best == k:
            continue
        demanders.append(i)
        if pick is None:
            following.append(i)
            continue
        taken.add(pick)
        pairs.append((i, pick, 1))
        prev = owner[pick]
        if prev is not None:
            assignment[prev] = None
            value -= gain[prev]
            gain[prev] = 0
            following.append(prev)
        owner[pick] = i
        assignment[i] = pick
        gain[i] = 1
        value += 1
    for j in taken:
        prices[j] += 1
    state.value = value
    following.sort()
    return demanders, following, KernelMatching(pairs=pairs)


def run_mcm(inst: BipartiteInstance, eps: Epsilon, kernel: str = "det",
            seed: int = 0, audit: bool = False) -> tuple[MatchingResult, RunTrace]:
    """Run the cardinality auction for up to ceil(2/eps^2) rounds.

    kernel 'det' uses the deterministic greedy (bidders ascending, demanded
    items ascending by id; demand sets share one price so id order is price
    order), 'rand' the seeded randomized proposal kernel, which also fills
    in a blackboard communication trace. A round with no reassignment ends
    the run early; the nominal budget is still reported in the trace.
    """
    if kernel not in ("det", "rand"):
        raise ValueError(f"unknown kernel {kernel!r} for the cardinality engine")
    state = _new_state(inst, eps)
    budget = mcm_round_budget(eps)
    rng = random.Random(seed)

    def audited(bidders):  # round start: the prices and the live bidders
        prev_prices, k, adj = list(state.prices), state.k, state.adj
        live = [i for i in bidders if any(prev_prices[j] < k for j in adj[i])]

        def check(kept):
            _audit_round(state, prev_prices)
            check_demand(live, kept)
        return check

    # The worklist starts with the bidders that have a neighbour.
    totals = state.run_rounds(
        [i for i in range(inst.n_l) if state.adj[i]], budget,
        lambda bidders: _round(state, bidders, kernel, rng),
        audited if audit else None)

    result = MatchingResult(pairs=state.best_pairs(), value=state.best_value,
                            round_captured=state.best_round)
    blackboard = None
    if kernel == "rand":
        blackboard = blackboard_trace(inst.n_r, eps.k, *totals)
    trace = RunTrace(rounds_executed=totals[0], round_budget=budget,
                     blackboard=blackboard)
    return result, trace
