"""The ascending-auction core the engines share.

Every engine runs the auction of Demange, Gale and Sotomayor and of
Bertsekas: prices rise on an integer grid, each round commits one maximal
matching over the unmatched bidders' demands, and displaced bidders bid
again. ``Auction`` holds that state, commits a round's pairs with
eviction in one batch, feeds the evicted owners back to the next round's
bidders, keeps the matched value and the best round-end assignment, runs
the round loop around each engine's step and makes the two checks every
engine's audit shares: the structural one it starts with and the demand
one; randomized-kernel runs report through ``blackboard_trace``. No
engine checks the matching it returns: ``suite.verdict`` checks it
against the instance.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import InvariantViolation
from .graph import Epsilon
from .kernels import KernelMatching
from .results import BlackboardTrace

__all__ = ["Auction", "blackboard_trace", "check_demand", "phase_budget",
           "round_budget"]


def round_budget(eps: Epsilon) -> int:
    """Rounds of the cardinality auctions: ceil(2 / eps**2), which is
    exactly 2 * k * k for eps = 1/k."""
    return 2 * eps.k * eps.k


def phase_budget(bucket_count: int, eps: Epsilon) -> int:
    """Phases of the weighted auction: ceil(2 * (ceil(log_{1/eps} W)^2 + 2)
    / eps^4), at least 1.

    bucket_count is ceil(log_{1/eps} W) over surviving weights; equal
    weights give 0 and therefore a budget of 4 / eps^4.
    """
    k = eps.k
    return max(1, 2 * (bucket_count * bucket_count + 2) * k ** 4)


class Auction:
    """Prices, assignment and its inverse ``owner``, in integer grid units.

    ``gain[i]`` is what bidder i's current item adds to ``value``, the
    matched value; ``best`` is the assignment at the end of
    ``best_round``, the earliest round that reached ``best_value``.
    """

    def __init__(self, *, prices: list[int], assignment: list[int | None],
                 owner: list[int | None], gain: list[int] | None = None) -> None:
        self.prices = prices
        self.assignment = assignment
        self.owner = owner
        # one zero per bidder when not given
        self.gain = [0] * len(assignment) if gain is None else gain
        self.value = 0
        self.best: list[int | None] = []
        self.best_value = 0
        self.best_round = 0

    def commit_round(self, pairs: list[tuple[int, int, int]]
                     ) -> list[int | None]:
        """Commit one round's (bidder, item, price step) pairs in order: each
        gives its item to its bidder, evicting the item's owner, and raises
        the item's price and the value by its step. Returns, pair by pair,
        the evicted owner or None."""
        owner, assignment, gain, prices = (self.owner, self.assignment,
                                           self.gain, self.prices)
        value = self.value
        evicted: list[int | None] = []
        for i, j, step in pairs:
            prev = owner[j]
            if prev is not None:
                assignment[prev] = None
                value -= gain[prev]
                gain[prev] = 0
            evicted.append(prev)
            owner[j] = i
            assignment[i] = j
            gain[i] = step
            prices[j] += step
            value += step
        self.value = value
        return evicted

    def next_bidders(self, bidders: list[int], evicted: list[int | None]
                     ) -> list[int]:
        """The bidders of the next round, ascending: ``bidders`` less those
        that won this round, plus the owners ``commit_round`` evicted."""
        return sorted([i for i in bidders if self.assignment[i] is None]
                      + [i for i in evicted if i is not None])

    def snapshot(self, round_no: int) -> None:
        """Keep the current assignment if its value is strictly the best."""
        if self.value > self.best_value:
            self.best_value = self.value
            self.best_round = round_no
            self.best = list(self.assignment)

    def check_prices(self, prev_prices: list[int], top: int | None = None
                     ) -> None:
        """The structural audit every engine's audit starts with.

        Item by item: no price fell below its round-start value in
        ``prev_prices``, every price lies in [0, top] (no upper bound when
        ``top`` is None), an unowned item is not priced and an owned one is
        its owner's assignment; then every assigned bidder owns its item,
        so that ``owner`` and ``assignment`` are inverse maps.
        """
        owner, assignment = self.owner, self.assignment
        for j, p in enumerate(self.prices):
            if p < prev_prices[j]:
                raise InvariantViolation("price-monotonicity",
                                         f"item {j} price fell {prev_prices[j]} -> {p}")
            if p < 0 or (top is not None and p > top):
                raise InvariantViolation(
                    "price-range", f"item {j} price {p} "
                    + ("negative" if p < 0 else f"above {top}"))
            i = owner[j]
            if i is None:
                if p > 0:
                    raise InvariantViolation("positive-price-implies-matched",
                                             f"item {j} priced {p} but unmatched")
            elif assignment[i] != j:
                break
        else:
            # Every owner is assigned its item, so only a bidder assigned
            # an item it does not own can break the inverse.
            i = next((i for i, j in enumerate(assignment)
                      if j is not None and owner[j] != i), None)
            if i is None:
                return
            j = assignment[i]
        raise InvariantViolation(
            "assignment-owner-mismatch",
            f"bidder {i} is assigned {assignment[i]} and item {j} owned by {owner[j]}")

    def run_rounds(self, bidders: list[int], budget: int,
                   step: Callable[[list[int]],
                                  tuple[list[int], list[int], KernelMatching]],
                   audit: Callable[[list[int]], Callable[[list[int]], None]]
                   | None = None
                   ) -> tuple[int, int, int, int]:
        """Run up to ``budget`` rounds from the worklist ``bidders``.

        ``step(bidders)`` finds, at round-start prices, a matching of
        (bidder, item, price step) pairs and commits it; it returns the
        bidders to ask again, the next worklist, ascending, and the
        matching. ``audit(bidders)`` runs at round start and returns the
        check run on the kept bidders after the commits, before the snapshot.

        A bidder the step drops is priced out for good, since prices never
        fall (an audit checks that with ``check_demand``), yet rounds count
        as if it were still asked: once one is, an empty worklist still
        runs a last round, which matches nothing. A round with no pairs and
        nothing kept ends the run. Returns the rounds executed and the
        summed proposal rounds, proposals and committed pairs, in
        ``blackboard_trace``'s order.
        """
        executed = proposal_rounds = proposals = committed = 0
        priced_out = False
        for round_no in range(1, budget + 1):
            if not bidders and not priced_out:
                break
            executed = round_no
            check = audit(bidders) if audit is not None else None
            kept, following, got = step(bidders)
            priced_out = priced_out or len(kept) < len(bidders)
            proposal_rounds += got.proposal_rounds
            proposals += got.proposals
            pairs = got.pairs
            committed += len(pairs)
            bidders = following
            if check is not None:
                check(kept)
            self.snapshot(round_no)
            if not pairs and not kept:
                break
        return executed, proposal_rounds, proposals, committed

    def best_pairs(self) -> tuple[tuple[int, int], ...]:
        """The best assignment as (bidder, item) pairs sorted by bidder."""
        return tuple((i, j) for i, j in enumerate(self.best) if j is not None)


def check_demand(live, demanded) -> None:
    """The demand audit of every engine: the bidders (or bidder copies) that
    demanded in a round are exactly those ``live`` at round-start prices,
    with a neighbour priced below its valuation."""
    demanded = set(demanded)
    wrong = demanded.symmetric_difference(live)
    if wrong:
        i = min(wrong)
        raise InvariantViolation(
            "empty-demand-characterization",
            f"bidder {i}: demand empty={i not in demanded} but priced "
            f"out={i in demanded} at round-start prices")


def blackboard_trace(n_r: int, price_levels: int, rounds: int, proposal_rounds: int,
                     proposals: int, announcements: int) -> BlackboardTrace:
    """Communication cost of a randomized-kernel run: two coordination rounds
    per executed round, a proposal names one of ``n_r`` items and an
    announcement one of ``price_levels`` prices."""
    return BlackboardTrace(
        proposal_rounds=proposal_rounds,
        coordination_rounds=2 * rounds,
        proposals=proposals,
        price_announcements=announcements,
        proposal_bits_each=(n_r - 1).bit_length(),
        price_bits_each=(price_levels - 1).bit_length(),
    )
