"""Approximate maximum-cardinality bipartite b-matching by auction.

Each bidder i with capacity b_i is expanded into b_i copies, each item j
with capacity b_j into b_j copies, with copies adjacent exactly when the
originals are.  The unit-demand cardinality auction then runs on the copy
graph with one extra twist: every bidder copy keeps a personal price
cutoff c that rises whenever the copy demanded items but lost them all,
which prevents two copies of the same bidder from fighting over the same
original item forever.  The copy matching projects back to a b-matching
on the original graph.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .auction import Auction, check_demand
from .auction import round_budget as mcbm_round_budget
from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon
from .kernels import KernelMatching
from .kernels import nondup_maximal  # noqa: F401 -- bench/tracer.py wraps mcbm.nondup_maximal
from .results import MatchingResult, RunTrace


class CopyGraph(NamedTuple):
    """Expanded unit-capacity view of a capacitated instance."""

    instance: BipartiteInstance
    bidder_start: tuple[int, ...]
    item_start: tuple[int, ...]
    bidder_orig: tuple[int, ...]
    item_orig: tuple[int, ...]

    @property
    def n_bidder_copies(self) -> int:
        return self.bidder_start[-1]

    @property
    def n_item_copies(self) -> int:
        return self.item_start[-1]

    def bidder_copies(self, i: int) -> range:
        return range(self.bidder_start[i], self.bidder_start[i + 1])

    def item_copies(self, j: int) -> range:
        return range(self.item_start[j], self.item_start[j + 1])


def expand_copies(inst: BipartiteInstance) -> CopyGraph:
    """Expand bidders and items into unit-capacity copies."""
    bidder_start = [0]
    for cap in inst.b_l:
        bidder_start.append(bidder_start[-1] + cap)
    item_start = [0]
    for cap in inst.b_r:
        item_start.append(item_start[-1] + cap)
    bidder_orig = []
    for i, cap in enumerate(inst.b_l):
        bidder_orig.extend([i] * cap)
    item_orig = []
    for j, cap in enumerate(inst.b_r):
        item_orig.extend([j] * cap)
    return CopyGraph(
        instance=inst,
        bidder_start=tuple(bidder_start),
        item_start=tuple(item_start),
        bidder_orig=tuple(bidder_orig),
        item_orig=tuple(item_orig),
    )


class McbmState(Auction):
    """Auction state over the copy graph, one price unit per commit.

    ``held`` holds the original (bidder, item) pairs the copy assignment
    covers; ``pmin[j]`` is the cheapest copy price of original item j;
    ``adj`` lists each original bidder's items. ``commit_round`` keeps
    ``held`` and ``pmin`` in step with the copy assignment and prices.
    """

    def __init__(self, cg: CopyGraph, k: int) -> None:
        super().__init__(prices=[0] * cg.n_item_copies,
                         assignment=[None] * cg.n_bidder_copies,
                         owner=[None] * cg.n_item_copies)
        self.cg = cg
        self.k = k
        self.cutoffs = [0] * cg.n_bidder_copies
        self.held: set[tuple[int, int]] = set()
        self.pmin = [0] * cg.instance.n_r
        self.adj: list[list[int]] = [[] for _ in range(cg.instance.n_l)]
        for i, j, _ in cg.instance.edges:
            self.adj[i].append(j)

    def commit_round(self, pairs: list[tuple[int, int, int]]
                     ) -> list[int | None]:
        evicted = super().commit_round(pairs)
        cg, held, prices = self.cg, self.held, self.prices
        bidder_orig, item_orig, starts = cg.bidder_orig, cg.item_orig, cg.item_start
        for (bc, jc, _), prev in zip(pairs, evicted):
            oj = item_orig[jc]
            if prev is not None:
                held.discard((bidder_orig[prev], oj))
            held.add((bidder_orig[bc], oj))
            self.pmin[oj] = min(prices[starts[oj]:starts[oj + 1]])
        return evicted

    def price_minima(self) -> list[int]:
        """Each original item's cheapest copy price, computed from ``prices``."""
        starts, prices = self.cg.item_start, self.prices
        return [min(prices[starts[j]:starts[j + 1]])
                for j in range(self.cg.instance.n_r)]


def find_demand_set(state: McbmState, bcopy: int) -> list[int]:
    """Cheapest still-affordable item copies a bidder copy may bid on.

    An original item qualifies when no copy of it is already held by a
    sibling copy of the same bidder and its cheapest copy costs at least
    the bidder copy's cutoff.  Among copies of qualifying items priced
    below 1, the copies at the overall minimum price form the demand set.
    """
    oi = state.cg.bidder_orig[bcopy]
    cutoff = state.cutoffs[bcopy]
    pmin, held = state.pmin, state.held
    # The cheapest qualifying items; until one is below k, ``items`` only
    # collects items priced k, which demand nothing.
    best = state.k
    items: list[int] = []
    for j in state.adj[oi]:
        p = pmin[j]
        if p > best or p < cutoff or (oi, j) in held:
            continue
        if p < best:
            best = p
            items = [j]
        else:
            items.append(j)
    if best == state.k:
        return []
    starts, prices = state.cg.item_start, state.prices
    out = [jc for j in items for jc in range(starts[j], starts[j + 1])
           if prices[jc] == best]
    out.sort()
    return out


def _eligible_items(state: McbmState, bcopy: int) -> frozenset[int]:
    """Original items a bidder copy may bid on in the current state.

    These are the items ``find_demand_set`` and the stream kernel filter
    on: no sibling copy holds the pair and the item's cheapest copy is at
    or above the bidder copy's cutoff.
    """
    oi = state.cg.bidder_orig[bcopy]
    cutoff = state.cutoffs[bcopy]
    return frozenset(
        j for j in state.adj[oi]
        if (oi, j) not in state.held and state.pmin[j] >= cutoff
    )


def run_mcbm(
    inst: BipartiteInstance,
    eps: Epsilon,
    kernel: str = "det",
    seed: int = 0,
    audit: bool = False,
) -> tuple[MatchingResult, RunTrace]:
    """Run the capacitated cardinality auction.

    kernel "det" resolves each round with the duplicate-avoiding maximal
    matching on the demand sets; kernel "stream" replays the two
    edge-order sub-passes of the streaming engine so both produce
    identical matchings.  Returns the best projection seen over rounds
    together with a trace of rounds executed against the budget.

    With ``audit`` every round runs ``_round_audit``;
    ``trace.notes["reopened_pairs"]`` sums the re-opened pairs it counts.
    """
    if kernel not in ("det", "stream"):
        raise ValueError(f"unknown kernel {kernel!r}")
    cg = expand_copies(inst)
    state = McbmState(cg=cg, k=eps.k)
    budget = mcbm_round_budget(eps)
    trace = RunTrace(rounds_executed=0, round_budget=budget)

    def step(unmatched):
        # A copy unmatched at round start is never evicted in its own
        # round, so the demanders that win nothing are those the commits
        # leave unmatched. While any copy demands, every unmatched copy
        # stays: a sibling eviction can give an empty demand set items.
        demanded, pairs = (_det_round if kernel == "det" else _stream_round)(
            state, unmatched)
        got = KernelMatching(pairs=[(bc, jc, 1) for bc, jc in pairs])
        evicted = state.commit_round(got.pairs)
        for bc in demanded:
            if state.assignment[bc] is None:
                state.cutoffs[bc] += 1
        kept = unmatched if demanded else []
        return kept, state.next_bidders(kept, evicted), got

    views: dict[int, frozenset[int]] = {}
    if audit:
        trace.notes["reopened_pairs"] = 0
    # Unmatched bidder copies with neighbours, ascending; evictions feed it.
    trace.rounds_executed = state.run_rounds(
        [bc for bc in range(cg.n_bidder_copies) if state.adj[cg.bidder_orig[bc]]],
        budget, step,
        (lambda unmatched: _round_audit(state, unmatched, views, trace.notes))
        if audit else None)[0]

    best_pairs = tuple(sorted(
        (cg.bidder_orig[bc], cg.item_orig[jc]) for bc, jc in state.best_pairs()))
    return MatchingResult(pairs=best_pairs, value=len(best_pairs),
                          round_captured=state.best_round), trace


def _det_round(
    state: McbmState, unmatched: list[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """One round via demand sets and a duplicate-avoiding greedy.

    Copies ascending, each takes the first item copy of its demand set
    that no earlier copy claimed and whose original pair no earlier copy
    formed; a demand set never holds a pair in ``held``. One sweep, with
    no sub-phase for unowned copies: a copy's demanded copies share one
    price, so they are all unowned (price 0) or all owned.
    """
    bidder_orig, item_orig = state.cg.bidder_orig, state.cg.item_orig
    demanded: list[int] = []
    pairs: list[tuple[int, int]] = []
    claimed: set[int] = set()
    formed: set[tuple[int, int]] = set()
    for bc in unmatched:
        demand = find_demand_set(state, bc)
        if not demand:
            continue
        demanded.append(bc)
        oi = bidder_orig[bc]
        for jc in demand:
            if jc in claimed:
                continue
            pair = (oi, item_orig[jc])
            if pair in formed:
                continue
            claimed.add(jc)
            formed.add(pair)
            pairs.append((bc, jc))
            break
    return demanded, pairs


def _stream_round(
    state: McbmState, unmatched: list[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """One round replayed in edge order, mirroring the streaming engine.

    Sub-pass one hands price-0 item copies to bidder copies whose cheapest
    qualifying price is 0. Sub-pass two lets each remaining bidder copy
    claim a copy at its cheapest qualifying price above 0 by evicting the
    holder with the lowest copy id. Every sub-pass-two claim evicts: an
    owned copy is priced at least 1, so none at that price is free, and
    a price-0 edge that sub-pass one left unmatched had no free copy left.
    It reads round-start prices and holdings: ``run_mcbm``'s step commits
    its pairs only after it returns.
    """
    cg, k = state.cg, state.k
    pmin, prices, owner = state.pmin, state.prices, state.owner

    delta: dict[int, int] = {}
    for bc in unmatched:
        oi = cg.bidder_orig[bc]
        cutoff = state.cutoffs[bc]
        best = None
        for j in state.adj[oi]:
            if (oi, j) in state.held or pmin[j] < cutoff or pmin[j] >= k:
                continue
            if best is None or pmin[j] < best:
                best = pmin[j]
        if best is not None:
            delta[bc] = best

    claimed_bidders: set[int] = set()
    claimed_copies: set[int] = set()
    used_pairs = set(state.held)
    pairs: list[tuple[int, int]] = []

    def free_bidder_copy(i: int, price: int) -> int | None:
        # ``delta`` holds only unmatched copies, each at or above its cutoff
        for bc in cg.bidder_copies(i):
            if bc not in claimed_bidders and delta.get(bc) == price:
                return bc
        return None

    for i, j, _ in cg.instance.edges:
        if pmin[j] != 0 or (i, j) in used_pairs:
            continue
        jc_pick = None
        for jc in cg.item_copies(j):
            if prices[jc] == 0 and jc not in claimed_copies:
                jc_pick = jc
                break
        if jc_pick is None:
            continue
        bc = free_bidder_copy(i, 0)
        if bc is None:
            continue
        pairs.append((bc, jc_pick))
        claimed_bidders.add(bc)
        claimed_copies.add(jc_pick)
        used_pairs.add((i, j))

    for i, j, _ in cg.instance.edges:
        if not 0 < pmin[j] < k or (i, j) in used_pairs:
            continue
        bc = free_bidder_copy(i, pmin[j])
        if bc is None:
            continue
        # A holder owns one copy, and once evicted that copy is claimed.
        jc_pick = None
        for jc in cg.item_copies(j):
            if prices[jc] == pmin[j] and jc not in claimed_copies and (
                    jc_pick is None or owner[jc] < owner[jc_pick]):
                jc_pick = jc
        if jc_pick is None:
            continue
        pairs.append((bc, jc_pick))
        claimed_bidders.add(bc)
        claimed_copies.add(jc_pick)
        used_pairs.add((i, j))

    return sorted(delta), pairs


def _round_audit(state: McbmState, unmatched: list[int],
                 views: dict[int, frozenset[int]], notes: dict) -> Callable[..., None]:
    """The audit of one round of either capacitated engine.

    Run at round start: keeps the prices and cutoffs and records, in
    ``views``, the items each copy in ``unmatched`` may bid on (its demand
    view); a copy is live when one of them is below full price k. Returns
    the round-end check, which runs ``_audit_round``, adds its re-opened
    pairs to ``notes["reopened_pairs"]`` and runs ``check_demand``. Every
    unmatched copy stays on the worklist, so the check reads the copies
    that demanded off the state, not off ``kept``: those now matched or
    whose cutoff rose.
    """
    prev_prices, prev_cutoffs = list(state.prices), list(state.cutoffs)
    for bc in unmatched:
        views[bc] = _eligible_items(state, bc)
    live = [bc for bc in unmatched if any(state.pmin[j] < state.k for j in views[bc])]

    def check(kept=None) -> None:
        notes["reopened_pairs"] += _audit_round(
            state, prev_prices, prev_cutoffs, views)
        check_demand(live, [bc for bc in unmatched if state.assignment[bc] is not None
                            or state.cutoffs[bc] > prev_cutoffs[bc]])
    return check


def _audit_round(
    state: McbmState,
    prev_prices: list[int],
    prev_cutoffs: list[int],
    views: dict[int, frozenset[int]],
) -> int:
    """Check structural and happiness invariants after a round commit.

    ``views`` maps each bidder copy to the items it was eligible for when
    it last demanded, i.e. at the start of the last round it began
    unmatched.  A matched copy must be happy against every copy of those
    items at current prices; an unmatched copy is left to
    ``check_demand``, which ``_round_audit`` runs after this.  Returns the
    number of (bidder copy, item) pairs where a matched copy is underpaid
    against an item that is eligible now but was not in its view: an item
    re-opened by a sibling eviction or by its cheapest price crossing the
    copy's cutoff.  Those pairs are counted, not raised.
    """
    cg = state.cg
    k = state.k
    state.check_prices(prev_prices, k)

    for bc, old in enumerate(prev_cutoffs):
        if state.cutoffs[bc] < old:
            raise InvariantViolation(
                "cutoff-monotonicity",
                f"bidder copy {bc} cutoff dropped {old} -> {state.cutoffs[bc]}",
            )

    if state.pmin != state.price_minima():
        raise InvariantViolation(
            "item-min-drift", "cached cheapest copy prices do not match prices"
        )

    pair_seen: set[tuple[int, int]] = set()
    for bc, jc in enumerate(state.assignment):
        if jc is None:
            continue
        pair = (cg.bidder_orig[bc], cg.item_orig[jc])
        if pair in pair_seen:
            raise InvariantViolation(
                "one-item-match",
                f"original pair {pair} matched through two copy pairs",
            )
        pair_seen.add(pair)
    if pair_seen != state.held:
        raise InvariantViolation(
            "held-set-drift", "held pairs do not mirror copy assignments"
        )

    for j in range(cg.instance.n_r):
        ps = [state.prices[jc] for jc in cg.item_copies(j)]
        if max(ps) - min(ps) > 1:
            raise InvariantViolation(
                "copy-price-spread",
                f"item {j} copy prices span {min(ps)}..{max(ps)} (units of 1/{k})",
            )

    # From here on ``pmin`` is each item's cheapest copy price, so a copy
    # can beat ``utility`` only if the cheapest one does.
    pmin, held = state.pmin, state.held
    reopened = 0
    for bc, jc in enumerate(state.assignment):
        if jc is None:
            continue
        oi, cutoff = cg.bidder_orig[bc], state.cutoffs[bc]
        utility = k - state.prices[jc]
        view = views[bc]
        _check_copy_happiness(state, bc, utility, view)
        # The price test first: few items beat ``utility``.
        reopened += len({
            j for j in state.adj[oi]
            if utility < k - pmin[j] - 1 and j not in view
            and pmin[j] >= cutoff and (oi, j) not in held
        })
    return reopened


def _check_copy_happiness(
    state: McbmState, bcopy: int, utility: int, items: frozenset[int]
) -> None:
    """Utility must be within one price step of every copy of ``items``.

    ``items`` is a matched copy's demand view, the items it was
    eligible for when it bid, compared at current prices; this is the
    happiness the ``(1 - 2 eps)`` argument needs.  Eligibility is not
    monotone, so the round-end eligible set is the wrong quantifier: an
    eviction of a sibling copy re-opens a pair the copy could not bid on,
    and an item's cheapest price can rise past the copy's cutoff after it
    bought.  See the README section on the capacitated happiness check.
    """
    cg, k, pmin = state.cg, state.k, state.pmin
    for j in state.adj[cg.bidder_orig[bcopy]]:
        # only an item whose cheapest copy beats ``utility`` is scanned,
        # so that the first such copy is named
        if j not in items or utility >= k - pmin[j] - 1:
            continue
        for jc in cg.item_copies(j):
            if utility < k - state.prices[jc] - 1:
                raise InvariantViolation(
                    "copy-happiness",
                    f"bidder copy {bcopy} utility {utility}/{k} but item "
                    f"copy {jc} offers {k - state.prices[jc]}/{k}",
                )
