"""Semi-streaming execution of the auction engines.

An EdgeStream replays a loaded instance's edges; each full traversal
counts as one pass.  The engines below keep only per-vertex (or
per-vertex-copy) state, metered in words by a SpaceAccountant, and
reproduce the in-memory engines' stream kernels
exactly: same matchings, with pass counts 1 + 2 * phases for the
weighted engine and 1 + 2 * rounds for the capacitated one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from operator import itemgetter

from .auction import Auction, phase_budget, round_budget
from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon, ceil_log, prune_exponent, scale_and_prune
from .results import MatchingResult, RunTrace

# Measured ceiling for peak words over (sum of bidder capacities + n_r);
# the capacitated engine's state is a fixed number of arrays on those
# two scales, so the ratio stays flat as instances grow.  Worst observed
# ratio is 10.45 across the test shapes (n up to 2048, caps up to 4).
STREAM_MCBM_SPACE_FACTOR = 12


class EdgeStream:
    """Re-iterable edge source with pass counting over a loaded instance.

    Every traversal sees the instance's edges in the same order.  Its
    header fields (n_l, n_r, m, capacities) are the instance's.

    ``traverse()`` yields the edges one by one; ``runs()`` yields them as
    maximal runs of one bidder's consecutive edges, so that an engine can
    test a bidder once per run.  Either call is one pass.  When a bidder's
    edges are contiguous, as ``save_instance`` and ``generate_random``
    write them, each bidder has one run; in any other order a bidder's
    edges come in several runs and the engines' results are the same.
    """

    def __init__(self, instance: BipartiteInstance):
        self._instance = instance
        self.passes = 0
        # The bidder and the edges of each run of an instance's edges, in two
        # lists, built on the first runs() call. Like the edges it indexes,
        # it belongs to the source, not to an engine's metered state. A
        # groupby per pass would still step through every edge of a
        # skipped run, and make a group object per run.
        self._runs: tuple[list[int], list[tuple]] | None = None
        self.n_l, self.n_r, self.m = instance.n_l, instance.n_r, instance.m
        self.b_l, self.b_r = instance.b_l, instance.b_r

    @classmethod
    def from_instance(cls, inst: BipartiteInstance) -> "EdgeStream":
        if not isinstance(inst, BipartiteInstance):
            raise TypeError("from_instance requires a BipartiteInstance")
        return cls(inst)

    def traverse(self):
        """Start one pass; yields (i, j, w) with 0-based endpoints."""
        self.passes += 1
        return iter(self._instance.edges)

    def runs(self):
        """Start one pass; yields (i, run) for each maximal run of bidder
        i's consecutive edges, in stream order, each run a tuple of the
        instance's own (i, j, w) edge tuples.
        """
        self.passes += 1
        if self._runs is None:
            # zip builds each (i, run) pair as it is read, so the index
            # keeps no pair per run
            bidders, runs = [], []
            for i, run in groupby(self._instance.edges, itemgetter(0)):
                bidders.append(i)
                runs.append(tuple(run))
            self._runs = bidders, runs
        return zip(*self._runs)


class SpaceAccountant:
    """Words of live engine state; one id, price, counter or flag each."""

    def __init__(self, current: int = 0, peak: int = 0,
                 tags: dict[str, int] | None = None) -> None:
        self.current = current
        self.peak = peak
        self.tags = {} if tags is None else tags

    def alloc(self, words: int, tag: str = "misc") -> None:
        self.current += words
        self.tags[tag] = self.tags.get(tag, 0) + words
        if self.current > self.peak:
            self.peak = self.current

    def free(self, words: int, tag: str = "misc") -> None:
        self.current -= words
        self.tags[tag] = self.tags.get(tag, 0) - words


def stream_mwm(stream: EdgeStream, eps: Epsilon, audit: bool = False
               ) -> tuple[MatchingResult, RunTrace]:
    """Weighted auction over an edge stream.

    Pass 1 collects n, m and the weight extremes, fixing the prune
    threshold.  Each phase then spends one pass computing best margins
    for unmatched bidders (the first phase also learns the surviving
    weight range, hence the phase budget) and one pass matching edges
    greedily in stream order, exactly as the in-memory engine's stream
    kernel does.  Passes total 1 + 2 * phases.

    Every match pass, and every margin pass after the first phase's, walks
    the stream's ``runs()``: a margin pass skips the whole run of a
    matched bidder, and a match pass the run of a bidder with no best
    margin, leaving a run as soon as its bidder claims.  The result is
    the same in any edge order; when a bidder's edges are contiguous, as
    ``save_instance`` and ``generate_random`` write them, a bidder that
    cannot act costs one test per pass rather than one per edge.

    With ``audit`` the engine keeps its prices, owners and assignment in
    ``run_mwm``'s own state, built from the instance the stream wraps, and
    every phase runs ``mwm._phase_audit``, the in-memory engine's audit,
    with the bidders that had a best margin before the match pass as its
    demanders. That state's edges and the audit's edge -> weight table are
    kept outside the accountant: they check the engine and are no part of it.
    """
    k = eps.k
    acct = SpaceAccountant()

    m = 0
    w_max = 0
    w_min = None
    acct.alloc(8, "scalars")
    for i, j, w in stream.traverse():
        m += 1
        w_max = max(w_max, w)
        w_min = w if w_min is None else min(w_min, w)
    n_l, n_r = stream.n_l, stream.n_r
    if m == 0:
        raise ValueError("cannot scale an instance with no edges")
    power = k ** prune_exponent(k, m, w_min, w_max)
    # w * power < w_max exactly when w < ceil(w_max / power), for integer w
    w_cut = -(-w_max // power)

    # prices and owner per item; assignment, gain, has_edge and the best
    # assignment per bidder. An audited run keeps them in run_mwm's state,
    # which commits as an Auction does, over the same surviving edges.
    if audit:
        from .mwm import _new_state, _phase_audit

        auc = _new_state(scale_and_prune(stream._instance, eps), eps)
        weight = {(i, j): w for i, j, w in auc.sg.edges}
    else:
        auc = Auction(prices=[0] * n_r, assignment=[None] * n_l, owner=[None] * n_r)
    prices, assignment = auc.prices, auc.assignment
    has_edge = [False] * n_l
    acct.alloc(2 * n_r + 4 * n_l, "vertex-state")

    budget = None
    phases = 0

    while True:
        if budget is not None and phases >= budget:
            break
        if budget is not None:
            live = any(assignment[i] is None and has_edge[i] for i in range(n_l))
            if not live:
                break
        phases += 1
        if audit:
            check = _phase_audit(
                auc, [i for i in range(n_l) if assignment[i] is None], None, weight)

        margin_best: dict[int, int] = {}
        if phases == 1:
            # Nothing is matched or priced yet; this pass also learns
            # which bidders keep an edge and the surviving weight range.
            w_min_surv = w_max
            for i, j, w in stream.traverse():
                if w < w_cut:
                    continue
                has_edge[i] = True
                if w < w_min_surv:
                    w_min_surv = w
                margin = k * w
                if margin > margin_best.get(i, 0):
                    if i not in margin_best:
                        acct.alloc(1, "margins")
                    margin_best[i] = margin
            budget = phase_budget(ceil_log(k, w_max, w_min_surv), eps)
        else:
            for i, run in stream.runs():
                if assignment[i] is not None:
                    continue
                best = margin_best.get(i, 0)
                for _, j, w in run:
                    if w >= w_cut:
                        margin = k * w - prices[j]
                        if margin > best:
                            best = margin
                if best > margin_best.get(i, 0):
                    if i not in margin_best:
                        acct.alloc(1, "margins")
                    margin_best[i] = best

        if audit:  # the demanders, before the match pass empties margin_best
            demanders = list(margin_best)
        # margin_best holds only bidders unmatched at phase start; a
        # bidder leaves it once it claims an item in this pass.
        n_margins = len(margin_best)
        pairs: list[tuple[int, int, int]] = []
        claimed: set[int] = set()
        for i, run in stream.runs():
            best = margin_best.get(i)
            if best is None:
                continue
            for _, j, w in run:
                if j in claimed or w < w_cut:
                    continue
                v = k * w
                if prices[j] < v and v - prices[j] >= best - w:
                    del margin_best[i]
                    claimed.add(j)
                    pairs.append((i, j, w))
                    acct.alloc(5, "phase-claims")
                    break

        auc.commit_round(pairs)

        if audit:
            check(demanders)
        auc.snapshot(phases)

        acct.free(n_margins, "margins")
        acct.free(5 * len(pairs), "phase-claims")
        if not pairs:
            break

    result = MatchingResult(pairs=auc.best_pairs(), value=auc.best_value,
                            round_captured=auc.best_round)
    trace = RunTrace(rounds_executed=phases, round_budget=budget or 0,
                     passes=stream.passes, peak_words=acct.peak)
    return result, trace


def stream_mcbm(stream: EdgeStream, eps: Epsilon, audit: bool = False
                ) -> tuple[MatchingResult, RunTrace]:
    """Capacitated cardinality auction over an edge stream.

    Pass 1 reads the header and capacities.  Each round then spends one
    pass accumulating the cheapest qualifying price per unmatched bidder
    copy while matching price-0 item copies to cutoff-0 bidder copies,
    and a second pass matching the remaining bidder copies at their
    accumulated price.  Item copies are interchangeable, so each item is
    tracked as (minimum price, copies at it, copies one step above).  An
    item copy at a positive minimum price is always held at that price,
    so the second pass decides whether a claim can evict by counting the
    claims already made at that price; the commit then evicts, for each
    item, that many holders, lowest copy id first, in one sweep over the
    bidder copies.  Passes total 1 + 2 * rounds.

    No assignment changes during a round's two passes, so both walk the
    stream's ``runs()``: each reads a bidder's copies once per run of its
    edges and skips the whole run of a bidder with no free copy.  The
    result is the same in any edge order; when a bidder's edges are
    contiguous, as ``save_instance`` and ``generate_random`` write them,
    that work is paid once per bidder rather than per edge.

    With ``audit`` every round runs ``mcbm._round_audit``, the in-memory
    engine's audit, on a copy layout of the item counts (``_as_copies``);
    ``trace.notes["reopened_pairs"]`` sums the re-opened pairs it counts.
    The audit's state is built from the instance the stream wraps and kept
    outside the accountant: it checks the engine and is no part of it.
    """
    k = eps.k
    acct = SpaceAccountant()

    for _ in stream.traverse():
        pass
    n_l, n_r = stream.n_l, stream.n_r
    b_l, b_r = list(stream.b_l), list(stream.b_r)
    acct.alloc(n_l + n_r + 6, "capacities")

    start = [0] * (n_l + 1)
    for i in range(n_l):
        start[i + 1] = start[i] + b_l[i]
    n_copies = start[-1]
    acct.alloc(n_l + 1, "copy-layout")

    # cutoff, assignment, held price and best assignment per copy; item
    # prices are counts below, so the core serves only the snapshot
    cutoff = [0] * n_copies
    auc = Auction(prices=[], assignment=[None] * n_copies, owner=[], gain=[])
    assignment = auc.assignment
    held_price = [0] * n_copies
    acct.alloc(4 * n_copies, "bidder-copy-state")

    pmin = [0] * n_r
    n_min = list(b_r)
    n_max = [0] * n_r
    acct.alloc(3 * n_r, "item-state")

    has_edge = [False] * n_l
    acct.alloc(n_l, "bidder-flags")

    if audit:
        from .mcbm import McbmState, _round_audit, expand_copies

        # the audit reads the stream's own cutoffs and minimum prices
        state = McbmState(expand_copies(stream._instance), k)
        state.cutoffs, state.pmin = cutoff, pmin
        views: dict[int, frozenset[int]] = {}
        notes = {"reopened_pairs": 0}

    budget = round_budget(eps)
    rounds = 0

    while rounds < budget and stream.m > 0:
        if rounds > 0:
            live = any(has_edge[i] and None in assignment[start[i]:start[i + 1]]
                       for i in range(n_l))
            if not live:
                break
        rounds += 1
        if audit:
            check = _round_audit(
                state, [bc for bc, j in enumerate(assignment) if j is None],
                views, notes)

        delta: dict[int, int] = {}
        claims: list[tuple[int, int]] = []
        claimed_pairs: set[tuple[int, int]] = set()
        claimed_bidders: set[int] = set()
        claimed_at_pmin = [0] * n_r
        acct.alloc(n_r, "round-claim-counts")

        # Claims are applied only after the second pass, so what a bidder's
        # copies hold is fixed for the round and is read once per run of its
        # edges. A bidder whose copies are all matched can neither demand
        # nor claim.
        for i, run in stream.runs():
            if rounds == 1:
                has_edge[i] = True
            lo, hi = start[i], start[i + 1]
            held = assignment[lo:hi]
            if None not in held:
                continue
            for _, j, _ in run:
                if j in held:
                    continue
                p = pmin[j]
                if p < k:
                    for bc in range(lo, hi):
                        if assignment[bc] is None and cutoff[bc] <= p:
                            d = delta.get(bc)
                            if d is None:
                                delta[bc] = p
                            elif p < d:
                                delta[bc] = p
                if p == 0 and (i, j) not in claimed_pairs:
                    if n_min[j] - claimed_at_pmin[j] <= 0:
                        continue
                    pick = None
                    for bc in range(lo, hi):
                        if (assignment[bc] is None and bc not in claimed_bidders
                                and cutoff[bc] == 0):
                            pick = bc
                            break
                    if pick is None:
                        continue
                    claims.append((pick, j))
                    claimed_bidders.add(pick)
                    claimed_pairs.add((i, j))
                    claimed_at_pmin[j] += 1

        # Every copy of j at pmin[j] > 0 is held at exactly that price, so
        # n_min[j] - claimed_at_pmin[j] holders are still there to evict.
        evicting = False
        for i, run in stream.runs():
            lo, hi = start[i], start[i + 1]
            held = assignment[lo:hi]
            if None not in held:
                continue
            for _, j, _ in run:
                p = pmin[j]
                if p >= k or n_min[j] - claimed_at_pmin[j] <= 0:
                    continue
                if (i, j) in claimed_pairs or j in held:
                    continue
                # delta[bc] == p already implies bc is unmatched and cutoff <= p
                for bc in range(lo, hi):
                    if delta.get(bc) == p and bc not in claimed_bidders:
                        break
                else:
                    continue
                claims.append((bc, j))
                claimed_at_pmin[j] += 1
                if p > 0:
                    evicting = True
                claimed_bidders.add(bc)
                claimed_pairs.add((i, j))

        # No word is freed before the round ends, so metering its demands
        # and claims once, after both passes, leaves the peak unchanged.
        acct.alloc(len(delta), "round-demands")
        acct.alloc(7 * len(claims), "round-claims")

        if evicting:
            # Each claim at pmin[j] > 0 evicts one holder at that price:
            # the lowest-id ones, as a first-fit scan per claim would.
            for bc, j in enumerate(assignment):
                if (j is not None and claimed_at_pmin[j] > 0
                        and held_price[bc] == pmin[j]):
                    claimed_at_pmin[j] -= 1
                    assignment[bc] = None
                    held_price[bc] = 0
                    auc.value -= 1

        # pmin[j] moves only after its last copy at pmin is claimed, so it
        # still is the price each of these claims paid.
        auc.value += len(claims)
        for bc, j in claims:
            assignment[bc] = j
            held_price[bc] = pmin[j] + 1
            n_min[j] -= 1
            n_max[j] += 1
            if n_min[j] == 0:
                pmin[j] += 1
                n_min[j] = n_max[j]
                n_max[j] = 0

        for bc in delta:
            if assignment[bc] is None:
                cutoff[bc] += 1

        if audit:
            _as_copies(state, assignment, held_price, n_min, n_max)
            check()

        auc.snapshot(rounds)

        acct.free(len(delta), "round-demands")
        acct.free(7 * len(claims), "round-claims")
        acct.free(n_r, "round-claim-counts")
        if not claims and not delta:
            break

    pairs = tuple(sorted((bisect_right(start, bc) - 1, j) for bc, j in auc.best_pairs()))
    result = MatchingResult(pairs=pairs, value=len(pairs),
                            round_captured=auc.best_round)
    trace = RunTrace(rounds_executed=rounds, round_budget=budget,
                     passes=stream.passes, peak_words=acct.peak)
    if audit:
        trace.notes = notes
    return result, trace


def _as_copies(state, assignment, held_price, n_min, n_max) -> None:
    """Lay ``stream_mcbm``'s item counts out as item copies in ``state``,
    the ``mcbm.McbmState`` its audit reads, whose ``pmin`` is the stream's.

    Item j's first ``n_max[j]`` copies are priced ``pmin[j] + 1`` and the
    rest ``pmin[j]``; each holder, in ascending bidder-copy order, takes
    the next free copy at the price it paid. Only what no layout can hold
    is raised here; ``mcbm._audit_round`` checks the rest. A round claims
    at most ``n_min[j]`` copies of j, so ``pmin[j]`` rises at most one step
    a round, and the laid-out price at any position never falls.
    """
    cg, k, pmin, prices = state.cg, state.k, state.pmin, state.prices
    starts = cg.item_start
    free = {}  # (item, price): [next free copy at that price, end of them]
    for j, p in enumerate(pmin):
        lo, hi = starts[j], starts[j + 1]
        mid = lo + n_max[j]
        if n_min[j] <= 0 or mid + n_min[j] != hi:
            raise InvariantViolation(
                "item-state", f"item {j}: {n_min[j]} copies at its minimum price "
                f"and {n_max[j]} above it, for capacity {hi - lo}")
        prices[lo:mid] = [p + 1] * n_max[j]
        prices[mid:hi] = [p] * n_min[j]
        free[j, p + 1], free[j, p] = [lo, mid], [mid, hi]
    state.owner[:] = [None] * len(state.owner)
    state.held.clear()
    for bc, j in enumerate(assignment):
        if j is None:
            state.assignment[bc] = None
            continue
        paid = held_price[bc]
        slot = free.get((j, paid))
        if paid < 1 or slot is None:
            raise InvariantViolation(
                "held-price", f"bidder copy {bc} paid {paid}/{k} for item {j}, "
                f"whose cheapest copy costs {pmin[j]}/{k}")
        jc, end = slot
        if jc == end:
            raise InvariantViolation(
                "item-state", f"item {j} has more holders at {paid}/{k} than "
                "copies at that price")
        slot[0] = jc + 1
        state.assignment[bc] = jc
        state.owner[jc] = bc
        state.held.add((cg.bidder_orig[bc], j))

