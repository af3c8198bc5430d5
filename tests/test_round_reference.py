"""The round loops of the cardinality and weighted engines, and the bucket
kernel, against reference copies of their earlier forms.

The references ask every unmatched bidder with a neighbour for a demand set
in every round, and key weight buckets by (bidder, item), each bucket from
its Fraction definition (``edge_bucket``). The engines drop a
bidder whose demand set came back empty (prices never fall, so it can never
demand again), the deterministic cardinality round finds each bidder's
demand and greedy pick in one scan of its adjacency, and the weighted phase
sorts every demanded item into one (bucket, bidder, price, item, weight)
list instead of building demand sets and a candidate dict; results, round counts
and blackboard traces must not change, also when edge lines are not in
item order. The three engines run their rounds through
``Auction.run_rounds``; the capacitated reference is a round loop of its
own, which raises the cutoffs after the commits.

The references commit pair by pair through ``reference_commit``, the
per-pair commit that the engines' batch ``Auction.commit_round`` and the
deterministic cardinality round's in-scan commit must equal.
"""

import random
from fractions import Fraction

import pytest

from auctionmatch import mcbm, mcm, mwm
from auctionmatch.auction import Auction, blackboard_trace, phase_budget, round_budget
from auctionmatch.graph import BipartiteInstance, Epsilon, generate_random, scale_and_prune
from auctionmatch.kernels import (
    KernelMatching,
    bucket_ordered_maximal,
    greedy_maximal,
    randomized_proposal_mm,
)
from auctionmatch.results import MatchingResult, RunTrace
from auctionmatch.suite import check_matching
from auctionmatch.weight_reduction import run_reduced_mwm


def edge_bucket(scaled_w, eps):
    """The weight bucket by its definition, in Fractions: the unique b >= 1
    with eps**(b-1) <= scaled_w < eps**(b-2), for scaled_w in (0, 1].
    Bucket 1 holds the heaviest edges."""
    if not 0 < scaled_w <= 1:
        raise ValueError(f"scaled weight {scaled_w} outside (0, 1]")
    b = 1
    while Fraction(1, eps.k) ** (b - 1) > scaled_w:
        b += 1
    return b


def reference_commit(state, i, j, step):
    """Give item j to bidder i, evicting its owner; the price and the value
    both rise by ``step``. On an ``McbmState`` it also keeps ``held`` and
    ``pmin`` in step. Returns the evicted owner or None."""
    prev = state.owner[j]
    if prev is not None:
        state.assignment[prev] = None
        state.value -= state.gain[prev]
        state.gain[prev] = 0
    state.owner[j] = i
    state.assignment[i] = j
    state.gain[i] = step
    state.prices[j] += step
    state.value += step
    if isinstance(state, mcbm.McbmState):
        cg = state.cg
        oj = cg.item_orig[j]
        if prev is not None:
            state.held.discard((cg.bidder_orig[prev], oj))
        state.held.add((cg.bidder_orig[i], oj))
        state.pmin[oj] = min(state.prices[cg.item_start[oj]:cg.item_start[oj + 1]])
    return prev


def replay_with_fault(state, pairs, evicted, fault):
    """Run ``fault(state, i, j, step, prev)`` after each committed pair, as
    if the pairs had been committed one by one: the round's price steps are
    taken back and made again in pair order, each followed by its fault.

    ``pairs`` were committed in one batch and ``evicted`` lists, pair by
    pair, the owner each evicted. A commit reads only its own item's owner
    and price, and no fault here writes another pair's item, owner or
    bidder, so every fault sees and leaves the state that a per-pair commit
    followed by the fault would.
    """
    for _, j, step in pairs:
        state.prices[j] -= step
    for (i, j, step), prev in zip(pairs, evicted):
        state.prices[j] += step
        fault(state, i, j, step, prev)


def faulty_commit_round(fault, commit_round=Auction.commit_round):
    """``commit_round`` that runs ``fault(state, i, j, step, prev)`` after
    every pair it commits, as ``replay_with_fault`` does."""
    def committed(self, pairs):
        evicted = commit_round(self, pairs)
        replay_with_fault(self, pairs, evicted, fault)
        return evicted
    return committed


def faulty_det_round(fault, round_=mcm._round):
    """``mcm._round`` that runs ``fault(state, i, j, step, prev)`` after
    every pair its scan commits, as ``replay_with_fault`` does; a pair's
    evicted owner is its item's owner at round start, since no item is
    won twice in a round."""
    def faulted(state, bidders, *args):
        owners = list(state.owner)
        kept, following, got = round_(state, bidders, *args)
        replay_with_fault(state, got.pairs, [owners[j] for _, j, _ in got.pairs],
                          fault)
        return kept, following, got
    return faulted


def _tuple_keyed_bucket_ordered_maximal(candidates, buckets, kernel="det", seed=0):
    """bucket_ordered_maximal over ``buckets`` keyed by (bidder, item),
    one rescan of every candidate per bucket."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    matched_bidders, matched_items = set(), set()
    out = KernelMatching()
    for b in sorted(set(buckets.values())):
        layer = {}
        for i, items in candidates.items():
            if i in matched_bidders:
                continue
            cands = [j for j in items
                     if j not in matched_items and buckets.get((i, j)) == b]
            if cands:
                layer[i] = cands
        if not layer:
            continue
        if kernel == "rand":
            got = randomized_proposal_mm(layer, rng)
            out.proposal_rounds += got.proposal_rounds
            out.proposals += got.proposals
        else:
            got = greedy_maximal(layer)
        for i, j in got.pairs:
            matched_bidders.add(i)
            matched_items.add(j)
            out.pairs.append((i, j))
    out.pairs.sort()
    return out


def _reference_run_mcm(inst, eps, kernel="det", seed=0, audit=False):
    state = mcm._new_state(inst, eps)
    budget = round_budget(eps)
    rng = random.Random(seed)
    executed = proposal_rounds = proposals = announcements = 0
    bidders = [i for i in range(inst.n_l) if state.adj[i]]
    for round_no in range(1, budget + 1):
        if not bidders:
            break
        executed = round_no
        prev_prices = list(state.prices)
        sub = {}
        for i in bidders:
            demand = mcm.demand_set_mcm(state, i)
            if demand:
                sub[i] = demand
        if kernel == "rand":
            got = randomized_proposal_mm(sub, rng)
            proposal_rounds += got.proposal_rounds
            proposals += got.proposals
        else:
            got = greedy_maximal(sub)
        evicted = [reference_commit(state, i, j, 1) for i, j in got.pairs]
        bidders = state.next_bidders(bidders, evicted)
        announcements += len(got.pairs)
        if audit:
            mcm._audit_round(state, prev_prices)
        state.snapshot(round_no)
        if not got.pairs:
            break
    best = state.best_pairs()
    assert check_matching(best, (1,) * inst.n_l, (1,) * inst.n_r, inst.edges)
    blackboard = None
    if kernel == "rand":
        blackboard = blackboard_trace(inst.n_r, eps.k, executed, proposal_rounds,
                                      proposals, announcements)
    return (MatchingResult(pairs=best, value=state.best_value,
                           round_captured=state.best_round),
            RunTrace(rounds_executed=executed, round_budget=budget,
                     blackboard=blackboard))


def _reference_phase(state, bidders, kernel, rng, bucket_of, demand=None):
    """mwm._phase as the path it replaced: a demand set per bidder, a
    candidate dict of them, and the tuple-keyed bucket kernel. ``demand`` defaults
    to ``mwm.demand_set_mwm``; ``bucket_of`` is not used."""
    demand = demand or mwm.demand_set_mwm
    sub = {}
    buckets, weight = {}, {}
    for i in bidders:
        spec = demand(state, i)
        if spec.items:
            sub[i] = list(spec.items)
            for j, w in zip(spec.items, spec.weights):
                buckets[(i, j)] = edge_bucket(Fraction(w, state.sg.w_max),
                                              Epsilon(state.k))
                weight[(i, j)] = w
    got = _tuple_keyed_bucket_ordered_maximal(sub, buckets, kernel, rng)
    got.pairs = [(i, j, weight[(i, j)]) for i, j in got.pairs]
    return list(sub), got


def _reference_run_mwm(sg, eps, kernel="det", seed=0, audit=False):
    inst, k = sg.instance, eps.k
    state = mwm._new_state(sg, eps)
    budget = phase_budget(sg.bucket_count, eps)
    rng = random.Random(seed)
    weight = {(i, j): w for i, j, w in sg.edges}
    executed = proposal_rounds = proposals = announcements = 0
    unmatched = [i for i in range(inst.n_l) if state.adj[i]]
    for phase_no in range(1, budget + 1):
        if not unmatched:
            break
        executed = phase_no
        if kernel == "stream":
            _, got = mwm._stream_order_matching(state)
            pairs = got.pairs
        else:
            _, got = _reference_phase(state, unmatched, kernel, rng, None)
            proposal_rounds += got.proposal_rounds
            proposals += got.proposals
            pairs = got.pairs
        prev_prices = list(state.prices)
        evicted = [reference_commit(state, i, j, w) for i, j, w in pairs]
        unmatched = state.next_bidders(unmatched, evicted)
        announcements += len(pairs)
        if audit:
            mwm._audit_phase(state, prev_prices, None, weight)
        state.snapshot(phase_no)
        if not pairs:
            break
    best = state.best_pairs()
    assert check_matching(best, (1,) * inst.n_l, (1,) * inst.n_r, sg.edges)
    blackboard = None
    if kernel == "rand":
        blackboard = blackboard_trace(inst.n_r, k * sg.w_max, executed,
                                      proposal_rounds, proposals, announcements)
    return (MatchingResult(pairs=best, value=state.best_value,
                           round_captured=state.best_round),
            RunTrace(rounds_executed=executed, round_budget=budget,
                     blackboard=blackboard))


def _reference_run_mcbm(inst, eps, kernel="det", seed=0, audit=False):
    cg = mcbm.expand_copies(inst)
    state = mcbm.McbmState(cg=cg, k=eps.k)
    budget = round_budget(eps)
    trace = RunTrace(rounds_executed=0, round_budget=budget)

    views = {}
    if audit:
        trace.notes["reopened_pairs"] = 0

    # Unmatched bidder copies with neighbours, ascending; evictions feed it.
    unmatched = [bc for bc in range(cg.n_bidder_copies)
                 if state.adj[cg.bidder_orig[bc]]]
    for rnd in range(1, budget + 1):
        if not unmatched:
            break
        trace.rounds_executed = rnd
        prev_prices = list(state.prices) if audit else None
        prev_cutoffs = list(state.cutoffs) if audit else None
        if audit:
            for bc in unmatched:
                views[bc] = mcbm._eligible_items(state, bc)

        if kernel == "det":
            demanded, pairs = mcbm._det_round(state, unmatched)
        else:
            demanded, pairs = mcbm._stream_round(state, unmatched)

        evicted = [reference_commit(state, bc, jc, 1) for bc, jc in pairs]
        unmatched = state.next_bidders(unmatched, evicted)

        for bc in demanded:
            if state.assignment[bc] is None:
                state.cutoffs[bc] += 1

        if audit:
            trace.notes["reopened_pairs"] += mcbm._audit_round(
                state, prev_prices, prev_cutoffs, views)

        state.snapshot(rnd)

        if not pairs and not demanded:
            break

    best_pairs = tuple(sorted(
        (cg.bidder_orig[bc], cg.item_orig[jc]) for bc, jc in state.best_pairs()))
    assert check_matching(best_pairs, inst.b_l, inst.b_r, inst.edges)
    result = MatchingResult(pairs=best_pairs, value=len(best_pairs),
                            round_captured=state.best_round)
    return result, trace


def _instances(count=12):
    # more bidders than items, so that bidders get priced out
    for seed in range(count):
        rng = random.Random(seed)
        n_r = rng.randint(5, 24)
        n_l = n_r + rng.randint(0, 8)
        w_max = rng.choice([1, 9, 1000])
        yield seed, generate_random(n_l, n_r, rng.choice([0.1, 0.25, 0.5]),
                                    w_range=(1, w_max), seed=seed)


class _DemandSpy:
    """Stands in for a demand-set function: counts calls and fails on a
    call for a bidder whose demand set already came back empty."""

    def __init__(self, demand, empty):
        self.demand, self.empty = demand, empty
        self.calls = 0
        self.priced_out: set[int] = set()

    def __call__(self, state, i):
        assert i not in self.priced_out, f"bidder {i} asked again after an empty demand"
        self.calls += 1
        got = self.demand(state, i)
        if self.empty(got):
            self.priced_out.add(i)
        return got


def _spy(monkeypatch, module, name, empty):
    spy = _DemandSpy(getattr(module, name), empty)
    monkeypatch.setattr(module, name, spy)
    return spy


class _RoundSpy:
    """Stands in for a round step, ``mcm._round`` or ``mwm._phase``, whose
    result starts with the demanders: counts calls and fails on a call
    handed a bidder whose demand set already came back empty."""

    def __init__(self, step):
        self.step = step
        self.rounds = 0
        self.priced_out: set[int] = set()

    def __call__(self, state, bidders, *args):
        assert not self.priced_out.intersection(bidders), "a priced-out bidder bid again"
        self.rounds += 1
        out = self.step(state, bidders, *args)
        self.priced_out.update(set(bidders) - set(out[0]))
        return out


def _reference_round(state, bidders, kernel, rng):
    """``mcm._round`` as a demand set per bidder, the kernel on their
    candidate dict, ``reference_commit`` pair by pair and ``next_bidders``."""
    sub = {}
    for i in bidders:
        demand = mcm.demand_set_mcm(state, i)
        if demand:
            sub[i] = demand
    got = randomized_proposal_mm(sub, rng) if kernel == "rand" else greedy_maximal(sub)
    got.pairs = [(i, j, 1) for i, j in got.pairs]
    evicted = [reference_commit(state, i, j, step) for i, j, step in got.pairs]
    kept = list(sub)
    return kept, state.next_bidders(kept, evicted), got


# (instance, eps) whose last round, the fourth with either kernel, asks no
# bidder: every unmatched bidder is priced out, and the round runs only so
# that it counts as before, with nothing to match.
_MCM_LAST_ROUND_PRICED_OUT = (
    BipartiteInstance.build(4, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 1, 1),
                                   (2, 1, 1), (3, 0, 1), (3, 1, 1)]),
    Epsilon(2))
_MWM_LAST_ROUND_PRICED_OUT = (
    BipartiteInstance.build(3, 2, [(0, 0, 1), (1, 0, 3), (1, 1, 2), (2, 0, 3)]),
    Epsilon(2))


@pytest.mark.parametrize("seed", range(6))
def test_bucket_rows_match_the_tuple_keyed_kernel(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 14)
        sub, rows, buckets = {}, {}, {}
        for i in rng.sample(range(2 * n), n):  # bidders in no fixed order
            cands = rng.sample(range(n), rng.randint(1, n))
            sub[i] = cands
            rows[i] = [rng.randint(1, 4) for _ in cands]
            buckets.update(zip(((i, j) for j in cands), rows[i]))
        for kernel, kernel_seed in [("det", 0)] + [("rand", s) for s in range(4)]:
            got = bucket_ordered_maximal(sub, rows, kernel=kernel, seed=kernel_seed)
            want = _tuple_keyed_bucket_ordered_maximal(sub, buckets, kernel, kernel_seed)
            assert (got.pairs, got.proposal_rounds, got.proposals) == (
                want.pairs, want.proposal_rounds, want.proposals)


@pytest.mark.parametrize("kernel", ["det", "rand"])
def test_mcm_matches_the_every_bidder_loop(kernel, monkeypatch):
    calls = reference_calls = runs_with_priced_out = 0
    for seed, inst in _instances():
        for eps in (Epsilon(2), Epsilon(4), Epsilon(inst.n_l + 1)):
            want = _reference_run_mcm(inst, eps, kernel, seed, audit=True)
            assert mcm.run_mcm(inst, eps, kernel, seed, audit=True) == want
            with monkeypatch.context() as m:
                spy = _spy(m, mcm, "demand_set_mcm", lambda got: not got)
                round_spy = _RoundSpy(mcm._round)
                m.setattr(mcm, "_round", round_spy)
                assert mcm.run_mcm(inst, eps, kernel, seed) == want
            # one round step per round
            assert round_spy.rounds == want[1].rounds_executed
            runs_with_priced_out += bool(round_spy.priced_out)
            calls += spy.calls
            with monkeypatch.context() as m:
                spy = _spy(m, mcm, "demand_set_mcm", lambda got: False)
                _reference_run_mcm(inst, eps, kernel, seed)
            reference_calls += spy.calls
    assert runs_with_priced_out > 0
    # only the 'rand' round asks demand_set_mcm; 'det' scans demand inline
    if kernel == "rand":
        assert calls < reference_calls
    else:
        assert calls == 0


@pytest.mark.parametrize("kernel", ["det", "rand", "stream"])
def test_mwm_matches_the_every_bidder_loop(kernel, monkeypatch):
    runs_with_priced_out = 0
    for seed, inst in _instances():
        for eps in (Epsilon(2), Epsilon(4)):
            sg = scale_and_prune(inst, eps)
            want = _reference_run_mwm(sg, eps, kernel, seed, audit=True)
            assert mwm.run_mwm(sg, eps, kernel, seed, audit=True) == want
            with monkeypatch.context() as m:
                spy = _RoundSpy(mwm._phase)
                m.setattr(mwm, "_phase", spy)
                assert mwm.run_mwm(sg, eps, kernel, seed) == want
            # one phase step per phase; the stream kernel needs none
            assert spy.rounds == (0 if kernel == "stream" else want[1].rounds_executed)
            runs_with_priced_out += bool(spy.priced_out)
    assert runs_with_priced_out > 0 or kernel == "stream"


@pytest.mark.parametrize("engine", ["mcm", "mwm"])
@pytest.mark.parametrize("kernel", ["det", "rand"])
@pytest.mark.parametrize("audit", [False, True])
def test_a_last_round_of_priced_out_bidders_still_counts(engine, kernel, audit,
                                                         monkeypatch):
    if engine == "mwm":
        inst, eps = _MWM_LAST_ROUND_PRICED_OUT
        sg = scale_and_prune(inst, eps)
        want = _reference_run_mwm(sg, eps, kernel, audit=audit)
        # the phase scans demand and matches inline, so what each phase is
        # handed and finds demanding shows the last phase's bidders
        phases = []
        inner_phase = mwm._phase

        def logged_phase(state, bidders, *args):
            demanders, got = inner_phase(state, bidders, *args)
            phases.append((list(bidders), demanders, got.pairs))
            return demanders, got

        monkeypatch.setattr(mwm, "_phase", logged_phase)
        got = mwm.run_mwm(sg, eps, kernel, audit=audit)
        assert got == want
        assert got[1].rounds_executed == 4
        assert len(phases) == 4
        assert any(len(d) < len(b) for b, d, _ in phases[:3])
        assert phases[-1] == ([], [], [])
        return
    inst, eps = _MCM_LAST_ROUND_PRICED_OUT
    want = _reference_run_mcm(inst, eps, kernel, audit=audit)
    if kernel == "det":
        # the det round scans demand, picks and commits inline, so the
        # worklist each round hands on is what shows the last round's bidders
        handed_on = []
        inner_round = mcm._round

        def logged_round(state, bidders, *args):
            kept, following, got = inner_round(state, bidders, *args)
            handed_on.append(following)
            return kept, following, got

        monkeypatch.setattr(mcm, "_round", logged_round)
        got = mcm.run_mcm(inst, eps, kernel, audit=audit)
        assert got == want
        assert got[1].rounds_executed == 4
        assert len(handed_on) == 4
        assert handed_on[2] == []
        return
    # log demand and kernel calls in order, to find the last round's calls
    log = []
    inner_demand, inner_kernel = mcm.demand_set_mcm, mcm.randomized_proposal_mm

    def logged_demand(state, i):
        log.append("demand")
        return inner_demand(state, i)

    def logged_kernel(sub, *args, **kwargs):
        log.append(("kernel", list(sub)))
        return inner_kernel(sub, *args, **kwargs)

    monkeypatch.setattr(mcm, "demand_set_mcm", logged_demand)
    monkeypatch.setattr(mcm, "randomized_proposal_mm", logged_kernel)
    got = mcm.run_mcm(inst, eps, kernel, audit=audit)
    assert got == want
    assert got[1].rounds_executed == 4
    kernel_calls = [t for t, e in enumerate(log) if e != "demand"]
    assert len(kernel_calls) == 4
    assert log[kernel_calls[-1]] == ("kernel", [])
    if not audit:  # the audit asks every bidder, after the kernel
        assert log[kernel_calls[-2] + 1:kernel_calls[-1]] == []


def _shuffled(inst, seed):
    """``inst`` with its edge lines in a seeded random order, so that a
    bidder's adjacency, built in edge order, is not in item order."""
    edges = list(inst.edges)
    random.Random(seed).shuffle(edges)
    return BipartiteInstance(n_l=inst.n_l, n_r=inst.n_r, edges=tuple(edges),
                             b_l=inst.b_l, b_r=inst.b_r)


def _out_of_item_order(inst):
    last = {}
    for i, j, _ in inst.edges:
        if j < last.get(i, -1):
            return True
        last[i] = j
    return False


def _run_through_reference_commits(monkeypatch, inst, eps, kernel, seed, audit):
    """``run_mcm`` with its round step replaced by ``_reference_round``:
    the same round loop and audit, committing pair by pair."""
    with monkeypatch.context() as m:
        m.setattr(mcm, "_round", _reference_round)
        return mcm.run_mcm(inst, eps, kernel, seed, audit)


@pytest.mark.parametrize("kernel", ["det", "rand"])
def test_one_scan_round_matches_the_reference_on_shuffled_edges(kernel, monkeypatch):
    for seed in range(10):
        inst = _shuffled(generate_random(72, 64, 4 / 64, seed=seed), seed)
        assert _out_of_item_order(inst)
        for eps, audit in ((Epsilon(8), seed % 2 == 0), (Epsilon(73), seed % 3 == 0)):
            got = mcm.run_mcm(inst, eps, kernel, seed, audit)
            assert got == _reference_run_mcm(inst, eps, kernel, seed, audit)
            assert got == _run_through_reference_commits(monkeypatch, inst, eps,
                                                         kernel, seed, audit)


@pytest.mark.parametrize("kernel", ["det", "rand"])
def test_one_scan_round_matches_the_reference_in_exact_mode(kernel, monkeypatch):
    # eps = 1/(n_l + 1) runs a price war of thousands of rounds
    for seed, audit in ((0, False), (1, True)):
        inst = _shuffled(generate_random(216, 192, 4 / 192, seed=seed), seed)
        assert _out_of_item_order(inst)
        eps = Epsilon(inst.n_l + 1)
        got = mcm.run_mcm(inst, eps, kernel, seed, audit)
        want = _reference_run_mcm(inst, eps, kernel, seed, audit)
        assert got[1].rounds_executed > 1000
        assert got == want
        # the in-scan commit against the per-pair one, round for round
        assert got == _run_through_reference_commits(monkeypatch, inst, eps,
                                                     kernel, seed, audit)


@pytest.mark.parametrize("kernel", ["det", "rand"])
def test_priced_out_bidders_never_reach_the_round_again(kernel, monkeypatch):
    inner = mcm._round
    runs_with_priced_out = 0
    for seed, inst in _instances():
        for eps in (Epsilon(2), Epsilon(inst.n_l + 1)):
            spy = _RoundSpy(inner)
            monkeypatch.setattr(mcm, "_round", spy)
            _, trace = mcm.run_mcm(inst, eps, kernel, seed)
            assert spy.rounds == trace.rounds_executed
            runs_with_priced_out += bool(spy.priced_out)
    assert runs_with_priced_out > 0


@pytest.mark.parametrize("kernel", ["det", "rand"])
def test_sorted_phase_matches_the_subgraph_path(kernel, monkeypatch):
    # weights up to 10^6 put demanded items of one phase in several buckets
    bucket_counts = set()
    for seed in range(6):
        inst = _shuffled(generate_random(40 + seed, 32, 6 / 32, w_range=(1, 10 ** 6),
                                         seed=seed), seed)
        assert _out_of_item_order(inst)
        for eps in (Epsilon(2), Epsilon(3), Epsilon(8)):
            sg = scale_and_prune(inst, eps)
            bucket_counts.add(sg.bucket_count)
            for audit in (False, True):
                got = mwm.run_mwm(sg, eps, kernel, seed, audit)
                with monkeypatch.context() as m:
                    m.setattr(mwm, "_phase", _reference_phase)
                    want = mwm.run_mwm(sg, eps, kernel, seed, audit)
                assert got == want
                assert (got[1].blackboard is not None) == (kernel == "rand")
        eps = Epsilon(3)
        got = run_reduced_mwm(inst, eps, None, kernel, seed)
        with monkeypatch.context() as m:
            m.setattr(mwm, "_phase", _reference_phase)
            want = run_reduced_mwm(inst, eps, None, kernel, seed)
        assert got == want
        got_detail, want_detail = got[1].notes["detail"], want[1].notes["detail"]
        assert got_detail.level_results == want_detail.level_results
        assert got_detail.level_traces == want_detail.level_traces
    assert max(bucket_counts) >= 3


@pytest.mark.parametrize("kernel", ["det", "stream"])
def test_mcbm_matches_its_own_round_loop(kernel):
    # capacities up to 4 give sibling copies that evict one another, and
    # copies whose demand set is empty until such an eviction
    reopened = 0
    for seed in range(12):
        inst = _shuffled(generate_random(14 + seed, 12, (0.2, 0.35, 0.6)[seed % 3],
                                         b_l_range=(1, 4), b_r_range=(1, 4),
                                         seed=seed), seed)
        assert _out_of_item_order(inst)
        for eps in (Epsilon(2), Epsilon(4), Epsilon(8)):
            for audit in (False, True):
                got = mcbm.run_mcbm(inst, eps, kernel, seed, audit)
                want = _reference_run_mcbm(inst, eps, kernel, seed, audit)
                assert got == want  # the trace's notes included
                reopened += got[1].notes.get("reopened_pairs", 0)
    assert reopened > 0
