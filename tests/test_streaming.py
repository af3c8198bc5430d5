"""Streaming engines, pass counting and space accounting."""

import collections
import inspect
import math
import random

import pytest

from auctionmatch import mcbm, mwm, streaming
from auctionmatch.auction import Auction
from auctionmatch.criteria import mwm_family
from auctionmatch.errors import InvariantViolation
from auctionmatch.graph import BipartiteInstance, Epsilon, generate_random
from auctionmatch.mcbm import run_mcbm
from auctionmatch.mcm import run_mcm
from auctionmatch.mwm import run_mwm
from auctionmatch.graph import scale_and_prune
from auctionmatch.streaming import (
    STREAM_MCBM_SPACE_FACTOR,
    EdgeStream,
    SpaceAccountant,
    stream_mcbm,
    stream_mwm,
)
from auctionmatch.suite import check_matching
from auctionmatch.weight_reduction import run_reduced_mwm
from test_round_reference import faulty_commit_round


def test_stream_requires_exactly_one_source():
    with pytest.raises(TypeError):
        EdgeStream()
    with pytest.raises(TypeError):
        EdgeStream.from_instance([(0, 0, 1)])


def test_stream_counts_passes_and_replays_identically():
    inst = generate_random(6, 6, 0.5, w_range=(1, 9), seed=0)
    stream = EdgeStream.from_instance(inst)
    assert stream.passes == 0
    assert (stream.n_l, stream.n_r, stream.m, stream.b_l, stream.b_r) == (
        inst.n_l, inst.n_r, inst.m, inst.b_l, inst.b_r)
    first = list(stream.traverse())
    second = list(stream.traverse())
    assert stream.passes == 2
    assert first == second == list(inst.edges)


def _materialized(stream):
    return [(i, list(run)) for i, run in stream.runs()]


@pytest.mark.parametrize("interleave", [False, True])
def test_stream_runs_are_maximal_bidder_runs_in_stream_order(interleave):
    inst = generate_random(12, 10, 0.4, w_range=(1, 9), seed=4)
    if interleave:
        inst = _interleaved(inst, 4)
    stream = EdgeStream.from_instance(inst)
    runs = _materialized(stream)
    assert stream.passes == 1
    assert all(run and {e[0] for e in run} == {i} for i, run in runs)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    assert [e for _, run in runs for e in run] == list(stream.traverse())
    assert _materialized(stream) == runs
    assert stream.passes == 3
    bidders = [i for i, _ in runs]
    # contiguous edges give one run per bidder; the interleaved order
    # splits at least the bidder it moved to both ends
    assert (len(set(bidders)) == len(bidders)) is not interleave
    if interleave:
        assert bidders[0] == bidders[-1]


def test_instance_stream_runs_index_the_instance_edges_once():
    inst = generate_random(8, 8, 0.5, w_range=(1, 9), seed=1)
    stream = EdgeStream.from_instance(inst)
    first, second = list(stream.runs()), list(stream.runs())
    assert all(a[1] is b[1] for a, b in zip(first, second))
    edges = [e for _, run in first for e in run]
    assert len(edges) == inst.m
    assert all(e is f for e, f in zip(edges, inst.edges))


def test_space_accountant_tracks_peak_by_tag():
    acct = SpaceAccountant()
    acct.alloc(10, "a")
    acct.alloc(5, "b")
    acct.free(10, "a")
    acct.alloc(2, "b")
    assert acct.peak == 15
    assert acct.current == 7
    assert acct.tags == {"a": 0, "b": 7}


def test_stream_mwm_single_edge():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 7)])
    res, tr = stream_mwm(EdgeStream.from_instance(inst), Epsilon(2))
    assert res.value == 7
    assert res.pairs == ((0, 0),)
    assert tr.rounds_executed == 1
    assert tr.passes == 1 + 2 * tr.rounds_executed == 3
    assert tr.peak_words > 0


def test_stream_mwm_rejects_empty():
    inst = BipartiteInstance.build(2, 2, [])
    with pytest.raises(ValueError):
        stream_mwm(EdgeStream.from_instance(inst), Epsilon(2))


@pytest.mark.parametrize("seed", range(6))
def test_stream_mwm_mirrors_memory_stream_kernel(seed):
    inst = generate_random(10, 10, 0.4, w_range=(1, 40), seed=seed)
    eps = Epsilon(4)
    mem_res, mem_tr = run_mwm(scale_and_prune(inst, eps), eps, kernel="stream")
    str_res, str_tr = stream_mwm(EdgeStream.from_instance(inst), eps,
                                 audit=True)
    assert str_res.value == mem_res.value
    assert str_res.pairs == mem_res.pairs
    assert str_tr.rounds_executed == mem_tr.rounds_executed
    assert str_tr.passes == 1 + 2 * str_tr.rounds_executed


@pytest.mark.parametrize("budget", [1, 3, 10])
def test_stream_mwm_stops_at_a_spent_phase_budget(monkeypatch, budget):
    # each instance runs 21-24 phases under its real budget, so a smaller
    # one stops the run; the in-memory stream kernel stops at the same phase
    for module in (streaming, mwm):
        monkeypatch.setattr(module, "phase_budget", lambda buckets, eps: budget)
    eps = Epsilon(4)
    for inst in (mwm_family()[i] for i in (4, 5, 8)):
        mem_res, mem_tr = run_mwm(scale_and_prune(inst, eps), eps, kernel="stream")
        for audit in (False, True):
            res, tr = stream_mwm(EdgeStream.from_instance(inst), eps, audit=audit)
            assert tr.rounds_executed == tr.round_budget == budget
            assert tr.passes == 1 + 2 * budget
            assert (res.value, res.pairs) == (mem_res.value, mem_res.pairs)
            assert tr.rounds_executed == mem_tr.rounds_executed


def test_stream_mwm_audit_accepts_prices_above_k_w_max():
    # a bid at weight w may lift a price to (k + 1) * w - 1, past k * w_max
    inst = generate_random(20, 15, 0.1, w_range=(1, 2), seed=0)
    res, _ = stream_mwm(EdgeStream.from_instance(inst), Epsilon(2),
                        audit=True)
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)


def _no_fault(state, i, j, step, prev):
    pass


def _stream_audit_outcome(inst, k, fault):
    """The property of the first violation an audited ``stream_mwm`` run on
    ``inst`` at eps 1/k raises when the core's ``commit_round`` also runs
    ``fault`` after every pair, or None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Auction, "commit_round", faulty_commit_round(fault))
        try:
            stream_mwm(EdgeStream.from_instance(inst), Epsilon(k), audit=True)
        except InvariantViolation as exc:
            return exc.prop
    return None


def test_stream_mwm_audit_bounds_price_by_owner_weight():
    # one bidder buys its one item of weight w in the first phase; a commit
    # that then sets the price shows where the shared audit draws the line
    k, w = 4, 3
    inst = BipartiteInstance.build(1, 1, [(0, 0, w)])

    def priced(price):
        def set_price(state, i, j, step, prev):
            state.prices[j] = price
        return set_price

    # (k + 1) * w - 1 is the highest price one bid at weight w can leave
    assert _stream_audit_outcome(inst, k, priced((k + 1) * w - 1)) is None
    assert (_stream_audit_outcome(inst, k, priced((k + 1) * w))
            == "owned-price-bound")


def _double_step(state, i, j, step, prev):
    state.prices[j] += step


def _lowering_commit(state, i, j, step, prev):
    # also takes one unit off the dearest other item's price
    p, other = max((p, o) for o, p in enumerate(state.prices) if o != j)
    if p > 0:
        state.prices[other] -= 1


def _misowning_commit(state, i, j, step, prev):
    # records the next bidder, not the winner, as the item's owner
    state.owner[j] = (i + 1) % len(state.assignment)


def test_stream_mwm_audit_catches_a_double_step():
    # two bidders of weight 1 on one item at eps 1/3: steps of w end at
    # price 3 < (k + 1) * w, steps of 2w reach 4
    inst = BipartiteInstance.build(2, 1, [(0, 0, 1), (1, 0, 1)])
    assert _stream_audit_outcome(inst, 3, _no_fault) is None
    assert (_stream_audit_outcome(inst, 3, _double_step)
            == "owned-price-bound")
    caught = [_stream_audit_outcome(inst, k, _double_step)
              for inst in mwm_family()[::10] for k in (2, 8)]
    assert set(caught) == {None, "owned-price-bound", "weighted-happiness"}


def test_stream_mwm_audit_catches_a_lowered_price():
    caught = [_stream_audit_outcome(inst, k, _lowering_commit)
              for inst in mwm_family()[::10] for k in (2, 8)]
    assert set(caught) == {None, "price-monotonicity"}


def test_stream_mwm_audit_names_a_corrupted_owner():
    inst = BipartiteInstance.build(2, 1, [(0, 0, 1), (1, 0, 1)])
    assert (_stream_audit_outcome(inst, 3, _misowning_commit)
            == "assignment-owner-mismatch")


def _first_violation(run, *args, **kwargs):
    try:
        run(*args, **kwargs)
    except InvariantViolation as exc:
        return exc.prop, str(exc)
    return None


@pytest.mark.parametrize("commit", [_double_step, _lowering_commit,
                                    _misowning_commit])
def test_stream_mwm_audit_raises_what_the_memory_stream_kernel_raises(
        commit, monkeypatch):
    # Both engines commit through MwmState and audit each phase through
    # mwm._phase_audit, so a broken commit trips the same first check.
    monkeypatch.setattr(Auction, "commit_round", faulty_commit_round(commit))
    outcomes = []
    for inst in mwm_family()[::10]:
        for k in (2, 4, 8):
            eps = Epsilon(k)
            streamed = _first_violation(stream_mwm, EdgeStream.from_instance(inst),
                                        eps, audit=True)
            assert streamed == _first_violation(
                run_mwm, scale_and_prune(inst, eps), eps, kernel="stream",
                audit=True), (inst, k)
            outcomes.append(streamed)
    assert set(outcomes) - {None}


@pytest.mark.parametrize("k", [2, 3, 8])
def test_stream_mwm_audit_changes_no_result_or_trace(k):
    # the audit's state is unmetered and reads no stream pass of its own
    eps = Epsilon(k)
    for inst in mwm_family()[::25]:
        assert (stream_mwm(EdgeStream.from_instance(inst), eps, audit=True)
                == stream_mwm(EdgeStream.from_instance(inst), eps))
        for engine in ("stream-sequential", "stream-concurrent"):
            assert (run_reduced_mwm(inst, eps, engine=engine, audit=True)
                    == run_reduced_mwm(inst, eps, engine=engine))


def _stream_mwm_word_bound(n_l, n_r):
    """Words a ``stream_mwm`` run may hold: 8 scalars, a price and an owner
    per item, four words per bidder, a best margin per bidder and 5 words
    per claim of one phase, of which there are at most min(n_l, n_r)."""
    return 8 + 2 * n_r + 5 * n_l + 5 * min(n_l, n_r)


def _shuffled(inst, seed):
    edges = list(inst.edges)
    random.Random(seed).shuffle(edges)
    return BipartiteInstance(n_l=inst.n_l, n_r=inst.n_r, edges=tuple(edges),
                             b_l=inst.b_l, b_r=inst.b_r)


def test_stream_mwm_peak_words_stay_within_their_bound():
    # In either edge order, and on every level a streamed gp schedule runs.
    runs = at_bound = 0
    for idx, inst in enumerate(mwm_family()[::5]):
        bound = _stream_mwm_word_bound(inst.n_l, inst.n_r)
        for edges in (inst, _shuffled(inst, idx)):
            for k in (4, 8, 16):
                _, tr = stream_mwm(EdgeStream.from_instance(edges), Epsilon(k))
                assert tr.peak_words <= bound, (idx, k)
                runs += 1
                at_bound += tr.peak_words == bound
            for engine in ("stream-sequential", "stream-concurrent"):
                _, _, detail = run_reduced_mwm(edges, Epsilon(4), engine=engine,
                                               collect_detail=True)
                for level, tr in detail.level_traces.items():
                    assert tr.peak_words <= bound, (idx, engine, level)
                    runs += 1
                    at_bound += tr.peak_words == bound
    # the bound is tight: a word more per claim would break it
    assert at_bound > 0 and runs > 240


def test_stream_mwm_space_grows_linearly():
    peaks = []
    for n in (64, 128):
        inst = generate_random(n, n, 8 / n, w_range=(1, 16), seed=0)
        _, tr = stream_mwm(EdgeStream.from_instance(inst), Epsilon(4))
        peaks.append(tr.peak_words)
    assert peaks[1] <= 2.5 * peaks[0]


def test_stream_mcbm_star():
    inst = BipartiteInstance.build(
        1, 4, [(0, j, 1) for j in range(4)], b_l=[2], b_r=[1] * 4)
    res, tr = stream_mcbm(EdgeStream.from_instance(inst), Epsilon(4),
                          audit=True)
    assert res.value == 2
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    assert tr.passes == 1 + 2 * tr.rounds_executed == 3
    budget = STREAM_MCBM_SPACE_FACTOR * (sum(inst.b_l) + inst.n_r)
    assert tr.peak_words <= budget


@pytest.mark.parametrize("seed", range(6))
def test_stream_mcbm_mirrors_memory_stream_kernel(seed):
    inst = generate_random(
        8, 8, 0.4, b_l_range=(1, 3), b_r_range=(1, 3), seed=seed)
    eps = Epsilon(4)
    mem_res, mem_tr = run_mcbm(inst, eps, kernel="stream")
    str_res, str_tr = stream_mcbm(EdgeStream.from_instance(inst), eps)
    assert str_res == mem_res
    assert str_tr.rounds_executed == mem_tr.rounds_executed
    assert str_tr.passes == 1 + 2 * str_tr.rounds_executed


@pytest.mark.parametrize("seed", range(10))
def test_stream_mcbm_mirrors_memory_stream_kernel_under_evictions(
        seed, monkeypatch):
    inst = generate_random(
        40, 32, 0.15, b_l_range=(1, 4), b_r_range=(1, 4), seed=seed)
    eps = Epsilon(8)
    evictions = []
    stream_round = mcbm._stream_round

    def counting_round(state, unmatched):
        # a claimed item copy that still has an owner is an eviction
        demanded, pairs = stream_round(state, unmatched)
        evictions.append(sum(state.owner[jc] is not None for _, jc in pairs))
        return demanded, pairs

    monkeypatch.setattr(mcbm, "_stream_round", counting_round)
    mem_res, mem_tr = run_mcbm(inst, eps, kernel="stream")
    assert any(evictions)
    str_res, str_tr = stream_mcbm(EdgeStream.from_instance(inst), eps,
                                  audit=True)
    assert str_res.pairs == mem_res.pairs
    assert str_tr.rounds_executed == mem_tr.rounds_executed
    assert str_tr.passes == 1 + 2 * mem_tr.rounds_executed


@pytest.mark.parametrize("seed", range(6))
def test_stream_mcbm_audit_counts_reopened_pairs_as_memory_does(seed):
    inst = generate_random(
        24, 20, 0.3, b_l_range=(1, 4), b_r_range=(1, 3), seed=seed)
    eps = Epsilon(4)
    _, mem_tr = run_mcbm(inst, eps, kernel="stream", audit=True)
    res, tr = stream_mcbm(EdgeStream.from_instance(inst), eps, audit=True)
    plain_res, plain_tr = stream_mcbm(EdgeStream.from_instance(inst), eps)
    assert tr.notes["reopened_pairs"] == mem_tr.notes["reopened_pairs"]
    # the audit's own state is not metered, and costs no pass
    assert (res, tr.peak_words, tr.passes) == (
        plain_res, plain_tr.peak_words, plain_tr.passes)


def _laid_out(b_l, b_r, edges, k, assignment, held_price, pmin, n_min, n_max,
              cutoffs=None):
    """A ``McbmState`` over the unit-weight instance on ``edges``, holding
    ``stream_mcbm``'s count-based item state as ``streaming._as_copies``
    lays it out for the shared audit."""
    inst = BipartiteInstance.build(len(b_l), len(b_r), [(i, j, 1) for i, j in edges],
                                   b_l, b_r)
    state = mcbm.McbmState(mcbm.expand_copies(inst), k)
    state.pmin = list(pmin)
    if cutoffs is not None:
        state.cutoffs = list(cutoffs)
    streaming._as_copies(state, assignment, held_price, n_min, n_max)
    return state


def test_stream_mcbm_happiness_allows_one_step_above_the_view():
    # bidder 0's one copy holds item 1 while item 0, in its view, still
    # has a copy at price 0: paying 1 is within one step, paying 2 is not
    def audit(paid):
        state = _laid_out([1], [1, 1], [(0, 0), (0, 1)], 4, assignment=[1],
                          held_price=[paid], pmin=[0, paid], n_min=[1, 1],
                          n_max=[0, 0])
        return mcbm._audit_round(state, state.prices, state.cutoffs,
                                 {0: frozenset({0, 1})})

    assert audit(1) == 0
    with pytest.raises(InvariantViolation) as info:
        audit(2)
    assert info.value.prop == "copy-happiness"


def _stream_mcbm_mutant(line, mutant_line):
    """``stream_mcbm`` with one source line replaced."""
    source = inspect.getsource(stream_mcbm)
    assert source.count(line) == 1
    scope = dict(vars(streaming))
    exec(source.replace(line, mutant_line), scope)
    return scope["stream_mcbm"]


@pytest.mark.parametrize("line, mutant_line, prop", [
    # the first pass keeps each copy's dearest qualifying price, not its
    # cheapest, so copies buy items dearer than their views offer
    ("elif p < d:", "elif p > d:", "copy-happiness"),
    # the first pass gives up on items one step below full price
    ("if p < k:", "if p < k - 1:", "empty-demand-characterization"),
])
def test_stream_mcbm_audit_catches_a_wrong_demand(line, mutant_line, prop,
                                                  monkeypatch):
    # Item counts, prices and held pairs stay consistent under either
    # mutant. Without the demand check the shared audit still sees a copy
    # that bought dearer than its view offered, but not demands that go
    # missing.
    mutant = _stream_mcbm_mutant(line, mutant_line)
    inst = generate_random(8, 8, 0.5, b_l_range=(1, 3), b_r_range=(1, 3), seed=0)
    with monkeypatch.context() as m:
        # the shared audit looks the demand check up in mcbm
        m.setattr(mcbm, "check_demand", lambda *args: None)
        if prop == "copy-happiness":
            with pytest.raises(InvariantViolation) as info:
                mutant(EdgeStream.from_instance(inst), Epsilon(4), audit=True)
            assert info.value.prop == prop
        else:
            mutant(EdgeStream.from_instance(inst), Epsilon(4), audit=True)
    with pytest.raises(InvariantViolation) as info:
        mutant(EdgeStream.from_instance(inst), Epsilon(4), audit=True)
    assert info.value.prop == prop


def test_stream_mcbm_audit_catches_a_cutoff_reset():
    # Every third round puts each cutoff back to 0. The stream's earlier
    # audit, which kept no round-start cutoffs, let this run through.
    mutant = _stream_mcbm_mutant(
        "                cutoff[bc] += 1\n",
        "                cutoff[bc] += 1\n"
        "        if rounds % 3 == 0:\n"
        "            cutoff[:] = [0] * n_copies\n")
    inst = generate_random(24, 20, 0.3, b_l_range=(1, 4), b_r_range=(1, 3), seed=0)
    with pytest.raises(InvariantViolation) as info:
        mutant(EdgeStream.from_instance(inst), Epsilon(4), audit=True)
    assert info.value.prop == "cutoff-monotonicity"


def test_stream_mcbm_audit_catches_a_double_price_step():
    # An item's minimum price skips a step once its last copy at the
    # minimum is claimed, so its holders paid a price no copy has. At
    # k = 2 no price leaves [0, k] on this instance, and the stream's
    # earlier audit, which compared no held price with its item's prices,
    # let the run through.
    mutant = _stream_mcbm_mutant("                pmin[j] += 1\n",
                                    "                pmin[j] += 2\n")
    inst = generate_random(24, 20, 0.3, b_l_range=(1, 4), b_r_range=(1, 3), seed=0)
    with pytest.raises(InvariantViolation) as info:
        mutant(EdgeStream.from_instance(inst), Epsilon(2), audit=True)
    assert info.value.prop == "held-price"


def _interleaved(inst: BipartiteInstance, seed: int) -> BipartiteInstance:
    """``inst`` with its edges shuffled, then one bidder's edges moved to
    the two ends, so that every pass begins with the bidder that ended
    the pass before and that bidder's edges are not contiguous."""
    rng = random.Random(seed)
    edges = list(inst.edges)
    rng.shuffle(edges)
    degree = collections.Counter(i for i, _, _ in edges)
    assert len(degree) > 1 and max(degree.values()) > 1
    i = next(i for i, _, _ in edges if degree[i] > 1)
    ends = [e for e in edges if e[0] == i][:2]
    middle = [e for e in edges if e not in ends]
    return BipartiteInstance(n_l=inst.n_l, n_r=inst.n_r,
                             edges=(ends[0], *middle, ends[1]),
                             b_l=inst.b_l, b_r=inst.b_r)


@pytest.mark.parametrize("seed", range(16))
def test_stream_mcbm_mirrors_memory_stream_kernel_in_any_edge_order(seed):
    # A pass reads a bidder's copies once per run of its edges; with the
    # bidders interleaved, runs are short and the reads must stay exact.
    cap = 1 + seed % 4
    inst = _interleaved(generate_random(
        4 + seed % 5 * 6, 4 + seed % 7 * 4, 0.4, b_l_range=(1, cap),
        b_r_range=(1, cap), seed=seed), seed)
    for k in (2, 4, 8):
        eps = Epsilon(k)
        mem_res, mem_tr = run_mcbm(inst, eps, kernel="stream")
        str_res, str_tr = stream_mcbm(EdgeStream.from_instance(inst), eps)
        assert str_res.pairs == mem_res.pairs
        assert str_tr.rounds_executed == mem_tr.rounds_executed
        assert str_tr.passes == 1 + 2 * mem_tr.rounds_executed


@pytest.mark.parametrize("seed", range(6))
def test_stream_mcbm_audit_changes_no_result_in_any_edge_order(seed):
    inst = generate_random(
        24, 20, 0.3, b_l_range=(1, 4), b_r_range=(1, 3), seed=seed)
    for src in (inst, _interleaved(inst, seed)):
        for k in (2, 4, 8):
            plain, plain_tr = stream_mcbm(EdgeStream.from_instance(src), Epsilon(k))
            audited, audited_tr = stream_mcbm(EdgeStream.from_instance(src), Epsilon(k),
                                              audit=True)
            assert audited == plain
            assert audited_tr.peak_words == plain_tr.peak_words


@pytest.mark.parametrize("seed", range(8))
def test_streamed_engines_mirror_memory_kernels_in_shuffled_order(seed):
    # A bidder recurs across runs here: a margin pass must keep its best
    # margin across them, and a match pass that leaves a run once the
    # bidder claims must still try its later runs when it has not.
    weighted = _interleaved(generate_random(
        6 + seed * 3, 5 + seed * 2, 0.4, w_range=(1, 50), seed=seed), seed)
    cap = 1 + seed % 4
    capacitated = _interleaved(generate_random(
        6 + seed * 3, 5 + seed * 2, 0.4, b_l_range=(1, cap), b_r_range=(1, cap),
        seed=seed), seed)
    for k in (2, 4, 8):
        eps = Epsilon(k)
        mem_w, mem_w_tr = run_mwm(scale_and_prune(weighted, eps), eps, kernel="stream")
        mem_c, mem_c_tr = run_mcbm(capacitated, eps, kernel="stream")
        for audit in (False, True):
            res, tr = stream_mwm(EdgeStream.from_instance(weighted), eps, audit=audit)
            assert (res.pairs, res.value) == (mem_w.pairs, mem_w.value)
            assert tr.rounds_executed == mem_w_tr.rounds_executed
            res, tr = stream_mcbm(EdgeStream.from_instance(capacitated), eps,
                                  audit=audit)
            assert res.pairs == mem_c.pairs
            assert tr.rounds_executed == mem_c_tr.rounds_executed


@pytest.mark.parametrize("seed", range(4))
def test_stream_mcbm_unit_caps_degenerate(seed):
    inst = generate_random(7, 7, 0.4, seed=seed)
    res, tr = stream_mcbm(EdgeStream.from_instance(inst), Epsilon(4),
                          audit=True)
    mem_res, _ = run_mcbm(inst, Epsilon(4), kernel="stream")
    assert res == mem_res
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    budget = STREAM_MCBM_SPACE_FACTOR * (sum(inst.b_l) + inst.n_r)
    assert tr.peak_words <= budget


def test_blackboard_single_edge_weighted():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    eps = Epsilon(2)
    _, tr = run_mwm(scale_and_prune(inst, eps), eps, kernel="rand")
    bb = tr.blackboard
    assert bb.proposal_rounds == 1
    assert bb.price_announcements == 1
    assert bb.rounds == 3
    assert bb.price_bits_each == 1


def test_blackboard_round_mean_tracks_log_bound():
    # complete 16x16 unit graph: one auction round, proposal subrounds
    # land within a factor 4 of 4*log2(n) either way
    inst = BipartiteInstance.build(
        16, 16, [(i, j, 1) for i in range(16) for j in range(16)])
    totals = []
    for seed in range(50):
        _, tr = run_mcm(inst, Epsilon(4), kernel="rand", seed=seed)
        assert tr.rounds_executed == 1
        totals.append(tr.blackboard.rounds)
    mean = sum(totals) / len(totals)
    assert round(mean, 2) == 5.42
    base = 4 * math.ceil(math.log2(inst.n_l + inst.n_r))
    assert base <= 4 * mean
    assert mean <= 4 * base


def test_stream_mcbm_audit_names_the_pair_two_copies_hold():
    # copies 2 and 3 of bidder 2 both hold item 1
    state = _laid_out([1, 1, 2], [1, 2], [(0, 0), (2, 1)], 4,
                      assignment=[0, None, 1, 1], held_price=[1, 0, 1, 1],
                      pmin=[1, 1], n_min=[1, 2], n_max=[0, 0])
    with pytest.raises(InvariantViolation) as info:
        mcbm._audit_round(state, state.prices, state.cutoffs, {})
    assert info.value.prop == "one-item-match"
    assert "original pair (2, 1) matched through two copy pairs" in str(info.value)


def test_stream_mcbm_reopened_pairs_skip_cutoff_and_sibling_items():
    # copy 0 (cutoff 2) holds item 3 and paid 4; item 1 is eligible now,
    # outside its view and cheaper by more than a step: one re-opened pair.
    # Item 0 is cheaper still but below the cutoff, and item 2 is held by
    # sibling copy 1, so neither counts. Bidder 1 holds item 1, so that
    # every positively priced copy is held.
    state = _laid_out([2, 1], [1, 1, 1, 1],
                      [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1)], 8,
                      assignment=[3, 2, 1], held_price=[4, 1, 2], pmin=[0, 2, 1, 4],
                      n_min=[1] * 4, n_max=[0] * 4, cutoffs=[2, 0, 0])
    views = {0: frozenset({3}), 1: frozenset({2}), 2: frozenset({1})}
    assert mcbm._audit_round(state, state.prices, state.cutoffs, views) == 1


@pytest.mark.parametrize("n_min, n_max", [([1], [0]), ([0], [2]), ([3], [0])])
def test_stream_mcbm_layout_rejects_copy_counts_that_drift(n_min, n_max):
    # item 0 has two copies, at least one of them at its minimum price
    with pytest.raises(InvariantViolation) as info:
        _laid_out([1, 1], [2], [(0, 0), (1, 0)], 4, assignment=[None, None],
                  held_price=[0, 0], pmin=[0], n_min=n_min, n_max=n_max)
    assert info.value.prop == "item-state"


@pytest.mark.parametrize("paid", [0, 3])
def test_stream_mcbm_layout_rejects_a_price_no_copy_has(paid):
    # item 0's copies cost 1 and 2; a holder paid 0 or 3
    with pytest.raises(InvariantViolation) as info:
        _laid_out([1, 1], [2], [(0, 0), (1, 0)], 4, assignment=[0, 0],
                  held_price=[2, paid], pmin=[1], n_min=[1], n_max=[1])
    assert info.value.prop == "held-price"


def test_stream_mcbm_layout_rejects_more_holders_than_copies_at_a_price():
    # one copy of item 0 costs 2, and two holders paid 2 for it
    with pytest.raises(InvariantViolation) as info:
        _laid_out([1, 1], [2], [(0, 0), (1, 0)], 4, assignment=[0, 0],
                  held_price=[2, 2], pmin=[1], n_min=[1], n_max=[1])
    assert info.value.prop == "item-state"
    assert "more holders at 2/4 than copies" in str(info.value)


def test_stream_mcbm_layout_leaves_an_unheld_priced_copy_to_the_audit():
    # item 0's one copy costs 1 but nobody holds it: a layout holds that,
    # and the shared audit names it
    state = _laid_out([1], [1], [(0, 0)], 4, assignment=[None], held_price=[0],
                      pmin=[1], n_min=[1], n_max=[0])
    assert state.prices == [1] and state.owner == [None]
    with pytest.raises(InvariantViolation) as info:
        mcbm._audit_round(state, state.prices, state.cutoffs, {})
    assert info.value.prop == "positive-price-implies-matched"
