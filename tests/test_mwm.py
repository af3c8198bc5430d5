"""Weighted auction engine."""

import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import auctionmatch
from auctionmatch import mwm
from auctionmatch.errors import InvariantViolation
from auctionmatch.graph import (
    BipartiteInstance,
    Epsilon,
    ceil_log,
    generate_random,
    scale_and_prune,
)
from auctionmatch.mwm import MwmState, phase_budget, run_mwm
from auctionmatch.oracles import exact_mwm
from auctionmatch.streaming import EdgeStream, stream_mwm
from auctionmatch.suite import check_matching
from test_round_reference import _reference_phase, edge_bucket, faulty_commit_round


def _run(inst, eps, **kw):
    return run_mwm(scale_and_prune(inst, eps), eps, **kw)


def test_single_edge():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 7)])
    res, tr = _run(inst, Epsilon(4))
    assert res.value == 7
    assert res.pairs == ((0, 0),)
    # one bucket of equal weights: bucket_count 0, budget 4 k^4
    assert tr.round_budget == 4 * 4 ** 4


def test_edge_bucket_rule():
    eps = Epsilon(4)
    assert edge_bucket(Fraction(1), eps) == 1
    assert edge_bucket(Fraction(1, 2), eps) == 2
    assert edge_bucket(Fraction(1, 4), eps) == 2
    assert edge_bucket(Fraction(1, 5), eps) == 3
    assert edge_bucket(Fraction(1, 16), eps) == 3
    assert edge_bucket(Fraction(1, 17), eps) == 4
    with pytest.raises(ValueError):
        edge_bucket(Fraction(3, 2), eps)
    with pytest.raises(ValueError):
        edge_bucket(Fraction(0), eps)


@pytest.mark.parametrize("w_max, k", [
    (1, 2), (7, 2), (100, 3), (100, 8), (729, 3), (1000, 4), (4096, 16)])
def test_integer_bucket_index_matches_edge_bucket(w_max, k):
    # edge_bucket's defining inequality eps**(b-1) <= w / w_max < eps**(b-2),
    # in integers; the upper bound holds for b = 1 since w <= w_max < k * w_max.
    # The engine buckets a weight as 1 + ceil_log(k, w_max, w).
    for w in range(1, w_max + 1):
        b = edge_bucket(Fraction(w, w_max), Epsilon(k))
        assert b == 1 + ceil_log(k, w_max, w) >= 1
        assert w * k ** (b - 1) >= w_max
        assert b == 1 or w * k ** (b - 2) < w_max


def test_weighted_engine_loads_neither_fractions_nor_decimal():
    # a child interpreter, so that no other test's imports count
    src = Path(auctionmatch.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from auctionmatch.graph import Epsilon, generate_random, scale_and_prune\n"
        "from auctionmatch.mwm import run_mwm\n"
        "eps = Epsilon(4)\n"
        "inst = generate_random(6, 5, 0.5, w_range=(1, 90), seed=1)\n"
        "run_mwm(scale_and_prune(inst, eps), eps, audit=True)\n"
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_phase_budget_rule():
    assert phase_budget(0, Epsilon(2)) == 2 * 2 * 2 ** 4
    assert phase_budget(1, Epsilon(2)) == 2 * 3 * 2 ** 4
    assert phase_budget(3, Epsilon(4)) == 2 * 11 * 4 ** 4


def test_rejects_unknown_kernel_and_empty_graph():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    sg = scale_and_prune(inst, Epsilon(2))
    with pytest.raises(ValueError):
        run_mwm(sg, Epsilon(2), kernel="bogus")
    empty = BipartiteInstance.build(2, 2, [])
    with pytest.raises(ValueError):
        run_mwm(scale_and_prune(empty, Epsilon(2)), Epsilon(2))


@pytest.mark.parametrize("seed", range(5))
def test_det_bound(seed):
    inst = generate_random(10, 10, 0.4, w_range=(1, 50), seed=seed)
    opt = exact_mwm(inst).value
    for k in (8, 16):
        res, tr = _run(inst, Epsilon(k), audit=True, optimum=opt)
        assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
        # value >= (1 - 6 eps) * opt, checked in integers
        assert k * res.value >= (k - 6) * opt
        assert tr.rounds_executed <= tr.round_budget


@pytest.mark.parametrize("seed", range(5))
def test_rand_bound(seed):
    inst = generate_random(10, 10, 0.4, w_range=(1, 50), seed=seed)
    opt = exact_mwm(inst).value
    k = 8
    res, tr = _run(inst, Epsilon(k), kernel="rand", seed=seed,
                   audit=True, optimum=opt)
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    assert k * res.value >= (k - 7) * opt
    bb = tr.blackboard
    assert bb is not None
    assert bb.coordination_rounds == 2 * tr.rounds_executed


@pytest.mark.parametrize("seed", range(5))
def test_stream_kernel_bound(seed):
    inst = generate_random(10, 10, 0.4, w_range=(1, 50), seed=seed)
    opt = exact_mwm(inst).value
    k = 8
    res, _ = _run(inst, Epsilon(k), kernel="stream",
                  audit=True, optimum=opt)
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    assert k * res.value >= (k - 6) * opt


def test_contested_item_resolves_to_optimum():
    # both bidders want item 0; bidding pushes one onto item 1
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 4), (1, 0, 4), (0, 1, 3)])
    res, _ = _run(inst, Epsilon(8), audit=True)
    assert res.value == 7
    assert sorted(res.pairs) == [(0, 1), (1, 0)]


def test_pruned_edges_cannot_appear():
    # weight 1 edges are dropped by scaling against the 10^6 edge
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 10 ** 6), (1, 1, 1), (1, 0, 1)])
    sg = scale_and_prune(inst, Epsilon(2))
    assert sg.pruned_count == 2
    res, _ = run_mwm(sg, Epsilon(2))
    assert res.pairs == ((0, 0),)
    assert res.value == 10 ** 6


def test_rand_kernel_is_seed_deterministic():
    inst = generate_random(12, 12, 0.35, w_range=(1, 30), seed=2)
    a, ta = _run(inst, Epsilon(8), kernel="rand", seed=5)
    b, tb = _run(inst, Epsilon(8), kernel="rand", seed=5)
    assert a.pairs == b.pairs
    assert ta.blackboard.proposals == tb.blackboard.proposals


def test_price_sum_audit_allows_the_last_step():
    # weights 5 and 3 on one item at eps 1/2: the price war ends at 13,
    # above k * optimum = 10 but below (k + 1) * 5, which a bid below the
    # valuation k * w plus its step w can reach
    inst = generate_random(2, 2, 0.3, (1, 9), seed=206)
    opt = exact_mwm(inst).value
    res, _ = _run(inst, Epsilon(2), audit=True, optimum=opt)
    assert res.value == opt


def test_price_sum_audit_raises_above_the_optimum_bound():
    # an optimum of 0 puts the first won item's price above (k + 1) * 0
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    with pytest.raises(InvariantViolation) as info:
        _run(inst, Epsilon(2), audit=True, optimum=0)
    assert info.value.prop == "price-sum-bound"


def test_price_audit_catches_a_double_step(monkeypatch):
    # two bidders of weight 1 on one item at eps 1/3: steps of w end at
    # price 3 < (k + 1) * w, steps of 2w reach 4
    inst = BipartiteInstance.build(2, 1, [(0, 0, 1), (1, 0, 1)])
    _run(inst, Epsilon(3), audit=True, optimum=1)

    def overbid(state, i, j, step, prev):
        state.prices[j] += step

    monkeypatch.setattr(MwmState, "commit_round", faulty_commit_round(overbid))
    with pytest.raises(InvariantViolation) as info:
        _run(inst, Epsilon(3), audit=True, optimum=1)
    assert info.value.prop == "owned-price-bound"


def test_run_mwm_keeps_no_per_edge_tables():
    # The engine keeps per-vertex state beside the scaled graph's own edge
    # tuples, under 80 bytes per edge here. A (i, j) -> w dict would add
    # about 90 bytes per edge, and a copied (j, w) adjacency about 60.
    inst = generate_random(1152, 1024, 16 / 1024, w_range=(1, 100), seed=9)
    eps = Epsilon(8)
    sg = scale_and_prune(inst, eps)
    tracemalloc.start()
    try:
        run_mwm(sg, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * sg.m


def _reference_demand_items(k, prices, nbrs):
    """demand_set_mwm's items, computed over (item, weight) pairs."""
    best = max([k * w - prices[j] for j, w in nbrs] + [0])
    if not best:
        return ()
    ranked = sorted((prices[j], j) for j, w in nbrs
                    if prices[j] < k * w and k * w - prices[j] >= best - w)
    return tuple(j for _, j in ranked)


@pytest.mark.parametrize("seed", range(6))
def test_demand_sets_carry_their_weights(seed):
    rng = random.Random(seed)
    inst = generate_random(20, 16, 0.3, w_range=(1, [5, 100, 10 ** 6][seed % 3]),
                           seed=seed)
    eps = Epsilon(rng.choice((2, 4, 8)))
    sg = scale_and_prune(inst, eps)
    nbrs = [[] for _ in range(inst.n_l)]
    for i, j, w in sg.edges:
        nbrs[i].append((j, w))
    state = mwm._new_state(sg, eps)
    for _ in range(20):
        top = eps.k * sg.w_max
        state.prices = [rng.choice((0, rng.randrange(top + 1))) for _ in range(inst.n_r)]
        for i in range(inst.n_l):
            spec = mwm.demand_set_mwm(state, i)
            assert spec.items == _reference_demand_items(eps.k, state.prices, nbrs[i])
            assert spec.weights == tuple(dict(nbrs[i])[j] for j in spec.items)


def _reference_audit(state, prev_prices, optimum):
    """_audit_phase as it was when it scanned every item for every matched
    bidder, over a (bidder, item) -> weight table."""
    k = state.k
    weights = {(i, j): w for i, j, w in state.sg.edges}
    for j, p in enumerate(state.prices):
        if p < 0:
            raise InvariantViolation("price-range", f"item {j} price {p} negative")
        if p < prev_prices[j]:
            raise InvariantViolation("price-monotonicity",
                                     f"item {j} price fell {prev_prices[j]} -> {p}")
        owner = state.owner[j]
        if owner is None:
            if p > 0:
                raise InvariantViolation("positive-price-implies-matched",
                                         f"item {j} priced {p} but unmatched")
        elif p >= (k + 1) * weights[(owner, j)]:
            raise InvariantViolation(
                "owned-price-bound",
                f"item {j} price {p} not below (k + 1) * w = "
                f"{(k + 1) * weights[(owner, j)]} of its owner {owner}")
    if optimum is not None and sum(state.prices) > (k + 1) * optimum:
        raise InvariantViolation(
            "price-sum-bound",
            f"sum of prices {sum(state.prices)} exceeds (k + 1) * optimum "
            f"{(k + 1) * optimum} (base units)")
    for i, a in enumerate(state.assignment):
        if a is None:
            continue
        u = k * weights[(i, a)] - state.prices[a]
        slack = 2 * weights[(i, a)]
        for j in range(state.sg.instance.n_r):
            rhs = k * weights.get((i, j), 0) - state.prices[j] - slack
            if u < rhs:
                raise InvariantViolation(
                    "weighted-happiness",
                    f"bidder {i} utility {u} below margin {rhs} at item {j}")


def _audit_outcome(audit, *args):
    try:
        audit(*args)
    except InvariantViolation as exc:
        return exc
    return None


def _double_step(state, i, j, step, prev):
    state.prices[j] += step


def _dearest_demand(state, bidder):
    # every item of positive margin, dearest first: winners need not be happy
    k, prices = state.k, state.prices
    ranked = sorted((-prices[j], j, w) for _, j, w in state.adj[bidder]
                    if k * w > prices[j])
    if not ranked:
        return mwm.DemandSpec(max_utility=None, items=(), weights=())
    best = max(k * w + p for p, _, w in ranked)
    _, items, weights = zip(*ranked)
    return mwm.DemandSpec(max_utility=best, items=items, weights=weights)


def _lowering_commit(state, i, j, step, prev):
    # also takes one unit off the dearest other item's price
    p, other = max((p, o) for o, p in enumerate(state.prices) if o != j)
    if p > 0:
        state.prices[other] -= 1


@pytest.mark.parametrize("mutant, caught", [
    (None, None),
    ("double-step", "owned-price-bound"),
    ("dearest-demand", "weighted-happiness"),
    ("lowered-price", "price-monotonicity"),
])
def test_audit_outcomes_match_the_full_item_scan(mutant, caught, monkeypatch):
    # The happiness check looks at a bidder's deg + 1 cheapest items only;
    # every phase's outcome, down to the first violation's message, must be
    # the one the scan over all items gives. Audited stream_mwm runs keep
    # run_mwm's state, so the reference scan reads their sg.edges too.
    if mutant == "double-step":
        monkeypatch.setattr(MwmState, "commit_round", faulty_commit_round(_double_step))
    elif mutant == "dearest-demand":
        # the phase reads demand sets only through this reference copy
        monkeypatch.setattr(mwm, "_phase", partial(_reference_phase,
                                                   demand=_dearest_demand))
    elif mutant == "lowered-price":
        monkeypatch.setattr(MwmState, "commit_round",
                            faulty_commit_round(_lowering_commit))
    audit = mwm._audit_phase
    seen = []
    kernel = None

    def compared(state, prev_prices, optimum, weight):
        got = _audit_outcome(audit, state, prev_prices, optimum, weight)
        want = _audit_outcome(_reference_audit, state, prev_prices, optimum)
        assert (type(got), str(got)) == (type(want), str(want))
        seen.append((kernel, got and got.prop))
        if got is not None:
            raise got

    monkeypatch.setattr(mwm, "_audit_phase", compared)
    for seed in range(40):
        inst = generate_random(4 + seed % 13, 3 + seed * 7 % 13, (0.3, 0.6, 1.0)[seed % 3],
                               w_range=(1, (3, 50, 10 ** 6)[seed % 3]), seed=seed)
        opt = exact_mwm(inst).value
        for k, kernel in ((2, "det"), (3, "rand"), (8, "det"), (8, "stream"),
                          (8, "streamed")):
            try:
                if kernel == "streamed":
                    stream_mwm(EdgeStream.from_instance(inst), Epsilon(k), audit=True)
                else:
                    _run(inst, Epsilon(k), kernel=kernel, seed=seed, audit=True,
                         optimum=opt)
            except InvariantViolation:
                pass
    caught_by = {prop for _, prop in seen} - {None}
    # the commit mutants reach stream_mwm through MwmState.commit_round too
    streamed = {prop for kern, prop in seen if kern == "streamed"} - {None}
    assert streamed == {
        "double-step": {"owned-price-bound", "weighted-happiness"},
        "lowered-price": {"price-monotonicity"},
    }.get(mutant, set())
    if mutant is None:
        assert not caught_by
    elif mutant == "lowered-price":
        assert caught_by == {caught}
    else:
        assert caught in caught_by
    if mutant == "dearest-demand":
        assert {kern for kern, prop in seen if prop == caught} == {"det", "rand"}
