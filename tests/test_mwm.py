"""Weighted auction engine."""

from fractions import Fraction

import pytest

from auctionmatch.auction import Auction
from auctionmatch.errors import InvariantViolation
from auctionmatch.graph import (
    BipartiteInstance,
    Epsilon,
    generate_random,
    scale_and_prune,
)
from auctionmatch.mwm import (MwmState, _bucket_index, edge_bucket, phase_budget,
                              run_mwm)
from auctionmatch.oracles import exact_mwm


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
    # the engine buckets a weight from the ints (w, w_max, k), without
    # building the reduced Fraction w / w_max
    for w in range(1, w_max + 1):
        assert _bucket_index(w, w_max, k) == edge_bucket(Fraction(w, w_max), Epsilon(k))


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
        assert res.valid
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
    assert res.valid
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
    assert res.valid
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


def test_price_audit_catches_a_double_step(monkeypatch):
    # two bidders of weight 1 on one item at eps 1/3: steps of w end at
    # price 3 < (k + 1) * w, steps of 2w reach 4
    inst = BipartiteInstance.build(2, 1, [(0, 0, 1), (1, 0, 1)])
    _run(inst, Epsilon(3), audit=True, optimum=1)

    def overbid(self, i, j, step):
        prev = Auction.commit(self, i, j, step)
        self.prices[j] += step
        return prev

    monkeypatch.setattr(MwmState, "commit", overbid)
    with pytest.raises(InvariantViolation) as info:
        _run(inst, Epsilon(3), audit=True, optimum=1)
    assert info.value.prop == "owned-price-bound"
