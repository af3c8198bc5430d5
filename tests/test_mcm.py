"""Cardinality auction engine."""

import itertools

import pytest

from auctionmatch import mcm
from auctionmatch.auction import Auction
from auctionmatch.criteria import mcm_family
from auctionmatch.errors import InvariantViolation
from auctionmatch.graph import BipartiteInstance, Epsilon, generate_random
from auctionmatch.mcm import McmState, demand_set_mcm, mcm_round_budget, run_mcm
from auctionmatch.oracles import exact_mcm
from auctionmatch.suite import check_matching


def test_single_edge():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    res, tr = run_mcm(inst, Epsilon(2))
    assert res.value == 1
    assert res.pairs == ((0, 0),)
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    assert tr.round_budget == 8


def test_empty_graph_runs_zero_rounds():
    inst = BipartiteInstance.build(2, 2, [])
    res, tr = run_mcm(inst, Epsilon(2), kernel="rand")
    assert res.value == 0
    assert tr.rounds_executed == 0
    assert tr.blackboard.rounds == 0


def test_round_budget_rule():
    assert mcm_round_budget(Epsilon(2)) == 8
    assert mcm_round_budget(Epsilon(5)) == 50
    assert mcm_round_budget(Epsilon(16)) == 512


def test_rejects_unknown_kernel():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        run_mcm(inst, Epsilon(2), kernel="stream")


@pytest.mark.parametrize("kernel", ["det", "rand"])
@pytest.mark.parametrize("seed", range(6))
def test_approximation_bound(kernel, seed):
    inst = generate_random(12, 12, 0.3, seed=seed)
    opt = exact_mcm(inst).value
    for k in (4, 8):
        res, tr = run_mcm(inst, Epsilon(k), kernel=kernel, seed=seed)
        assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
        # value >= (1 - 2 eps) * opt, checked in integers
        assert k * res.value >= (k - 2) * opt
        assert tr.rounds_executed <= tr.round_budget == 2 * k * k


@pytest.mark.parametrize("seed", range(6))
def test_fine_eps_is_exact(seed):
    inst = generate_random(8, 8, 0.4, seed=seed)
    opt = exact_mcm(inst).value
    res, _ = run_mcm(inst, Epsilon(inst.n_l + 1))
    assert res.value == opt


@pytest.mark.parametrize("kernel", ["det", "rand"])
@pytest.mark.parametrize("seed", range(6))
def test_audit_holds_on_every_round(kernel, seed):
    inst = generate_random(10, 10, 0.35, seed=seed)
    res, _ = run_mcm(inst, Epsilon(4), kernel=kernel, seed=seed, audit=True)
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)


def test_demand_set_is_cheapest_neighbors():
    inst = BipartiteInstance.build(
        1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)])
    res, _ = run_mcm(inst, Epsilon(4))
    state_probe = None
    # rebuild the state by hand: price item 0 at 1/4, item 2 at full price
    from auctionmatch.mcm import McmState

    state_probe = McmState(
        k=4, prices=[1, 0, 4],
        assignment=[None], owner=[None, None, None],
        adj=[[0, 1, 2]])
    assert demand_set_mcm(state_probe, 0) == [1]
    state_probe.prices = [2, 2, 4]
    assert demand_set_mcm(state_probe, 0) == [0, 1]
    state_probe.prices = [4, 4, 4]
    assert demand_set_mcm(state_probe, 0) == []
    assert res.value == 1


def test_rand_kernel_is_seed_deterministic():
    inst = generate_random(14, 14, 0.3, seed=3)
    a, ta = run_mcm(inst, Epsilon(4), kernel="rand", seed=11)
    b, tb = run_mcm(inst, Epsilon(4), kernel="rand", seed=11)
    assert a.pairs == b.pairs
    assert ta.blackboard.proposals == tb.blackboard.proposals
    c, _ = run_mcm(inst, Epsilon(4), kernel="rand", seed=12)
    assert check_matching(c.pairs, inst.b_l, inst.b_r, inst.edges)


def test_blackboard_trace_shape():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    _, tr = run_mcm(inst, Epsilon(2), kernel="rand")
    bb = tr.blackboard
    assert bb.proposal_rounds == 1
    assert bb.proposals == 1
    assert bb.price_announcements == 1
    assert bb.coordination_rounds == 2 * tr.rounds_executed
    assert bb.rounds == bb.proposal_rounds + bb.coordination_rounds
    _, tr_det = run_mcm(inst, Epsilon(2), kernel="det")
    assert tr_det.blackboard is None


def test_audit_raises_on_an_unhappy_matched_bidder():
    # bidder 0 paid 3/4 for item 0 while its neighbour item 1 costs 1/4
    state = McmState(k=4, prices=[3, 1], assignment=[0, 1], owner=[0, 1],
                     adj=[[0, 1], [1]])
    with pytest.raises(InvariantViolation) as info:
        mcm._audit_round(state, state.prices)
    assert info.value.prop == "eps-happiness"
    assert info.value.detail.startswith("bidder 0 has utility 1/4 but item 1")


def _unstructured_audit(state, prev_prices):
    """mcm._audit_round as it was before it started with
    ``Auction.check_prices``: price range, priced implies matched, the
    utility sum and eps-happiness, with no round-start prices and no
    owner check."""
    k = state.k
    for j, p in enumerate(state.prices):
        if p < 0 or p > k:
            raise InvariantViolation("price-range", f"item {j} price {p}/{k}")
        if p > 0 and state.owner[j] is None:
            raise InvariantViolation("positive-price-implies-matched", f"item {j}")
    matched = [i for i, a in enumerate(state.assignment) if a is not None]
    if (sum(k - state.prices[state.assignment[i]] for i in matched)
            > len(matched) * k - sum(state.prices)):
        raise InvariantViolation("utility-sum", "")
    for i in range(len(state.assignment)):
        a = state.assignment[i]
        if a is not None:
            u = k - state.prices[a]
        elif not demand_set_mcm(state, i):
            u = 0
        else:
            continue
        for j in state.adj[i]:
            if u < k - state.prices[j] - 1:
                raise InvariantViolation("eps-happiness", f"bidder {i} item {j}")


def _leave_evicted_assigned(state, evicted, item):
    if evicted is not None:
        state.assignment[evicted] = item


def _lower_another_price(state, evicted, item):
    priced = [j for j, p in enumerate(state.prices) if j != item and p > 0]
    if priced:
        state.prices[priced[0]] -= 1


@pytest.mark.parametrize("fault, every, prop", [
    (_leave_evicted_assigned, 3, "assignment-owner-mismatch"),
    (_lower_another_price, 7, "price-monotonicity"),
], ids=["evicted-left-assigned", "lowered-price"])
@pytest.mark.parametrize("index", [1, 3, 7])
def test_audit_catches_a_commit_fault_the_unstructured_audit_missed(
        fault, every, prop, index, monkeypatch):
    # Every ``every``-th commit also does ``fault``. The audit without
    # round-start prices or an owner check lets these runs through.
    inst = mcm_family()[index]

    def run(audit_round):
        count = itertools.count(1)

        def commit(self, i, j, step):
            evicted = Auction.commit(self, i, j, step)
            if next(count) % every == 0:
                fault(self, evicted, j)
            return evicted

        with monkeypatch.context() as m:
            m.setattr(McmState, "commit", commit)
            m.setattr(mcm, "_audit_round", audit_round)
            run_mcm(inst, Epsilon(4), audit=True)

    run(_unstructured_audit)
    with pytest.raises(InvariantViolation) as info:
        run(mcm._audit_round)
    assert info.value.prop == prop
