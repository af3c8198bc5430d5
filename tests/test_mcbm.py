"""Capacitated cardinality auction engine."""

import pytest

from auctionmatch import mcbm
from auctionmatch.criteria import mcbm_family
from auctionmatch.errors import InvariantViolation
from auctionmatch.graph import BipartiteInstance, Epsilon, generate_random
from auctionmatch.mcbm import (
    McbmState,
    _audit_round,
    expand_copies,
    find_demand_set,
    mcbm_round_budget,
    run_mcbm,
)
from auctionmatch.mcm import run_mcm
from auctionmatch.oracles import exact_mcbm
from auctionmatch.suite import check_matching


def test_copy_expansion_counts():
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
        b_l=[2, 1], b_r=[1, 2])
    cg = expand_copies(inst)
    assert cg.n_bidder_copies == 3
    assert cg.n_item_copies == 3
    # every edge (i, j) expands to b_l[i] * b_r[j] copy edges
    assert sum(inst.b_l[i] * inst.b_r[j] for i, j, _ in inst.edges) == 9
    assert list(cg.bidder_copies(0)) == [0, 1]
    assert list(cg.bidder_copies(1)) == [2]
    assert list(cg.item_copies(1)) == [1, 2]
    assert cg.bidder_orig == (0, 0, 1)
    assert cg.item_orig == (0, 1, 1)


def _probe_state(k=4):
    # one bidder with two copies; items 0 and 1 with two copies each
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 1), (0, 1, 1)], b_l=[2, 1], b_r=[2, 2])
    state = McbmState(cg=expand_copies(inst), k=k)
    return state


def _set_prices(state, prices):
    # prices set by hand, so the cached cheapest copy prices are set by
    # hand too, as ``held`` is
    state.prices = prices
    state.pmin = state.price_minima()


def test_demand_set_takes_global_cheapest_copies():
    state = _probe_state()
    _set_prices(state, [1, 2, 0, 3])
    assert find_demand_set(state, 0) == [2]
    _set_prices(state, [1, 1, 1, 4])
    assert find_demand_set(state, 0) == [0, 1, 2]


def test_demand_set_skips_held_originals():
    state = _probe_state()
    _set_prices(state, [1, 2, 0, 3])
    state.held.add((0, 1))
    assert find_demand_set(state, 0) == [0]


def test_demand_set_respects_cutoff():
    state = _probe_state()
    _set_prices(state, [1, 2, 0, 3])
    state.cutoffs[0] = 2
    # item 0 min price 1 and item 1 min price 0 both sit below the cutoff
    assert find_demand_set(state, 0) == []
    state.cutoffs[0] = 1
    assert find_demand_set(state, 0) == [0]


def test_demand_set_ignores_full_price_copies():
    state = _probe_state(k=2)
    _set_prices(state, [2, 2, 2, 2])
    assert find_demand_set(state, 0) == []


def test_bidder_capacity_two_items():
    inst = BipartiteInstance.build(
        1, 2, [(0, 0, 1), (0, 1, 1)], b_l=[2], b_r=[1, 1])
    res, tr = run_mcbm(inst, Epsilon(2))
    assert res.value == 2
    assert res.pairs == ((0, 0), (0, 1))
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    assert tr.round_budget == mcbm_round_budget(Epsilon(2)) == 8


def test_single_edge_used_once_despite_capacity():
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 1)], b_l=[2, 1], b_r=[2, 1])
    res, _ = run_mcbm(inst, Epsilon(2))
    assert res.value == 1
    assert res.pairs == ((0, 0),)


def test_rejects_unknown_kernel():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        run_mcbm(inst, Epsilon(2), kernel="rand")


@pytest.mark.parametrize("kernel", ["det", "stream"])
@pytest.mark.parametrize("seed", range(6))
def test_approximation_bound(kernel, seed):
    inst = generate_random(
        8, 8, 0.4, b_l_range=(1, 3), b_r_range=(1, 3), seed=seed)
    opt = exact_mcbm(inst).value
    for k in (4, 8):
        res, tr = run_mcbm(inst, Epsilon(k), kernel=kernel)
        assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
        assert k * res.value >= (k - 2) * opt
        assert tr.rounds_executed <= tr.round_budget == 2 * k * k


@pytest.mark.parametrize("seed", range(6))
def test_unit_capacities_match_plain_engine_value(seed):
    inst = generate_random(9, 9, 0.35, seed=seed)
    cap_res, _ = run_mcbm(inst, Epsilon(4))
    plain_res, _ = run_mcm(inst, Epsilon(4))
    assert cap_res.value == plain_res.value


def test_structural_audit_properties_hold():
    # no audited property fires on these seeds: neither the structural
    # checks nor happiness against each copy's demand-time view
    hits = []
    for seed in range(8):
        inst = generate_random(
            6, 6, 0.5, b_l_range=(1, 3), b_r_range=(1, 3), seed=seed)
        try:
            run_mcbm(inst, Epsilon(4), audit=True)
        except InvariantViolation as exc:
            hits.append(exc.prop)
    assert hits == []


def test_happiness_audit_reports_reopened_pair():
    # A sibling eviction re-opens an original at a price below what a
    # matched copy paid while the pair was blocked. The copy could not bid
    # on it, so the audit counts the re-opened pair instead of raising.
    inst = generate_random(
        8, 8, 0.5, b_l_range=(1, 4), b_r_range=(1, 4), seed=7)
    _, tr = run_mcbm(inst, Epsilon(4), audit=True)
    assert tr.notes["reopened_pairs"] > 0


def _underpaid_state():
    # bidder copy 0 holds item copy 2 (item 1) at price 2 while both
    # copies of item 0 are still free at price 0; copy 2 of bidder 1
    # holds item copy 3 so every positive price is matched
    state = _probe_state()
    _set_prices(state, [0, 0, 2, 1])
    state.assignment = [2, None, 3]
    state.owner = [None, None, 0, 2]
    state.held = {(0, 1), (1, 1)}
    return state


def test_happiness_audit_raises_on_underpaid_demand_view():
    state = _underpaid_state()
    views = {0: frozenset({0, 1}), 2: frozenset()}
    with pytest.raises(InvariantViolation) as info:
        _audit_round(state, state.prices, state.cutoffs, views)
    assert info.value.prop == "copy-happiness"


def test_happiness_audit_counts_item_sibling_held_at_demand_time():
    state = _underpaid_state()
    # item 0 was held by a sibling copy when copy 0 demanded
    views = {0: frozenset({1}), 2: frozenset()}
    assert _audit_round(state, state.prices, state.cutoffs, views) == 1


def test_audit_raises_on_stale_item_minimum():
    state = _underpaid_state()
    views = {0: frozenset({1}), 2: frozenset()}
    assert _audit_round(state, state.prices, state.cutoffs, views) == 1
    state.pmin[1] = 0  # item 1's copies cost 2 and 1
    with pytest.raises(InvariantViolation) as info:
        _audit_round(state, state.prices, state.cutoffs, views)
    assert info.value.prop == "item-min-drift"


def test_audit_raises_when_demand_is_empty_below_full_price(monkeypatch):
    # both copies of bidder 0 may buy either item at price 0, so a demand
    # rule that gives up on them must trip the first round's audit
    inst = _probe_state().cg.instance
    monkeypatch.setattr(mcbm, "find_demand_set", lambda state, bcopy: [])
    with pytest.raises(InvariantViolation) as info:
        run_mcbm(inst, Epsilon(4), audit=True)
    assert info.value.prop == "empty-demand-characterization"
    assert info.value.detail.startswith("bidder 0: demand empty=True")


def test_commit_keeps_held_pairs_and_item_minima():
    # bidder copies 0 and 1 belong to bidder 0, copy 2 to bidder 1; item
    # copies 0 and 1 to item 0, copies 2 and 3 to item 1
    state = _probe_state()
    assert state.commit_round([(0, 0, 1), (1, 2, 1)]) == [None, None]
    assert (state.pmin, state.held) == ([0, 0], {(0, 0), (0, 1)})
    assert state.commit_round([(2, 0, 1)]) == [0]
    assert (state.pmin, state.held) == ([0, 0], {(0, 1), (1, 0)})
    assert state.commit_round([(0, 1, 1)]) == [None]
    assert state.prices == [2, 1, 1, 0]
    assert (state.pmin, state.held) == ([1, 0], {(0, 0), (0, 1), (1, 0)})
    # owned item copies never become free again
    assert state.owner == [2, 0, 1, None]


def _sub_pass_one(state, unmatched):
    """Sub-pass one of the stream-order round on its own: in edge order,
    an unclaimed price-0 copy goes to the first still unpaired copy of the
    edge's bidder whose cheapest eligible item is priced 0."""
    cg = state.cg
    zero = [bc for bc in unmatched
            if any(state.pmin[j] == 0 for j in mcbm._eligible_items(state, bc))]
    claimed, used, pairs = set(), set(state.held), []
    for i, j, _ in cg.instance.edges:
        if state.pmin[j] or (i, j) in used:
            continue
        jc = next((jc for jc in cg.item_copies(j)
                   if state.prices[jc] == 0 and jc not in claimed), None)
        bc = next((bc for bc in cg.bidder_copies(i) if bc in zero), None)
        if jc is not None and bc is not None:
            claimed.add(jc)
            zero.remove(bc)
            used.add((i, j))
            pairs.append((bc, jc))
    return pairs


def test_stream_round_sub_pass_two_claims_only_owned_copies(monkeypatch):
    # Sub-pass two finds no free copy: above price 0 every copy is owned,
    # and a price-0 edge sub-pass one left unmatched had none left. So
    # each of its claims evicts the copy's round-start owner.
    real, evictions = mcbm._stream_round, []

    def wrapped(state, unmatched):
        demanded, pairs = real(state, unmatched)
        first = _sub_pass_one(state, unmatched)
        assert pairs[:len(first)] == first
        assert all(state.owner[jc] is not None for _, jc in pairs[len(first):])
        evictions.append(len(pairs) - len(first))
        return demanded, pairs

    monkeypatch.setattr(mcbm, "_stream_round", wrapped)
    for inst in mcbm_family()[:30]:
        for k in (4, 8):
            run_mcbm(inst, Epsilon(k), kernel="stream")
    assert sum(evictions) > 100


def test_audit_raises_on_held_set_drift():
    state = _underpaid_state()
    views = {0: frozenset({1}), 2: frozenset()}
    state.held = {(0, 1)}  # bidder 1's copy holds item 1 too
    with pytest.raises(InvariantViolation) as info:
        _audit_round(state, state.prices, state.cutoffs, views)
    assert info.value.prop == "held-set-drift"


def test_audit_raises_on_copy_price_spread():
    state = _underpaid_state()
    views = {0: frozenset({1}), 2: frozenset()}
    _set_prices(state, [0, 0, 3, 1])  # item 1's copies two units apart
    with pytest.raises(InvariantViolation) as info:
        _audit_round(state, state.prices, state.cutoffs, views)
    assert info.value.prop == "copy-price-spread"
