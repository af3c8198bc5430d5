"""Maximal-matching kernels on demand subgraphs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmatch import mcbm
from auctionmatch.criteria import mcbm_family
from auctionmatch.graph import Epsilon
from auctionmatch.kernels import (
    bucket_ordered_maximal,
    greedy_maximal,
    nondup_maximal,
    randomized_proposal_mm,
)


def _random_candidates(rng: random.Random, n_bidders: int, n_items: int
                       ) -> dict[int, list[int]]:
    candidates = {}
    for i in range(n_bidders):
        cands = [j for j in range(n_items) if rng.random() < 0.4]
        if cands:
            candidates[i] = cands
    return candidates


def _assert_matching(candidates, pairs) -> None:
    lefts = [i for i, _ in pairs]
    rights = [j for _, j in pairs]
    assert len(set(lefts)) == len(lefts)
    assert len(set(rights)) == len(rights)
    for i, j in pairs:
        assert j in candidates[i]


def _assert_maximal(candidates, pairs) -> None:
    lefts = {i for i, _ in pairs}
    rights = {j for _, j in pairs}
    for i, cands in candidates.items():
        if i in lefts:
            continue
        assert all(j in rights for j in cands), (
            f"bidder {i} still has a free candidate")


@pytest.mark.parametrize("seed", range(8))
def test_greedy_is_a_maximal_matching(seed):
    rng = random.Random(seed)
    sub = _random_candidates(rng, 12, 10)
    got = greedy_maximal(sub)
    _assert_matching(sub, got.pairs)
    _assert_maximal(sub, got.pairs)


@pytest.mark.parametrize("seed", range(8))
def test_proposal_kernel_is_a_maximal_matching(seed):
    rng = random.Random(seed)
    sub = _random_candidates(rng, 12, 10)
    got = randomized_proposal_mm(sub, seed=seed)
    _assert_matching(sub, got.pairs)
    _assert_maximal(sub, got.pairs)
    assert got.proposal_rounds >= 1
    assert got.proposals >= len(got.pairs)


def test_proposal_kernel_is_seed_deterministic():
    rng = random.Random(3)
    sub = _random_candidates(rng, 10, 8)
    a = randomized_proposal_mm(sub, seed=42)
    b = randomized_proposal_mm(sub, seed=42)
    assert a.pairs == b.pairs
    assert a.proposal_rounds == b.proposal_rounds


def test_proposal_kernel_single_edge_takes_one_round():
    got = randomized_proposal_mm({0: [0]}, seed=0)
    assert got.pairs == [(0, 0)]
    assert got.proposal_rounds == 1
    assert got.proposals == 1


def test_bucket_order_prefers_heavy_buckets():
    # both bidders want item 0; bidder 1's edge sits in the heavier bucket
    got = bucket_ordered_maximal({0: [0], 1: [0]}, {0: [2], 1: [1]})
    assert got.pairs == [(1, 0)]


@pytest.mark.parametrize("kernel,seed", [("det", 0), ("rand", 1), ("rand", 7)])
def test_bucket_order_is_maximal_across_buckets(kernel, seed):
    rng = random.Random(9)
    sub = _random_candidates(rng, 12, 10)
    buckets = {i: [1 + (i + j) % 3 for j in cands] for i, cands in sub.items()}
    got = bucket_ordered_maximal(sub, buckets, kernel=kernel, seed=seed)
    _assert_matching(sub, got.pairs)
    _assert_maximal(sub, got.pairs)


def test_nondup_blocks_duplicate_original_pairs():
    # copies 0,1 of bidder 0 both demand copies 0,1 of item 0
    got = nondup_maximal(
        {0: [0, 1], 1: [0, 1]},
        bidder_orig={0: 0, 1: 0},
        item_orig={0: 0, 1: 0},
        held=set(),
    )
    assert len(got.pairs) == 1


def test_nondup_respects_already_held_pairs():
    got = nondup_maximal(
        {0: [0]},
        bidder_orig={0: 0},
        item_orig={0: 0},
        held={(0, 0)},
    )
    assert got.pairs == []


def _two_sweep_nondup(candidates, bidder_orig, item_orig, owner, held):
    """The copy kernel as it was with an ``owner`` parameter: a first sweep
    over unowned item copies only, then a second over all of them."""
    claimed, matched, used, pairs = set(), set(), set(held), []
    for free_only in (True, False):
        for ic in sorted(candidates):
            if ic in matched:
                continue
            for jc in candidates[ic]:
                pair = (bidder_orig[ic], item_orig[jc])
                if jc in claimed or (free_only and owner[jc] is not None) or pair in used:
                    continue
                claimed.add(jc)
                matched.add(ic)
                used.add(pair)
                pairs.append((ic, jc))
                break
    return sorted(pairs)


def test_nondup_one_sweep_equals_the_two_sweep_kernel_in_runs(monkeypatch):
    # The one sweep, which the det capacitated round makes inline over the
    # demand sets, needs no first pass over unowned copies because every
    # demand set has one price: all its copies are unowned at price 0 and
    # all owned above it.
    calls = []
    det_round = mcbm._det_round

    def wrapped(state, unmatched):
        cg = state.cg
        candidates = {bc: d for bc in unmatched if (d := mcbm.find_demand_set(state, bc))}
        held = set(state.held)
        demanded, pairs = det_round(state, unmatched)
        free = set()
        for copies in candidates.values():
            (price,) = {state.prices[jc] for jc in copies}
            assert all((state.owner[jc] is None) == (price == 0) for jc in copies)
            free.add(price == 0)
        kw = dict(bidder_orig=cg.bidder_orig, item_orig=cg.item_orig, held=held)
        assert demanded == sorted(candidates)
        assert pairs == _two_sweep_nondup(candidates, owner=state.owner, **kw)
        assert pairs == nondup_maximal(candidates, **kw).pairs
        calls.append(free)
        return demanded, pairs

    monkeypatch.setattr(mcbm, "_det_round", wrapped)
    for inst in mcbm_family()[:30]:
        for k in (4, 8):
            mcbm.run_mcbm(inst, Epsilon(k))
    # rounds where free and owned demand sets meet are the ones that count
    assert sum(free == {True, False} for free in calls) > 20


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), caps=st.integers(1, 3))
def test_nondup_output_never_duplicates_originals(seed, caps):
    rng = random.Random(seed)
    n_orig = 4
    bidder_orig = {}
    item_orig = {}
    for c in range(n_orig * caps):
        bidder_orig[c] = c // caps
        item_orig[c] = c // caps
    sub = {}
    for bc in bidder_orig:
        cands = [jc for jc in item_orig if rng.random() < 0.5]
        if cands:
            sub[bc] = cands
    held = set()
    if rng.random() < 0.5:
        held.add((rng.randrange(n_orig), rng.randrange(n_orig)))
    got = nondup_maximal(
        sub, bidder_orig=bidder_orig, item_orig=item_orig, held=held)
    seen = set(held)
    for bc, jc in got.pairs:
        pair = (bidder_orig[bc], item_orig[jc])
        assert pair not in seen
        seen.add(pair)
