"""The shared auction core: commit with eviction, snapshots, result check."""

import pytest

from auctionmatch.auction import Auction, blackboard_trace, check_matching

EDGES = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1))


def _auction(n_bidders=3, n_items=2):
    return Auction(prices=[0] * n_items, assignment=[None] * n_bidders,
                   owner=[None] * n_items)


def test_check_matching_accepts_a_b_matching():
    pairs = ((0, 0), (0, 1), (1, 1))
    assert check_matching(pairs, (2, 1, 1), (1, 2), EDGES) == ((2, 1, 0), (1, 2), True)


@pytest.mark.parametrize("pairs,b_l,b_r", [
    (((2, 1),), (1, 1, 1), (1, 1)),
    (((0, 0), (0, 1)), (1, 1, 1), (1, 1)),
    (((0, 1), (1, 1)), (1, 1, 1), (1, 1)),
    (((0, 0), (1, 0), (2, 0)), (1, 1, 1), (2, 1)),
    (((0, 0), (0, 0)), (2, 1, 1), (2, 1)),
], ids=["non-edge", "bidder-reused", "item-reused", "over-capacity", "repeated-pair"])
def test_check_matching_flags_each_fault(pairs, b_l, b_r):
    assert check_matching(pairs, b_l, b_r, EDGES)[2] is False


def test_check_matching_without_edges_checks_only_usage():
    assert check_matching(((2, 1),), (1, 1, 1), (1, 1))[2] is True
    assert check_matching(((1, 0), (2, 0)), (1, 1, 1), (1, 1))[2] is False


def test_commit_evicts_and_subtracts_the_evicted_gain():
    auc = _auction()
    assert auc.commit(0, 1, 5) is None
    assert auc.commit(1, 0, 2) is None
    assert auc.value == 7
    assert auc.commit(2, 1, 3) == 0
    assert auc.assignment == [None, 0, 1]
    assert auc.owner == [1, 2]
    assert auc.prices == [2, 8]
    assert auc.gain == [0, 2, 3]
    assert auc.value == 5


def test_next_bidders_drops_winners_and_adds_evicted_owners():
    auc = _auction(n_bidders=4)
    auc.commit(3, 0, 1)
    # bidders 0 and 2 bid; 2 takes item 0 from bidder 3, 0 takes item 1
    evicted = [auc.commit(2, 0, 1), auc.commit(0, 1, 1)]
    assert evicted == [3, None]
    assert auc.next_bidders([0, 1, 2], evicted) == [1, 3]


def test_snapshot_keeps_the_earliest_round_on_a_tie():
    auc = _auction()
    auc.commit(0, 0, 1)
    auc.snapshot(1)
    auc.commit(1, 0, 1)  # evicts bidder 0: same value, other pair
    auc.snapshot(2)
    assert (auc.best_value, auc.best_round) == (1, 1)
    assert auc.best_pairs() == ((0, 0),)
    auc.commit(0, 1, 1)
    auc.snapshot(3)
    assert (auc.best_value, auc.best_round) == (2, 3)
    assert auc.best_pairs() == ((0, 1), (1, 0))


def test_snapshot_of_an_unmatched_run_is_empty():
    auc = _auction()
    auc.snapshot(1)
    assert (auc.best_pairs(), auc.best_value, auc.best_round) == ((), 0, 0)


def test_blackboard_trace_bit_widths():
    bb = blackboard_trace(n_r=5, price_levels=8, rounds=3, proposal_rounds=4,
                          proposals=6, announcements=2)
    assert bb.coordination_rounds == 6
    assert bb.rounds == 10
    assert (bb.proposal_bits_each, bb.price_bits_each) == (3, 3)
    assert bb.total_bits == 6 * 3 + 2 * 3
