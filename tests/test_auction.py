"""The shared auction core: commit with eviction, snapshots, the round
loop; and the one check of a returned matching, ``suite.check_matching``."""

import pytest

from auctionmatch.auction import Auction, blackboard_trace
from auctionmatch.errors import InvariantViolation
from auctionmatch.kernels import KernelMatching
from auctionmatch.suite import check_matching

EDGES = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1))


def _auction(n_bidders=3, n_items=2):
    return Auction(prices=[0] * n_items, assignment=[None] * n_bidders,
                   owner=[None] * n_items)


def test_check_matching_accepts_a_b_matching():
    pairs = ((0, 0), (0, 1), (1, 1))
    assert check_matching(pairs, (2, 1, 1), (1, 2), EDGES) is True


@pytest.mark.parametrize("pairs,b_l,b_r", [
    (((2, 1),), (1, 1, 1), (1, 1)),
    (((0, 0), (0, 1)), (1, 1, 1), (1, 1)),
    (((0, 1), (1, 1)), (1, 1, 1), (1, 1)),
    (((0, 0), (1, 0), (2, 0)), (1, 1, 1), (2, 1)),
    (((0, 0), (0, 0)), (2, 1, 1), (2, 1)),
    # a pair out of range fails as a non-edge before usage is counted
    (((3, 0),), (1, 1, 1), (1, 1)),
], ids=["non-edge", "bidder-reused", "item-reused", "over-capacity", "repeated-pair",
        "out-of-range"])
def test_check_matching_flags_each_fault(pairs, b_l, b_r):
    assert check_matching(pairs, b_l, b_r, EDGES) is False


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


def _priced():
    # bidder 0 holds item 0 at 2, bidder 1 item 1 at 1; item 2 is free
    return Auction(prices=[2, 1, 0], assignment=[0, 1, None],
                   owner=[0, 1, None])


def test_check_prices_passes_a_consistent_state():
    auc = _priced()
    auc.check_prices([1, 1, 0], top=2)
    auc.check_prices([0, 0, 0])
    auc.prices[0] = 9  # no upper bound without ``top``
    auc.check_prices([2, 1, 0])


def _fallen(auc, prev_prices):
    auc.prices[1] = 0


def _above_top(auc, prev_prices):
    auc.prices[0] = 3


def _negative(auc, prev_prices):
    auc.prices[2] = prev_prices[2] = -1  # fell nothing


def _unowned_priced(auc, prev_prices):
    auc.prices[2] = 1


def _owner_elsewhere(auc, prev_prices):
    auc.owner[1] = 2  # bidder 2 is assigned nothing


def _assigned_unowned(auc, prev_prices):
    auc.assignment[2] = 1  # item 1 stays owned by bidder 1


@pytest.mark.parametrize("fault, top, prop, detail", [
    (_fallen, 2, "price-monotonicity", "item 1 price fell 1 -> 0"),
    (_above_top, 2, "price-range", "item 0 price 3 above 2"),
    (_negative, None, "price-range", "item 2 price -1 negative"),
    (_unowned_priced, None, "positive-price-implies-matched",
     "item 2 priced 1 but unmatched"),
    (_owner_elsewhere, 2, "assignment-owner-mismatch",
     "bidder 2 is assigned None and item 1 owned by 2"),
    (_assigned_unowned, None, "assignment-owner-mismatch",
     "bidder 2 is assigned 1 and item 1 owned by 1"),
], ids=["fallen", "above-top", "negative", "unowned-priced", "owner-elsewhere",
        "assigned-unowned"])
def test_check_prices_names_each_fault(fault, top, prop, detail):
    auc = _priced()
    prev_prices = [1, 1, 0]
    fault(auc, prev_prices)
    with pytest.raises(InvariantViolation) as info:
        auc.check_prices(prev_prices, top)
    assert (info.value.prop, info.value.detail) == (prop, detail)


def test_blackboard_trace_bit_widths():
    bb = blackboard_trace(n_r=5, price_levels=8, rounds=3, proposal_rounds=4,
                          proposals=6, announcements=2)
    assert bb.coordination_rounds == 6
    assert bb.rounds == 10
    assert (bb.proposal_bits_each, bb.price_bits_each) == (3, 3)
    assert bb.total_bits == 6 * 3 + 2 * 3


class _ScriptedStep:
    """A round step that plays ``script``, one (kept, pairs, proposal
    rounds, proposals) entry per call, and records what each call was
    handed; ``kept`` None keeps every bidder handed. Past the script's end
    it keeps nothing and matches nothing."""

    def __init__(self, *script):
        self.script = list(script)
        self.handed: list[list[int]] = []

    def __call__(self, bidders):
        self.handed.append(list(bidders))
        if not self.script:
            return [], KernelMatching()
        kept, pairs, proposal_rounds, proposals = self.script.pop(0)
        return (list(bidders) if kept is None else kept,
                KernelMatching(pairs=pairs, proposal_rounds=proposal_rounds,
                               proposals=proposals))


def test_run_rounds_with_no_bidders_runs_no_round():
    auc = _auction()
    step = _ScriptedStep()
    assert auc.run_rounds([], 10, step) == (0, 0, 0, 0)
    assert step.handed == []
    assert auc.best_round == 0


def test_run_rounds_runs_one_empty_round_after_a_bidder_is_priced_out():
    # every bidder kept: both win, the worklist empties, the run stops
    auc = _auction()
    step = _ScriptedStep((None, [(0, 0, 1), (1, 1, 1)], 0, 0))
    assert auc.run_rounds([0, 1], 10, step)[0] == 1
    assert step.handed == [[0, 1]]
    # bidder 2 priced out: the empty worklist still runs a last round
    auc = _auction()
    step = _ScriptedStep(([0, 1], [(0, 0, 1), (1, 1, 1)], 0, 0))
    assert auc.run_rounds([0, 1, 2], 10, step)[0] == 2
    assert step.handed == [[0, 1, 2], []]
    assert (auc.best_value, auc.best_round) == (2, 1)


def test_run_rounds_stops_at_the_budget():
    # two bidders take item 0 from each other every round
    handed = []

    def war(bidders):
        handed.append(list(bidders))
        return bidders, KernelMatching(pairs=[(bidders[0], 0, 1)])

    auc = _auction(n_bidders=2, n_items=1)
    assert auc.run_rounds([0, 1], 7, war) == (7, 0, 0, 7)
    assert handed == [[0, 1], [1], [0], [1], [0], [1], [0]]
    assert auc.prices == [7]


def test_run_rounds_checks_each_round_after_the_commits_before_the_snapshot():
    log = []

    class Logged(Auction):
        def commit(self, i, j, step):
            log.append(("commit", i))
            return super().commit(i, j, step)

        def snapshot(self, round_no):
            log.append(("snapshot", round_no))
            super().snapshot(round_no)

    def audit(bidders):
        log.append(("audit", list(bidders)))
        return lambda kept: log.append(("check", auc.value, list(kept)))

    def step(bidders):
        log.append(("step", list(bidders)))
        return next(plays)

    plays = iter([([0, 1, 2], KernelMatching(pairs=[(0, 0, 1), (1, 1, 1)])),
                  ([2], KernelMatching(pairs=[(2, 0, 1)])),
                  ([], KernelMatching())])
    auc = Logged(prices=[0, 0], assignment=[None] * 3, owner=[None] * 2)
    assert auc.run_rounds([0, 1, 2], 10, step, audit)[0] == 3
    assert log == [
        ("audit", [0, 1, 2]), ("step", [0, 1, 2]), ("commit", 0), ("commit", 1),
        ("check", 2, [0, 1, 2]), ("snapshot", 1),
        ("audit", [2]), ("step", [2]), ("commit", 2), ("check", 2, [2]),
        ("snapshot", 2),
        ("audit", [0]), ("step", [0]), ("check", 2, []), ("snapshot", 3),
    ]


def test_run_rounds_sums_the_steps_counts():
    auc = _auction(n_bidders=4, n_items=3)
    step = _ScriptedStep(
        (None, [(0, 0, 2), (1, 1, 3)], 2, 5),
        (None, [(3, 0, 1)], 1, 3),
        ([0], [], 4, 1),
    )
    # the third round keeps a bidder but matches nothing, so a fourth runs
    assert auc.run_rounds([0, 1, 2, 3], 10, step) == (4, 7, 9, 3)
    assert step.handed == [[0, 1, 2, 3], [2, 3], [0, 2], [0]]
    assert auc.prices == [3, 3, 0]
    assert (auc.best_value, auc.best_round) == (5, 1)
