"""The records' behaviour: value records are immutable tuples that compare
and hash by their fields, the validated ones keep their checks, and the
mutable state shares no default between instances."""

import pytest

from auctionmatch.auction import Auction
from auctionmatch.criteria import CriterionOutcome
from auctionmatch.graph import BipartiteInstance, Epsilon, scale_and_prune
from auctionmatch.kernels import KernelMatching
from auctionmatch.mcbm import expand_copies
from auctionmatch.mcm import run_mcm
from auctionmatch.mwm import DemandSpec
from auctionmatch.oracles import OracleResult
from auctionmatch.results import BlackboardTrace, MatchingResult, RunTrace
from auctionmatch.streaming import SpaceAccountant
from auctionmatch.weight_reduction import (CombineOutcome, DisplacementRecord,
                                           ReductionDetail, build_partition,
                                           combine_levels, run_reduced_mwm)

EDGES = [(0, 0, 3), (0, 1, 1), (1, 0, 2)]


def _value_records():
    inst = BipartiteInstance.build(2, 2, EDGES)
    eps = Epsilon(4)
    copies = build_partition(inst, eps)
    return [
        eps,
        inst,
        scale_and_prune(inst, eps),
        MatchingResult(pairs=((0, 1), (1, 0)), value=2, round_captured=3),
        BlackboardTrace(proposal_rounds=2, coordination_rounds=4, proposals=5,
                        price_announcements=3, proposal_bits_each=1,
                        price_bits_each=4),
        OracleResult(value=2, pairs=((0, 1), (1, 0))),
        DemandSpec(max_utility=5, items=(0, 1), weights=(3, 1)),
        expand_copies(inst),
        copies[1],
        copies[1].levels[0],
        DisplacementRecord(edge=(0, 0, 3), level=1, displaced=(((0, 1, 1), 0),)),
    ]


@pytest.mark.parametrize("record", _value_records(), ids=lambda r: type(r).__name__)
def test_value_records_compare_and_hash_by_their_fields(record):
    twin = type(record)._make(record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to put it in


def test_records_unpack_and_compare_equal_to_plain_tuples():
    inst = BipartiteInstance.build(2, 2, EDGES)
    res, _ = run_mcm(inst, Epsilon(3))
    pairs, value, round_captured = res
    assert res == (pairs, value, round_captured)
    assert value == len(pairs) == 2
    assert Epsilon(4) == (4,)
    assert repr(Epsilon(4)) == "Epsilon(k=4)" and str(Epsilon(4)) == "1/4"


def test_epsilon_and_instances_differ_by_any_field():
    assert Epsilon(4) != Epsilon(5)
    assert Epsilon.parse(" 1/4 ") == Epsilon(4) == Epsilon(k=4)
    inst = BipartiteInstance.build(2, 2, EDGES)
    assert inst != BipartiteInstance.build(2, 2, EDGES[::-1])
    assert inst != BipartiteInstance.build(2, 2, EDGES, b_l=(2, 1))
    assert inst == BipartiteInstance(n_l=2, n_r=2, edges=tuple(EDGES),
                                     b_l=(1, 1), b_r=(1, 1))


@pytest.mark.parametrize("k", [1, 0, -3, 2.0, "2", True])
def test_epsilon_rejects_what_is_not_a_unit_fraction(k):
    with pytest.raises(ValueError) as exc:
        Epsilon(k)
    assert str(exc.value) == f"eps must be 1/k with integer k >= 2, got k={k!r}"


@pytest.mark.parametrize("n_l, n_r, edges, b_l, b_r, message", [
    (0, 2, (), (), (1, 1), "both sides need at least one vertex"),
    (2, 0, (), (1, 1), (), "both sides need at least one vertex"),
    (2, 2, (), (1,), (1, 1), "capacity vectors must cover every vertex"),
    (2, 2, (), (1, 1), (1, 1, 1), "capacity vectors must cover every vertex"),
    (2, 2, (), (1, 3), (1, 1), "bidder 1 capacity 3 outside [1, 2]"),
    (2, 3, (), (1, 1), (1, 0, 1), "item 1 capacity 0 outside [1, 2]"),
    (2, 2, ((0, 1.0, 1),), (1, 1), (1, 1), "edge (0, 1.0) has a non-integer endpoint"),
    (2, 2, ((2, 0, 1),), (1, 1), (1, 1), "edge (2, 0) endpoint out of range"),
    (2, 2, ((0, -1, 1),), (1, 1), (1, 1), "edge (0, -1) endpoint out of range"),
    (2, 2, ((0, 0, 1.5),), (1, 1), (1, 1), "edge (0, 0) has non-integer weight 1.5"),
    (2, 2, ((0, 0, 0),), (1, 1), (1, 1), "edge (0, 0) has non-positive weight 0"),
    (2, 2, ((0, 0, 1), (1, 1, 1), (0, 0, 2)), (1, 1), (1, 1), "duplicate edge (0, 0)"),
    # a repeat before the first bad edge is reported, one after it is not
    (2, 2, ((0, 0, 1), (0, 0, 1), (5, 0, 1)), (1, 1), (1, 1), "duplicate edge (0, 0)"),
    (2, 2, ((0, 0, 1), (5, 0, 1), (0, 0, 1)), (1, 1), (1, 1),
     "edge (5, 0) endpoint out of range"),
])
def test_instance_validation_messages(n_l, n_r, edges, b_l, b_r, message):
    with pytest.raises(ValueError) as exc:
        BipartiteInstance(n_l, n_r, edges, b_l, b_r)
    assert str(exc.value) == message
    # the reader's constructor trusts its caller and checks nothing
    inst = BipartiteInstance._checked_by_reader(n_l, n_r, edges, b_l, b_r)
    assert type(inst) is BipartiteInstance
    assert inst == (n_l, n_r, edges, b_l, b_r)


def test_mutable_state_shares_no_default():
    pairs = [KernelMatching().pairs for _ in range(2)]
    notes = [RunTrace(rounds_executed=0, round_budget=1).notes for _ in range(2)]
    tags = [SpaceAccountant().tags for _ in range(2)]
    auctions = [Auction(prices=[0], assignment=[None, None], owner=[None])
                for _ in range(2)]
    outcomes = [CriterionOutcome(1, "c", True, "d") for _ in range(2)]
    for a, b in [pairs, notes, tags, [x.best for x in auctions],
                 [x.gain for x in auctions], [x.failures for x in outcomes],
                 [x.stats for x in outcomes]]:
        assert a is not b
    auctions[0].commit_round([(0, 0, 1)])
    auctions[0].snapshot(1)
    assert auctions[0].gain == [1, 0] and auctions[0].best == [0, None]
    assert auctions[1].gain == [0, 0] and auctions[1].best == []
    with pytest.raises(TypeError):
        Auction([0], [None], [None])  # keyword-only, as before


def test_reduction_detail_is_an_immutable_record_built_once():
    inst = BipartiteInstance.build(2, 2, EDGES)
    _, tr = run_reduced_mwm(inst, Epsilon(2))
    detail = tr.notes["detail"]
    assert ReductionDetail._fields == (
        "partition", "outcomes", "level_results", "level_traces")
    assert ReductionDetail._field_defaults == {}
    assert detail.partition == build_partition(inst, Epsilon(2))
    assert type(detail.outcomes) is tuple
    assert set(detail.level_results) == set(detail.level_traces) == {
        (cp.index, lg.level) for cp in detail.partition for lg in cp.levels}
    with pytest.raises(AttributeError):
        detail.outcomes = ()


def test_run_trace_equality_covers_every_field():
    def trace(**changes):
        fields = dict(rounds_executed=3, round_budget=8, passes=7, peak_words=40,
                      blackboard=None, notes={"n_levels": 2})
        fields.update(changes)
        return RunTrace(**fields)

    assert trace() == trace()
    for changes in ({"rounds_executed": 4}, {"round_budget": 9}, {"passes": 1},
                    {"peak_words": 0}, {"notes": {}},
                    {"blackboard": BlackboardTrace(0, 2, 0, 0, 1, 1)}):
        assert trace() != trace(**changes)
    assert trace() != (3, 8, 7, 40, None, {"n_levels": 2})


def test_combine_outcome_equality_ignores_level_matchings():
    inst = BipartiteInstance.build(3, 3, [(0, 0, 50), (0, 1, 5), (1, 0, 4), (2, 2, 3)])
    copy_part = build_partition(inst, Epsilon(2))[0]
    level_matchings = {2: [(0, 0, 50)], 1: [(0, 1, 5), (1, 0, 4), (2, 2, 3)]}
    outcome = combine_levels(copy_part, level_matchings)
    assert outcome.taken == (((0, 0, 50), 2), ((2, 2, 3), 1))
    assert outcome.weight == 53
    assert outcome.records == (
        DisplacementRecord(edge=(0, 0, 50), level=2,
                           displaced=(((0, 1, 5), 1), ((1, 0, 4), 1))),
        DisplacementRecord(edge=(2, 2, 3), level=1, displaced=()),
    )
    assert outcome.records is outcome.records  # built once
    assert outcome.records[0].displaced_weight == 9
    same_taken = CombineOutcome(copy_index=copy_part.index, taken=outcome.taken,
                                level_matchings={})
    assert outcome == same_taken
    assert outcome != CombineOutcome(copy_index=copy_part.index + 1,
                                     taken=outcome.taken,
                                     level_matchings=level_matchings)
    assert outcome != CombineOutcome(copy_index=copy_part.index, taken=(),
                                     level_matchings=level_matchings)
