"""Bucket-copy reduction for wide weight ranges."""

import pytest

from auctionmatch import weight_reduction
from auctionmatch.graph import BipartiteInstance, Epsilon, generate_random
from auctionmatch.mwm import run_mwm
from auctionmatch.oracles import exact_mwm
from auctionmatch.suite import GP_SCHEDULES, check_matching, check_run, run_single
from auctionmatch.weight_reduction import (
    build_partition,
    combine_levels,
    run_reduced_mwm,
    weight_bucket,
)

# Test ids name a streamed schedule by its run, "stream-<schedule>".
STREAMED = pytest.mark.parametrize(
    "schedule", GP_SCHEDULES, ids=[f"stream-{s}" for s in GP_SCHEDULES])


def test_weight_bucket_rule():
    assert weight_bucket(1, 1, 2) == 0
    assert weight_bucket(2, 1, 2) == 1
    assert weight_bucket(3, 1, 2) == 1
    assert weight_bucket(4, 1, 2) == 2
    assert weight_bucket(5, 5, 4) == 0
    assert weight_bucket(19, 5, 4) == 0
    assert weight_bucket(20, 5, 4) == 1
    with pytest.raises(ValueError):
        weight_bucket(1, 2, 2)


def test_partition_covers_every_edge_once_per_copy():
    inst = generate_random(8, 8, 0.5, w_range=(1, 10 ** 5), seed=1)
    eps = Epsilon(2)
    copies = build_partition(inst, eps)
    assert len(copies) == 2
    for cp in copies:
        kept = [e for lg in cp.levels for e in lg.edges]
        assert sorted(kept + list(cp.removed)) == sorted(inst.edges)
    # each edge is removed in exactly one copy
    removed_total = sum(len(cp.removed) for cp in copies)
    assert removed_total == inst.m


def test_each_level_has_bounded_spread():
    inst = generate_random(8, 8, 0.5, w_range=(1, 10 ** 6), seed=3)
    for k in (2, 4):
        for cp in build_partition(inst, Epsilon(k)):
            for lg in cp.levels:
                # spread stays strictly below k^(k-1) within a level
                assert lg.w_max < lg.w_min * k ** (k - 1)


def test_combine_prefers_heavier_levels():
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 100), (0, 1, 1), (1, 0, 1)])
    cp = build_partition(inst, Epsilon(2))[0]
    outcome = combine_levels(cp, {
        1: [(0, 0, 100)],
        0: [(0, 1, 1), (1, 0, 1)],
    })
    taken_edges = [e for e, _ in outcome.taken]
    assert (0, 0, 100) in taken_edges
    rec = next(r for r in outcome.records if r.edge == (0, 0, 100))
    assert set(rec.displaced) == {((0, 1, 1), 0), ((1, 0, 1), 0)}
    assert outcome.weight == 100


def test_displacement_stays_within_level_gap():
    inst = generate_random(10, 10, 0.4, w_range=(1, 10 ** 6), seed=5)
    k = 4
    _, tr = run_reduced_mwm(inst, Epsilon(k))
    detail = tr.notes["detail"]
    for outcome in detail.outcomes:
        for rec in outcome.records:
            w = rec.edge[2]
            assert k * rec.displaced_weight <= (k + 3) * w


def test_frozen_disjoint_heavy_and_light():
    # two disjoint edges of weight 1000 and 1: optimum 1001
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 1000), (1, 1, 1)])
    opt = exact_mwm(inst).value
    assert opt == 1001
    k = 2
    res, tr = run_reduced_mwm(inst, Epsilon(k))
    assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
    assert res.value == 1000
    # (1 + 16 eps) bound: opt <= (1 + 16/k) * value
    assert k * opt <= (k + 16) * res.value
    assert tr.notes["n_copies"] == 2


@pytest.mark.parametrize("seed", range(5))
def test_reduction_bound_memory_engine(seed):
    inst = generate_random(9, 9, 0.4, w_range=(1, 10 ** 6), seed=seed)
    opt = exact_mwm(inst).value
    for k in (4, 8):
        res, _ = run_reduced_mwm(inst, Epsilon(k), audit=True)
        assert check_matching(res.pairs, inst.b_l, inst.b_r, inst.edges)
        assert k * opt <= (k + 16) * res.value


@STREAMED
@pytest.mark.parametrize("seed", range(3))
def test_streaming_engines_match_memory_stream_kernel(schedule, seed, monkeypatch):
    inst = generate_random(8, 8, 0.5, w_range=(1, 10 ** 5), seed=seed)
    k = 4
    str_res, tr = run_reduced_mwm(inst, Epsilon(k), schedule=schedule)
    # no gp run takes the stream kernel, so the in-memory levels get it here
    monkeypatch.setattr(weight_reduction, "run_mwm", lambda sg, eps, kernel, **kw:
                        run_mwm(sg, eps, kernel="stream", **kw))
    mem_res, mem_tr = run_reduced_mwm(inst, Epsilon(k))
    mem, got = mem_tr.notes["detail"], tr.notes["detail"]
    assert str_res.value == mem_res.value
    assert str_res.pairs == mem_res.pairs
    # level by level, a streamed level is the stream kernel's level
    assert got.level_results == mem.level_results
    assert tr.passes >= 1
    assert tr.peak_words > 0


@STREAMED
@pytest.mark.parametrize("kernel", ["rand", "stream"])
def test_streaming_engines_take_only_the_det_kernel(schedule, kernel):
    # stream_mwm runs each streamed level with one kernel and no seed
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    with pytest.raises(ValueError, match="^mwm in gp mode with --gp-schedule "
                                         f"takes the det kernel, not {kernel}$"):
        run_reduced_mwm(inst, Epsilon(2), schedule=schedule, kernel=kernel, seed=3)


def test_sequential_uses_less_space_than_concurrent():
    inst = generate_random(12, 12, 0.4, w_range=(1, 10 ** 6), seed=9)
    k = 4
    _, seq = run_reduced_mwm(inst, Epsilon(k), schedule="sequential")
    _, con = run_reduced_mwm(inst, Epsilon(k), schedule="concurrent")
    assert seq.peak_words <= con.peak_words
    assert con.passes <= seq.passes


def test_equal_weights_collapse_to_single_bucket():
    inst = generate_random(6, 6, 0.5, w_range=(7, 7), seed=2)
    copies = build_partition(inst, Epsilon(2))
    # bucket 0 everywhere: copy 0 drops everything, copy 1 keeps one level
    assert copies[0].levels == ()
    assert len(copies[0].removed) == inst.m
    assert len(copies[1].levels) == 1
    res, _ = run_reduced_mwm(inst, Epsilon(2))
    opt = exact_mwm(inst).value
    assert 2 * opt <= 18 * res.value


def test_rejects_unknown_engine():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    # an unknown schedule, the old name of one, and a kernel no gp run takes
    for schedule, kernel in (("gpu", "det"), ("stream-sequential", "det"),
                             (None, "stream"), (None, "x")):
        with pytest.raises(ValueError) as want:
            check_run("mwm", "gp", kernel, schedule)
        with pytest.raises(ValueError) as got:
            run_reduced_mwm(inst, Epsilon(2), schedule=schedule, kernel=kernel)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("schedule", [None, "sequential"],
                         ids=["memory", "stream-sequential"])
def test_levels_reuse_the_checked_edges(schedule, monkeypatch):
    inst = generate_random(12, 10, 0.4, w_range=(1, 10 ** 6), seed=4)
    eps = Epsilon(4)
    checked = []
    new = BipartiteInstance.__new__

    def counting_new(cls, *args, **kwargs):
        checked.append((args, kwargs))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(BipartiteInstance, "__new__", counting_new)
    res, tr = run_reduced_mwm(inst, eps, schedule=schedule)
    assert checked == []
    # levels built, and checked, the old way give the same run
    monkeypatch.setattr(BipartiteInstance, "_checked_by_reader", classmethod(
        lambda cls, n_l, n_r, edges, b_l, b_r: cls.build(n_l, n_r, edges, b_l, b_r)))
    assert run_reduced_mwm(inst, eps, schedule=schedule) == (res, tr)
    assert len(checked) == tr.notes["n_levels"] > 1


@pytest.mark.parametrize("schedule, kernel", [
    pytest.param(None, "det", id="memory-det"),
    pytest.param(None, "rand", id="memory-rand"),
    pytest.param("sequential", "det", id="stream-sequential-det")])
def test_level_matchings_are_the_matched_level_edges(schedule, kernel):
    for seed in range(5):
        inst = generate_random(16, 14, 0.4, w_range=(1, 10 ** 6), seed=seed)
        eps = Epsilon(4)
        _, tr = run_reduced_mwm(inst, eps, schedule=schedule, kernel=kernel, seed=seed)
        detail = tr.notes["detail"]
        for cp, outcome in zip(detail.partition, detail.outcomes):
            # each level's matched pairs, weighed through an edge table
            expected = {}
            for lg in cp.levels:
                weight_of = {(i, j): w for i, j, w in lg.edges}
                pairs = detail.level_results[(cp.index, lg.level)].pairs
                expected[lg.level] = [(i, j, weight_of[(i, j)]) for i, j in pairs]
            assert outcome.level_matchings == expected
            assert outcome == combine_levels(cp, expected)


@pytest.mark.parametrize("k", [2, 4])
def test_streamed_schedules_fold_the_level_traces(k):
    # sequential: the copies one after another, each copy's levels sharing
    # its passes and its space; concurrent: every level at once
    instances = [generate_random(8, 8, 0.5, w_range=(1, 10 ** 5), seed=seed)
                 for seed in range(20)]
    instances.append(generate_random(6, 6, 0.5, w_range=(7, 7), seed=2))
    for inst in instances:
        eps = Epsilon(k)
        for schedule in GP_SCHEDULES:
            _, tr = run_reduced_mwm(inst, eps, schedule=schedule)
            traces = tr.notes["detail"].level_traces
            if schedule == "sequential":
                groups = [[tr_l for (c, _), tr_l in traces.items() if c == copy]
                          for copy in sorted({c for c, _ in traces})]
            else:
                groups = [list(traces.values())]
            passes = sum(1 + 2 * max((t.passes - 1) // 2 for t in group)
                         for group in groups)
            peak = max(sum(t.peak_words for t in group) for group in groups)
            assert (tr.passes, tr.peak_words) == (passes, peak)
            assert tr.notes["n_levels"] == len(traces)


def test_rand_reduction_reports_no_blackboard():
    # each level's blackboard prices over its own width, so the levels'
    # blackboards are kept per level and not summed into the report
    inst = generate_random(12, 10, 0.4, w_range=(1, 10 ** 6), seed=5)
    eps = Epsilon(4)
    report, code = run_single(inst, algo="mwm", eps=eps, mode="gp", kernel="rand",
                              seed=3, verify=False, audit=False)
    assert code == 0 and report["blackboard"] is None
    _, tr = run_reduced_mwm(inst, eps, kernel="rand", seed=3)
    detail = tr.notes["detail"]
    assert tr.blackboard is None
    assert detail.level_traces
    assert all(t.blackboard is not None for t in detail.level_traces.values())
