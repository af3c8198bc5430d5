"""The demand audit every engine shares, ``auction.check_demand``.

The bidders (or bidder copies) that demand in a round must be exactly
those live at round-start prices: some neighbour priced below its
valuation. The mutants below break only that contract, so the structural
and happiness audits let them through: a round step that drops a losing
demander from the worklist for good, a margin pass that skips a live
bidder, and a capacitated step that leaves a losing copy's cutoff where
it was.
"""

import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmatch import mcbm, mcm, mwm, streaming
from auctionmatch.auction import check_demand
from auctionmatch.criteria import mcbm_family, mcm_family, mwm_family
from auctionmatch.errors import InvariantViolation
from auctionmatch.graph import BipartiteInstance, Epsilon, scale_and_prune
from auctionmatch.streaming import EdgeStream
from auctionmatch.suite import GP_SCHEDULES, RUNS, run_single


def _outcome(run, *args, **kwargs):
    """The property the run's audit names, or None."""
    try:
        run(*args, **kwargs)
    except InvariantViolation as exc:
        return exc.prop
    return None


def _dropping(step):
    """``step`` that also drops every third demander that won nothing. The
    mcm round, which commits and returns (kept, next worklist, matching),
    drops it from the next worklist too; the mwm steps return (kept,
    matching) and ``run_mwm`` builds that worklist from kept."""
    count = itertools.count(1)

    def dropped(*args):
        out = step(*args)
        kept, got = out[0], out[-1]
        won = {pair[0] for pair in got.pairs}
        still = [i for i in kept if i in won or next(count) % 3]
        if len(out) == 2:
            return still, got
        gone = set(kept).difference(still)
        return still, [i for i in out[1] if i not in gone], got
    return dropped


@pytest.mark.parametrize("engine, kernel, pinned", [
    ("mcm", "det", {3, 6, 12}),
    ("mcm", "rand", {3, 6, 10}),
    ("mwm", "det", {1, 3, 4}),
    ("mwm", "rand", {1, 3, 4}),
    ("mwm", "stream", {7, 8, 14}),
])
def test_drop_mutant_is_caught_on_every_run_it_changes(engine, kernel, pinned,
                                                       monkeypatch):
    # The audits without a demand check let every one of these runs through.
    eps = Epsilon(4)
    if engine == "mcm":
        family, name = mcm_family()[:24], "_round"

        def run(inst, seed, audit):
            return mcm.run_mcm(inst, eps, kernel=kernel, seed=seed, audit=audit)
    else:
        family = mwm_family()[:24]
        name = "_stream_order_matching" if kernel == "stream" else "_phase"

        def run(inst, seed, audit):
            return mwm.run_mwm(scale_and_prune(inst, eps), eps, kernel=kernel,
                               seed=seed, audit=audit)
    module = mcm if engine == "mcm" else mwm
    step = getattr(module, name)
    changed, caught = set(), set()
    for seed, inst in enumerate(family):
        plain = run(inst, seed, False)
        with monkeypatch.context() as m:
            m.setattr(module, name, _dropping(step))
            if run(inst, seed, False) != plain:
                changed.add(seed)
            m.setattr(module, name, _dropping(step))
            prop = _outcome(run, inst, seed, True)
        if prop is not None:
            assert prop == "empty-demand-characterization"
            caught.add(seed)
    assert pinned <= changed <= caught


def _stream_mutant(engine, line, mutant_line, **names):
    """``engine`` of ``streaming`` with one source line replaced, run in a
    copy of the module scope with ``names`` added."""
    source = inspect.getsource(engine)
    assert source.count(line) == 1
    scope = dict(vars(streaming), **names)
    exec(source.replace(line, mutant_line), scope)
    return scope[engine.__name__]


def test_stream_mwm_audit_catches_a_margin_pass_that_skips_a_live_bidder():
    # From the second phase on, the margin pass skips the whole run of
    # bidders 2, 5, 8, ..., so they get no best margin and never bid again
    # however cheap their neighbours are.
    mutant = _stream_mutant(
        streaming.stream_mwm, "if assignment[i] is not None:",
        "if assignment[i] is not None or i % 3 == 2:")
    changed, caught = set(), set()
    for seed, inst in enumerate(mwm_family()[:16]):
        plain = streaming.stream_mwm(EdgeStream.from_instance(inst), Epsilon(4))
        if mutant(EdgeStream.from_instance(inst), Epsilon(4)) != plain:
            changed.add(seed)
        prop = _outcome(mutant, EdgeStream.from_instance(inst), Epsilon(4),
                        audit=True)
        if prop is not None:
            assert prop == "empty-demand-characterization"
            caught.add(seed)
    assert {1, 2, 3} <= changed <= caught


def test_capacitated_audits_catch_a_step_that_under_reports_losing_copies(
        monkeypatch):
    # Every third copy that demanded and won nothing keeps its cutoff, as
    # if it had not demanded; neither engine's cutoff or happiness check
    # sees it.
    det_round = mcbm._det_round

    def under_reported(state, unmatched):
        demanded, pairs = det_round(state, unmatched)
        won = {bc for bc, _ in pairs}
        return [bc for bc in demanded if bc in won or next(every) % 3], pairs

    stream = _stream_mutant(
        streaming.stream_mcbm, "                cutoff[bc] += 1\n",
        "                cutoff[bc] += 1 if next(_every) % 3 else 0\n", _every=None)
    monkeypatch.setattr(mcbm, "_det_round", under_reported)
    for inst in mcbm_family()[:3]:
        every = itertools.count(1)
        assert (_outcome(mcbm.run_mcbm, inst, Epsilon(4), audit=True)
                == "empty-demand-characterization")
        stream.__globals__["_every"] = itertools.count(1)
        assert (_outcome(stream, EdgeStream.from_instance(inst), Epsilon(4),
                         audit=True) == "empty-demand-characterization")


# Every run the package accepts.
_CONFIGS = (
    [(algo, mode, kernel, None)
     for (algo, mode), (_, kernels) in RUNS.items() for kernel in kernels]
    + [("mwm", "gp", "det", schedule) for schedule in GP_SCHEDULES]
)


@st.composite
def _instances(draw):
    """A weighted instance, and its edges at unit weight with capacities
    of 1-3."""
    n_l, n_r = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    w_max = draw(st.sampled_from([1, 9, 10 ** 6]))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n_l - 1), st.integers(0, n_r - 1),
                  st.integers(1, w_max)),
        min_size=1, max_size=3 * (n_l + n_r), unique_by=lambda e: e[:2]))
    b_l = draw(st.lists(st.integers(1, min(3, n_r)), min_size=n_l, max_size=n_l))
    b_r = draw(st.lists(st.integers(1, min(3, n_l)), min_size=n_r, max_size=n_r))
    return (BipartiteInstance.build(n_l, n_r, edges),
            BipartiteInstance.build(n_l, n_r, [(i, j, 1) for i, j, _ in edges],
                                    b_l, b_r))


@settings(max_examples=60, deadline=None)
@given(instances=_instances(), k=st.integers(2, 5), seed=st.integers(0, 10 ** 6))
def test_demand_check_never_fires_on_an_unmutated_run(instances, k, seed):
    calls = []

    def counted(live, demanded):
        calls.append(len(live))
        check_demand(live, demanded)

    with pytest.MonkeyPatch.context() as m:
        # the streamed engines audit through mwm._phase_audit and
        # mcbm._round_audit, so these three modules see every call
        for module in (mcm, mwm, mcbm):
            m.setattr(module, "check_demand", counted)
        for algo, mode, kernel, schedule in _CONFIGS:
            del calls[:]
            report, code = run_single(instances[algo == "mcbm"], algo, Epsilon(k),
                                      mode, kernel, seed, False, True, schedule)
            assert (report["audit"], code) == ("ok", 0), (algo, mode, kernel)
            assert calls, (algo, mode, kernel, schedule)
