"""Every engine, kernel and gp schedule against the exact oracles.

Small random instances, half of the runs audited; each run must return a
valid matching within its approximation bound and round budget, and the
cardinality auction at eps = 1/(n_l + 1) must be exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmatch.graph import Epsilon, generate_random, scale_and_prune
from auctionmatch.mcbm import run_mcbm
from auctionmatch.mcm import run_mcm
from auctionmatch.mwm import run_mwm
from auctionmatch.oracles import exact_mcbm, exact_mcm, exact_mwm
from auctionmatch.streaming import EdgeStream, stream_mcbm, stream_mwm
from auctionmatch.suite import check_matching
from auctionmatch.weight_reduction import run_reduced_mwm

_cases = st.fixed_dictionaries({
    "n_l": st.integers(1, 8),
    "n_r": st.integers(1, 8),
    "density": st.sampled_from([0.15, 0.3, 0.5, 0.8]),
    "w_max": st.sampled_from([1, 9, 1000, 10 ** 6]),
    "cap": st.integers(1, 3),
    "k": st.sampled_from([2, 3, 4, 8, 16]),
    "seed": st.integers(0, 10 ** 6),
})


def _instances(case):
    """A unit-capacity weighted instance and a capacitated one, or None
    when the draw has no edge."""
    n_l, n_r, density, seed = case["n_l"], case["n_r"], case["density"], case["seed"]
    try:
        unit = generate_random(n_l, n_r, density, (1, case["w_max"]), seed=seed)
        capped = generate_random(n_l, n_r, density, b_l_range=(1, case["cap"]),
                                 b_r_range=(1, case["cap"]), seed=seed)
    except ValueError:
        return None
    return unit, capped


@settings(max_examples=120, deadline=None)
@given(case=_cases)
def test_engines_meet_their_bounds(case):
    got = _instances(case)
    if got is None:
        return
    unit, capped = got
    k, seed = case["k"], case["seed"]
    eps = Epsilon(k)
    audit = seed % 2 == 0

    mcm_opt = exact_mcm(unit).value
    for kernel in ("det", "rand"):
        res, tr = run_mcm(unit, eps, kernel=kernel, seed=seed, audit=audit)
        assert check_matching(res.pairs, unit.b_l, unit.b_r, unit.edges)
        assert tr.rounds_executed <= tr.round_budget
        assert k * res.value >= (k - 2) * mcm_opt, kernel
    res, _ = run_mcm(unit, Epsilon(unit.n_l + 1), seed=seed, audit=audit)
    assert check_matching(res.pairs, unit.b_l, unit.b_r, unit.edges)
    assert res.value == mcm_opt

    mwm_opt = exact_mwm(unit).value
    sg = scale_and_prune(unit, eps)
    weighted = [(kernel, slack, run_mwm(sg, eps, kernel=kernel, seed=seed, audit=audit))
                for kernel, slack in (("det", 6), ("rand", 7), ("stream", 6))]
    weighted.append(("stream mode", 6,
                     stream_mwm(EdgeStream.from_instance(unit), eps, audit=audit)))
    for name, slack, (res, tr) in weighted:
        assert check_matching(res.pairs, unit.b_l, unit.b_r, unit.edges)
        assert tr.rounds_executed <= tr.round_budget
        assert k * res.value >= (k - slack) * mwm_opt, name
    for schedule, kernel in ((None, "det"), (None, "rand"),
                             ("sequential", "det"), ("concurrent", "det")):
        res, tr = run_reduced_mwm(unit, eps, schedule=schedule, kernel=kernel,
                                  seed=seed, audit=audit)
        assert check_matching(res.pairs, unit.b_l, unit.b_r, unit.edges)
        assert tr.rounds_executed <= tr.round_budget
        assert (k + 16) * res.value >= k * mwm_opt, (schedule, kernel)

    mcbm_opt = exact_mcbm(capped).value
    capacitated = [(kernel, run_mcbm(capped, eps, kernel=kernel, audit=audit))
                   for kernel in ("det", "stream")]
    capacitated.append(
        ("stream mode", stream_mcbm(EdgeStream.from_instance(capped), eps, audit=audit)))
    for name, (res, tr) in capacitated:
        assert check_matching(res.pairs, capped.b_l, capped.b_r, capped.edges)
        assert tr.rounds_executed <= tr.round_budget
        assert k * res.value >= (k - 2) * mcbm_opt, name
