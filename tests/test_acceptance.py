"""Acceptance gate: one test per criterion, one status line each.

Each test runs its criterion exactly as the `suite` CLI subcommand does,
prints the same status line, and fails with that line plus the recorded
failure details when the criterion does not hold. The last tests break
a run on purpose and check that its criterion reports it.
"""

from types import SimpleNamespace

from auctionmatch import criteria, suite
from auctionmatch.errors import InvariantViolation
from auctionmatch.suite import BOUND_NAMES


def _check(outcome):
    print(outcome.line())
    detail = "\n".join([outcome.line(), *(f"  - {f}" for f in outcome.failures)])
    assert outcome.passed, detail


def test_criterion_01_cardinality_approximation():
    _check(criteria.criterion_1_mcm_approx())


def test_criterion_02_cardinality_exactness_at_fine_eps():
    _check(criteria.criterion_2_mcm_exact())


def test_criterion_03_weight_approximation():
    _check(criteria.criterion_3_mwm_approx())


def test_criterion_04_weighted_audit_clean():
    _check(criteria.criterion_4_mwm_audit())


def test_criterion_05_capacitated_bound_and_audit():
    # Every run is audited: structural invariants, and happiness of each
    # matched copy against the items it was eligible for when it bid.
    # Items re-opened later, by a sibling eviction or a cutoff crossing,
    # are counted in the detail, not failed. See the README section on
    # the capacitated happiness check.
    _check(criteria.criterion_5_mcbm())


def test_criterion_06_weight_range_reduction():
    _check(criteria.criterion_6_weight_reduction())


def test_criterion_07_stream_equivalence_and_passes():
    _check(criteria.criterion_7_stream_equivalence())


def test_criterion_08_space_growth():
    _check(criteria.criterion_8_space_growth())


def test_criterion_09_oracle_consistency():
    _check(criteria.criterion_9_oracle_consistency())


def test_criterion_10_determinism():
    _check(criteria.criterion_10_determinism())


def test_broken_bound_names_its_property(monkeypatch):
    # twice the optimum plus two breaks (1 - 2 eps) at eps = 1/4 and 1/8
    exact = suite.exact_mcm
    monkeypatch.setattr(suite, "exact_mcm",
                        lambda inst: SimpleNamespace(value=2 * exact(inst).value + 2))
    outcome = criteria.criterion_1_mcm_approx()
    assert not outcome.passed
    assert outcome.failures
    assert all(f": {BOUND_NAMES['mcm']} fails: value " in f for f in outcome.failures)


def test_criterion_1_flags_a_value_its_pairs_do_not_have(monkeypatch):
    # one more than the pairs' cardinality meets the bound, so only the
    # value check can catch it
    real = suite.run_mcm

    def inflated(inst, eps, **kwargs):
        res, tr = real(inst, eps, **kwargs)
        return res._replace(value=res.value + 1), tr

    monkeypatch.setattr(suite, "run_mcm", inflated)
    outcome = criteria.criterion_1_mcm_approx()
    assert not outcome.passed
    assert outcome.failures
    assert all(": matching-value fails: value " in f for f in outcome.failures)


def test_criterion_3_flags_an_invalid_rand_matching(monkeypatch):
    # a randomized run that repeats a pair keeps its value, so only the
    # validity check can catch it
    real = suite.run_mwm

    def repeating(sg, eps, kernel="det", seed=0, **kwargs):
        res, tr = real(sg, eps, kernel=kernel, seed=seed, **kwargs)
        if kernel == "rand":
            res = res._replace(pairs=res.pairs + res.pairs[:1])
        return res, tr

    monkeypatch.setattr(suite, "run_mwm", repeating)
    outcome = criteria.criterion_3_mwm_approx()
    assert not outcome.passed
    assert len(outcome.failures) == 20
    assert all(" seed " in f and ": valid-matching fails: " in f
               for f in outcome.failures)


def test_criterion_10_verifies_every_run_twice(monkeypatch):
    # the 13 runs of suite.RUNS and the gp schedules, each run twice; an
    # optimum of 10^6 fails the three mcbm runs' verdicts
    seen = []
    real = suite.run_single

    def recording(inst, **kwargs):
        seen.append(tuple(kwargs[key] for key in
                          ("algo", "mode", "kernel", "gp_schedule")))
        return real(inst, **kwargs)

    monkeypatch.setattr(suite, "run_single", recording)
    monkeypatch.setattr(suite, "exact_mcbm",
                        lambda inst: SimpleNamespace(value=10 ** 6))
    outcome = criteria.criterion_10_determinism()
    assert len(seen) == 26 and len(set(seen)) == 13
    assert all(seen.count(config) == 2 for config in seen)
    assert sorted(outcome.failures) == [
        f"(mcbm, {mode}, {kernel}, None): {BOUND_NAMES['mcbm']} fails"
        for mode, kernel in (("memory", "det"), ("memory", "stream"),
                             ("stream", "det"))]


def test_criterion_7_compares_whole_results(monkeypatch):
    # a streamed run with the in-memory value but its pairs in another
    # order; a check of values alone passes it
    real = suite.stream_mwm

    def reordered(stream, eps, audit=False):
        res, tr = real(stream, eps, audit=audit)
        return res._replace(pairs=res.pairs[::-1]), tr

    monkeypatch.setattr(suite, "stream_mwm", reordered)
    outcome = criteria.criterion_7_stream_equivalence()
    assert not outcome.passed
    assert all(f.startswith("mwm instance ")
               and f.endswith(": streamed pairs differ from in-memory")
               for f in outcome.failures)


def test_a_run_without_a_bound_row_fails_the_suite(monkeypatch):
    # as if mwm in stream mode took the rand kernel too: stream_mwm takes no
    # kernel, so the run meets its bound and only its missing row fails
    extra = ("mwm", "stream", "rand", None)
    monkeypatch.setitem(suite.RUNS, ("mwm", "stream"), ("stream_mwm", ("det", "rand")))
    monkeypatch.setattr(suite, "CONFIGS", suite.CONFIGS + (extra,))
    outcomes = criteria.run_criteria([10])
    assert not criteria.aggregate_report(outcomes)["all_passed"]
    assert outcomes[0].failures == [
        "(mwm, stream, rand, None): no row in the bound table"]


def test_criterion_5_bounds_the_streamed_engine(monkeypatch):
    # an empty matching is valid and has its value, so only the bound can
    # catch it
    real = suite.stream_mcbm

    def emptied(stream, eps, audit=False):
        res, tr = real(stream, eps, audit=audit)
        return res._replace(pairs=(), value=0), tr

    monkeypatch.setattr(suite, "stream_mcbm", emptied)
    outcome = criteria.criterion_5_mcbm()
    assert not outcome.passed
    assert len(outcome.failures) == 20
    assert all(f.startswith("(mcbm, stream, det, None) instance ")
               and f": {BOUND_NAMES['mcbm']} fails: value 0, " in f
               for f in outcome.failures)


def test_criterion_5_audit_violations_reach_the_aggregate(monkeypatch):
    # every det run is repeated under the audit; each failed audit counts
    real = suite.run_mcbm

    def failing(inst, eps, audit=False, **kwargs):
        if audit:
            raise InvariantViolation("demo-prop", "raised on every audited run")
        return real(inst, eps, audit=audit, **kwargs)

    monkeypatch.setattr(suite, "run_mcbm", failing)
    outcome = criteria.criterion_5_mcbm()
    assert not outcome.passed
    assert outcome.stats["audit_violations"] == {"demo-prop": 200}
    assert outcome.stats["audit_failures"] == 200
    assert criteria.aggregate_report([outcome])["audit_failures"] == 200


def test_criterion_6_bounds_the_rand_kernel(monkeypatch):
    # as above, for the reduction's runs under the rand kernel only
    real = suite.run_reduced_mwm

    def emptied(inst, eps, kernel="det", **kwargs):
        res, tr = real(inst, eps, kernel=kernel, **kwargs)
        if kernel == "rand":
            res = res._replace(pairs=(), value=0)
        return res, tr

    monkeypatch.setattr(suite, "run_reduced_mwm", emptied)
    outcome = criteria.criterion_6_weight_reduction()
    assert not outcome.passed
    assert len(outcome.failures) == 20
    assert all(f.startswith("(mwm, gp, rand, None) instance ") and " seed " in f
               and f": {BOUND_NAMES['mwm-gp']} fails: value 0, " in f
               for f in outcome.failures)
