"""Acceptance gate: one test per criterion, one status line each.

Each test runs its criterion exactly as the `suite` CLI subcommand does,
prints the same status line, and fails with that line plus the recorded
failure details when the criterion does not hold.
"""

from auctionmatch import criteria


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
