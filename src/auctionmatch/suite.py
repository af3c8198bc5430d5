"""Single runs: one engine configuration on one instance.

``RUNS`` lists the supported configurations and ``CONFIGS`` enumerates
them. ``solve`` is the only code that knows how each (algo, mode) calls
its engine: ``run_single``, which backs the CLI ``run`` subcommand, and
the acceptance criteria run every engine through it. It looks engines up
on this module, which imports each through the package on first use, so
that a run loads only the modules its algo and mode need. ``check_run``
and ``check_input`` refuse what no run takes, and ``verdict`` is the one
check a verified run and the acceptance criteria hold a run to.
"""

from __future__ import annotations

import sys
import time

from . import __getattr__ as _exported
from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon, scale_and_prune


def __getattr__(name: str):
    try:
        value = _exported(name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


# Every supported run: (algo, mode) -> the name of its engine on this module,
# and the kernels that engine takes. --gp-schedule streams the levels of a
# gp run under one of GP_SCHEDULES, with the det kernel only.
GP_SCHEDULES = ("sequential", "concurrent")
RUNS = {
    ("mcm", "memory"): ("run_mcm", ("det", "rand")),
    ("mwm", "memory"): ("run_mwm", ("det", "rand", "stream")),
    ("mwm", "stream"): ("stream_mwm", ("det",)),
    ("mwm", "gp"): ("run_reduced_mwm", ("det", "rand")),
    ("mcbm", "memory"): ("run_mcbm", ("det", "stream")),
    ("mcbm", "stream"): ("stream_mcbm", ("det",)),
}
# The same runs, one (algo, mode, kernel, gp_schedule) each: every kernel of
# every (algo, mode), then gp under each schedule.
CONFIGS = tuple(
    [(algo, mode, kernel, None)
     for (algo, mode), (_, kernels) in RUNS.items() for kernel in kernels]
    + [("mwm", "gp", "det", schedule) for schedule in GP_SCHEDULES])


def check_run(algo: str, mode: str, kernel: str,
              gp_schedule: str | None = None) -> str:
    """The name of the engine ``RUNS`` lists for this configuration;
    ``ValueError`` with a one-line reason when it lists none."""
    if (algo, mode) not in RUNS:
        modes = " or ".join(m for a, m in RUNS if a == algo) or "no"
        raise ValueError(f"{algo} runs in {modes} mode, not {mode}")
    name, kernels = RUNS[algo, mode]
    where = f"{mode} mode"
    if gp_schedule is not None:
        if mode != "gp":
            raise ValueError(f"--gp-schedule runs in gp mode only, not {mode}")
        if gp_schedule not in GP_SCHEDULES:
            raise ValueError(f"--gp-schedule is {' or '.join(GP_SCHEDULES)}, "
                             f"not {gp_schedule}")
        where, kernels = "gp mode with --gp-schedule", ("det",)
    if kernel not in kernels:
        raise ValueError(f"{algo} in {where} takes the {' or '.join(kernels)} "
                         f"kernel, not {kernel}")
    return name


def check_input(inst: BipartiteInstance, algo: str, verify: bool) -> None:
    """``ValueError`` with a one-line reason when no run of ``algo`` takes
    ``inst``: a weighted run needs an edge, and under ``verify`` the
    instance must be within the oracles' size limit. The edges come first,
    so that an edgeless instance is refused without importing the oracles."""
    if algo == "mwm" and not inst.edges:
        raise ValueError("the weighted engines need at least one edge")
    if verify:
        sys.modules[__name__].check_oracle_size(inst)


BOUND_NAMES = {
    "mcm": "cardinality-approximation-(1-2eps)",
    "mcbm": "capacitated-approximation-(1-2eps)",
    "mwm-det": "weight-approximation-(1-6eps)",
    "mwm-rand": "weight-approximation-(1-7eps)",
    "mwm-gp": "reduced-weight-approximation-1/(1+16eps)",
}


def _bound_holds(algo: str, mode: str, kernel: str, eps: Epsilon,
                 value: int, opt: int) -> tuple[bool, str]:
    k = eps.k
    if algo in ("mcm", "mcbm"):
        return k * value >= (k - 2) * opt, BOUND_NAMES[algo]
    if mode == "gp":
        return (k + 16) * value >= k * opt, BOUND_NAMES["mwm-gp"]
    if kernel == "rand":
        return k * value >= (k - 7) * opt, BOUND_NAMES["mwm-rand"]
    return k * value >= (k - 6) * opt, BOUND_NAMES["mwm-det"]


def check_matching(pairs, b_l, b_r, edges) -> bool:
    """Whether ``pairs`` is a b-matching of ``edges`` (i, j, w): every pair
    one of them and none repeated, then no vertex used more often than its
    capacity in ``b_l`` or ``b_r``. Edge membership comes first, so that a
    pair out of range fails rather than indexes the capacities."""
    pair_set = set(pairs)
    if (len(pair_set) != len(pairs)
            or pair_set.difference((i, j) for i, j, _ in edges)):
        return False
    bidder_usage = [0] * len(b_l)
    item_usage = [0] * len(b_r)
    for i, j in pairs:
        bidder_usage[i] += 1
        item_usage[j] += 1
    return (all(u <= b for u, b in zip(bidder_usage, b_l))
            and all(u <= b for u, b in zip(item_usage, b_r)))


def verdict(inst: BipartiteInstance, algo: str, mode: str, kernel: str,
            eps: Epsilon, pairs, value: int, opt: int) -> tuple[bool, str]:
    """(ok, property) of a run: ``pairs`` must first be a matching of
    ``inst``'s edges (a b-matching under its capacities for mcbm), as
    property ``valid-matching``, then ``value`` must be their number (their
    weight for mwm), as ``matching-value``, and meet the run's bound in
    ``_bound_holds`` against the optimum ``opt``."""
    caps = ((inst.b_l, inst.b_r) if algo == "mcbm"
            else ((1,) * inst.n_l, (1,) * inst.n_r))
    if not check_matching(pairs, *caps, inst.edges):
        return False, "valid-matching"
    pair_set = set(pairs)
    if value != (sum(w for i, j, w in inst.edges if (i, j) in pair_set)
                 if algo == "mwm" else len(pairs)):
        return False, "matching-value"
    return _bound_holds(algo, mode, kernel, eps, value, opt)


def solve(inst: BipartiteInstance, algo: str, mode: str, kernel: str,
          eps: Epsilon, seed: int = 0, audit: bool = False,
          gp_schedule: str | None = None):
    """(result, trace) of the engine ``RUNS`` lists for (algo, mode) on
    ``inst``, scaled first for mwm in memory mode, streamed in stream mode.
    The engine is looked up on this module, where the first lookup imports
    it and where a caller may have replaced it."""
    this = sys.modules[__name__]
    engine = getattr(this, RUNS[algo, mode][0])
    if mode == "memory":
        graph = scale_and_prune(inst, eps) if algo == "mwm" else inst
        return engine(graph, eps, kernel=kernel, seed=seed, audit=audit)
    if mode == "stream":
        return engine(this.EdgeStream.from_instance(inst), eps, audit=audit)
    return engine(inst, eps, schedule=gp_schedule, kernel=kernel, seed=seed,
                  audit=audit)


def run_single(inst: BipartiteInstance, algo: str, eps: Epsilon, mode: str,
               kernel: str, seed: int, verify: bool, audit: bool,
               gp_schedule: str | None = None) -> tuple[dict, int]:
    """Run one engine configuration and assemble the JSON-ready report.

    Returns (report, exit_code); exit code 1 signals a failed audit or,
    under ``verify``, a failed ``verdict``, per the CLI contract. A
    configuration outside ``RUNS`` raises ``ValueError`` before any
    engine is imported, and an instance ``check_input`` refuses raises
    ``ValueError`` before the oracle or the engine runs.
    """
    name = check_run(algo, mode, kernel, gp_schedule)
    check_input(inst, algo, verify)
    # The engine and the oracle are first looked up, and so imported,
    # before the clock starts, so that wall_time_s times only their runs.
    this = sys.modules[__name__]
    if verify:
        oracle = getattr(this, f"exact_{algo}")
    getattr(this, name)
    # A failed audit leaves every result field None.
    report = {
        "algo": algo,
        "eps": str(eps),
        "instance": {
            "n_l": inst.n_l, "n_r": inst.n_r, "m": inst.m,
            "sum_b_l": inst.sum_b_l, "sum_b_r": inst.sum_b_r,
        },
        "mode": mode,
        "kernel": kernel,
        "seed": seed,
        "rounds": None,
        "passes": None,
        "peak_words": None,
        "blackboard": None,
        "result_value": None,
        "oracle_value": None,
        "ratio": None,
        "audit": None,
        "verify": None,
    }
    t0 = time.perf_counter()
    ok = True
    if verify:
        # Before the engine, so that the two never hold memory at once: a gp
        # run's trace keeps every level of every copy.
        opt = oracle(inst).value

    try:
        res, tr = solve(inst, algo, mode, kernel, eps, seed, audit, gp_schedule)
    except InvariantViolation as exc:
        report["audit"] = {"violated": exc.prop, "detail": str(exc)}
        report["wall_time_s"] = round(time.perf_counter() - t0, 6)
        return report, 1

    if audit:
        report["audit"] = "ok"
    if verify:
        report["oracle_value"] = opt
        ok, prop = verdict(inst, algo, mode, kernel, eps, res.pairs,
                           res.value, opt)
        report["ratio"] = res.value / opt if opt else None
        report["verify"] = {"passed": ok, "property": prop}

    if mode == "stream" or gp_schedule is not None:
        report["passes"] = tr.passes
        report["peak_words"] = tr.peak_words
    if tr.blackboard is not None:
        report["blackboard"] = {
            "rounds": tr.blackboard.rounds,
            "proposal_rounds": tr.blackboard.proposal_rounds,
            "coordination_rounds": tr.blackboard.coordination_rounds,
            "total_bits": tr.blackboard.total_bits,
        }
    report["rounds"] = {"executed": tr.rounds_executed, "budget": tr.round_budget}
    report["result_value"] = res.value
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return report, 0 if ok else 1
