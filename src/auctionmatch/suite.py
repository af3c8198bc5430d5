"""Single-run reports: one engine configuration on one instance.

``run_single`` backs the CLI ``run`` subcommand and criterion 10; both
accept the configurations ``RUNS`` lists and no other. It imports an
engine, and the exact oracle under ``verify``, on first use, so that a
run loads only the modules its algo and mode need. ``verdict`` is the
one check a verified run and the acceptance criteria hold a run to.
"""

from __future__ import annotations

import importlib
import sys
import time

from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon, scale_and_prune

# Lazily imported name -> the module that defines it.
_LAZY = {
    "run_mcm": "mcm",
    "run_mwm": "mwm",
    "run_mcbm": "mcbm",
    "run_reduced_mwm": "weight_reduction",
    "EdgeStream": "streaming",
    "stream_mwm": "streaming",
    "stream_mcbm": "streaming",
    "exact_mcm": "oracles",
    "exact_mwm": "oracles",
    "exact_mcbm": "oracles",
    "check_oracle_size": "oracles",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
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


def run_single(inst: BipartiteInstance, algo: str, eps: Epsilon, mode: str,
               kernel: str, seed: int, verify: bool, audit: bool,
               gp_schedule: str | None = None) -> tuple[dict, int]:
    """Run one engine configuration and assemble the JSON-ready report.

    Returns (report, exit_code); exit code 1 signals a failed audit or,
    under ``verify``, a failed ``verdict``, per the CLI contract. A
    configuration outside ``RUNS`` raises ``ValueError`` before any
    engine is imported, and under ``verify`` an instance beyond the
    oracles' size limit raises ``ValueError`` before the engine runs.
    """
    name = check_run(algo, mode, kernel, gp_schedule)
    # Engines and oracles are looked up on the module, where the first
    # lookup imports them and where a caller may have replaced them, and
    # before the clock starts, so that wall_time_s times only their runs.
    this = sys.modules[__name__]
    oracle = None
    if verify:
        this.check_oracle_size(inst)
        oracle = getattr(this, f"exact_{algo}")
    solve = getattr(this, name)
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

    try:
        if mode == "memory":
            graph = scale_and_prune(inst, eps) if algo == "mwm" else inst
            res, tr = solve(graph, eps, kernel=kernel, seed=seed, audit=audit)
        elif mode == "stream":
            res, tr = solve(this.EdgeStream.from_instance(inst), eps, audit=audit)
        else:
            engine = "memory" if gp_schedule is None else f"stream-{gp_schedule}"
            res, tr = solve(inst, eps, engine=engine, kernel=kernel, seed=seed,
                            audit=audit)
    except InvariantViolation as exc:
        report["audit"] = {"violated": exc.prop, "detail": str(exc)}
        report["wall_time_s"] = round(time.perf_counter() - t0, 6)
        return report, 1

    if audit:
        report["audit"] = "ok"
    if verify:
        report["oracle_value"] = opt = oracle(inst).value
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
