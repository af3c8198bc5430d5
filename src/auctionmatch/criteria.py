"""Acceptance criteria: instance families, brute-force solvers, runners.

Each criterion function runs one assertable property of the engines over
a deterministic instance family, running them through ``suite.solve``, and
returns a CriterionOutcome. Criteria 1, 3, 5 and 6 hold every run of
``suite.CONFIGS`` to ``suite.verdict`` and its round budget, each over the
family and eps list of its row in ``BOUNDS``. The CLI ``suite`` subcommand
prints one line per outcome and aggregates them into a JSON summary; the
test suite asserts each outcome individually.
"""

from __future__ import annotations

import itertools
import json
import time
from functools import lru_cache, wraps

from . import suite
from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon, generate_random
from .suite import solve, verdict


class CriterionOutcome:
    def __init__(self, number: int, name: str, passed: bool, detail: str,
                 failures: list[str] | None = None, stats: dict | None = None
                 ) -> None:
        self.number = number
        self.name = name
        self.passed = passed
        self.detail = detail
        self.failures = [] if failures is None else failures
        self.stats = {} if stats is None else stats

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {self.name}: {status} ({self.detail})"


# ---------------------------------------------------------------------------
# Instance families. All deterministic: grids cycled with increasing seeds.
# ---------------------------------------------------------------------------


def _safe_generate(**kwargs):
    try:
        return generate_random(**kwargs)
    except ValueError:
        kwargs["seed"] = kwargs["seed"] + 10_000
        return generate_random(**kwargs)


def _grid_family(sizes, densities, count, first_seed=0, **kwargs):
    """``count`` square instances, cycling through sizes x densities with
    the seed one higher on each cycle."""
    grid = [(n, d) for n in sizes for d in densities]
    return tuple(
        _safe_generate(n_l=n, n_r=n, density=d, seed=first_seed + k // len(grid),
                       **kwargs)
        for k, (n, d) in zip(range(count), itertools.cycle(grid)))


@lru_cache(maxsize=None)
def mcm_family(count: int = 200) -> tuple[BipartiteInstance, ...]:
    return _grid_family((8, 16, 32), (0.1, 0.3, 0.7), count)


def _skew_weights(inst: BipartiteInstance) -> BipartiteInstance:
    mapping = {1: 1, 2: 10_000}
    return BipartiteInstance.build(
        inst.n_l, inst.n_r, [(i, j, mapping[w]) for i, j, w in inst.edges]
    )


@lru_cache(maxsize=None)
def mwm_family(count: int = 200) -> tuple[BipartiteInstance, ...]:
    uniform = _grid_family((8, 16, 32), (0.1, 0.3, 0.7), count - count // 2,
                           w_range=(1, 100))
    skewed = _grid_family((8, 16, 32), (0.1, 0.3, 0.7), count // 2, 1000,
                          w_range=(1, 2))
    return uniform + tuple(map(_skew_weights, skewed))


@lru_cache(maxsize=None)
def mcbm_family(count: int = 100) -> tuple[BipartiteInstance, ...]:
    return _grid_family((6, 12, 24), (0.3, 0.7), count,
                        b_l_range=(1, 4), b_r_range=(1, 4))


@lru_cache(maxsize=None)
def gp_family(count: int = 50) -> tuple[BipartiteInstance, ...]:
    return _grid_family((8, 16), (0.3, 0.6), count, w_range=(1, 10 ** 6))


@lru_cache(maxsize=None)
def small_oracle_family() -> tuple[BipartiteInstance, ...]:
    """Instances at most 8+8 for brute-force cross-checks (6+6 when
    capacitated, to keep enumeration over residual capacities feasible)."""
    out = []
    for seed in range(12):
        for n_l, n_r, d in ((3, 3, 0.6), (5, 4, 0.5), (8, 8, 0.3), (8, 8, 0.8)):
            out.append(_safe_generate(n_l=n_l, n_r=n_r, density=d, seed=seed))
            out.append(_safe_generate(
                n_l=n_l, n_r=n_r, density=d, w_range=(1, 100), seed=100 + seed))
        for n_l, n_r, d in ((4, 4, 0.6), (6, 6, 0.5)):
            out.append(_safe_generate(
                n_l=n_l, n_r=n_r, density=d,
                b_l_range=(1, 3), b_r_range=(1, 3), seed=200 + seed))
    out.append(BipartiteInstance.build(1, 1, [(0, 0, 1)]))
    out.append(BipartiteInstance.build(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Brute-force oracles for criterion 9.
# ---------------------------------------------------------------------------


def brute_force_mwm(inst: BipartiteInstance) -> int:
    """Bitmask DP over items; handles the unweighted case as weight 1."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n_l)]
    for i, j, w in inst.edges:
        adj[i].append((j, w))
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == inst.n_l:
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        val = best(i + 1, used)
        for j, w in adj[i]:
            if not used & (1 << j):
                val = max(val, w + best(i + 1, used | (1 << j)))
        memo[key] = val
        return val

    return best(0, 0)


def brute_force_mcm(inst: BipartiteInstance) -> int:
    unit = BipartiteInstance.build(
        inst.n_l, inst.n_r, [(i, j, 1) for i, j, _ in inst.edges])
    return brute_force_mwm(unit)


def brute_force_mcbm(inst: BipartiteInstance) -> int:
    """Enumerate per-bidder neighbor subsets against residual item caps."""
    adj: list[list[int]] = [[] for _ in range(inst.n_l)]
    for i, j, _ in inst.edges:
        adj[i].append(j)
    for nbrs in adj:
        nbrs.sort()
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(i: int, caps: tuple[int, ...]) -> int:
        if i == inst.n_l:
            return 0
        key = (i, caps)
        if key in memo:
            return memo[key]
        nbrs = adj[i]
        val = 0
        for mask in range(1 << len(nbrs)):
            chosen = [nbrs[t] for t in range(len(nbrs)) if mask & (1 << t)]
            if len(chosen) > inst.b_l[i]:
                continue
            if any(caps[j] == 0 for j in chosen):
                continue
            nxt = list(caps)
            for j in chosen:
                nxt[j] -= 1
            val = max(val, len(chosen) + best(i + 1, tuple(nxt)))
        memo[key] = val
        return val

    return best(0, tuple(inst.b_r))


# ---------------------------------------------------------------------------
# Criterion runners.
# ---------------------------------------------------------------------------

MCM_EPS = (Epsilon(2), Epsilon(4), Epsilon(8))
MWM_EPS = (Epsilon(8), Epsilon(16))
MCBM_EPS = (Epsilon(4), Epsilon(8))
GP_EPS = (Epsilon(4), Epsilon(8))


def _criterion(number: int, name: str):
    """Make a criterion body, which returns (failures, detail, stats), into
    a criterion: the body is timed, its detail ends with the elapsed
    seconds, which ``stats["elapsed_s"]`` keeps, and the outcome keeps the
    first 20 failures."""
    def wrap(body):
        @wraps(body)
        def criterion() -> CriterionOutcome:
            t0 = time.perf_counter()
            failures, detail, stats = body()
            stats["elapsed_s"] = elapsed = time.perf_counter() - t0
            return CriterionOutcome(number, name, not failures,
                                    f"{detail}, {elapsed:.1f}s", failures[:20], stats)
        return criterion
    return wrap


def _run_failures(where: str, inst: BipartiteInstance, algo: str, mode: str,
                  kernel: str, eps: Epsilon, res, tr, opt: int) -> list[str]:
    """The failures of one run, named by ``where``: its ``verdict`` against
    the optimum ``opt``, and its round budget."""
    ok, prop = verdict(inst, algo, mode, kernel, eps, res.pairs, res.value, opt)
    failures = [] if ok else [f"{where}: {prop} fails: value {res.value}, optimum {opt}"]
    if tr.rounds_executed > tr.round_budget:
        failures.append(f"{where}: rounds {tr.rounds_executed} "
                        f"over budget {tr.round_budget}")
    return failures


# The bound table: every run of ``suite.CONFIGS`` -> (the criterion that
# bounds it, its instance family, its eps list).
BOUNDS = {
    ("mcm", "memory", "det", None): (1, mcm_family, MCM_EPS),
    ("mcm", "memory", "rand", None): (1, mcm_family, MCM_EPS),
    ("mwm", "memory", "det", None): (3, mwm_family, MWM_EPS),
    ("mwm", "memory", "rand", None): (3, mwm_family, MWM_EPS),
    ("mwm", "memory", "stream", None): (3, mwm_family, MWM_EPS),
    ("mwm", "stream", "det", None): (3, mwm_family, MWM_EPS),
    ("mcbm", "memory", "det", None): (5, mcbm_family, MCBM_EPS),
    ("mcbm", "memory", "stream", None): (5, mcbm_family, MCBM_EPS),
    ("mcbm", "stream", "det", None): (5, mcbm_family, MCBM_EPS),
    ("mwm", "gp", "det", None): (6, gp_family, GP_EPS),
    ("mwm", "gp", "rand", None): (6, gp_family, GP_EPS),
    ("mwm", "gp", "det", "sequential"): (6, gp_family, GP_EPS),
    ("mwm", "gp", "det", "concurrent"): (6, gp_family, GP_EPS),
}


def _name(run) -> str:
    return f"({', '.join(map(str, run))})"


def _bound_runs(number: int, extra=None):
    """The body of bound criterion ``number``: every run ``BOUNDS`` gives
    it, on each instance of its family at each eps of its list, held to
    ``_run_failures`` and, when given, to ``extra(run, where, inst, eps,
    trace)``, which returns the run's further failures. Each run is seeded
    with the number of runs before it, so rand runs vary run by run."""
    failures, ratios = [], []
    n_runs = max_rounds = 0
    rows = [(run, family, eps_list)
            for run, (crit, family, eps_list) in BOUNDS.items() if crit == number]
    for run, family, eps_list in rows:
        algo, mode, kernel, schedule = run
        oracle = getattr(suite, f"exact_{algo}")
        for idx, inst in enumerate(family()):
            opt = oracle(inst).value
            for eps in eps_list:
                where = f"{_name(run)} instance {idx} eps {eps}"
                if kernel == "rand":
                    where += f" seed {n_runs}"
                res, tr = solve(inst, algo, mode, kernel, eps, seed=n_runs,
                                gp_schedule=schedule)
                n_runs += 1
                failures += _run_failures(where, inst, algo, mode, kernel, eps,
                                          res, tr, opt)
                if extra is not None:
                    failures += extra(run, where, inst, eps, tr)
                if opt:
                    ratios.append(res.value / opt)
                max_rounds = max(max_rounds, tr.rounds_executed)
    detail = (f"{len(rows)} configurations, {n_runs} runs, min ratio "
              f"{min(ratios):.3f}, max rounds {max_rounds}")
    return failures, detail, {"min_ratio": min(ratios),
                              "mean_ratio": sum(ratios) / len(ratios),
                              "max_rounds": max_rounds}


@_criterion(1, "mcm-approximation")
def criterion_1_mcm_approx():
    return _bound_runs(1)


@_criterion(2, "mcm-exactness")
def criterion_2_mcm_exact():
    failures = []
    for idx, inst in enumerate(mcm_family()):
        opt = suite.exact_mcm(inst).value
        eps = Epsilon(inst.n_l + 1)
        res, _ = solve(inst, "mcm", "memory", "det", eps)
        if res.value != opt:
            failures.append(
                f"instance {idx} eps {eps}: size {res.value} != optimum {opt}")
    return failures, f"{len(mcm_family())} instances at eps=1/(n+1)", {}


@_criterion(3, "mwm-approximation")
def criterion_3_mwm_approx():
    return _bound_runs(3)


@_criterion(4, "mwm-invariant-audit")
def criterion_4_mwm_audit():
    failures = []
    for idx, inst in enumerate(mwm_family()):
        opt = suite.exact_mwm(inst).value
        for eps in MWM_EPS:
            try:
                suite.run_mwm(suite.scale_and_prune(inst, eps), eps, audit=True,
                              optimum=opt)
            except InvariantViolation as exc:
                failures.append(f"instance {idx} eps {eps}: {exc}")
    detail = f"audited every phase of {len(mwm_family())} x {len(MWM_EPS)} runs"
    return failures, detail, {"audit_failures": len(failures)}


@_criterion(5, "mcbm-approximation")
def criterion_5_mcbm():
    # Each det run is repeated under the audit.
    audit_hits: dict[str, int] = {}
    reopened: list[bool] = []

    def audited(run, where, inst, eps, _):
        if run != ("mcbm", "memory", "det", None):
            return []
        try:
            _, audit_tr = solve(inst, "mcbm", "memory", "det", eps, audit=True)
        except InvariantViolation as exc:
            audit_hits[exc.prop] = audit_hits.get(exc.prop, 0) + 1
            return [f"{where}: audit: {exc}"]
        reopened.append(audit_tr.notes["reopened_pairs"] > 0)
        return []

    failures, detail, stats = _bound_runs(5, audited)
    n_audited = len(reopened) + sum(audit_hits.values())
    audit_note = (
        "audit clean" if not audit_hits else
        "audit violations: " + ", ".join(
            f"{prop} on {cnt}/{n_audited} runs"
            for prop, cnt in sorted(audit_hits.items())))
    detail += (f", {audit_note}, re-opened pairs on "
               f"{sum(reopened)}/{n_audited} det runs")
    stats.update(audit_violations=audit_hits, reopened_runs=sum(reopened),
                 audit_failures=sum(audit_hits.values()))
    return failures, detail, stats


@_criterion(6, "weight-reduction")
def criterion_6_weight_reduction():
    def reduction_failures(run, where, inst, eps, tr):
        k = eps.k
        detail = tr.notes["detail"]
        failures = []
        for cp in detail.partition:
            for lg in cp.levels:
                if lg.w_max >= lg.w_min * k ** (k - 1):
                    failures.append(
                        f"{where} copy {cp.index} level {lg.level}: ratio "
                        f"{lg.w_max}/{lg.w_min} not below k^(C-1)")
        for oc in detail.outcomes:
            for rec in oc.records:
                w_e = rec.edge[2]
                if k * (w_e + rec.displaced_weight) > (k + 3) * w_e:
                    failures.append(
                        f"{where} copy {oc.copy_index}: displaced group "
                        f"{rec.displaced_weight} over (1+3eps) x {w_e}")
        removed = sum(cp.removed_weight for cp in detail.partition)
        total = sum(w for _, _, w in inst.edges)
        if removed != total:
            failures.append(
                f"{where}: removed weights sum {removed} != total {total}")
        return failures

    return _bound_runs(6, reduction_failures)


@_criterion(7, "stream-equivalence")
def criterion_7_stream_equivalence():
    # per algo, its family and eps: the streamed engine must reproduce the
    # in-memory engine under the stream kernel
    failures = []
    max_passes = 0
    for algo, family, eps_list in (("mwm", mwm_family(), MWM_EPS),
                                   ("mcbm", mcbm_family(), MCBM_EPS)):
        for idx, inst in enumerate(family):
            for eps in eps_list:
                where = f"{algo} instance {idx} eps {eps}"
                mem, mem_tr = solve(inst, algo, "memory", "stream", eps)
                got, tr = solve(inst, algo, "stream", "det", eps)
                differ = [name for name, a, b in zip(got._fields, got, mem) if a != b]
                if tr.rounds_executed != mem_tr.rounds_executed:
                    differ.append("rounds_executed")
                if differ:
                    failures.append(f"{where}: streamed {', '.join(differ)} "
                                    f"differ from in-memory")
                if tr.passes != 1 + 2 * tr.rounds_executed:
                    failures.append(f"{where}: passes {tr.passes} != "
                                    f"1+2x{tr.rounds_executed}")
                if tr.passes > 1 + 2 * tr.round_budget:
                    failures.append(f"{where}: passes {tr.passes} over "
                                    f"1+2x{tr.round_budget}")
                max_passes = max(max_passes, tr.passes)
    detail = f"mwm+mcbm suites streamed, max passes {max_passes}"
    return failures, detail, {"max_passes": max_passes}


@_criterion(8, "space-growth")
def criterion_8_space_growth():
    failures = []
    eps = Epsilon(8)
    sizes = (256, 512, 1024, 2048)
    mwm_peaks = []
    for n in sizes:
        inst = _safe_generate(n_l=n, n_r=n, density=min(1.0, 16 / n),
                              w_range=(1, 100), seed=8)
        _, tr = solve(inst, "mwm", "stream", "det", eps)
        mwm_peaks.append(tr.peak_words)
    for a, b in zip(mwm_peaks, mwm_peaks[1:]):
        if b > 2.5 * a:
            failures.append(f"mwm peak words jumped {a} -> {b} (> 2.5x)")
    mcbm_ratios = []
    for n in sizes:
        inst = _safe_generate(n_l=n, n_r=n, density=min(1.0, 8 / n),
                              b_l_range=(1, 4), b_r_range=(1, 4), seed=9)
        _, tr = solve(inst, "mcbm", "stream", "det", eps)
        mcbm_ratios.append(tr.peak_words / (inst.sum_b_l + inst.n_r))
    if max(mcbm_ratios) > 2 * min(mcbm_ratios):
        failures.append(
            f"mcbm peak/(sum b + n_r) varied {min(mcbm_ratios):.2f}.."
            f"{max(mcbm_ratios):.2f} (> 2x)")
    detail = (f"n in {sizes}: mwm peaks {mwm_peaks}, mcbm ratios "
              f"{[round(r, 2) for r in mcbm_ratios]}")
    return failures, detail, {"mwm_peaks": mwm_peaks, "mcbm_ratios": mcbm_ratios}


@_criterion(9, "oracle-consistency")
def criterion_9_oracle_consistency():
    failures = []
    for idx, inst in enumerate(small_oracle_family()):
        if inst.unit_capacities():
            got = suite.exact_mcm(inst).value
            want = brute_force_mcm(inst)
            if got != want:
                failures.append(f"instance {idx}: exact_mcm {got} != brute {want}")
            got_w = suite.exact_mwm(inst).value
            want_w = brute_force_mwm(inst)
            if got_w != want_w:
                failures.append(f"instance {idx}: exact_mwm {got_w} != brute {want_w}")
            got_b = suite.exact_mcbm(inst).value
            if got_b != got:
                failures.append(f"instance {idx}: unit-capacity exact_mcbm "
                                f"{got_b} != exact_mcm {got}")
        else:
            got_b = suite.exact_mcbm(inst).value
            want_b = brute_force_mcbm(inst)
            if got_b != want_b:
                failures.append(f"instance {idx}: exact_mcbm {got_b} != brute {want_b}")
    return failures, f"{len(small_oracle_family())} small instances cross-checked", {}


@_criterion(10, "report-determinism")
def criterion_10_determinism():
    # every supported run, which must also have a row in the bound table
    instances = {"mcm": mcm_family()[10], "mwm": mwm_family()[150],
                 "mcbm": mcbm_family()[3]}
    failures = []
    for run in suite.CONFIGS:
        algo, mode, kernel, schedule = run
        if run not in BOUNDS:
            failures.append(f"{_name(run)}: no row in the bound table")
        blobs = set()
        for _ in range(2):
            report, code = suite.run_single(
                instances[algo], algo=algo, eps=Epsilon(4), mode=mode,
                kernel=kernel, seed=0, verify=True, audit=False,
                gp_schedule=schedule)
            report.pop("wall_time_s")
            blobs.add(json.dumps(report, sort_keys=True))
        if code:
            failures.append(f"{_name(run)}: {report['verify']['property']} fails")
        if len(blobs) > 1:
            failures.append(f"{_name(run)}: reports differ")
    return failures, f"{len(suite.CONFIGS)} run configurations repeated", {}


ALL_CRITERIA = (
    criterion_1_mcm_approx,
    criterion_2_mcm_exact,
    criterion_3_mwm_approx,
    criterion_4_mwm_audit,
    criterion_5_mcbm,
    criterion_6_weight_reduction,
    criterion_7_stream_equivalence,
    criterion_8_space_growth,
    criterion_9_oracle_consistency,
    criterion_10_determinism,
)


def run_criteria(numbers=None) -> list[CriterionOutcome]:
    """Run the criteria ``numbers`` lists, or all ten when it is None."""
    return [fn() for idx, fn in enumerate(ALL_CRITERIA, start=1)
            if numbers is None or idx in numbers]


def aggregate_report(outcomes: list[CriterionOutcome]) -> dict:
    ratios, means, rounds, passes = (
        [oc.stats[key] for oc in outcomes if key in oc.stats]
        for key in ("min_ratio", "mean_ratio", "max_rounds", "max_passes"))
    audit_failures = sum(oc.stats.get("audit_failures", 0) for oc in outcomes)
    return {
        "all_passed": all(oc.passed for oc in outcomes),
        "criteria": [
            {"number": oc.number, "name": oc.name, "passed": oc.passed,
             "detail": oc.detail, "failures": oc.failures,
             "elapsed_s": oc.stats.get("elapsed_s")}
            for oc in outcomes
        ],
        "min_ratio": min(ratios) if ratios else None,
        "mean_ratio": (sum(means) / len(means)) if means else None,
        "max_rounds": max(rounds) if rounds else None,
        "max_passes": max(passes) if passes else None,
        "audit_failures": audit_failures,
    }
