"""Acceptance criteria: instance families, brute-force solvers, runners.

Each criterion function runs one assertable property of the engines over
a deterministic instance family and returns a CriterionOutcome. The CLI
``suite`` subcommand prints one line per outcome and aggregates them into
a JSON summary; the test suite asserts each outcome individually.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache, wraps

from .errors import InvariantViolation
from .graph import BipartiteInstance, Epsilon, generate_random, scale_and_prune
from .mcbm import run_mcbm
from .mcm import run_mcm
from .mwm import run_mwm
from .oracles import exact_mcbm, exact_mcm, exact_mwm
from .streaming import EdgeStream, stream_mcbm, stream_mwm
from .suite import GP_SCHEDULES, RUNS, run_single, verdict
from .weight_reduction import run_reduced_mwm


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


def _cycle_grid(grid, count):
    out = []
    seed = 0
    while len(out) < count:
        for params in grid:
            if len(out) >= count:
                break
            out.append((*params, seed))
        seed += 1
    return out


def _safe_generate(**kwargs):
    try:
        return generate_random(**kwargs)
    except ValueError:
        kwargs["seed"] = kwargs["seed"] + 10_000
        return generate_random(**kwargs)


@lru_cache(maxsize=None)
def mcm_family(count: int = 200) -> tuple[BipartiteInstance, ...]:
    grid = [(n, d) for n in (8, 16, 32) for d in (0.1, 0.3, 0.7)]
    return tuple(
        _safe_generate(n_l=n, n_r=n, density=d, seed=seed)
        for n, d, seed in _cycle_grid(grid, count)
    )


def _skew_weights(inst: BipartiteInstance) -> BipartiteInstance:
    mapping = {1: 1, 2: 10_000}
    return BipartiteInstance.build(
        inst.n_l, inst.n_r, [(i, j, mapping[w]) for i, j, w in inst.edges]
    )


@lru_cache(maxsize=None)
def mwm_family(count: int = 200) -> tuple[BipartiteInstance, ...]:
    grid = [(n, d) for n in (8, 16, 32) for d in (0.1, 0.3, 0.7)]
    uniform = [
        _safe_generate(n_l=n, n_r=n, density=d, w_range=(1, 100), seed=seed)
        for n, d, seed in _cycle_grid(grid, count - count // 2)
    ]
    skewed = [
        _skew_weights(
            _safe_generate(n_l=n, n_r=n, density=d, w_range=(1, 2), seed=1000 + seed)
        )
        for n, d, seed in _cycle_grid(grid, count // 2)
    ]
    return tuple(uniform + skewed)


@lru_cache(maxsize=None)
def mcbm_family(count: int = 100) -> tuple[BipartiteInstance, ...]:
    grid = [(n, d) for n in (6, 12, 24) for d in (0.3, 0.7)]
    return tuple(
        _safe_generate(
            n_l=n, n_r=n, density=d,
            b_l_range=(1, 4), b_r_range=(1, 4), seed=seed,
        )
        for n, d, seed in _cycle_grid(grid, count)
    )


@lru_cache(maxsize=None)
def gp_family(count: int = 50) -> tuple[BipartiteInstance, ...]:
    grid = [(n, d) for n in (8, 16) for d in (0.3, 0.6)]
    return tuple(
        _safe_generate(n_l=n, n_r=n, density=d, w_range=(1, 10 ** 6), seed=seed)
        for n, d, seed in _cycle_grid(grid, count)
    )


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


@_criterion(1, "mcm-approximation")
def criterion_1_mcm_approx():
    failures = []
    ratios = []
    max_rounds = 0
    for idx, inst in enumerate(mcm_family()):
        opt = exact_mcm(inst).value
        for eps in MCM_EPS:
            res, tr = run_mcm(inst, eps)
            failures += _run_failures(f"instance {idx} eps {eps}", inst, "mcm",
                                      "memory", "det", eps, res, tr, opt)
            if opt:
                ratios.append(res.value / opt)
            max_rounds = max(max_rounds, tr.rounds_executed)
    detail = (f"{len(mcm_family())} instances x {len(MCM_EPS)} eps, "
              f"min ratio {min(ratios):.3f}, max rounds {max_rounds}")
    return failures, detail, {"min_ratio": min(ratios),
                              "mean_ratio": sum(ratios) / len(ratios),
                              "max_rounds": max_rounds}


@_criterion(2, "mcm-exactness")
def criterion_2_mcm_exact():
    failures = []
    for idx, inst in enumerate(mcm_family()):
        opt = exact_mcm(inst).value
        eps = Epsilon(inst.n_l + 1)
        res, _ = run_mcm(inst, eps)
        if res.value != opt:
            failures.append(
                f"instance {idx} eps {eps}: size {res.value} != optimum {opt}")
    return failures, f"{len(mcm_family())} instances at eps=1/(n+1)", {}


@_criterion(3, "mwm-approximation")
def criterion_3_mwm_approx():
    failures = []
    ratios = []
    max_phases = det_runs = 0
    family = mwm_family()
    for idx, inst in enumerate(family):
        opt = exact_mwm(inst).value
        for eps in MWM_EPS:
            res, tr = run_mwm(scale_and_prune(inst, eps), eps)
            failures += _run_failures(f"instance {idx} eps {eps}", inst, "mwm",
                                      "memory", "det", eps, res, tr, opt)
            det_runs += 1
            if opt:
                ratios.append(res.value / opt)
            max_phases = max(max_phases, tr.rounds_executed)
    # Randomized kernel: 20 seeded runs across a stratified tenth of the
    # family, each against the weaker (1 - 7*eps) bound.
    run_no = 0
    for idx in range(0, len(family), len(family) // 10):
        inst = family[idx]
        opt = exact_mwm(inst).value
        for eps in MWM_EPS:
            res, tr = run_mwm(scale_and_prune(inst, eps), eps, kernel="rand",
                              seed=run_no)
            failures += _run_failures(f"instance {idx} eps {eps} seed {run_no}",
                                      inst, "mwm", "memory", "rand", eps, res, tr,
                                      opt)
            run_no += 1
    detail = (f"{det_runs} det + {run_no} rand runs, min ratio "
              f"{min(ratios):.3f}, max phases {max_phases}")
    return failures, detail, {"min_ratio": min(ratios),
                              "mean_ratio": sum(ratios) / len(ratios),
                              "max_rounds": max_phases}


@_criterion(4, "mwm-invariant-audit")
def criterion_4_mwm_audit():
    failures = []
    for idx, inst in enumerate(mwm_family()):
        opt = exact_mwm(inst).value
        for eps in MWM_EPS:
            try:
                run_mwm(scale_and_prune(inst, eps), eps, audit=True, optimum=opt)
            except InvariantViolation as exc:
                failures.append(f"instance {idx} eps {eps}: {exc}")
    detail = f"audited every phase of {len(mwm_family())} x {len(MWM_EPS)} runs"
    return failures, detail, {"audit_failures": len(failures)}


@_criterion(5, "mcbm-approximation")
def criterion_5_mcbm():
    failures = []
    ratios = []
    max_rounds = 0
    audit_hits: dict[str, int] = {}
    reopened_runs = 0
    n_runs = 0
    for idx, inst in enumerate(mcbm_family()):
        opt = exact_mcbm(inst).value
        for eps in MCBM_EPS:
            n_runs += 1
            res, tr = run_mcbm(inst, eps)
            failures += _run_failures(f"instance {idx} eps {eps}", inst, "mcbm",
                                      "memory", "det", eps, res, tr, opt)
            if opt:
                ratios.append(res.value / opt)
            max_rounds = max(max_rounds, tr.rounds_executed)
            try:
                _, audit_tr = run_mcbm(inst, eps, audit=True)
            except InvariantViolation as exc:
                audit_hits[exc.prop] = audit_hits.get(exc.prop, 0) + 1
                failures.append(f"instance {idx} eps {eps}: audit: {exc}")
            else:
                if audit_tr.notes["reopened_pairs"]:
                    reopened_runs += 1
    audit_note = (
        "audit clean" if not audit_hits else
        "audit violations: " + ", ".join(
            f"{prop} on {cnt}/{n_runs} runs" for prop, cnt in sorted(audit_hits.items()))
    )
    detail = (f"{len(mcbm_family())} instances x {len(MCBM_EPS)} eps, "
              f"min ratio {min(ratios):.3f}, max rounds {max_rounds}, "
              f"{audit_note}, re-opened pairs on {reopened_runs}/{n_runs} runs")
    return failures, detail, {"min_ratio": min(ratios), "max_rounds": max_rounds,
                              "audit_violations": audit_hits,
                              "reopened_runs": reopened_runs}


@_criterion(6, "weight-reduction")
def criterion_6_weight_reduction():
    failures = []
    ratios = []
    for idx, inst in enumerate(gp_family()):
        opt = exact_mwm(inst).value
        total = sum(w for _, _, w in inst.edges)
        for eps in GP_EPS:
            k = eps.k
            res, tr, detail = run_reduced_mwm(inst, eps, collect_detail=True)
            failures += _run_failures(f"instance {idx} eps {eps}", inst, "mwm",
                                      "gp", "det", eps, res, tr, opt)
            for cp in detail.partition:
                for lg in cp.levels:
                    if lg.w_max >= lg.w_min * k ** (k - 1):
                        failures.append(
                            f"instance {idx} eps {eps} copy {cp.index} level "
                            f"{lg.level}: ratio {lg.w_max}/{lg.w_min} not below "
                            f"k^(C-1)")
            for oc in detail.outcomes:
                for rec in oc.records:
                    w_e = rec.edge[2]
                    if k * (w_e + rec.displaced_weight) > (k + 3) * w_e:
                        failures.append(
                            f"instance {idx} eps {eps} copy {oc.copy_index}: "
                            f"displaced group {rec.displaced_weight} over "
                            f"(1+3eps) x {w_e}")
            removed = sum(cp.removed_weight for cp in detail.partition)
            if removed != total:
                failures.append(
                    f"instance {idx} eps {eps}: removed weights sum {removed} "
                    f"!= total {total}")
            if opt:
                ratios.append(res.value / opt)
    detail_s = (f"{len(gp_family())} instances x {len(GP_EPS)} eps, min ratio "
                f"{min(ratios):.3f}")
    return failures, detail_s, {"min_ratio": min(ratios)}


@_criterion(7, "stream-equivalence")
def criterion_7_stream_equivalence():
    # per algo: its family and eps, the streamed engine and the in-memory
    # engine with the stream kernel it reproduces
    suites = (
        ("mwm", mwm_family(), MWM_EPS, stream_mwm,
         lambda inst, eps: run_mwm(scale_and_prune(inst, eps), eps, kernel="stream")),
        ("mcbm", mcbm_family(), MCBM_EPS, stream_mcbm,
         lambda inst, eps: run_mcbm(inst, eps, kernel="stream")),
    )
    failures = []
    max_passes = 0
    for algo, family, eps_list, stream, memory in suites:
        for idx, inst in enumerate(family):
            for eps in eps_list:
                where = f"{algo} instance {idx} eps {eps}"
                mem, mem_tr = memory(inst, eps)
                got, tr = stream(EdgeStream.from_instance(inst), eps)
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
        _, tr = stream_mwm(EdgeStream.from_instance(inst), eps)
        mwm_peaks.append(tr.peak_words)
    for a, b in zip(mwm_peaks, mwm_peaks[1:]):
        if b > 2.5 * a:
            failures.append(f"mwm peak words jumped {a} -> {b} (> 2.5x)")
    mcbm_ratios = []
    for n in sizes:
        inst = _safe_generate(n_l=n, n_r=n, density=min(1.0, 8 / n),
                              b_l_range=(1, 4), b_r_range=(1, 4), seed=9)
        _, tr = stream_mcbm(EdgeStream.from_instance(inst), eps)
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
            got = exact_mcm(inst).value
            want = brute_force_mcm(inst)
            if got != want:
                failures.append(f"instance {idx}: exact_mcm {got} != brute {want}")
            got_w = exact_mwm(inst).value
            want_w = brute_force_mwm(inst)
            if got_w != want_w:
                failures.append(f"instance {idx}: exact_mwm {got_w} != brute {want_w}")
            got_b = exact_mcbm(inst).value
            if got_b != got:
                failures.append(f"instance {idx}: unit-capacity exact_mcbm "
                                f"{got_b} != exact_mcm {got}")
        else:
            got_b = exact_mcbm(inst).value
            want_b = brute_force_mcbm(inst)
            if got_b != want_b:
                failures.append(f"instance {idx}: exact_mcbm {got_b} != brute {want_b}")
    return failures, f"{len(small_oracle_family())} small instances cross-checked", {}


@_criterion(10, "report-determinism")
def criterion_10_determinism():
    # every (algo, mode, kernel) RUNS lists, then gp under each schedule
    runs = [(algo, mode, kernel, None)
            for (algo, mode), (_, kernels) in RUNS.items() for kernel in kernels]
    runs += [("mwm", "gp", "det", schedule) for schedule in GP_SCHEDULES]
    instances = {"mcm": mcm_family()[10], "mwm": mwm_family()[150],
                 "mcbm": mcbm_family()[3]}
    failures = []
    for algo, mode, kernel, schedule in runs:
        blobs = set()
        for _ in range(2):
            report, code = run_single(
                instances[algo], algo=algo, eps=Epsilon(4), mode=mode,
                kernel=kernel, seed=0, verify=True, audit=False,
                gp_schedule=schedule)
            report.pop("wall_time_s")
            blobs.add(json.dumps(report, sort_keys=True))
        where = f"({algo}, {mode}, {kernel}, {schedule})"
        if code:
            failures.append(f"{where}: {report['verify']['property']} fails")
        if len(blobs) > 1:
            failures.append(f"{where}: reports differ")
    return failures, f"{len(runs)} run configurations repeated", {}


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
