"""End-to-end benchmark of ``auctionmatch run``.

    python3 bench/run.py --workload memory-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload's instances are generated
from ``--seed`` and written as files; each job is then one
``python -m auctionmatch.cli run <file> ...`` child process, one at a
time (a closed loop with one client), timed from spawn to exit with its
peak RSS taken from ``wait4``. After every job, this process times the
fixed task of ``reftask.py`` for a share of the job's time, and the
jobs' wall time is reported in units of the task's mean time. Passes
over the job list repeat while at least half of another fits in
``--seconds``. Every report is checked against an independent optimum
before any metric counts.

With ``--trace 1`` the run calls the CLI in this process instead, once
per job without spans and once with spans around the package's public
functions, and reports per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, generate, instance_plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up runs SETUP_PER_PASS times after every timed pass, and at least
# SETUP_REPEATS times in all; setup_s is the median.
SETUP_PER_PASS = 1
SETUP_REPEATS = 7
# After every job the reference task runs for this share of the job's time.
REF_SHARE = 0.15
# Numeric thread pools are capped in this process and in every child, so a
# run uses no more threads than the two CPUs it was tuned on. The caps must
# be set before numpy loads, which is why reference and tracer (both use
# numpy) are imported inside the functions that need them.
THREAD_CAPS = {name: "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# (name, unit) of the metrics a --trace 0 run reports.
END_TO_END = (
    ("wall_ref", "x"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
    ("success_rate", "ratio"), ("value_ratio_min", "ratio"),
    ("rounds", "count"), ("passes", "count"), ("peak_words", "words"),
    ("blackboard_bits", "bits"),
)


@dataclass
class Job:
    job_id: int
    family: object
    path: Path
    optimum: int

    def argv(self) -> list[str]:
        return ["run", str(self.path), *self.family.args]


@dataclass
class Outcome:
    job: Job
    wall_s: float = 0.0
    maxrss_kb: int = 0
    report: dict | None = None
    errors: list[str] = field(default_factory=list)


def check_report(job: Job, exit_code: int, report: dict | None) -> list[str]:
    """Reasons the job fails; empty when its report is correct."""
    from reference import check_value, guaranteed_fraction

    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no parsable report"]
    fam = job.family
    errors = []
    fraction = guaranteed_fraction(fam.algo, fam.mode, fam.kernel, fam.k, fam.n_l)
    problem = check_value(report.get("result_value"), job.optimum, fraction)
    if problem:
        errors.append(problem)
    rounds = report.get("rounds") or {}
    if not rounds.get("executed", 0) <= rounds.get("budget", -1):
        errors.append(f"rounds {rounds} over budget")
    if fam.mode == "stream" and report.get("passes") != 1 + 2 * rounds.get("executed", -1):
        errors.append(f"passes {report.get('passes')} != 1 + 2 x rounds")
    if "--verify" in fam.args:
        if (report.get("verify") or {}).get("passed") is not True:
            errors.append(f"--verify did not pass: {report.get('verify')}")
        if report.get("oracle_value") != job.optimum:
            errors.append(f"oracle {report.get('oracle_value')} != reference {job.optimum}")
    return errors


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class Spawner:
    """The small job-launching process of ``spawner.py``."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT, text=True)

    def run(self, job: Job, scratch: Path) -> Outcome:
        """Run one CLI job to completion and check its report."""
        err_path = scratch / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "auctionmatch.cli", *job.argv()],
                   "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        answer = json.loads(line)
        out = Outcome(job, wall_s=answer["wall_s"], maxrss_kb=answer["maxrss_kb"])
        try:
            out.report = json.loads(answer["stdout"])
        except ValueError:
            out.report = None
        out.errors = check_report(job, answer["exit_code"], out.report)
        if out.errors and answer["exit_code"] != 0:
            out.errors.append(err_path.read_text(errors="replace").strip()[-500:])
        return out

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Setup:
    """Generates and saves every instance of a run, once per ``repeat``.

    The first repeat's files are the jobs' inputs; every later repeat must
    write byte-identical files. Repeats are spread between passes, so
    their median samples the machine over the whole run.
    """

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.plan = instance_plan(workload, seed)
        self.run_dir = run_dir
        self.files = run_dir / "setup-0"
        self.times: list[float] = []
        self.mismatched: list[str] = []
        self.instances = self.repeat()

    def repeat(self) -> list:
        from auctionmatch.graph import save_instance

        rep_dir = self.run_dir / f"setup-{len(self.times)}"
        rep_dir.mkdir(parents=True)
        # The collector then leaves this process's own heap (instances,
        # the reference task's 75 MB) out of the collections set-up causes.
        gc.freeze()
        start = time.perf_counter()
        made = []
        for family, name, gen_seed in self.plan:
            inst = generate(family, gen_seed)
            save_instance(inst, rep_dir / name)
            made.append(inst)
        self.times.append(time.perf_counter() - start)
        if rep_dir != self.files:
            self.mismatched += [name for _, name, _ in self.plan
                                if (rep_dir / name).read_bytes()
                                != (self.files / name).read_bytes()]
            shutil.rmtree(rep_dir)
        return made


def make_jobs(plan, instances, files: Path) -> list[Job]:
    from reference import REFERENCES

    return [Job(job_id, family, files / name, REFERENCES[family.algo](inst))
            for job_id, ((family, name, _), inst) in enumerate(zip(plan, instances))]


def timed_passes(jobs: list[Job], spawner: Spawner, setup: Setup, scratch: Path,
                 seconds: float) -> tuple[list[list[Outcome]], list[float]]:
    """Passes of CLI children, each job followed by samples of the
    reference task and each pass by set-up repeats, while at least half
    of another pass fits in ``seconds``. Returns the passes and the
    reference's times, sampled in proportion to the jobs' time."""
    from reftask import RefTask

    ref = RefTask()
    deadline = time.perf_counter() + seconds
    passes, laps, ref_times = [], [], []
    while not laps or time.perf_counter() + statistics.median(laps) / 2 <= deadline:
        start = time.perf_counter()
        passes.append([])
        for job in jobs:
            passes[-1].append(spawner.run(job, scratch))
            ref_times += ref.run_for(REF_SHARE * passes[-1][-1].wall_s)
        for _ in range(SETUP_PER_PASS):
            setup.repeat()
        laps.append(time.perf_counter() - start)
    return passes, ref_times


def job_seconds(passes: list[list[Outcome]]) -> float:
    """Sum over jobs of each job's mean wall time across the passes.

    Means, not medians: other tenants slow the CPUs in spells of many
    seconds, and a job's median across a run's passes jumps between the
    fast and the slow time where the mean averages them.
    """
    return sum(statistics.mean(o.wall_s for o in runs) for runs in zip(*passes))


def end_to_end(passes: list[list[Outcome]], setup_times: list[float],
               ref_times: list[float]) -> dict:
    first = passes[0]
    reports = [o.report for o in first if o.report]

    def total(key):
        return sum(r[key] or 0 for r in reports)

    ratios = [Fraction(o.report["result_value"], o.job.optimum)
              for p in passes for o in p if o.report and not o.errors]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if o.errors)
    per_job = list(zip(*passes))
    values = {
        # The reference task runs between the jobs, so it sees the same
        # spells of slowness, and mostly in proportion.
        "wall_ref": job_seconds(passes) / statistics.mean(ref_times),
        "peak_rss_mb": max(statistics.median(o.maxrss_kb for o in runs)
                           for runs in per_job) / 1024,
        "setup_s": statistics.median(setup_times),
        "success_rate": (attempted - failed) / attempted,
        "value_ratio_min": float(min(ratios)) if ratios else 0.0,
        "rounds": sum(r["rounds"]["executed"] for r in reports),
        "passes": total("passes"),
        "peak_words": max((r["peak_words"] or 0 for r in reports), default=0),
        "blackboard_bits": sum((r["blackboard"] or {}).get("total_bits", 0) for r in reports),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def repeat_mismatches(passes: list[list[Outcome]]) -> list[str]:
    """Jobs whose result differed between passes over the same files."""
    keys = ("result_value", "rounds", "passes", "peak_words", "blackboard")
    out = []
    for later in passes[1:]:
        for a, b in zip(passes[0], later):
            if a.report and b.report and any(a.report[k] != b.report[k] for k in keys):
                out.append(f"job {a.job.job_id} changed between passes")
    return out


def in_process_pass(jobs: list[Job], scratch: Path, run_cli) -> list[Outcome]:
    """Call ``run_cli(job_id, argv)`` for every job; reports go to files."""
    outcomes = []
    for job in jobs:
        report_path = scratch / f"report-{job.job_id}.json"
        code = run_cli(job.job_id, [*job.argv(), "--report", str(report_path)])
        out = Outcome(job)
        try:
            out.report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            out.report = None
        out.errors = check_report(job, code, out.report)
        outcomes.append(out)
    return outcomes


def traced_passes(jobs: list[Job], scratch: Path):
    """An untraced and a traced pass over the jobs, in this process.

    Both passes run with the same modules loaded, so the ratio of their
    times is the tracer's cost alone. ``auctionmatch.oracles`` imports
    ``scipy.optimize`` inside the timed ``exact_mwm``; it is imported
    here first, so neither pass pays for it. Each job runs untraced and
    then traced, back to back, so that a slow spell of the machine falls
    on both alike.
    """
    import scipy.optimize  # noqa: F401
    from auctionmatch import cli
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    for job in jobs:
        untraced += in_process_pass([job], scratch, lambda job_id, argv: cli.main(argv))
        with tracer:
            traced += in_process_pass([job], scratch, tracer.run_cli)
    tracer.check_nesting()
    return tracer, [untraced, traced]


def main(argv=None) -> int:
    os.environ.update(THREAD_CAPS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "auctionmatch" / "cli.py").is_file():
        print(f"error: no auctionmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # The spawner starts before this process loads numpy and the instances,
    # so that none of that shows in its children's peak RSS.
    with (nullcontext() if args.trace else Spawner()) as spawner:
        setup = Setup(args.workload, args.seed, run_dir)
        jobs = make_jobs(setup.plan, setup.instances, setup.files)
        with tempfile.TemporaryDirectory(dir=run_dir) as scratch:
            if args.trace:
                tracer, passes = traced_passes(jobs, Path(scratch))
            else:
                passes, ref_times = timed_passes(jobs, spawner, setup, Path(scratch),
                                                 args.seconds)
        while len(setup.times) < SETUP_REPEATS:
            setup.repeat()
    shutil.rmtree(setup.files)
    problems = [f"{name} differs between set-up repeats" for name in setup.mismatched]
    problems += repeat_mismatches(passes)

    for o in passes[0]:
        r = o.report or {}
        print(f"job {o.job.job_id} {o.job.path.name}: {o.wall_s:.3f} s, "
              f"{o.maxrss_kb / 1024:.1f} MB, rounds {(r.get('rounds') or {}).get('executed')}, "
              f"passes {r.get('passes')}", file=sys.stderr)
    for p in passes:
        for o in p:
            for e in o.errors:
                print(f"job {o.job.job_id} ({o.job.path.name}): {e}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if o.errors)
    if args.trace:
        untraced = sum(o.report["wall_time_s"] for o in passes[0] if o.report)
        with_spans = sum(o.report["wall_time_s"] for o in passes[1] if o.report)
        spans = tracer.write_spans(run_dir / "spans.tsv")
        (run_dir / "jobs.json").write_text(json.dumps(
            [{"job": j.job_id, "argv": j.argv()} for j in jobs], indent=1) + "\n")
        print(f"wrote {spans} spans to {run_dir / 'spans.tsv'}", file=sys.stderr)
        from tracer import METRICS

        layer = tracer.metrics(with_spans / untraced - 1 if untraced else 0.0)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in METRICS}
    else:
        metrics = end_to_end(passes, setup.times, ref_times)
        print(f"jobs {job_seconds(passes):.3f} s, reference {statistics.mean(ref_times):.3f} s "
              f"(mean of {len(ref_times)})", file=sys.stderr)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
