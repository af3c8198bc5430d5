"""Tests of the benchmark's own parts: python3 -m pytest bench -q"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from auctionmatch import cli, graph  # noqa: E402
from auctionmatch.graph import dumps_instance, generate_random, save_instance  # noqa: E402
from auctionmatch.oracles import exact_mcbm, exact_mcm, exact_mwm  # noqa: E402

import reference  # noqa: E402
import reftask  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    dict(n_l=n_l, n_r=n_r, density=d, w_range=w, b_l_range=c, b_r_range=c, seed=seed)
    for seed in range(4)
    for n_l, n_r, d in ((6, 5, 0.5), (12, 12, 0.3), (40, 32, 0.1))
    for w, c in (((1, 1), (1, 1)), ((1, 100), (1, 1)), ((1, 10 ** 6), (1, 1)),
                 ((1, 1), (1, 3)))
]


@pytest.mark.parametrize("params", SMALL)
def test_reference_matches_package_oracles(params):
    inst = generate_random(**params)
    assert reference.reference_mcm(inst) == exact_mcm(inst).value
    assert reference.reference_mwm(inst) == exact_mwm(inst).value
    assert reference.reference_mcbm(inst) == exact_mcbm(inst).value


def test_every_wrap_target_exists_and_is_restored():
    import importlib

    before = {(m, a): getattr(importlib.import_module(f"auctionmatch.{m}"), a)
              for m, a, _ in tracer.WRAP_TARGETS}
    with tracer.Tracer():
        for (m, a), original in before.items():
            wrapped = getattr(importlib.import_module(f"auctionmatch.{m}"), a)
            assert wrapped is not original and wrapped.__wrapped__ is original
    for (m, a), original in before.items():
        assert getattr(importlib.import_module(f"auctionmatch.{m}"), a) is original


def test_missing_wrap_target_is_an_error(monkeypatch):
    from auctionmatch import mwm

    monkeypatch.delattr(mwm, "demand_set_mwm")
    with pytest.raises(AttributeError):
        tracer.Tracer().install()
    assert not hasattr(cli.load_instance, "__wrapped__")  # earlier wraps undone


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    plan = workloads.instance_plan(name, 7)
    assert plan == workloads.instance_plan(name, 7)
    family, _, gen_seed = min(plan, key=lambda p: p[0].n_l * p[0].n_r)
    text = dumps_instance(workloads.generate(family, gen_seed))
    assert text == dumps_instance(workloads.generate(family, gen_seed))
    other = workloads.instance_plan(name, 8)
    assert {s for _, _, s in plan}.isdisjoint(s for _, _, s in other)


def _job(args, optimum, n_l=10):
    family = workloads.Family("made-up", 1, n_l, 10, 3, tuple(args))
    return run.Job(0, family, Path("made-up.gr"), optimum)


def _report(value, executed=5, **extra):
    return {"result_value": value, "rounds": {"executed": executed, "budget": 128},
            "passes": None, "verify": None, "oracle_value": None, **extra}


def test_gate_accepts_values_within_the_bound():
    job = _job(["--algo", "mwm", "--eps", "1/8"], optimum=800)
    assert run.check_report(job, 0, _report(800)) == []
    assert run.check_report(job, 0, _report(200)) == []  # (1 - 6/8) x 800


@pytest.mark.parametrize("args,value,optimum", [
    (["--algo", "mwm", "--eps", "1/8"], 801, 800),
    (["--algo", "mwm", "--eps", "1/8"], 199, 800),
    (["--algo", "mwm", "--eps", "1/8", "--kernel", "rand"], 99, 800),
    (["--algo", "mwm", "--eps", "1/4", "--mode", "gp"], 159, 800),
    (["--algo", "mcbm", "--eps", "1/4"], 49, 100),
    (["--algo", "mcm", "--eps", "1/8"], 74, 100),
    (["--algo", "mcm", "--eps", "1/11"], 9, 10),  # exact once eps < 1/n_l
])
def test_gate_rejects_values_outside_the_bound(args, value, optimum):
    assert run.check_report(_job(args, optimum), 0, _report(value))


def test_gate_rejects_failed_runs_and_inconsistent_reports():
    job = _job(["--algo", "mcm", "--eps", "1/8", "--verify"], optimum=10)
    good = _report(10, verify={"passed": True}, oracle_value=10)
    assert run.check_report(job, 0, good) == []
    assert run.check_report(job, 1, good)
    assert run.check_report(job, 0, None)
    assert run.check_report(job, 0, {**good, "oracle_value": 9})
    assert run.check_report(job, 0, {**good, "verify": {"passed": False}})
    assert run.check_report(job, 0, {**good, "rounds": {"executed": 129, "budget": 128}})
    stream = _job(["--algo", "mwm", "--eps", "1/8", "--mode", "stream"], optimum=10)
    assert run.check_report(stream, 0, _report(10, passes=11)) == []
    assert run.check_report(stream, 0, _report(10, passes=12))


def test_reference_task_is_fixed_and_uses_no_package_code():
    import ast

    tree = ast.parse(Path(reftask.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("auctionmatch") for name in imported)
    task = reftask.RefTask()
    assert task._chase() == reftask.RefTask()._chase()
    assert task._graph() == task._graph() > reftask.NODES
    times = task.run_for(0.0)
    assert len(times) == 1 and times[0] > 0


def test_traced_cli_run_reports_every_layer(tmp_path):
    path = tmp_path / "small.gr"
    inst = generate_random(24, 20, 0.3, w_range=(1, 50), seed=3)
    save_instance(inst, path)
    jobs = [["--algo", "mwm", "--eps", "1/8"],
            ["--algo", "mwm", "--eps", "1/4", "--mode", "gp", "--gp-schedule",
             "sequential", "--verify"],
            ["--algo", "mcm", "--eps", "1/25", "--kernel", "rand"],
            ["--algo", "mcbm", "--eps", "1/4"]]
    with tracer.Tracer() as t:
        for job_id, args in enumerate(jobs):
            report = tmp_path / f"{job_id}.json"
            assert t.run_cli(job_id, ["run", str(path), *args, "--report", str(report)]) == 0
    assert cli.load_instance is graph.load_instance
    t.check_nesting()
    metrics = t.metrics(0.0)
    assert list(metrics) == [name for name, _ in tracer.METRICS]
    for name in ("mwm.phases", "mcm.rounds", "mcbm.rounds", "kernels.pairs",
                 "weight_reduction.level_solves", "streaming.passes",
                 "oracles.mwm_s", "mcbm.demand_calls"):
        assert metrics[name] > 0, name
    assert metrics["mwm.self_s"] <= metrics["mwm.run_s"]
    assert metrics["graph.edges_loaded"] == len(jobs) * inst.m
    assert metrics["oracles.mcm_s"] == 0  # present but never called
    assert t.write_spans(tmp_path / "spans.tsv") == len(t.start)


def test_benchmark_json_declares_what_the_runs_report():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
