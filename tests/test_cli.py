"""Command-line interface contract."""

import ast
import itertools
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import auctionmatch
from auctionmatch import cli, criteria, mcbm, suite
from auctionmatch.cli import main
from auctionmatch.graph import (BipartiteInstance, Epsilon, load_instance,
                                loads_instance, save_instance, scale_and_prune)
from auctionmatch.mcbm import run_mcbm
from auctionmatch.mcm import run_mcm
from auctionmatch.mwm import run_mwm
from auctionmatch.weight_reduction import run_reduced_mwm


@pytest.fixture
def k22(tmp_path):
    path = tmp_path / "k22.gr"
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    save_instance(inst, path)
    return str(path)


@pytest.fixture
def single(tmp_path):
    path = tmp_path / "single.gr"
    save_instance(BipartiteInstance.build(1, 1, [(0, 0, 1)]), path)
    return str(path)


@pytest.fixture
def star(tmp_path):
    path = tmp_path / "star.gr"
    inst = BipartiteInstance.build(
        1, 4, [(0, j, 1) for j in range(4)], b_l=[2], b_r=[1] * 4)
    save_instance(inst, path)
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_run_mwm_verified_exact(capsys, k22):
    code, report = _run_json(capsys, [
        "run", k22, "--algo", "mwm", "--eps", "1/8", "--verify"])
    assert code == 0
    assert report["result_value"] == 2
    assert report["ratio"] == 1.0
    assert report["verify"] == {
        "passed": True, "property": "weight-approximation-(1-6eps)"}
    # unit weights: no buckets, budget 4 k^4
    assert report["rounds"]["budget"] == 4 * 8 ** 4
    assert report["passes"] is None
    assert report["peak_words"] is None


def test_run_mcm_single_edge(capsys, single):
    code, report = _run_json(capsys, [
        "run", single, "--algo", "mcm", "--eps", "1/2", "--verify",
        "--audit"])
    assert code == 0
    assert report["result_value"] == 1
    assert report["rounds"]["budget"] == 8
    assert report["audit"] == "ok"
    assert report["verify"]["property"] == "cardinality-approximation-(1-2eps)"


def test_run_mcbm_stream_star(capsys, star):
    code, report = _run_json(capsys, [
        "run", star, "--algo", "mcbm", "--eps", "1/4", "--mode", "stream",
        "--audit", "--verify"])
    assert code == 0
    assert report["result_value"] == 2
    assert report["passes"] == 3
    assert report["passes"] <= 1 + 2 * report["rounds"]["budget"] == 65
    assert report["peak_words"] > 0
    assert report["verify"]["property"] == "capacitated-approximation-(1-2eps)"


@pytest.mark.parametrize("algo", ["mwm", "mcbm"])
def test_run_stream_audit_passes_on_generated_instance(capsys, tmp_path, algo):
    # weights up to 100 and capacities up to 4; prices here climb past
    # k * w_max, which an audit bound of k * w_max wrongly rejected
    path = tmp_path / "gen.gr"
    assert main(["gen", "--nl", "27", "--nr", "24", "--density", "0.2",
                 "--wmin", "1", "--wmax", "100", "--bl", "1:4", "--br", "1:4",
                 "--seed", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    code, report = _run_json(capsys, [
        "run", str(path), "--algo", algo, "--eps", "1/4", "--mode", "stream",
        "--audit"])
    assert code == 0
    assert report["audit"] == "ok"


def test_run_mwm_rand_reports_blackboard(capsys, k22):
    code, report = _run_json(capsys, [
        "run", k22, "--algo", "mwm", "--eps", "1/4", "--kernel", "rand"])
    assert code == 0
    bb = report["blackboard"]
    assert bb is not None
    assert bb["rounds"] == bb["proposal_rounds"] + bb["coordination_rounds"]
    assert bb["total_bits"] > 0


def test_run_gp_schedule(capsys, tmp_path):
    path = tmp_path / "wide.gr"
    code = main(["gen", "--nl", "8", "--nr", "8", "--density", "0.5",
                 "--wmin", "1", "--wmax", "100000", "--seed", "3",
                 "-o", str(path)])
    assert code == 0
    capsys.readouterr()
    code, report = _run_json(capsys, [
        "run", str(path), "--algo", "mwm", "--eps", "1/4", "--mode", "gp",
        "--gp-schedule", "sequential", "--verify"])
    assert code == 0
    assert report["verify"] == {
        "passed": True,
        "property": "reduced-weight-approximation-1/(1+16eps)"}
    assert report["passes"] is not None
    assert report["peak_words"] is not None


def test_report_flag_writes_file(capsys, single, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", single, "--algo", "mcm", "--eps", "1/2",
                 "--report", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["result_value"] == 1


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize("command", ["run", "gen", "suite"])
def test_unwritable_output_path_exits_two(capsys, single, tmp_path, command,
                                          monkeypatch):
    # exit 1 means a violated bound; a path that cannot be written is an
    # input error, reported on one line before any engine or criterion runs
    bad = str(tmp_path / "missing" / "out.json")
    argv = {"run": ["run", single, "--algo", "mcm", "--eps", "1/4", "--report", bad],
            "gen": ["gen", "-o", bad],
            "suite": ["suite", "--criteria", "2", "--report", bad]}[command]
    monkeypatch.setattr(cli, "run_single", _no_work)
    monkeypatch.setattr(criteria, "run_criteria", _no_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _engine_ran(*args, **kwargs):
    raise AssertionError("an engine ran on a run that --verify refuses")


def test_verify_above_the_oracle_limit_exits_two_before_any_engine(capsys, tmp_path,
                                                                   monkeypatch):
    # 1025 x 1024 vertex pairs is just over ORACLE_SIZE_LIMIT (2^20)
    path = str(tmp_path / "over.gr")
    assert main(["gen", "--nl", "1025", "--nr", "1024", "--density", "0.002",
                 "--wmax", "100", "--seed", "3", "-o", path]) == 0
    monkeypatch.setattr(cli, "run_single", _engine_ran)
    for algo in ("mcm", "mwm", "mcbm"):
        assert main(["run", path, "--algo", algo, "--eps", "1/8", "--verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: instance with 1025x1024 vertex pairs "
                                "exceeds the oracle size limit\n")


def test_run_single_refuses_verify_above_the_oracle_limit_before_the_engine(
        monkeypatch):
    inst = BipartiteInstance.build(1025, 1024, [(0, 0, 1), (1024, 1023, 1)])
    for name in ("run_mcm", "run_mwm", "run_mcbm", "stream_mwm"):
        monkeypatch.setattr(suite, name, _engine_ran)
    for algo, mode in (("mcm", "memory"), ("mwm", "memory"), ("mcbm", "memory"),
                       ("mwm", "stream")):
        with pytest.raises(ValueError, match="^instance with 1025x1024 vertex pairs "
                                             "exceeds the oracle size limit$"):
            suite.run_single(inst, algo, Epsilon(8), mode, "det", 0, True, False)
    # without verify the same run goes ahead
    with pytest.raises(AssertionError, match="an engine ran"):
        suite.run_single(inst, "mcm", Epsilon(8), "memory", "det", 0, False, False)


@pytest.mark.parametrize("mode, schedule", [
    ("memory", None), ("stream", None), ("gp", None), ("gp", "sequential"),
    ("gp", "concurrent")])
def test_run_single_refuses_an_edgeless_weighted_run_before_the_oracle(
        monkeypatch, mode, schedule):
    # the CLI's refusal, raised before the oracle or the engine runs
    inst = loads_instance("p bm 2 2 0\n")
    for name in ("exact_mwm", "run_mwm", "stream_mwm", "run_reduced_mwm"):
        monkeypatch.setattr(suite, name, _engine_ran)
    with pytest.raises(ValueError,
                       match="^the weighted engines need at least one edge$"):
        suite.run_single(inst, "mwm", Epsilon(4), mode, "det", 0, True, False,
                         schedule)


def test_engines_refuse_a_kernel_with_the_reason_of_check_run():
    inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])
    eps = Epsilon(2)
    for engine, graph, kwargs, run in (
            (run_mcm, inst, {"kernel": "stream"}, ("mcm", "memory", "stream")),
            (run_mcbm, inst, {"kernel": "rand"}, ("mcbm", "memory", "rand")),
            (run_mwm, scale_and_prune(inst, eps), {"kernel": "x"},
             ("mwm", "memory", "x")),
            (run_reduced_mwm, inst, {"schedule": "sequential", "kernel": "rand"},
             ("mwm", "gp", "rand", "sequential"))):
        with pytest.raises(ValueError) as want:
            suite.check_run(*run)
        with pytest.raises(ValueError) as got:
            engine(graph, eps, **kwargs)
        assert str(got.value) == str(want.value), run


def test_failed_run_keeps_an_existing_report(capsys, tmp_path):
    # the path check neither truncates a report nor leaves a new file
    kept = tmp_path / "kept.json"
    kept.write_text("{}\n")
    fresh = tmp_path / "fresh.json"
    missing = str(tmp_path / "nope.gr")
    for report in (kept, fresh):
        assert main(["run", missing, "--algo", "mcm", "--eps", "1/2",
                     "--report", str(report)]) == 2
    assert kept.read_text() == "{}\n"
    assert not fresh.exists()
    capsys.readouterr()


RESULT_FIELDS = ("rounds", "passes", "peak_words", "blackboard", "result_value",
                 "oracle_value", "ratio", "verify")


def test_failed_audit_reports_no_result(capsys, star, monkeypatch):
    # a demand rule that gives up on a bidder copy able to buy at price 0
    monkeypatch.setattr(mcbm, "find_demand_set", lambda state, bcopy: [])
    code, report = _run_json(capsys, [
        "run", star, "--algo", "mcbm", "--eps", "1/4", "--audit", "--verify"])
    assert code == 1
    assert report["audit"]["violated"] == "empty-demand-characterization"
    assert {f: report[f] for f in RESULT_FIELDS} == dict.fromkeys(RESULT_FIELDS)


def test_failed_bound_exits_one(capsys, k22, monkeypatch):
    # an optimum of 5 puts the matching of 2 below (1 - 2/4) of it
    monkeypatch.setattr(suite, "exact_mcm", lambda inst: SimpleNamespace(value=5))
    code, report = _run_json(capsys, [
        "run", k22, "--algo", "mcm", "--eps", "1/4", "--verify"])
    assert code == 1
    assert (report["result_value"], report["oracle_value"]) == (2, 5)
    assert report["verify"] == {
        "passed": False, "property": "cardinality-approximation-(1-2eps)"}


def test_verify_rejects_a_non_edge_pair(capsys, tmp_path, monkeypatch):
    # the engine returns a pair that is no edge; --verify checks the pairs
    # against the loaded instance
    inst = BipartiteInstance.build(2, 2, [(0, 0, 1), (1, 1, 1)])
    path = tmp_path / "diag.gr"
    save_instance(inst, path)
    real = suite.stream_mwm

    def misreporting(stream, eps, audit=False):
        res, tr = real(stream, eps, audit=audit)
        assert res.pairs == ((0, 0), (1, 1))
        assert suite.check_matching(res.pairs, (1, 1), (1, 1), inst.edges)
        return res._replace(pairs=((0, 1), (1, 1))), tr

    monkeypatch.setattr(suite, "stream_mwm", misreporting)
    code, report = _run_json(capsys, [
        "run", str(path), "--algo", "mwm", "--mode", "stream", "--eps", "1/4",
        "--verify"])
    assert code == 1
    assert (report["result_value"], report["oracle_value"]) == (2, 2)
    assert report["verify"] == {"passed": False, "property": "valid-matching"}


def test_verify_rejects_an_out_of_range_pair(capsys, k22, monkeypatch):
    # a bidder index past n_l fails valid-matching instead of raising
    real = suite.run_mcm

    def out_of_range(inst, eps, **kwargs):
        res, tr = real(inst, eps, **kwargs)
        return res._replace(pairs=((0, 0), (inst.n_l, 0))), tr

    monkeypatch.setattr(suite, "run_mcm", out_of_range)
    code, report = _run_json(capsys, [
        "run", k22, "--algo", "mcm", "--eps", "1/4", "--verify"])
    assert code == 1
    assert report["verify"] == {"passed": False, "property": "valid-matching"}


@pytest.mark.parametrize("algo, engine", [("mwm", "run_mwm"), ("mcbm", "run_mcbm")])
def test_verify_rejects_a_value_the_pairs_do_not_have(capsys, tmp_path, monkeypatch,
                                                     algo, engine):
    # valid pairs reported with a value above theirs: the bound alone
    # would pass them
    path = tmp_path / "w.gr"
    save_instance(BipartiteInstance.build(
        3, 3, [(0, 0, 5), (0, 1, 2), (1, 1, 7), (2, 2, 1)], b_l=(2, 1, 1)), path)
    real = getattr(suite, engine)

    def inflated(graph, eps, **kwargs):
        res, tr = real(graph, eps, **kwargs)
        return res._replace(value=10 ** 6), tr

    monkeypatch.setattr(suite, engine, inflated)
    code, report = _run_json(capsys, [
        "run", str(path), "--algo", algo, "--eps", "1/4", "--verify"])
    assert code == 1
    assert report["result_value"] == 10 ** 6
    assert report["verify"] == {"passed": False, "property": "matching-value"}


@pytest.mark.parametrize("algo, mode, kernel", [
    ("mcm", "memory", "det"), ("mwm", "memory", "det"), ("mwm", "gp", "det"),
    ("mcbm", "memory", "det")])
def test_verdict_checks_the_value_against_the_pairs(algo, mode, kernel):
    inst = BipartiteInstance.build(
        3, 3, [(0, 0, 5), (0, 1, 2), (1, 1, 7), (2, 2, 1)], b_l=(2, 1, 1))
    pairs = ((0, 0), (1, 1), (2, 2))
    value = 13 if algo == "mwm" else 3
    eps = Epsilon(4)
    assert suite.verdict(inst, algo, mode, kernel, eps, pairs, value, value)[0]
    for wrong in (value - 1, value + 1):
        assert suite.verdict(inst, algo, mode, kernel, eps, pairs, wrong,
                             value) == (False, "matching-value")
    # an invalid matching fails validity first, whatever its value
    assert suite.verdict(inst, algo, mode, kernel, eps, pairs + pairs[:1],
                         value, value) == (False, "valid-matching")


def test_gen_is_seed_deterministic(capsys):
    argv = ["gen", "--nl", "6", "--nr", "7", "--density", "0.5",
            "--wmin", "2", "--wmax", "9", "--bl", "1:3", "--br", "1:2",
            "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    inst = loads_instance(first)
    assert inst.n_l == 6 and inst.n_r == 7
    assert all(2 <= w <= 9 for _, _, w in inst.edges)
    assert all(1 <= b <= 3 for b in inst.b_l)
    assert all(1 <= b <= 2 for b in inst.b_r)


def test_gen_rejects_bad_capacity_range(capsys):
    assert main(["gen", "--bl", "0:2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--density", "0"], "density must be in (0, 1]"),
    (["--wmin", "5", "--wmax", "3"], "weight range must satisfy 1 <= lo <= hi"),
    (["--nl", "0"], "n_l and n_r must be at least 1"),
    (["--nl", "-3"], "n_l and n_r must be at least 1"),
    (["--nr", "0"], "n_l and n_r must be at least 1"),
    (["--bl", "1:x"], "bad capacity range '1:x'"),
    (["--br", "two"], "bad capacity range 'two'"),
])
def test_gen_rejects_bad_parameters(capsys, argv, message):
    assert main(["gen", *argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("mode", ["memory", "stream"])
def test_capacity_vertex_out_of_range_exits_two(capsys, tmp_path, mode):
    path = tmp_path / "caps.gr"
    path.write_text("p bm 2 2 1\ne 1 1 1\nb r 3 1\n")
    assert main(["run", str(path), "--algo", "mcbm", "--eps", "1/2",
                 "--mode", mode]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "error: line 3: capacity vertex out of range in 'b r 3 1'\n")


@pytest.mark.parametrize("argv_extra", [
    ["--algo", "mcm", "--eps", "1/2", "--mode", "stream"],
    ["--algo", "mcbm", "--eps", "1/2", "--kernel", "rand"],
    ["--algo", "mcbm", "--eps", "1/2", "--mode", "gp"],
    ["--algo", "mwm", "--eps", "1/2", "--mode", "stream", "--kernel", "rand"],
    ["--algo", "mwm", "--eps", "1/2", "--gp-schedule", "sequential"],
    ["--algo", "mwm", "--eps", "3/7"],
    ["--algo", "mwm", "--eps", "0.25"],
    ["--algo", "mwm", "--eps", "1/2", "--mode", "gp", "--gp-schedule", "sequential",
     "--kernel", "rand"],
])
def test_usage_errors_exit_two(capsys, single, argv_extra):
    assert main(["run", single] + argv_extra) == 2
    assert "error:" in capsys.readouterr().err


# Every (algo, mode, kernel, gp schedule) the CLI runs; any other
# combination is a usage error.
ACCEPTED = (
    [("mcm", "memory", kernel, None) for kernel in ("det", "rand")]
    + [("mwm", "memory", kernel, None) for kernel in ("det", "rand", "stream")]
    + [("mwm", "stream", "det", None)]
    + [("mwm", "gp", kernel, None) for kernel in ("det", "rand")]
    + [("mwm", "gp", "det", schedule) for schedule in ("sequential", "concurrent")]
    + [("mcbm", "memory", kernel, None) for kernel in ("det", "stream")]
    + [("mcbm", "stream", "det", None)]
)


def _config_argv(algo, mode, kernel, schedule):
    argv = ["--algo", algo, "--mode", mode, "--kernel", kernel]
    return argv + ["--gp-schedule", schedule] if schedule else argv


@pytest.mark.parametrize("config", list(itertools.product(
    ("mcm", "mwm", "mcbm"), ("memory", "stream", "gp"), ("det", "rand", "stream"),
    (None, "sequential", "concurrent"))))
def test_every_configuration_runs_or_exits_two(capsys, k22, config):
    # the CLI and run_single accept the same runs, and refuse the others
    # with the same one-line reason
    code = main(["run", k22, "--eps", "1/4", "--verify", *_config_argv(*config)])
    out, err = capsys.readouterr()
    algo, mode, kernel, schedule = config
    args = (load_instance(k22), algo, Epsilon(4), mode, kernel, 0, True, False,
            schedule)
    if config in ACCEPTED:
        assert code == 0, err
        report = json.loads(out)
        assert (report["algo"], report["mode"], report["kernel"]) == config[:3]
        assert report["result_value"] == 2
        direct, direct_code = suite.run_single(*args)
        assert direct_code == 0
        for got in (report, direct):
            got.pop("wall_time_s")
        assert direct == report
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(ValueError) as refused:
            suite.run_single(*args)
        assert err == f"error: {refused.value}\n"


def test_refused_runs_import_no_engine():
    # a child interpreter, so that no other test's imports count
    src = Path(auctionmatch.__file__).resolve().parent.parent
    code = (
        "import itertools, sys\n"
        "from auctionmatch.graph import BipartiteInstance, Epsilon\n"
        "from auctionmatch.suite import run_single\n"
        "inst = BipartiteInstance.build(1, 1, [(0, 0, 1)])\n"
        "refused = 0\n"
        "for config in itertools.product(('mcm', 'mwm', 'mcbm'),\n"
        "        ('memory', 'stream', 'gp'), ('det', 'rand', 'stream'),\n"
        "        (None, 'sequential', 'concurrent', 'parallel')):\n"
        "    if config not in %r:\n"
        "        algo, mode, kernel, schedule = config\n"
        "        try:\n"
        "            run_single(inst, algo, Epsilon(4), mode, kernel, 0, True, True,\n"
        "                       schedule)\n"
        "        except ValueError:\n"
        "            refused += 1\n"
        "print(refused, *sorted(m for m in sys.modules if m.startswith('auctionmatch.')))\n"
    ) % (ACCEPTED,)
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60)
    refused, *modules = out.stdout.split()
    assert refused == "95"
    assert set(modules) == {"auctionmatch.errors", "auctionmatch.graph",
                            "auctionmatch.suite"}


def test_check_run_refuses_an_unknown_gp_schedule():
    # the CLI's --gp-schedule choices are the table's, so only the Python
    # API can ask for another schedule
    with pytest.raises(ValueError,
                       match="^--gp-schedule is sequential or concurrent, not parallel$"):
        suite.check_run("mwm", "gp", "det", "parallel")


@pytest.mark.parametrize("algo", ["mwm", "mcbm"])
def test_run_kernel_stream_is_the_in_memory_stream_order_kernel(capsys, tmp_path,
                                                                algo):
    # criterion 7 from the command line: the in-memory stream-order kernel
    # finds the streamed engine's value, and is the kernel run_mwm and
    # run_mcbm run under kernel="stream"
    path = tmp_path / "gen.gr"
    assert main(["gen", "--nl", "27", "--nr", "24", "--density", "0.2",
                 "--wmax", "100", "--bl", "1:4", "--br", "1:4", "--seed", "2",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    argv = ["run", str(path), "--algo", algo, "--eps", "1/4", "--audit"]
    code, memory = _run_json(capsys, argv + ["--kernel", "stream"])
    assert (code, memory["audit"], memory["passes"]) == (0, "ok", None)
    code, streamed = _run_json(capsys, argv + ["--mode", "stream"])
    assert code == 0
    assert memory["result_value"] == streamed["result_value"]
    assert memory["rounds"] == streamed["rounds"]
    inst = load_instance(path)
    eps = Epsilon.parse("1/4")
    if algo == "mwm":
        res, _ = run_mwm(scale_and_prune(inst, eps), eps, kernel="stream")
        assert memory["result_value"] == res.value
    else:
        res, _ = run_mcbm(inst, eps, kernel="stream")
        assert memory["result_value"] == res.value


@pytest.mark.parametrize("mode", ["memory", "stream", "gp"])
def test_run_mwm_rejects_zero_edge_file(capsys, tmp_path, mode):
    # the weighted engines scale by w_max, which needs an edge
    path = tmp_path / "empty.gr"
    path.write_text("p bm 1 1 0\n")
    assert main(["run", str(path), "--algo", "mwm", "--eps", "1/2",
                 "--mode", mode]) == 2
    assert "error:" in capsys.readouterr().err
    for algo in ("mcm", "mcbm"):
        code, report = _run_json(capsys, [
            "run", str(path), "--algo", algo, "--eps", "1/2"])
        assert (code, report["result_value"]) == (0, 0)


@pytest.mark.parametrize("algo,mode", [
    ("mcm", "memory"), ("mwm", "memory"), ("mwm", "stream"), ("mwm", "gp"),
    ("mcbm", "memory"), ("mcbm", "stream"),
])
def test_non_ascii_byte_is_a_format_error(capsys, tmp_path, algo, mode):
    path = tmp_path / "accent.gr"
    path.write_bytes(b"c caf\xc3\xa9\np bm 1 1 1\ne 1 1 1\n")
    assert main(["run", str(path), "--algo", algo, "--eps", "1/2",
                 "--mode", mode]) == 2
    assert "error: line 1: non-ASCII" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["memory", "stream"])
def test_oversized_problem_line_exits_two(capsys, tmp_path, mode):
    path = tmp_path / "huge.gr"
    path.write_text(f"p bm {10 ** 18} 1 0\n")
    assert main(["run", str(path), "--algo", "mcbm", "--eps", "1/2",
                 "--mode", mode]) == 2
    assert "error: line 1: problem line side above" in capsys.readouterr().err


def test_missing_instance_file_exits_two(capsys, tmp_path):
    missing = str(tmp_path / "nope.gr")
    assert main(["run", missing, "--algo", "mcm", "--eps", "1/2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_suite_single_criterion(capsys, tmp_path):
    out = tmp_path / "agg.json"
    code = main(["suite", "--criteria", "2", "--report", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "criterion 02" in captured.err
    assert "PASS" in captured.err
    agg = json.loads(out.read_text())
    assert agg["criteria"][0]["passed"] is True
    # the time the harness took, which the status line rounds
    elapsed = agg["criteria"][0]["elapsed_s"]
    assert elapsed > 0
    assert captured.err.rstrip().endswith(f", {elapsed:.1f}s)")


def test_suite_rejects_bad_criteria(capsys, monkeypatch):
    # a list with no criterion number in it is refused, not read as "all"
    monkeypatch.setattr(criteria, "run_criteria", _no_work)
    for numbers in ("11", "a,b", ",", ""):
        assert main(["suite", "--criteria", numbers]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


# Modules no run may load: dataclasses, and the inspect, ast, dis and
# tokenize it pulls in, would cost every CLI child 12-15 ms of start-up.
UNLOADED = ("dataclasses", "inspect")


def _modules_after_run(path, argv):
    # a child interpreter, so that no other test's imports count; the run
    # must load none of UNLOADED
    src = Path(auctionmatch.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from auctionmatch.cli import main\n"
        f"code = main(['run', {str(path)!r}, '--report', {str(path) + '.json'!r}, *{argv!r}])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('auctionmatch.')))\n"
        f"print(*(m for m in {UNLOADED!r} if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60)
    first, unwanted = out.stdout.split("\n")[:2]
    code, *modules = first.split()
    assert code == "0"
    assert unwanted == "", argv
    return {m.removeprefix("auctionmatch.") for m in modules}


def test_run_imports_only_what_its_algo_and_mode_need(k22):
    plain = _modules_after_run(k22, ["--algo", "mwm", "--eps", "1/4"])
    assert plain.isdisjoint({"mcm", "mcbm", "streaming", "weight_reduction",
                             "oracles", "criteria"})
    verified = _modules_after_run(k22, ["--algo", "mwm", "--eps", "1/4", "--verify"])
    assert verified - plain == {"oracles"}
    streamed = _modules_after_run(k22, ["--algo", "mwm", "--eps", "1/4",
                                        "--mode", "stream"])
    assert "streaming" in streamed
    assert streamed.isdisjoint({"mwm", "mcbm", "mcm", "oracles", "criteria"})
    # the streamed weighted audit is mwm's own
    audited = _modules_after_run(k22, ["--algo", "mwm", "--eps", "1/4",
                                       "--mode", "stream", "--audit"])
    assert audited - streamed == {"mwm"}
    # and the streamed capacitated audit is mcbm's own
    capacitated = _modules_after_run(k22, ["--algo", "mcbm", "--eps", "1/4",
                                           "--mode", "stream"])
    assert capacitated.isdisjoint({"mwm", "mcbm", "mcm", "oracles", "criteria"})
    audited = _modules_after_run(k22, ["--algo", "mcbm", "--eps", "1/4",
                                       "--mode", "stream", "--audit"])
    assert audited - capacitated == {"mcbm"}
    # --verify and --audit load the most; no configuration loads UNLOADED
    for config in ACCEPTED:
        _modules_after_run(k22, [*_config_argv(*config), "--eps", "1/4", "--verify",
                                 "--audit"])


def test_no_package_module_imports_dataclasses():
    package = Path(auctionmatch.__file__).resolve().parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] in UNLOADED for name in names if name):
                importers.append(path.name)
    assert len(list(package.glob("*.py"))) > 10
    assert importers == []


def test_package_names_resolve_on_first_access():
    src = Path(auctionmatch.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import auctionmatch\n"
        "print(*sorted(m for m in sys.modules if m.startswith('auctionmatch.')))\n"
        "missing = [n for n in auctionmatch.__all__ if not hasattr(auctionmatch, n)]\n"
        "print(missing, set(auctionmatch.__all__) <= set(dir(auctionmatch)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60)
    eager, resolved = out.stdout.split("\n")[:2]
    assert eager == ""
    assert resolved == "[] True"
