"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation, Outcome, check  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _traced(workload, seed):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[4] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_two_runs_give_identical_counts_and_digests(workload):
    first, digest1 = _traced(workload, 3)
    second, digest2 = _traced(workload, 3)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert digest1 == digest2
    exact = {k: v["value"] for k, v in first["metrics"].items() if k in tracing.EXACT}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert set(first["metrics"]) >= set(tracing.LAYER_METRICS)


def test_plain_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "0.2", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_seed_changes_generated_inputs(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, 1, "tiny", tmp_path / f"{name}-a")
        b = workloads.build(name, 1, "tiny", tmp_path / f"{name}-b")
        c = workloads.build(name, 2, "tiny", tmp_path / f"{name}-c")
        assert a.inputs_digest == b.inputs_digest
        assert a.inputs_digest != c.inputs_digest
        assert a.cli_seed != c.cli_seed


def test_missing_callable_is_unmeasured_not_zero(monkeypatch):
    monkeypatch.setattr(
        tracing, "WRAPS", tracing.WRAPS + [("harness", "_no_such_kernel", "channel.draw", None)])
    tracer = tracing.Tracer()
    assert tracer.missing == ["airpfl.harness._no_such_kernel"]
    metrics, _ = tracing.layer_metrics(tracer, [tracing.CycleAggregate()])
    assert metrics["channel.draw_s"] == {"value": None, "unit": "s", "unmeasured": True}
    assert metrics["channel.draw_calls"]["value"] is None
    assert metrics["channel.gain_s"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _outcome(inv, csv_text, code=0):
    outcome = Outcome(code=code, stdout="", output=csv_text.encode())
    check(inv, outcome)
    return outcome


def test_checks_flag_wrong_outputs(tmp_path):
    out = tmp_path / "x.csv"
    verify = Invocation("verify", [], out, 1, expected_codes=(0, 1))
    header = "m,k,same_cluster,mean,stderr,target,pass\n"
    assert not _outcome(verify, header + "0,0,True,1.0,0.01,1.0,True\n").problems
    assert _outcome(verify, header + "0,0,True,1.2,0.01,1.0,False\n").problems
    assert not _outcome(verify, header + "0,0,True,1.0,0.01,1.0,True\n", code=1).problems
    assert _outcome(verify, header + "0,0,True,1.0,0.01,1.0,True\n", code=2).problems

    train = Invocation("train", [], out, 1)
    header = "round,cluster,loss,nmse,scheme,seed\n"
    assert not _outcome(train, header + "0,0,2.0,0.1,mmse,1\n1,0,1.0,0.2,mmse,1\n").problems
    assert _outcome(train, header + "0,0,1.0,0.1,mmse,1\n1,0,2.0,0.2,mmse,1\n").problems
    assert _outcome(train, header + "0,0,2.0,nan,mmse,1\n1,0,1.0,0.2,mmse,1\n").problems

    sweep = Invocation("sweep", [], out, 1)
    header = "N,P_max,scheme,trials,nmse_mean,nmse_stderr,seed\n"
    ok = "64,1,mmse,20,0.5,0.01,1\n64,1,mmse+powopt,20,0.45,0.01,1\n"
    worse = "64,1,mmse,20,0.5,0.01,1\n64,1,mmse+powopt,20,0.6,0.01,1\n"
    assert not _outcome(sweep, header + ok).problems
    assert _outcome(sweep, header + worse).problems
    assert _outcome(sweep, header + "16,1,mmse,20,inf,0.01,1\n").problems


def test_time_to_target_pools_the_bounded_sweep_cells(tmp_path):
    sweep = Invocation("sweep", [], tmp_path / "x.csv", 1)
    header = "N,P_max,scheme,trials,nmse_mean,nmse_stderr,seed\n"
    rows = ("64,1,mmse,20,0.5,0.005,1\n64,1,random-phase,20,0.2,0.008,1\n"
            "64,1,unbiased,20,1.0,0.5,1\n")
    outcome = _outcome(sweep, header + rows)
    assert outcome.rse == pytest.approx(0.02)  # geometric mean; `unbiased` left out
    assert workloads.time_to_target([2.0], [outcome]) == pytest.approx(2.0 * 4)


def test_time_to_target_takes_the_median_deployment(tmp_path):
    verify = Invocation("verify", [], tmp_path / "x.csv", 1, expected_codes=(0, 1))
    header = "m,k,same_cluster,mean,stderr,target,pass\n"
    outcomes = [
        _outcome(verify, header + f"0,0,True,1.0,{se},1.0,True\n0,1,True,1.0,{se},1.0,True\n"
                 "0,2,False,0.0,0.01,0.0,True\n")
        for se in (0.01, 0.02, 0.05)]
    assert [o.rse for o in outcomes] == pytest.approx([0.01, 0.02, 0.05])
    assert workloads.time_to_target([1.0, 2.0, 3.0], outcomes) == pytest.approx(2.0 * 4)
