"""Record one point of the benchmark trajectory as BENCH_<name>.json.

    python3 bench/record.py --out BENCH_21.json

For each of the four workloads of perfbench/run.py it makes REPEATS
untraced runs, at seeds 1 to REPEATS, then one traced run at seed 1,
one after the other, each as long as BENCHMARK.json's run_seconds, so
that every record is comparable with the others. It writes one JSON document: the machine, the
command, the line count of src/airpfl/*.py, and per workload every
run's result, the median of each end-to-end metric over the untraced
runs, the traced run's per-layer metrics and the seed-1 output digest. The committed
BENCH_*.json files, not perfbench/reference.json, are the reference
for output digests from one change to the next.

check_record(doc) lists what a document lacks against that schema; the
writer runs it before writing, and the test suite runs it on every
committed file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
SCHEMA = 1
REPEATS = 3
WORKLOADS = ("sweep", "verify", "train", "powopt")
END_TO_END = ("work_per_s", "time_to_1pct_s", "setup_s", "peak_rss_mb")
DIGEST = re.compile(r"^digest (\S+) seed=(\d+) size=\S+ ([0-9a-f]{64}) ", re.M)


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "airpfl").glob("*.py")))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its JSON result, with the seed and the output digest."""
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = DIGEST.search(proc.stdout)
    if found is None or found.group(1) != workload or int(found.group(2)) != seed:
        raise RuntimeError(f"no digest line for {workload} seed {seed} in:\n{proc.stdout}")
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": found.group(3),
    }


def record() -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    workloads = {}
    for name in WORKLOADS:
        plain = [run(name, seed, seconds, 0) for seed in range(1, REPEATS + 1)]
        traced = run(name, 1, seconds, 1)
        medians = {m: median(r["metrics"][m] for r in plain)
                   for m in END_TO_END if all(m in r["metrics"] for r in plain)}
        workloads[name] = {
            "runs": plain,
            "median": medians,
            "traced": traced,
            "digest": plain[0]["digest"],
        }
        print(f"{name}: " + ", ".join(f"{m} {v:.6g}" for m, v in medians.items())
              + f", digest {plain[0]['digest'][:16]}", file=sys.stderr)
    return {
        "schema": SCHEMA,
        "machine": machine(),
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0|1",
        "seconds": seconds,
        "src_lines": src_lines(),
        "workloads": workloads,
    }


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_run(where: str, r) -> list:
    if not isinstance(r, dict):
        return [f"{where} is not an object"]
    problems = []
    if not (isinstance(r.get("seed"), int) and not isinstance(r.get("seed"), bool)):
        problems.append(f"{where}.seed is not an integer")
    if not isinstance(r.get("correct"), bool):
        problems.append(f"{where}.correct is not a boolean")
    for key in ("attempted", "failed"):
        if not (isinstance(r.get(key), int) and r[key] >= 0):
            problems.append(f"{where}.{key} is not a count")
    metrics = r.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append(f"{where}.metrics is not a non-empty object")
    elif not all(v is None or _number(v) for v in metrics.values()):
        problems.append(f"{where}.metrics holds a value that is not a number")
    if not re.fullmatch(r"[0-9a-f]{64}", str(r.get("digest"))):
        problems.append(f"{where}.digest is not a sha256 hex digest")
    return problems


def check_record(doc) -> list:
    """The ways doc departs from the BENCH schema; empty when it conforms."""
    if not isinstance(doc, dict):
        return ["the document is not an object"]
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is not {SCHEMA}")
    info = doc.get("machine")
    if not isinstance(info, dict) or not all(
            key in info for key in ("system", "machine", "cpu", "nproc", "python", "numpy")):
        problems.append("machine lacks system, machine, cpu, nproc, python or numpy")
    if not isinstance(doc.get("command"), str):
        problems.append("command is not a string")
    if not (isinstance(doc.get("src_lines"), int) and doc["src_lines"] > 0):
        problems.append("src_lines is not a positive integer")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or set(workloads) != set(WORKLOADS):
        return problems + [f"workloads does not hold exactly {', '.join(WORKLOADS)}"]
    for name, w in workloads.items():
        if not isinstance(w, dict):
            problems.append(f"{name} is not an object")
            continue
        runs = w.get("runs")
        if not isinstance(runs, list) or len(runs) < REPEATS:
            problems.append(f"{name}.runs holds fewer than {REPEATS} untraced runs")
        else:
            for i, r in enumerate(runs):
                problems += _check_run(f"{name}.runs[{i}]", r)
        problems += _check_run(f"{name}.traced", w.get("traced"))
        medians = w.get("median")
        if not isinstance(medians, dict) or not {"work_per_s", "setup_s", "peak_rss_mb"} <= set(
                medians) or not all(_number(v) for v in medians.values()):
            problems.append(f"{name}.median lacks a numeric work_per_s, setup_s or peak_rss_mb")
        if not re.fullmatch(r"[0-9a-f]{64}", str(w.get("digest"))):
            problems.append(f"{name}.digest is not a sha256 hex digest")
        elif isinstance(runs, list) and runs and isinstance(runs[0], dict) and (
                runs[0].get("seed") != 1 or runs[0].get("digest") != w["digest"]):
            problems.append(f"{name}.digest is not the digest of its seed-1 run")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="file name, written to the repository root")
    args = p.parse_args(argv)
    if not re.fullmatch(r"BENCH_\w+\.json", args.out):
        p.error("--out must be a file name of the form BENCH_<name>.json")
    doc = record()
    problems = check_record(doc)
    if problems:
        print("bench: the record does not conform: " + "; ".join(problems), file=sys.stderr)
        return 1
    (ROOT / args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
