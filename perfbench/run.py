"""Benchmark of the airpfl command-line workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
`src/` and its CLI entry point `airpfl.cli.cli_main` is called
in-process, one invocation after another (closed loop, one client).
All inputs are generated from --seed. One untimed cycle runs first;
then cycles repeat until --seconds are used. End-to-end times are
scaled to the reference speed of a calibration kernel timed next to
every call (calibration.py). Every invocation's output is checked, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates plain
and traced cycles and reports the per-layer metrics, with the tracing
overhead as traced minus plain wall time. See perfbench/README.md.
"""

import os
import sys

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from calibration import IMPORTS_REF_S, kernel_seconds, scale  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ESTIMATING, NAMES, SIZES, Outcome, build, check, time_to_target)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_CYCLES = 3       # timed cycles per plain run, whatever --seconds says
MIN_PAIRS = 2        # plain + traced cycle pairs per traced run
SETUP_PROBES = 15    # fresh processes timed for setup_s, after one untimed warm-up


@dataclass
class Cycle:
    walls: list          # seconds inside cli_main, per invocation
    scaled: list         # the same at the calibration kernel's reference speed
    digests: list        # sha256 of each invocation's stdout + output file
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="desk",
                   help="workload size; 'tiny' is for the benchmark's own tests")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_program():
    """Import airpfl from this checkout's src/, or raise RuntimeError."""
    if not (SRC / "airpfl" / "__init__.py").is_file():
        raise RuntimeError(f"no program source at {SRC / 'airpfl'}")
    sys.path.insert(0, str(SRC))
    import airpfl
    import airpfl.cli

    if Path(airpfl.__file__).resolve().parent != SRC / "airpfl":
        raise RuntimeError(f"imported airpfl from {airpfl.__file__}, not from {SRC}")
    return airpfl


def run_cycle(cli_main, workload, tracer=None) -> Cycle:
    walls, scaled, digests, outcomes = [], [], [], []
    kernel = kernel_seconds()
    for inv in workload.invocations:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run_id += 1
            tracer.begin(ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(inv.argv))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end()
        before, kernel = kernel, kernel_seconds()
        scaled.append(scale(walls[-1], before, kernel))
        output = inv.out_path.read_bytes() if inv.out_path.exists() else b""
        inv.out_path.unlink(missing_ok=True)
        outcome = Outcome(code=code, stdout=out.getvalue(), output=output)
        check(inv, outcome)
        if outcome.problems and err.getvalue():
            outcome.problems.append("stderr: " + err.getvalue().strip()[-500:])
        outcomes.append(outcome)
        digests.append(hashlib.sha256(outcome.stdout.encode() + b"\0" + output).hexdigest())
    return Cycle(walls, scaled, digests, outcomes)


def measure(step, seconds: float, at_least: int) -> list:
    """Repeat step() until the next repeat would overrun `seconds`."""
    results, durations, start = [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed + median(durations) > seconds:
            return results


def setup_seconds(workload) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes, at reference speed.

    A calibration process, which times a fixed set of imports, runs
    before the first probe and after each one; each probe is scaled by
    the two next to it.
    """
    def child(*args) -> float:
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    probe = (str(SRC), str(workload.setup_config), str(workload.cli_seed),
             "1" if workload.setup_tasks else "0")
    child(*probe)  # untimed warm-up
    probes, before = [], child("--calibrate")
    for _ in range(SETUP_PROBES):
        seconds = child(*probe)
        after = child("--calibrate")
        probes.append(scale(seconds, before, after, IMPORTS_REF_S))
        before = after
    return probes


def summary(rates) -> str:
    """Median, tail and count of work rates. The tail is the highest whole
    percentile (counted from the fastest) with at least 10 samples beyond it."""
    n = len(rates)
    text = f"median {median(rates):.6g}, "
    if n <= 10:
        return text + f"tail n/a (<= 10 samples), n={n}"
    q = math.floor(100 * (n - 10) / n)
    ordered = sorted(rates, reverse=True)
    return text + f"p{q} {ordered[max(math.ceil(q / 100 * n) - 1, 0)]:.6g}, n={n}"


def verdicts(first: Cycle, cycles: list) -> tuple[int, int, list]:
    """Count attempted and failed invocations; a repeat whose output
    bytes differ from the first cycle's is a failed invocation."""
    attempted, failed, problems = 0, 0, []
    for c in [first] + cycles:
        for i, (outcome, digest) in enumerate(zip(c.outcomes, c.digests)):
            attempted += 1
            if digest != first.digests[i]:
                outcome.problems.append("output bytes differ from the first cycle")
            if outcome.problems:
                failed += 1
                problems.extend(outcome.problems)
    return attempted, failed, problems


def reference(*keys):
    """Look up a recorded value in reference.json, or None."""
    try:
        value = json.loads((HERE / "reference.json").read_text())
        for key in keys:
            value = value[key]
        return value
    except (OSError, ValueError, KeyError):
        return None


def report_digest(args, workload, first: Cycle) -> None:
    digest = hashlib.sha256("".join(first.digests).encode()).hexdigest()
    ref = reference("digests", args.size, workload.name, str(args.seed))
    status = "no reference" if ref is None else ("match" if ref == digest else "MISMATCH")
    print(f"digest {workload.name} seed={args.seed} size={args.size} {digest} "
          f"reference: {status}")


def run_plain(args, cli_main, workload) -> dict:
    probes = setup_seconds(workload)
    first = run_cycle(cli_main, workload)
    cycles = measure(lambda: run_cycle(cli_main, workload), args.seconds, MIN_CYCLES)
    attempted, failed, problems = verdicts(first, cycles)
    walls = [c.scaled_wall for c in cycles]
    rates = [workload.work / w for w in walls]
    metrics = {
        "work_per_s": {"value": median(rates), "unit": "1/s"},
        "setup_s": {"value": median(probes), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    if workload.name in ESTIMATING:
        ttp = [time_to_target(c.scaled, first.outcomes) for c in cycles]
        if None in ttp:
            failed, problems = failed + 1, problems + ["no relative stderr to project from"]
        else:
            metrics["time_to_1pct_s"] = {"value": median(ttp), "unit": "s"}
        print("time_to_1pct_s: typical relative stderr per deployment "
              + ", ".join(f"{o.rse:.6g}" for o in first.outcomes if o.rse))

    print(f"work: {workload.work} {workload.unit} per cycle, {len(cycles)} timed cycles")
    print("work_per_s per cycle: " + summary(rates) + f"; median wall {median(walls):.6g} s")
    raw = [c.wall for c in cycles]
    print(f"unscaled: work_per_s {median(workload.work / w for w in raw):.6g}, "
          f"median wall {median(raw):.6g} s; calibration kernel at "
          f"{median(r / s for r, s in zip(raw, walls)):.4g} x its reference time")
    per_call = [inv.work / w for c in cycles
                for inv, w in zip(workload.invocations, c.scaled) if inv.work]
    print("work_per_s per invocation: " + summary(per_call))
    print("setup_s probes: " + ", ".join(f"{p:.4f}" for p in probes))
    return finish(args, workload, first, attempted, failed, problems, metrics)


def run_traced(args, cli_main, workload) -> dict:
    first = run_cycle(cli_main, workload)
    tracer = Tracer()
    order = itertools.count()

    def traced_cycle():
        tracer.install()
        try:
            return run_cycle(cli_main, workload, tracer)
        finally:
            tracer.uninstall()

    def pair():
        # Alternate which cycle of a pair runs first, so that warm-up or
        # drift does not read as tracing overhead.
        if next(order) % 2:
            traced = traced_cycle()
            plain = run_cycle(cli_main, workload)
        else:
            plain = run_cycle(cli_main, workload)
            traced = traced_cycle()
        return plain, traced, tracer.take_cycle()

    pairs = measure(pair, args.seconds, MIN_PAIRS)
    cycles = [c for p in pairs for c in p[:2]]
    attempted, failed, problems = verdicts(first, cycles)
    metrics, count_problems = layer_metrics(tracer, [p[2] for p in pairs])
    failed = min(attempted, failed + len(count_problems))
    problems += count_problems
    traced_wall = median(p[1].wall for p in pairs)
    metrics["trace.overhead_s"] = {
        "value": median(p[1].wall - p[0].wall for p in pairs), "unit": "s"}
    metrics["trace.cycle_s"] = {"value": traced_wall, "unit": "s"}

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{workload.name}-{args.seed}.csv"
    tracer.write(span_file)
    print(f"spans: {len(tracer.spans) // 5} written to {span_file.relative_to(ROOT)}")
    for name in tracer.missing:
        print(f"unmeasured: {name} no longer exists")
    print(f"layer self time, share of a traced cycle ({traced_wall:.4g} s), "
          f"{len(pairs)} traced cycles:")
    shares = sorted(((v["value"], k) for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace.")
                     and v["value"] is not None), reverse=True)
    for value, name in shares:
        print(f"  {name:24s} {value:10.5f} s  {100 * value / traced_wall:5.1f}%")
    return finish(args, workload, first, attempted, failed, problems, metrics)


def finish(args, workload, first, attempted, failed, problems, metrics) -> dict:
    print(f"failed_frac: {failed}/{attempted}")
    report_digest(args, workload, first)
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from airpfl.cli import cli_main

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"run-{os.getpid()}"
    try:
        workload = build(args.workload, args.seed, args.size, work_dir)
        print(f"workload={workload.name} seed={args.seed} size={args.size} "
              f"program seed={workload.cli_seed} inputs sha256={workload.inputs_digest} "
              f"nproc={NPROC}")
        run = run_traced if args.trace else run_plain
        result = run(args, cli_main, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
