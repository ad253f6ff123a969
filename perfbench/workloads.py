"""Workload definitions: generated inputs, CLI invocations and output checks.

A workload is a fixed list of `airpfl` CLI invocations (one "cycle").
Every input file is generated here from the workload seed; the program
sees only those files and the `--seed` derived from the same seed.

The checks below must hold for any correct random stream, so a change
that rebaselines the draw stream keeps them: they test finiteness,
monotone training progress, a paired scheme ordering at 3 standard
errors, and a family-wise interference-elimination test whose
false-alarm rate is stated (`VERIFY_FAMILY_ALPHA`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist, median

NAMES = ("sweep", "verify", "train", "powopt")

SWEEP_SCHEMES = ["unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase"]
TRAIN_SCHEMES = ["ideal", "unbiased", "mmse", "random-phase"]
POWOPT_SCHEMES = ["mmse", "mmse+powopt"]

# Workload sizes. "desk" is what the benchmark measures; "tiny" keeps the
# benchmark's own tests fast and exercises every code path.
SIZES = {
    "desk": {
        "sweep": {"n_values": [16, 32, 64, 128, 256], "p_values": [0.1, 10.0],
                  "deployments": 10, "trials": 100,
                  "train_rounds": {"mmse+powopt": 5, "mmse": 100}},
        "verify": {"num_elements": 64, "deployments": 50, "trials": 100},
        "train": {"rounds": 300},
        "powopt": {"rounds": 5, "num_elements": 64, "p_max": 1.0, "trials": 20},
    },
    "tiny": {
        "sweep": {"n_values": [16], "p_values": [1.0], "deployments": 2, "trials": 20,
                  "train_rounds": {"mmse+powopt": 2, "mmse": 2}},
        "verify": {"num_elements": 16, "deployments": 2, "trials": 100},
        "train": {"rounds": 5},
        "powopt": {"rounds": 2, "num_elements": 16, "p_max": 1.0, "trials": 2},
    },
}

# Family-wise false-alarm rate of the verify check: Bonferroni over every
# (antenna, device) pair mean, two-sided, under the normal approximation.
VERIFY_FAMILY_ALPHA = 1e-6

# The relative standard error `time_to_1pct_s` projects to.
TARGET_RSE = 0.01

# Sweep schemes whose NMSE is heavy-tailed (the channel-inverting
# designs): their sample stderr does not settle from seed to seed, so
# they are left out of the sweep's pooled relative stderr.
HEAVY_TAILED = ("unbiased", "unbiased-1bit")

# Workloads that report `time_to_1pct_s`. `train` and `powopt` yield no
# Monte Carlo estimate whose relative stderr is steady from seed to seed
# (quartile spread of its square over 10 seeds: train 30-95%, powopt
# 65-100%).
ESTIMATING = ("sweep", "verify")


@dataclass(frozen=True)
class Invocation:
    kind: str            # "sweep", "verify" or "train": how to check the output
    argv: list[str]
    out_path: Path
    work: int            # units of the workload's work this call completes
    expected_codes: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                       # what `work` counts
    invocations: list[Invocation]
    setup_config: Path              # config the set-up probe parses
    setup_tasks: bool               # whether set-up also synthesizes training tasks
    cli_seed: int
    inputs_digest: str              # sha256 of every generated input file

    @property
    def work(self) -> int:
        return sum(inv.work for inv in self.invocations)


@dataclass
class Outcome:
    """What one invocation produced and what the checks found."""

    code: int
    stdout: str
    output: bytes
    problems: list[str] = field(default_factory=list)
    rse: float | None = None     # typical relative stderr of this deployment's estimates


def cli_seed(workload: str, seed: int) -> int:
    """Seed handed to the program, derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def build(name: str, seed: int, size: str, work_dir: Path) -> Workload:
    """Write the workload's input files into work_dir and list its calls."""
    from airpfl.harness import desk_scale_config

    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    params = SIZES[size][name]
    s = cli_seed(name, seed)
    system = json.loads(desk_scale_config(master_seed=s).to_json())
    work_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(fname: str, doc: dict) -> Path:
        path = work_dir / fname
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
        return path

    invocations: list[Invocation] = []

    def call(kind, argv, fname, work, expected_codes=(0,)):
        path = work_dir / fname
        invocations.append(
            Invocation(kind, argv + ["--out", str(path)], path, work, expected_codes))

    if name == "sweep":
        # The grid's trials are spread over several deployments, each with
        # its own --seed and so its own device placement, for the same
        # reason as in `verify`. One chunk of the program is 100 trials, so
        # 100 trials per call keep the chunk shapes of a single call.
        grid = {k: params[k] for k in ("n_values", "p_values", "trials")}
        cfg = write("sweep.json", {"system": system, "schemes": SWEEP_SCHEMES, **grid})
        cells = len(params["n_values"]) * len(params["p_values"])
        for g in range(params["deployments"]):
            call("sweep",
                 ["nmse-sweep", "--config", str(cfg), "--seed", str(cli_seed(f"{name}/{g}", seed))],
                 f"sweep-{g}.csv", len(SWEEP_SCHEMES) * cells * params["trials"])
        # Short training runs, so that the scalar path (powopt, aircomp,
        # flsim) is measured in the bounded runs too. Alone, that path is
        # too unsteady for a bound on the reference machine (see README);
        # here it takes about a fifth of the cycle. Its rounds are not
        # counted as work.
        train_cfg = write("train.json", system)
        for scheme, rounds in params["train_rounds"].items():
            call("train",
                 ["train", "--config", str(train_cfg), "--scheme", scheme,
                  "--rounds", str(rounds), "--seed", str(s)],
                 f"train-{scheme}.csv", 0)
        unit, setup_cfg, tasks = "scheme-trials", cfg, False
    elif name == "verify":
        # Several deployments per cycle: the stderr of one deployment
        # depends on where its devices fall, which would make
        # time_to_1pct_s swing from seed to seed. 100 trials is one chunk.
        cfg = write("system.json", {**system, "num_ris_elements": params["num_elements"]})
        for g in range(params["deployments"]):
            call("verify",
                 ["verify-elimination", "--config", str(cfg), "--trials", str(params["trials"]),
                  "--seed", str(cli_seed(f"{name}/{g}", seed))],
                 f"verify-{g}.csv", params["trials"], expected_codes=(0, 1))
        unit, setup_cfg, tasks = "fading trials", cfg, False
    elif name == "train":
        cfg = write("train.json", system)
        for scheme in TRAIN_SCHEMES:
            call("train",
                 ["train", "--config", str(cfg), "--scheme", scheme,
                  "--rounds", str(params["rounds"]), "--seed", str(s)],
                 f"train-{scheme}.csv", params["rounds"])
        unit, setup_cfg, tasks = "training rounds", cfg, True
    else:  # powopt
        cfg = write("train.json", {**system, "num_ris_elements": params["num_elements"]})
        sweep_cfg = write("sweep.json", {
            "system": {**system, "num_ris_elements": params["num_elements"]},
            "schemes": POWOPT_SCHEMES,
            "n_values": [params["num_elements"]],
            "p_values": [params["p_max"]],
            "trials": params["trials"],
        })
        call("train",
             ["train", "--config", str(cfg), "--scheme", "mmse+powopt",
              "--rounds", str(params["rounds"]), "--seed", str(s)],
             "train-powopt.csv", params["rounds"])
        call("sweep", ["nmse-sweep", "--config", str(sweep_cfg), "--seed", str(s)],
             "sweep-powopt.csv", params["trials"])
        unit, setup_cfg, tasks = "power solves", cfg, True

    h = hashlib.sha256()
    for path in written:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for inv in invocations:
        h.update(" ".join(Path(a).name for a in inv.argv).encode() + b"\0")
    return Workload(name, unit, invocations, setup_cfg, tasks, s, h.hexdigest())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(inv: Invocation, outcome: Outcome) -> None:
    """Fill outcome.problems and outcome.rse from the invocation's output."""
    if outcome.code not in inv.expected_codes:
        outcome.problems.append(f"exit code {outcome.code}, expected {inv.expected_codes}")
        return
    try:
        rows = list(csv.DictReader(io.StringIO(outcome.output.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        outcome.problems.append(f"unreadable output: {exc}")
        return
    if not rows:
        outcome.problems.append("empty output")
        return
    try:
        {"sweep": _check_sweep, "verify": _check_verify, "train": _check_train}[inv.kind](
            rows, outcome)
    except (KeyError, ValueError) as exc:
        outcome.problems.append(f"malformed output: {exc!r}")


def _check_sweep(rows, outcome: Outcome) -> None:
    cells, rse = {}, []
    for r in rows:
        mean, se = float(r["nmse_mean"]), float(r["nmse_stderr"])
        if not (math.isfinite(mean) and math.isfinite(se) and se >= 0):
            outcome.problems.append(f"non-finite NMSE in cell {r['N']},{r['P_max']},{r['scheme']}")
            continue
        cells[(r["N"], r["P_max"], r["scheme"])] = (mean, se)
        if mean > 0 and se > 0 and r["scheme"] not in HEAVY_TAILED:
            rse.append(se / mean)
    # Paired ordering: power control may not lose to the plain MMSE design
    # by more than three (unpaired, hence conservative) standard errors.
    for (n, p, scheme), (mean, se) in cells.items():
        if scheme != "mmse+powopt" or (n, p, "mmse") not in cells:
            continue
        ref, ref_se = cells[(n, p, "mmse")]
        if mean > ref + 3.0 * math.hypot(se, ref_se):
            outcome.problems.append(
                f"mmse+powopt NMSE {mean:.6g} exceeds mmse {ref:.6g} + 3 stderr at N={n}, P={p}")
    # The cells differ by scheme, N and P, so they are pooled by their
    # geometric mean.
    if rse:
        outcome.rse = math.exp(sum(math.log(r) for r in rse) / len(rse))


def _check_verify(rows, outcome: Outcome) -> None:
    z_crit = NormalDist().inv_cdf(1.0 - VERIFY_FAMILY_ALPHA / (2.0 * len(rows)))
    rse = []
    for r in rows:
        mean, se, target = float(r["mean"]), float(r["stderr"]), float(r["target"])
        if not (math.isfinite(mean) and math.isfinite(se) and se > 0):
            outcome.problems.append(f"pair {r['m']},{r['k']}: non-finite or zero stderr")
            continue
        z = (mean - target) / se
        if abs(z) > z_crit:
            outcome.problems.append(
                f"pair {r['m']},{r['k']}: |z|={abs(z):.2f} > {z_crit:.2f} "
                f"(family false-alarm rate {VERIFY_FAMILY_ALPHA:g})")
        if r["same_cluster"] == "True" and mean != 0:
            rse.append(se / abs(mean))
    # The own-cluster pairs are alike; their median is the typical one.
    if rse:
        outcome.rse = median(rse)


def _check_train(rows, outcome: Outcome) -> None:
    loss_by_round: dict[int, float] = {}
    for r in rows:
        t, loss, nmse = int(r["round"]), float(r["loss"]), float(r["nmse"])
        if not (math.isfinite(loss) and math.isfinite(nmse)):
            outcome.problems.append(f"round {t}: non-finite loss or NMSE")
            return
        loss_by_round[t] = loss_by_round.get(t, 0.0) + loss
    first, last = loss_by_round[min(loss_by_round)], loss_by_round[max(loss_by_round)]
    if not last < first:
        outcome.problems.append(f"final summed loss {last:.6g} not below round 0 ({first:.6g})")


def time_to_target(walls: list[float], outcomes: list[Outcome]) -> float | None:
    """Projected seconds until a typical deployment's estimates reach TARGET_RSE.

    Each invocation that produced estimates is one deployment, with its
    own typical relative stderr. The projection is the mean wall time
    of those invocations times (median typical relative stderr /
    TARGET_RSE)**2. The median keeps a deployment whose devices fall
    unusually from swinging the result.
    """
    estimating = [(w, o.rse) for w, o in zip(walls, outcomes) if o.rse]
    if not estimating:
        return None
    wall = sum(w for w, _ in estimating) / len(estimating)
    return wall * (median(r for _, r in estimating) / TARGET_RSE) ** 2
