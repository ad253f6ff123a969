"""Command-line front end.

Subcommands: nmse-sweep, verify-elimination, power-opt, train. Each
reads a JSON config, honors --seed and --out, prints a one-line
summary, and exits 0 on success. For every command but power-opt,
which has no system config, --seed replaces the config's master_seed.
Usage problems and configs that are unreadable, lack a field or are
malformed exit 2; runtime failures, an unwritable --out among them,
exit 1.
Identical invocations produce byte-identical outputs.
The CLI sets glibc's trim and mmap thresholds, so each chunk reuses
the pages of the chunk before it; without glibc's mallopt it does
nothing, no output depends on it, and library callers keep their own
process's allocator settings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import flsim, harness
from .powopt import RatioProblem, solve_projected_ascent
from .sysmodel import ConfigError, as_array, as_number, as_seed, config_from_json
# perfbench/tracing.py WRAPS still times cli.place_geometry; training places its own deployment.
from .sysmodel import place_geometry  # noqa: F401


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="airpfl",
        description="Surface-assisted over-the-air personalized FL simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, run, seed=None):
        """A subparser with the options every subcommand takes."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--out", default=None)
        p.set_defaults(run=run)
        return p

    command("nmse-sweep", "NMSE vs surface size/power/scheme", _cmd_sweep)
    p_ver = command("verify-elimination", "check statistical interference elimination", _cmd_verify)
    p_ver.add_argument("--trials", type=int, default=100_000)
    command("power-opt", "solve a sum-of-ratios power control instance", _cmd_power, seed=0)
    p_train = command("train", "run federated training", _cmd_train)
    p_train.add_argument("--scheme", default="unbiased")
    p_train.add_argument("--rounds", type=int, default=100)
    p_train.add_argument("--eta", type=float, default=flsim.DEFAULT_LEARNING_RATE)
    return parser


def _load_json(path: str) -> dict:
    """The JSON object in the file at path; ConfigError if it cannot be read as one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {doc!r}")
    return doc


def _field(doc: dict, key: str, what: str):
    """doc[key]; ConfigError naming the field when it is absent."""
    if key not in doc:
        raise ConfigError(f"{what} has no {key!r} field")
    return doc[key]


@functools.cache
def _keep_freed_pages() -> None:
    """Keep freed multi-MB arrays in this process's heap, so the next chunk reuses their pages.

    Does nothing where the C library has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    # Both together: setting either one turns off glibc's dynamic rule, so
    # the other would stay at its 128 KiB default and freed arrays would
    # still be unmapped or trimmed. These are the values that rule reaches
    # once a 32 MiB block is freed.
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: chunk arrays come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: freed heap stays mapped


def cli_main(argv: list[str]) -> int:
    _keep_freed_pages()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"airpfl: bad config: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"airpfl: error: {exc}", file=sys.stderr)
        return 1


def _cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    cfg = _seeded(config_from_json(json.dumps(_field(doc, "system", "a sweep config"))), args)
    schemes = _list_field(doc, "schemes", harness.SWEEP_SCHEMES)
    n_values = _list_field(doc, "n_values", harness.DESK_N_VALUES)
    p_values = _list_field(doc, "p_values", harness.DESK_P_VALUES)
    trials = doc.get("trials", harness.DESK_TRIALS)
    result = harness.nmse_sweep(cfg, schemes, n_values, p_values, trials)
    if args.out:
        harness.export_csv(result, args.out)
    print(
        f"nmse-sweep: {len(result.cells)} cells "
        f"({len(schemes)} schemes x {len(n_values)} N x {len(p_values)} P), "
        f"trials={trials}, seed={cfg.master_seed}, config={result.config_digest}"
    )
    return 0


def _seeded(cfg, args):
    """cfg with --seed, when given, as its master_seed: the one seed of the run."""
    return cfg if args.seed is None else cfg.replace(master_seed=args.seed)


def _list_field(doc: dict, key: str, default) -> list:
    """doc[key], or default when absent, as a list; ConfigError unless it is a JSON list."""
    value = doc.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"sweep field {key!r} must be a list, got {value!r}")
    return list(value)


def _cmd_verify(args) -> int:
    cfg = _seeded(config_from_json(json.dumps(_load_json(args.config))), args)
    report = harness.verify_elimination(cfg, args.trials)
    if args.out:
        harness.export_csv(report, args.out)
    npass = sum(r.passed for r in report.rows)
    cpass = sum(c.passed for c in report.corrections)
    print(
        f"verify-elimination: {npass}/{len(report.rows)} pair checks passed, "
        f"{cpass}/{len(report.corrections)} correction checks passed "
        f"(Holm, alpha={report.alpha:g}, smallest adjusted p={report.family_p:.3g}), "
        f"trials={report.trials}, N={report.num_elements}, seed={cfg.master_seed}"
    )
    return 0 if report.all_pass else 1


def _cmd_power(args) -> int:
    """Solve one instance; the summary's iterations= counts solver cycles (AscentResult)."""
    doc = _load_json(args.config)
    a, b, c, bounds = (
        as_array(f"power problem {key}", _field(doc, key, "a power problem"), as_number)
        for key in ("A", "b", "c", "bounds")
    )
    prob = RatioProblem(a_diag=a[None], b=b[None], c=c, bounds=bounds)
    sol = solve_projected_ascent(prob, [as_seed("seed", args.seed)])
    payload = {
        "q": [float(v) for v in sol.q[0]],
        "objective": float(sol.objective[0]),
        "converged": sol.converged,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    print(
        f"power-opt: objective={sol.objective[0]:.12g}, converged={sol.converged}, "
        f"iterations={sol.iterations}, seed={args.seed}"
    )
    return 0


def _cmd_train(args) -> int:
    doc = _load_json(args.config)
    cfg = _seeded(config_from_json(json.dumps(doc)), args)
    seed = cfg.master_seed
    tasks, _ = flsim.synth_clustered_tasks(
        cfg,
        samples_per_device=doc.get("samples_per_device", 50),
        label_noise=doc.get("label_noise", 0.1),
        task_seed=seed,
    )
    history = flsim.run_training(cfg, tasks, args.scheme, args.rounds, args.eta)
    if args.out:
        harness.export_csv(history, args.out)
    final = float(history.losses[-1].sum())
    mean_nmse = float(history.nmse.mean())
    print(
        f"train[{args.scheme}]: rounds={args.rounds}, eta={args.eta}, "
        f"final summed loss={final:.12g}, mean nmse={mean_nmse:.6g}, seed={seed}"
    )
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
