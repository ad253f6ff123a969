"""Per-layer tracing from outside the program.

The tracer replaces module-level callables of `airpfl` with timing
wrappers while a traced cycle runs and restores them afterwards. It
works because every call site looks its callee up in a module namespace
at call time. Each wrapped callable is recorded under a concept (a layer
operation such as "channel.draw"), never under its function name, so a
refactor that renames or merges functions only changes `WRAPS`.

A layer's time is the self time of its spans: span duration minus the
time covered by its child spans. Self times of all concepts therefore
add up to the traced wall time without double counting.

If any callable listed for a concept no longer exists, every metric of
that concept is reported as unmeasured instead of as a partial number.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from collections import Counter
from statistics import median


def _operand_bytes(args, kwargs, result) -> dict:
    total = 0
    for a in list(args) + list(kwargs.values()):
        if hasattr(a, "ris_to_ps"):  # a ChannelSet
            total += a.ris_to_ps.nbytes + a.device_to_ris.nbytes
        elif hasattr(a, "nbytes") and getattr(a, "ndim", 0) > 0:
            total += a.nbytes
    return {"gain_bytes": total}


def _draw_bytes(args, kwargs, result) -> dict:
    if hasattr(result, "ris_to_ps"):
        arrays = (result.ris_to_ps, result.device_to_ris)
    else:
        arrays = result
    return {"draw_bytes": 16 * sum(a.size for a in arrays)}  # 16 B per complex draw


def _denoisers(args, kwargs, result) -> dict:
    # A fallback is detected by value: the MMSE denoiser never equals the
    # statistical one bit for bit unless it was substituted for it.
    fallback = kwargs["fallback"] if "fallback" in kwargs else args[5]
    return {
        "denoiser_inf": int((result == math.inf).sum()),
        "denoiser_fallback": int((result == fallback).sum()),
    }


def _solve(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


def _verdicts(args, kwargs, result) -> dict:
    failed = sum(not r.passed for r in result.rows)
    failed += sum(not c.passed for c in result.corrections)
    return {"checks_failed": failed}


_SEEDING = [(mod, fn, "seeding.derive", None)
            for mod in ("harness", "flsim", "sysmodel")
            for fn in ("derive_seed", "rng_from_seed")]
_SEEDING += [(mod, "rng_from_seed", "seeding.derive", None)
             for mod in ("channel", "aircomp", "ris", "powopt")]

# (module under airpfl, attribute, concept, counter function)
WRAPS = [
    ("harness", "_sample_batch", "channel.draw", _draw_bytes),
    ("flsim", "sample_small_scale", "channel.draw", _draw_bytes),
    ("harness", "_gains_batch", "channel.gain", _operand_bytes),
    ("harness", "_components_batch", "channel.gain", _operand_bytes),
    ("flsim", "all_cascaded_gains", "channel.gain", _operand_bytes),
    ("harness", "_aligned_phases_batch", "ris.align", None),
    ("flsim", "configure_aligned", "ris.align", None),
    ("flsim", "baseline_phases", "ris.align", None),
    ("harness", "corrupt_phases", "ris.quantize", None),
    ("harness", "_unbiased_batch", "control.design", None),
    ("flsim", "unbiased_design", "control.design", None),
    ("harness", "_adaptive_lambda_batch", "control.denoise", _denoisers),
    ("flsim", "adaptive_denoisers", "control.denoise", _denoisers),
    ("powopt", "solve_projected_ascent", "powopt.solve", _solve),
    ("flsim", "solve_projected_ascent", "powopt.solve", _solve),
    ("powopt", "assemble_ratio_problem", "powopt.assemble", None),
    ("flsim", "assemble_ratio_problem", "powopt.assemble", None),
    ("flsim", "normalize_gradient", "aircomp.normalize", None),
    ("flsim", "uplink", "aircomp.uplink", None),
    ("flsim", "estimate_cluster_gradient", "aircomp.estimate", None),
    ("flsim", "local_gradient", "flsim.grad", None),
    ("flsim", "local_loss", "flsim.loss", None),
    ("flsim", "run_training", "flsim.self", None),
    ("harness", "nmse_sweep", "harness.self", None),
    ("harness", "verify_elimination", "harness.self", _verdicts),
    ("harness", "export_csv", "harness.export", None),
    ("cli", "config_from_json", "sysmodel.setup", None),
    ("cli", "place_geometry", "sysmodel.setup", None),
    ("harness", "place_geometry", "sysmodel.setup", None),
    ("flsim", "synth_clustered_tasks", "sysmodel.setup", None),
] + _SEEDING

ROOT = "cli"  # span the runner opens around each CLI invocation


def _time(concept):
    return lambda agg: agg.self_ns[concept] / 1e9


def _calls(*concepts):
    return lambda agg: sum(agg.calls[c] for c in concepts)


def _counter(key, scale=1):
    return lambda agg: agg.counters[key] if scale == 1 else agg.counters[key] / scale


def _converged_frac(agg):
    solves = agg.calls["powopt.solve"]
    return agg.counters["converged"] / solves if solves else 0.0


# metric name -> (unit, better, concepts it needs, value from a cycle's aggregate)
LAYER_METRICS = {
    "channel.draw_s": ("s", "lower", ["channel.draw"], _time("channel.draw")),
    "channel.draw_calls": ("count", "lower", ["channel.draw"], _calls("channel.draw")),
    "channel.draw_mb": ("MB", "lower", ["channel.draw"], _counter("draw_bytes", 1e6)),
    "channel.gain_s": ("s", "lower", ["channel.gain"], _time("channel.gain")),
    "channel.gain_calls": ("count", "lower", ["channel.gain"], _calls("channel.gain")),
    "channel.gain_mb": ("MB", "lower", ["channel.gain"], _counter("gain_bytes", 1e6)),
    "ris.align_s": ("s", "lower", ["ris.align"], _time("ris.align")),
    "ris.quantize_s": ("s", "lower", ["ris.quantize"], _time("ris.quantize")),
    "ris.align_calls": ("count", "lower", ["ris.align"], _calls("ris.align")),
    "control.design_s": ("s", "lower", ["control.design"], _time("control.design")),
    "control.denoise_s": ("s", "lower", ["control.denoise"], _time("control.denoise")),
    "control.denoiser_inf": ("count", "lower", ["control.denoise"], _counter("denoiser_inf")),
    "control.denoiser_fallback": (
        "count", "lower", ["control.denoise"], _counter("denoiser_fallback")),
    "powopt.solve_s": ("s", "lower", ["powopt.solve"], _time("powopt.solve")),
    "powopt.assemble_s": ("s", "lower", ["powopt.assemble"], _time("powopt.assemble")),
    "powopt.solves": ("count", "lower", ["powopt.solve"], _calls("powopt.solve")),
    "powopt.iterations": ("count", "lower", ["powopt.solve"], _counter("iterations")),
    "powopt.converged_frac": ("fraction", "higher", ["powopt.solve"], _converged_frac),
    "aircomp.normalize_s": ("s", "lower", ["aircomp.normalize"], _time("aircomp.normalize")),
    "aircomp.uplink_s": ("s", "lower", ["aircomp.uplink"], _time("aircomp.uplink")),
    "aircomp.estimate_s": ("s", "lower", ["aircomp.estimate"], _time("aircomp.estimate")),
    "aircomp.calls": (
        "count", "lower", ["aircomp.normalize", "aircomp.uplink", "aircomp.estimate"],
        _calls("aircomp.normalize", "aircomp.uplink", "aircomp.estimate")),
    "flsim.grad_s": ("s", "lower", ["flsim.grad"], _time("flsim.grad")),
    "flsim.loss_s": ("s", "lower", ["flsim.loss"], _time("flsim.loss")),
    "flsim.self_s": ("s", "lower", ["flsim.self"], _time("flsim.self")),
    "seeding.derive_s": ("s", "lower", ["seeding.derive"], _time("seeding.derive")),
    "seeding.derive_calls": ("count", "lower", ["seeding.derive"], _calls("seeding.derive")),
    "harness.self_s": ("s", "lower", ["harness.self"], _time("harness.self")),
    "harness.export_s": ("s", "lower", ["harness.export"], _time("harness.export")),
    "harness.checks_failed": ("count", "lower", ["harness.self"], _counter("checks_failed")),
    "sysmodel.setup_s": ("s", "lower", ["sysmodel.setup"], _time("sysmodel.setup")),
}

# Metrics whose value is an exact count; they must repeat across cycles.
EXACT = {m for m, (unit, *_rest) in LAYER_METRICS.items() if unit in ("count", "MB")}


class CycleAggregate:
    """Self time, calls and counters of one traced cycle, per concept."""

    def __init__(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.counters = Counter()


class Tracer:
    """Install/uninstall wrappers and keep every span in memory."""

    def __init__(self):
        self.concepts: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        # flat spans: concept id, start ns, end ns, parent index (-1 = none), run id
        self.spans = array("q")
        self._stack: list[list] = []   # [span index, start ns, child ns, concept]
        self.agg = CycleAggregate()
        self.run_id = 0
        self.missing: list[str] = []       # callables that no longer exist
        self.unmeasured: set[str] = set()  # concepts with a missing callable
        self._originals: list[tuple] = []
        self._targets = self._resolve()

    def _resolve(self):
        targets = []
        for mod_name, attr, concept, counter in WRAPS:
            try:
                module = importlib.import_module(f"airpfl.{mod_name}")
            except ImportError:
                module = None
            if not callable(getattr(module, attr, None)):
                self.missing.append(f"airpfl.{mod_name}.{attr}")
                self.unmeasured.add(concept)
                continue
            targets.append((module, attr, concept, counter))
            if concept not in self._ids:
                self._ids[concept] = len(self.concepts)
                self.concepts.append(concept)
        return targets

    def install(self) -> None:
        for module, attr, concept, counter in self._targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, concept, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def begin(self, concept: str) -> None:
        cid = self._ids[concept]
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans) // 5
        start = time.perf_counter_ns()
        self.spans.extend((cid, start, 0, parent, self.run_id))
        self._stack.append([index, start, 0, concept])

    def end(self) -> None:
        stop = time.perf_counter_ns()
        index, start, child_ns, concept = self._stack.pop()
        self.spans[index * 5 + 2] = stop
        duration = stop - start
        self.agg.self_ns[concept] += duration - child_ns
        self.agg.calls[concept] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, concept, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(concept)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if counter is not None:
                tracer.agg.counters.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def take_cycle(self) -> CycleAggregate:
        agg, self.agg = self.agg, CycleAggregate()
        return agg

    def write(self, path) -> None:
        """Write every span as one line: concept,start_ns,end_ns,parent,run."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# concepts: " + ",".join(self.concepts) + "\n")
            fh.write("concept,start_ns,end_ns,parent,run\n")
            s = self.spans
            for i in range(0, len(s), 5):
                fh.write(f"{s[i]},{s[i + 1]},{s[i + 2]},{s[i + 3]},{s[i + 4]}\n")


def layer_metrics(tracer: Tracer, cycles: list[CycleAggregate]) -> tuple[dict, list[str]]:
    """Per-cycle layer metrics: median times, exact counts.

    Returns the metrics and a list of problems (counts that did not
    repeat exactly across the cycles of one run).
    """
    unmeasured = tracer.unmeasured
    metrics, problems = {}, []
    for name, (unit, _better, needs, value) in LAYER_METRICS.items():
        if unmeasured.intersection(needs):
            metrics[name] = {"value": None, "unit": unit, "unmeasured": True}
            continue
        values = [value(c) for c in cycles]
        if name in EXACT:
            if len(set(values)) != 1:
                problems.append(f"{name} differs across identical cycles: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": median(values), "unit": unit}
    return metrics, problems
