"""Experiment drivers: estimation-error sweeps and alignment checks.

The sweep measures gradient-estimation NMSE on synthetic standardized
gradients across surface sizes, power budgets, and schemes. The
alignment check verifies the statistical interference elimination of
the aligned phase design pairwise: own-cluster effective gains must
match their closed-form mean and cross-cluster gains must average to
zero within Monte Carlo error.

Both drivers vectorize across trials in fixed-size chunks, so a run is
a pure function of (config, arguments, seed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .aircomp import cluster_average, normalize_gradient
from .channel import large_scale_coefficients
from .flsim import aggregate_round, estimation_nmse, parse_scheme
from .ris import baseline_phases, corrupt_phases
from .seeding import derive_seed, rng_from_seed
from .sysmodel import ConfigError, SystemConfig, make_config, place_geometry

# perfbench/tracing.py WRAPS still looks these kernels up under their former harness names.
from .channel import all_cascaded_gains as _gains_batch
from .channel import cascaded_components as _components_batch
from .channel import sample_small_scale as _sample_batch
from .control import adaptive_denoisers as _adaptive_lambda_batch  # noqa: F401 - called via flsim
from .control import unbiased_design as _unbiased_batch  # noqa: F401 - called via flsim
from .ris import configure_aligned as _aligned_phases_batch

CHUNK = 100

SWEEP_SCHEMES = ("unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase")

DESK_N_VALUES = (16, 32, 64, 128, 256)
DESK_P_VALUES = (0.1, 10.0)
DESK_TRIALS = 500


def desk_scale_config(master_seed: int = 7) -> SystemConfig:
    """Default 20-device, 4-cluster deployment used by the demos."""
    K, M = 20, 4
    return make_config(
        num_devices=K,
        num_clusters=M,
        num_ris_elements=64,
        model_dim=64,
        cluster_of=np.repeat(np.arange(M), K // M),
        max_power=1.0,
        noise_var=1e-10,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# NMSE sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    num_elements: int
    p_max: float
    scheme: str
    trials: int
    nmse_mean: float
    nmse_stderr: float


@dataclass(frozen=True)
class SweepResult:
    cells: list[SweepCell]
    seed: int
    config_digest: str

    def csv_header(self) -> list[str]:
        return ["N", "P_max", "scheme", "trials", "nmse_mean", "nmse_stderr", "seed"]

    def csv_rows(self) -> list[tuple]:
        return [
            (c.num_elements, c.p_max, c.scheme, c.trials, c.nmse_mean, c.nmse_stderr, self.seed)
            for c in self.cells
        ]

    def cell(self, num_elements: int, p_max: float, scheme: str) -> SweepCell:
        for c in self.cells:
            if c.num_elements == num_elements and c.p_max == p_max and c.scheme == scheme:
                return c
        raise KeyError((num_elements, p_max, scheme))


def nmse_sweep(
    cfg: SystemConfig,
    schemes: list,
    n_values: list[int],
    p_values: list[float],
    trials: int,
    seed: int,
) -> SweepResult:
    """Monte Carlo NMSE of the cluster gradient estimates.

    For every (N, P, scheme) cell, runs `trials` independent rounds
    with fresh channels, fresh synthetic gradients (i.i.d. standard
    normal entries per device, standardized exactly before
    transmission), and fresh noise; reports mean NMSE and its standard
    error. Channel, gradient, and noise draws are shared across
    schemes within a cell so scheme comparisons are paired. Malformed
    or repeated scheme labels raise ConfigError before any trial runs.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    parsed = [parse_scheme(s) for s in schemes]
    names = [s.name for s in parsed]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"repeated sweep schemes {repeated}")
    geometry = place_geometry(cfg, seed)
    beta_full = large_scale_coefficients(geometry, cfg.pathloss_exponent)
    cells = []
    for n in n_values:
        for p_max in p_values:
            cell_cfg = cfg.replace(
                num_ris_elements=int(n), max_power=np.full(cfg.num_devices, float(p_max))
            )
            stats = _sweep_cell(cell_cfg, beta_full, float(p_max), parsed, trials, seed)
            for s in parsed:
                mean, stderr = stats[s.name]
                cells.append(
                    SweepCell(
                        num_elements=int(n),
                        p_max=float(p_max),
                        scheme=s.name,
                        trials=trials,
                        nmse_mean=mean,
                        nmse_stderr=stderr,
                    )
                )
    digest = hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]
    return SweepResult(cells=cells, seed=seed, config_digest=digest)


def _sweep_cell(cfg, beta, p_max, schemes, trials, seed):
    M, K, D, n = cfg.num_clusters, cfg.num_devices, cfg.model_dim, cfg.num_ris_elements
    channel_schemes = [s for s in schemes if s.design != "ideal"]
    sums = {s.name: 0.0 for s in channel_schemes}
    sqsums = {s.name: 0.0 for s in channel_schemes}
    for start in range(0, trials, CHUNK):
        tc = min(CHUNK, trials - start)
        rng = rng_from_seed(derive_seed(seed, "sweep-cell", n, repr(p_max), start))
        ch = _sample_batch(rng, tc, M, K, n)
        raw = rng.standard_normal((tc, K, D))
        noise = rng.standard_normal((tc, M, D))
        phases = {"random": baseline_phases(rng, tc, M, n)}
        grads = normalize_gradient(raw)
        g_true = cluster_average(raw, cfg.cluster_of, M)
        gains_cache: dict = {}

        for s in channel_schemes:
            key = (s.phases, s.bits)
            if key not in gains_cache:
                if s.phases not in phases:
                    phases[s.phases] = _aligned_phases_batch(ch, cfg.cluster_of)
                theta = phases[s.phases]
                if s.bits is not None:
                    theta = corrupt_phases(theta, s.bits)
                gains_cache[key] = _gains_batch(ch, beta, theta)
            seeds = (
                [derive_seed(seed, "sweep-powopt", n, start + t) for t in range(tc)]
                if s.powopt
                else ()
            )
            g_hat = aggregate_round(cfg, beta, s, gains_cache[key], grads, noise, seeds)
            err = estimation_nmse(g_hat, g_true)
            sums[s.name] += float(err.sum())
            sqsums[s.name] += float((err**2).sum())

    out = {s.name: (0.0, 0.0) for s in schemes if s.design == "ideal"}
    for s in channel_schemes:
        mean = sums[s.name] / trials
        var = max(sqsums[s.name] / trials - mean**2, 0.0) * trials / (trials - 1)
        out[s.name] = (mean, float(np.sqrt(var / trials)))
    return out


# ---------------------------------------------------------------------------
# interference-elimination verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EliminationRow:
    antenna: int
    device: int
    same_cluster: bool
    mean: float
    stderr: float
    target: float
    passed: bool


@dataclass(frozen=True)
class CorrectionCheck:
    """Zero-mean check of one foreign-surface component of an own-cluster gain."""

    antenna: int
    device: int
    surface: int
    mean: float
    stderr: float
    passed: bool


@dataclass(frozen=True)
class EliminationReport:
    rows: list[EliminationRow]
    corrections: list[CorrectionCheck]
    trials: int
    num_elements: int
    pairs_pass: bool
    corrections_pass: bool
    all_pass: bool

    def csv_header(self) -> list[str]:
        return ["m", "k", "same_cluster", "mean", "stderr", "target", "pass"]

    def csv_rows(self) -> list[tuple]:
        return [
            (r.antenna, r.device, r.same_cluster, r.mean, r.stderr, r.target, r.passed)
            for r in self.rows
        ]


def verify_elimination(
    cfg: SystemConfig, trials: int, seed: int, phases: str = "aligned"
) -> EliminationReport:
    """Check statistical interference elimination pair by pair.

    Samples `trials` fading realizations under the aligned phase
    design with unit powers and unit denoisers, then tests each
    (antenna m, device k) effective-gain mean: own-cluster pairs
    against beta[m, k] * pi * N / (4 * sqrt(|cluster|)), cross-cluster
    pairs against zero, both at three standard errors. Foreign-surface
    components of own-cluster gains are checked against zero as well.

    With phases="random" the run becomes a negative control: uniform
    random phases destroy the alignment, so every pair (own-cluster
    included) is tested against a zero mean.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if phases not in ("aligned", "random"):
        raise ValueError("phases must be 'aligned' or 'random'")
    M, K, N = cfg.num_clusters, cfg.num_devices, cfg.num_ris_elements
    geometry = place_geometry(cfg, seed)
    beta = large_scale_coefficients(geometry, cfg.pathloss_exponent)
    members = cfg.clusters()
    sizes = np.array([idx.size for idx in members])

    s1 = np.zeros((M, K))
    s2 = np.zeros((M, K))
    c1 = np.zeros((M, M, K))
    c2 = np.zeros((M, M, K))
    for start in range(0, trials, CHUNK):
        tc = min(CHUNK, trials - start)
        rng = rng_from_seed(derive_seed(seed, "elimination", start))
        ch = _sample_batch(rng, tc, M, K, N)
        if phases == "random":
            theta = baseline_phases(rng, tc, M, N)
        else:
            theta = _aligned_phases_batch(ch, cfg.cluster_of)
        comp = _components_batch(ch, beta, theta)  # (tc, M_surface, M_antenna, K)
        full = comp.sum(axis=1)  # (tc, M, K)
        s1 += full.sum(axis=0)
        s2 += (full**2).sum(axis=0)
        c1 += comp.sum(axis=0).transpose(1, 0, 2)  # (antenna, surface, device)
        c2 += (comp**2).sum(axis=0).transpose(1, 0, 2)

    def stats(total, total_sq):
        mean = total / trials
        var = np.maximum(total_sq / trials - mean**2, 0.0) * trials / (trials - 1)
        return mean, np.sqrt(var / trials)

    mean, stderr = stats(s1, s2)
    cmean, cstderr = stats(c1, c2)

    rows = []
    corrections = []
    for m in range(M):
        for k in range(K):
            own = int(cfg.cluster_of[k]) == m
            aligned_own = own and phases == "aligned"
            target = (
                beta[m, k] * np.pi * N / (4.0 * np.sqrt(sizes[m]))
                if aligned_own
                else 0.0
            )
            passed = bool(abs(mean[m, k] - target) <= 3.0 * stderr[m, k])
            rows.append(
                EliminationRow(
                    antenna=m,
                    device=k,
                    same_cluster=own,
                    mean=float(mean[m, k]),
                    stderr=float(stderr[m, k]),
                    target=float(target),
                    passed=passed,
                )
            )
            if own:
                for i in range(M):
                    if i == m:
                        continue
                    ok = bool(abs(cmean[m, i, k]) <= 3.0 * cstderr[m, i, k])
                    corrections.append(
                        CorrectionCheck(
                            antenna=m,
                            device=k,
                            surface=i,
                            mean=float(cmean[m, i, k]),
                            stderr=float(cstderr[m, i, k]),
                            passed=ok,
                        )
                    )
    pairs_pass = all(r.passed for r in rows)
    corrections_pass = all(c.passed for c in corrections)
    return EliminationReport(
        rows=rows,
        corrections=corrections,
        trials=trials,
        num_elements=N,
        pairs_pass=pairs_pass,
        corrections_pass=corrections_pass,
        all_pass=pairs_pass and corrections_pass,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def export_csv(result, path: str) -> None:
    """Write any result exposing csv_header()/csv_rows() to a CSV file.

    Floats are written with 17 significant digits so a round trip
    through the file reproduces them exactly. An empty result produces
    a header-only file.
    """
    header = result.csv_header()
    rows = result.csv_rows()
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
