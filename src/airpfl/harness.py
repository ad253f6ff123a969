"""Experiment drivers: estimation-error sweeps and alignment checks.

The sweep measures gradient-estimation NMSE on synthetic standardized
gradients across surface sizes, power budgets, and schemes. The
alignment check verifies the statistical interference elimination of
the aligned phase design pairwise: own-cluster effective gains must
match their closed-form mean and cross-cluster gains must average to
zero within Monte Carlo error, under one family-wise test of stated
false-alarm rate.

Both drivers draw from the config's master_seed and vectorize across
trials in fixed-size chunks, so a run is a pure function of (config,
arguments).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flsim
from .aircomp import cluster_average, normalize_gradient
from .channel import large_scale_coefficients
from .flsim import aggregate_round, draw_gains, estimation_nmse, parse_scheme, phase_configurations
from .seeding import derive_seed, rng_from_seed
from .sysmodel import (
    ConfigError,
    SystemConfig,
    as_integer,
    as_number,
    make_config,
    membership,
    place_geometry,
)

# perfbench/tracing.py WRAPS still looks these kernels up under their former harness names;
# of them only _sample_batch is called here, by the verifier.
from .channel import all_cascaded_gains as _gains_batch  # noqa: F401
from .channel import cascaded_components as _components_batch  # noqa: F401
from .channel import sample_small_scale as _sample_batch
from .control import adaptive_denoisers as _adaptive_lambda_batch  # noqa: F401
from .control import unbiased_design as _unbiased_batch  # noqa: F401
from .ris import configure_aligned as _aligned_phases_batch  # noqa: F401
from .ris import corrupt_phases  # noqa: F401

CHUNK = 100

SWEEP_SCHEMES = ("unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase")

DESK_N_VALUES = (16, 32, 64, 128, 256)
DESK_P_VALUES = (0.1, 10.0)
DESK_TRIALS = 500

# Family-wise false-alarm rate of verify_elimination: the probability
# that correct code fails any of its checks.
VERIFY_ALPHA = 1e-3


class Moments:
    """Count, mean and centred sum of squares of samples stacked along axis 0.

    Each chunk's mean and centred sum of squares are taken in two passes
    and merged into the running ones by the update of Chan, Golub &
    LeVeque (1983), so the variance does not cancel when it is much
    smaller than the squared mean, as a one-pass sum of squares does.
    Samples are shifted by the first chunk's mean, so the merge
    subtracts means of the spread's size rather than of the data's.
    """

    def __init__(self) -> None:
        self.count = 0
        self.shift = 0.0
        self.shifted_mean = 0.0
        self.m2 = 0.0

    def add(self, chunk: np.ndarray) -> None:
        if self.count == 0:
            self.shift = chunk.mean(axis=0)
        chunk = chunk - self.shift
        n = chunk.shape[0]
        mean = chunk.mean(axis=0)
        m2 = ((chunk - mean) ** 2).sum(axis=0)
        total = self.count + n
        delta = mean - self.shifted_mean
        self.shifted_mean = self.shifted_mean + delta * (n / total)
        self.m2 = self.m2 + m2 + delta**2 * (self.count * n / total)
        self.count = total

    @property
    def mean(self):
        return self.shift + self.shifted_mean

    @property
    def variance(self):
        """Unbiased sample variance (needs at least 2 samples)."""
        return self.m2 / (self.count - 1)

    @property
    def stderr(self):
        """Standard error of the mean."""
        return np.sqrt(self.variance / self.count)


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

class SweepCell(NamedTuple):
    """One cell of the sweep; its fields are its CSV columns, in order."""

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
        return [(*c, self.seed) for c in self.cells]

    def cell(self, num_elements: int, p_max: float, scheme: str) -> SweepCell:
        for c in self.cells:
            if c.num_elements == num_elements and c.p_max == p_max and c.scheme == scheme:
                return c
        raise KeyError((num_elements, p_max, scheme))


def nmse_sweep(
    cfg: SystemConfig,
    schemes: list[str],
    n_values: list[int],
    p_values: list[float],
    trials: int,
) -> SweepResult:
    """Monte Carlo NMSE of the cluster gradient estimates.

    For every (N, P, scheme) cell, runs `trials` independent rounds
    with fresh channels, fresh synthetic gradients (i.i.d. standard
    normal entries per device, standardized exactly before
    transmission), and fresh noise; reports mean NMSE and its standard
    error. Rows are ordered by N in the given order, then P, then
    scheme.

    Every cell of the grid shares each chunk's draw: one draw_gains
    call (airpfl.flsim) for every surface size and phase key, then the
    gradients and noise. The power budget changes only the statistical
    design and the aggregation. Comparisons along each of the three
    axes are therefore paired, while each cell's law is exactly that of
    an independent run of its own, and a cell's statistics do not
    depend on the other budgets beside it, nor on the order of the
    sizes or of the schemes (see draw_gains for what is shared).

    Every draw, the device placement included, derives from
    cfg.master_seed, which the config digest covers. Malformed or
    repeated scheme labels, repeated, non-integral or invalid surface
    sizes, power budgets that are not numbers or are invalid, an empty
    list of schemes, sizes or budgets, and a non-integral or too small
    trial count raise ConfigError before any trial runs.
    """
    for name, values in (("schemes", schemes), ("n_values", n_values), ("p_values", p_values)):
        if len(values) == 0:
            raise ConfigError(f"the sweep needs at least one entry in {name}")
    trials = as_integer("trials", trials)
    if trials < 2:
        raise ConfigError("need at least 2 trials for a standard error")
    parsed = [parse_scheme(s) for s in schemes]
    names = [s.name for s in parsed]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"repeated sweep schemes {repeated}")
    n_values = [as_integer("surface size", n) for n in n_values]
    p_values = [as_number("power budget", p) for p in p_values]
    grid = {  # replace() validates every cell's surface size and power budget
        (n, p): cfg.replace(num_ris_elements=n, max_power=np.full(cfg.num_devices, p))
        for n in n_values
        for p in p_values
    }
    if len(grid) < len(n_values) * len(p_values):
        raise ConfigError(f"repeated sweep values in N={list(n_values)} or P={list(p_values)}")
    geometry = place_geometry(cfg, cfg.master_seed)
    beta_full = large_scale_coefficients(geometry, cfg.pathloss_exponent)
    stats = _sweep_cell(grid, beta_full, parsed, trials, cfg.master_seed)
    cells = [
        SweepCell(n, p, s.name, trials, *stats[n, p, s.name])
        for n in n_values
        for p in p_values
        for s in parsed
    ]
    digest = hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]
    return SweepResult(cells=cells, seed=cfg.master_seed, config_digest=digest)


def _sweep_cell(cfgs, beta, schemes, trials, seed):
    """Every cell of the grid: {(N, P): config} -> {(N, P, scheme name): stats}.

    Each chunk draws the gains of every size and phase key with one
    draw_gains call, its generator serving for the random phases too,
    then its gradients and noise, once. Only the statistical design
    (once per size and budget) and the aggregation (once per size,
    budget and scheme) run per cell.
    """
    cfg = next(iter(cfgs.values()))
    M, K, D, cluster_of = cfg.num_clusters, cfg.num_devices, cfg.model_dim, cfg.cluster_of
    sizes = {n for n, _ in cfgs}
    channel_schemes = [s for s in schemes if s.design != "ideal"]
    keys = {s.key for s in channel_schemes}
    moments = {(n, p, s.name): Moments() for n, p in cfgs for s in channel_schemes}
    # Ideal cells are exactly 0: a grid of them alone draws nothing.
    for start in range(0, trials if channel_schemes else 0, CHUNK):
        tc = min(CHUNK, trials - start)
        rng = rng_from_seed(derive_seed(seed, "sweep-cell", max(sizes), start))
        gains = draw_gains(rng, rng, tc, cluster_of, beta, sizes, keys)
        raw = rng.standard_normal((tc, K, D))
        noise = rng.standard_normal((tc, M, D))
        grads = normalize_gradient(raw)
        g_true = cluster_average(raw, cluster_of, M)
        del raw

        seeds = {
            n: [derive_seed(seed, "sweep-powopt", n, start + t) for t in range(tc)]
            if any(s.powopt for s in channel_schemes)
            else ()
            for n in sizes
        }
        for (n, p), cell_cfg in cfgs.items():
            design = flsim.unbiased_design(beta, grads.std, cell_cfg.max_power, D, n, cluster_of)
            for s in channel_schemes:
                g_hat = aggregate_round(
                    cell_cfg, s, design, gains[n, s.key], grads, noise, seeds[n]
                )
                moments[n, p, s.name].add(estimation_nmse(g_hat, g_true))

    out = {(n, p, s.name): (0.0, 0.0) for n, p in cfgs for s in schemes if s.design == "ideal"}
    for key, stats in moments.items():
        out[key] = (float(stats.mean), float(stats.stderr))
    return out


# ---------------------------------------------------------------------------
# interference-elimination verification
# ---------------------------------------------------------------------------

class EliminationRow(NamedTuple):
    """One pair check: the mean effective gain of device k at antenna m; a CSV row."""

    antenna: int
    device: int
    same_cluster: bool
    mean: float
    stderr: float
    target: float
    passed: bool
    z: float


class CorrectionCheck(NamedTuple):
    """Zero-mean check of one drawn term: device k's reflection off surface i at antenna m.

    The term is the whole reflection for a foreign surface and the
    residual about the cluster-mean reflection for the device's own
    surface; mean and stderr are scaled by beta[i, k].
    """

    antenna: int
    device: int
    surface: int
    mean: float
    stderr: float
    passed: bool
    z: float


@dataclass(frozen=True)
class EliminationReport:
    """Every check of one verification run and their family-wise verdict.

    `passed` on each row and correction is the Holm decision at family
    false-alarm rate `alpha`; `family_p` is the smallest Holm-adjusted
    p-value, so all_pass holds exactly when family_p > alpha.
    """

    rows: list[EliminationRow]
    corrections: list[CorrectionCheck]
    trials: int
    num_elements: int
    pairs_pass: bool
    corrections_pass: bool
    all_pass: bool
    alpha: float
    family_p: float

    def csv_header(self) -> list[str]:
        return ["m", "k", "same_cluster", "mean", "stderr", "target", "pass", "z"]

    def csv_rows(self) -> list[tuple]:
        return list(self.rows)


def _z_scores(deviation: np.ndarray, stderr: np.ndarray) -> np.ndarray:
    """deviation / stderr; a zero-variance estimate is z = 0 if it sits on its target, else inf."""
    exact = np.where(deviation == 0.0, 0.0, np.copysign(np.inf, deviation))
    return np.divide(deviation, stderr, out=exact, where=stderr > 0.0)


def _scalars(*arrays):
    """Tuples of Python scalars, one per element of the equally sized arrays, in C order."""
    return zip(*(a.ravel().tolist() for a in arrays))


def _holm(z: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Holm (1979) step-down decisions for two-sided normal z-scores.

    Returns which checks pass (are not rejected) at family-wise
    false-alarm rate alpha under any dependence between the checks, and
    the smallest Holm-adjusted p-value, min(1, n * smallest p). The
    step-down visits the checks by decreasing |z| and stops at the first
    one whose p-value exceeds alpha / (checks left). The two-sided
    normal tail P(|Z| > |z|) is erfc(|z| / sqrt 2), exact in the far
    tail, where 1 - cdf cancels.
    """
    n = z.size
    passed = np.ones(n, dtype=bool)
    family_p = 1.0
    magnitude = np.abs(z)
    for step, index in enumerate(np.argsort(-magnitude, kind="stable").tolist()):
        p = math.erfc(float(magnitude[index]) / math.sqrt(2.0))
        if step == 0:
            family_p = min(1.0, n * p)
        if p * (n - step) > alpha:
            break
        passed[index] = False
    return passed, family_p


def verify_elimination(
    cfg: SystemConfig, trials: int, phases: str = "aligned"
) -> EliminationReport:
    """Check statistical interference elimination pair by pair.

    Samples `trials` fading realizations from cfg.master_seed under the
    aligned phase design with unit powers and unit denoisers, then tests
    each (antenna m, device k) effective-gain mean: own-cluster pairs
    against beta[m, k] * pi * N / (4 * sqrt(|cluster|)), cross-cluster
    pairs against zero. Every drawn term (antenna m, surface i, device
    k), foreign reflections and own residuals alike, is tested against
    zero as well. All checks form one family, decided by Holm's
    step-down rule at family-wise false-alarm rate VERIFY_ALPHA.

    A pair's gain is sum_i beta[i, k] times device k's reflection off
    surface i: the drawn terms, plus beta[c, k] / |C_c| times the
    cluster-sum term Re{W_c^H[:, m] s_c} of its own surface c (the
    draw's summed_terms). Given the surface-to-PS paths H and the
    cluster sums s, every drawn term has mean exactly 0 (see
    airpfl.channel). So the pair estimate is the Rao-Blackwell one, the
    conditional expectation of the gain given (H, s): beta[c, k] / |C_c|
    times the sample moments of the cluster-sum term. It has the same
    mean as the full gain and a smaller variance. An own-cluster pair
    reads the term at surface c's own antenna, computed from its
    materialized path, so those checks test exactly the alignment; a
    cross-cluster pair reads it at a foreign antenna, where the sampler
    draws it as a projection of the path it does not materialize, so
    those checks test the sampler's projections and this function's
    bookkeeping. The drawn-term (correction) checks test that the
    sampler's drawn terms are zero mean. A drawn term with zero sample
    variance (the residual of a singleton cluster, exactly 0) scores
    z = 0.

    With phases="random" the run becomes a negative control: uniform
    random phases destroy the alignment, so every pair (own-cluster
    included) is tested against a zero mean. A trial count below 2 or
    that is not an integer, and any other phases, raise ConfigError.
    """
    trials = as_integer("trials", trials)
    if trials < 2:
        raise ConfigError("need at least 2 trials")
    if phases not in ("aligned", "random"):
        raise ConfigError(f"phases must be 'aligned' or 'random', got {phases!r}")
    M, K, N = cfg.num_clusters, cfg.num_devices, cfg.num_ris_elements
    geometry = place_geometry(cfg, cfg.master_seed)
    beta = large_scale_coefficients(geometry, cfg.pathloss_exponent)

    summed = Moments()  # (surface, antenna)
    drawn = Moments()   # (surface, antenna, device)
    for start in range(0, trials, CHUNK):
        tc = min(CHUNK, trials - start)
        rng = rng_from_seed(derive_seed(cfg.master_seed, "elimination", start))
        ch = _sample_batch(rng, tc, M, cfg.cluster_of, N,
                           lambda draw: phase_configurations(draw, [(phases, None)], rng))
        summed.add(ch.summed_terms[0])
        drawn.add(ch.drawn_terms)
        del ch  # released before the next chunk is drawn

    cluster_of = cfg.cluster_of
    same = membership(cluster_of, M)
    sizes = same.sum(axis=1)
    share = beta[cluster_of, np.arange(K)] / sizes[cluster_of]  # (K,)
    mean = share * summed.mean[cluster_of].T  # (antenna, device)
    stderr = share * summed.stderr[cluster_of].T
    target = np.zeros((M, K))
    if phases == "aligned":
        aligned_mean = beta * (np.pi * N / 4.0) / np.sqrt(sizes)[:, None]
        target[same] = aligned_mean[same]
    scale = beta[:, None, :]  # (surface, 1, device)
    cmean = (scale * drawn.mean).transpose(1, 0, 2)  # (antenna, surface, device)
    cstderr = (scale * drawn.stderr).transpose(1, 0, 2)
    z = _z_scores(mean - target, stderr)
    cz = _z_scores(cmean, cstderr)
    passed, family_p = _holm(np.concatenate((z.ravel(), cz.ravel())), VERIFY_ALPHA)
    pair_ok, correction_ok = passed[: M * K], passed[M * K:]

    antenna, device = np.indices((M, K))
    rows = list(map(EliminationRow._make,
                    _scalars(antenna, device, same, mean, stderr, target, pair_ok, z)))
    antenna, surface, device = np.indices((M, M, K))
    corrections = list(map(CorrectionCheck._make,
                           _scalars(antenna, device, surface, cmean, cstderr, correction_ok, cz)))
    pairs_pass = bool(pair_ok.all())
    corrections_pass = bool(correction_ok.all())
    return EliminationReport(
        rows=rows,
        corrections=corrections,
        trials=trials,
        num_elements=N,
        pairs_pass=pairs_pass,
        corrections_pass=corrections_pass,
        all_pass=pairs_pass and corrections_pass,
        alpha=VERIFY_ALPHA,
        family_p=family_p,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

# Exact types of the values csv_rows produces; format(v, ".17g") of a
# float equals format(float(v), ".17g"), and str of an int or bool is
# str(int(v)) or str(bool(v)).
_FORMATS = {float: lambda v: format(v, ".17g"), int: str, bool: str, str: str}


def _format_value(v) -> str:
    exact = _FORMATS.get(type(v))
    if exact is not None:
        return exact(v)
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
