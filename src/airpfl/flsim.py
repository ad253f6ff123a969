"""Personalized federated training over the analog uplink.

Each cluster trains its own linear model on least-squares tasks. Every
round the devices compute full-batch local gradients, standardize
them, and the PS reconstructs one aggregated gradient per cluster from
the superposed analog uplink before taking a gradient step. Scheme
"ideal" bypasses the channel entirely and serves as the noise-free
reference.

`aggregate_round` is the one aggregate-and-estimate step of the
package: training calls it with a batch of one trial and that round's
statistical design, and the NMSE sweep in `harness` calls it with a
batch of Monte Carlo trials and one design per power budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .aircomp import (
    NormalizedGradient,
    cluster_average,
    estimate_cluster_gradient,
    normalize_gradient,
    uplink,
)
from .channel import all_cascaded_gains, large_scale_coefficients, sample_small_scale
from .control import AggregationDesign, adaptive_denoisers, unbiased_design
from .powopt import assemble_ratio_problem, solve_projected_ascent
from .ris import baseline_phases, configure_aligned, corrupt_phases
from .seeding import derive_seed, rng_from_seed
from .sysmodel import ConfigError, Geometry, SystemConfig, as_integer, as_number

DEFAULT_LEARNING_RATE = 0.05


@dataclass(frozen=True)
class Scheme:
    """An uplink scheme: aggregation design x phase configuration x quantization.

    design is "ideal" (no channel), "unbiased" (statistical powers and
    denoiser), "mmse" (statistical powers, adaptive denoiser) or
    "mmse+powopt" (optimized powers, adaptive denoiser); phases is
    "none", "aligned" or "random"; bits, when set, quantizes the phases
    to 2**bits levels.
    """

    name: str
    design: str
    phases: str
    bits: int | None

    @property
    def adaptive(self) -> bool:
        return self.design in ("mmse", "mmse+powopt")

    @property
    def powopt(self) -> bool:
        return self.design == "mmse+powopt"


# base name -> (design, phases)
_BASE_SCHEMES = {
    "ideal": ("ideal", "none"),
    "unbiased": ("unbiased", "aligned"),
    "mmse": ("mmse", "aligned"),
    "mmse+powopt": ("mmse+powopt", "aligned"),
    "random-phase": ("mmse", "random"),
}

_BITS_SUFFIX = re.compile(r"(.+)-(\d+)bit")

# Above 52 bits the phase grid is finer than float64 spacing near 2*pi.
MAX_PHASE_BITS = 52


def parse_scheme(name: str | Scheme) -> Scheme:
    """Parse a scheme label such as "mmse" or "unbiased-1bit".

    Every scheme except "ideal" takes a "-{b}bit" suffix with b an
    integer from 1 to MAX_PHASE_BITS. Malformed labels raise
    ConfigError; a Scheme is returned unchanged.
    """
    if isinstance(name, Scheme):
        return name
    if not isinstance(name, str):
        raise ConfigError(f"a scheme must be given by name, got {name!r}")
    base, bits = name, None
    match = _BITS_SUFFIX.fullmatch(name)
    if match is not None:
        base, digits = match.groups()
        bits = int(digits)
        if not 1 <= bits <= MAX_PHASE_BITS or digits != str(bits):
            raise ConfigError(
                f"scheme {name!r}: the bit count must be an integer from 1 to {MAX_PHASE_BITS}"
            )
    if base not in _BASE_SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}; expected one of {sorted(_BASE_SCHEMES)}")
    design, phases = _BASE_SCHEMES[base]
    if bits is not None and phases == "none":
        raise ConfigError(f"scheme {name!r}: 'ideal' takes no -{{b}}bit suffix")
    return Scheme(name=name, design=design, phases=phases, bits=bits)


@dataclass(frozen=True)
class DeviceDataset:
    """Local least-squares task: features (n, D-1) and targets (n,)."""

    features: np.ndarray
    targets: np.ndarray
    owner: int


@dataclass(frozen=True)
class TrainingHistory:
    """Per-round records of one training run."""

    losses: np.ndarray  # (T, M) mean device loss per cluster after each round's update
    nmse: np.ndarray    # (T,) per-round gradient estimation NMSE
    scheme: str
    seed: int
    final_weights: np.ndarray  # (M, D)

    def csv_header(self) -> list[str]:
        return ["round", "cluster", "loss", "nmse", "scheme", "seed"]

    def csv_rows(self) -> list[tuple]:
        rows = []
        for t in range(self.losses.shape[0]):
            for m in range(self.losses.shape[1]):
                rows.append(
                    (t, m, float(self.losses[t, m]), float(self.nmse[t]), self.scheme, self.seed)
                )
        return rows


def synth_clustered_tasks(
    cfg: SystemConfig,
    samples_per_device: int,
    label_noise: float,
    task_seed: int,
) -> tuple[list[DeviceDataset], np.ndarray]:
    """Clustered linear-regression tasks sharing a model per cluster.

    Draws one ground-truth weight vector per cluster (i.i.d. standard
    normal in R^D, last coordinate acting as a bias), then gives each
    device standard-normal features and noisy linear labels from its
    cluster's weights. Returns the datasets and the (M, D) truth.
    samples_per_device must be an integer >= 1 and label_noise a finite
    number >= 0; anything else raises ConfigError.
    """
    samples_per_device = as_integer("samples_per_device", samples_per_device)
    label_noise = as_number("label_noise", label_noise)
    if samples_per_device < 1:
        raise ConfigError(f"samples_per_device must be >= 1, got {samples_per_device}")
    if not 0 <= label_noise < np.inf:
        raise ConfigError(f"label_noise must be finite and >= 0, got {label_noise!r}")
    D = cfg.model_dim
    rng = rng_from_seed(derive_seed(task_seed, "tasks"))
    truth = rng.standard_normal((cfg.num_clusters, D))
    datasets = []
    for k in range(cfg.num_devices):
        m = int(cfg.cluster_of[k])
        x = rng.standard_normal((samples_per_device, D - 1))
        xa = np.concatenate([x, np.ones((samples_per_device, 1))], axis=1)
        y = xa @ truth[m] + label_noise * rng.standard_normal(samples_per_device)
        datasets.append(DeviceDataset(features=x, targets=y, owner=k))
    return datasets, truth


def _augment(features: np.ndarray) -> np.ndarray:
    return np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)


def local_gradient(weights: np.ndarray, ds: DeviceDataset) -> np.ndarray:
    """Full-batch gradient of the device's half mean-squared error."""
    xa = _augment(ds.features)
    residual = xa @ weights - ds.targets
    return xa.T @ residual / ds.targets.shape[0]


def local_loss(weights: np.ndarray, ds: DeviceDataset) -> float:
    xa = _augment(ds.features)
    residual = xa @ weights - ds.targets
    return float(0.5 * np.mean(residual**2))


def sgd_step(weights: np.ndarray, grad_estimate: np.ndarray, eta: float) -> np.ndarray:
    return weights - eta * grad_estimate


def aggregate_round(
    cfg: SystemConfig,
    scheme: Scheme,
    design: AggregationDesign,
    gains: np.ndarray,
    grads: NormalizedGradient,
    noise: np.ndarray,
    powopt_seeds=(),
) -> np.ndarray:
    """One round of analog aggregation for T independent trials.

    design is the statistical design of the round (`unbiased_design` of
    the large-scale coefficients, grads.std and cfg's power budgets,
    model size, surface size and clusters). It depends on neither the
    scheme nor the phases, so callers compute it once and pass it to
    every scheme of the round. Its powers and denoisers are used as they
    are by "unbiased"; (mmse+powopt) optimizes the powers instead, trial
    t seeded by powopt_seeds[t]; then (mmse, mmse+powopt) the adaptive
    denoiser replaces the denoisers; then the uplink and the per-cluster
    estimate. gains (T, M, K) are the real cascaded gains under the
    round's phases, grads the normalized (T, K, D) gradients and noise
    (T, M, D) standard normal receiver draws. cfg supplies the clusters,
    power budgets and noise level. Returns the (T, M, D) cluster
    gradient estimates.

    A cluster whose devices all report zero std has no analog signal:
    the statistical design gives it an infinite denoiser, the adaptive
    denoiser falls back to it, and its estimate is the exact mean term.
    A cluster that optimized powers switch off falls back to the
    infinite denoiser as well, the estimate the power solver scored.
    """
    sigmas = grads.std
    powers, denoisers, fallback = design.powers, design.denoisers, design.denoisers
    if scheme.powopt:
        prob = assemble_ratio_problem(gains, sigmas, cfg.noise_var, cfg.cluster_of, cfg.max_power)
        powers = solve_projected_ascent(prob, powopt_seeds).q ** 2
        fallback = np.full_like(fallback, np.inf)
    if scheme.adaptive:
        denoisers = adaptive_denoisers(
            powers, gains, sigmas, cfg.noise_var, cfg.cluster_of, fallback
        )
    received = uplink(gains, powers, grads, cfg.noise_var, noise)
    return estimate_cluster_gradient(received, denoisers, grads.mean, cfg.cluster_of)


def estimation_nmse(g_hat: np.ndarray, g_true: np.ndarray) -> np.ndarray:
    """Per-trial NMSE of (T, M, D) estimates; 0 where the truth is all zero."""
    err = np.sum((g_hat - g_true) ** 2, axis=(1, 2))
    denom = np.sum(g_true**2, axis=(1, 2))
    return np.divide(err, denom, out=np.zeros_like(err), where=denom > 0)


def run_training(
    cfg: SystemConfig,
    geometry: Geometry,
    datasets: list[DeviceDataset],
    scheme: str | Scheme,
    rounds: int,
    eta=DEFAULT_LEARNING_RATE,
) -> TrainingHistory:
    """Run one federated training job under the given uplink scheme.

    rounds must be an integer >= 1 (ConfigError otherwise). eta may be
    a scalar or a length-rounds sequence; every learning rate must be a
    finite number > 0 (ConfigError otherwise). All randomness is
    derived from cfg.master_seed and the round counter, and the round
    substreams do not depend on the scheme, so runs with different
    schemes at the same seed share each round's own-antenna paths,
    cluster sums, residual normals (those of the foreign-surface
    reflections and own-cluster residuals), noise and random phase
    draws (paired comparisons). They do not share the foreign-antenna
    statistics: each run draws the cluster-sum terms toward the other
    antennas given its own phases (see airpfl.channel). Each scheme's
    law is exact, while the joint law across schemes is not that of a
    shared full channel.
    """
    scheme = parse_scheme(scheme)
    rounds = as_integer("rounds", rounds)
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if len(datasets) != cfg.num_devices:
        raise ValueError("one dataset per device is required")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim == 0:
        etas = np.full(rounds, float(etas))
    if etas.shape != (rounds,):
        raise ValueError(f"eta must be scalar or length {rounds}")
    if not np.all(np.isfinite(etas) & (etas > 0)):
        raise ConfigError(f"every learning rate must be a finite number > 0, got eta={eta!r}")

    M, K, D = cfg.num_clusters, cfg.num_devices, cfg.model_dim
    beta = large_scale_coefficients(geometry, cfg.pathloss_exponent)
    weights = np.zeros((M, D))
    losses = np.empty((rounds, M))
    nmse = np.zeros(rounds)

    for t in range(rounds):
        grads = np.stack(
            [local_gradient(weights[cfg.cluster_of[k]], datasets[k]) for k in range(K)]
        )[None]
        g_true = cluster_average(grads, cfg.cluster_of, M)

        if scheme.design == "ideal":
            g_hat = g_true
        else:
            g_hat = _estimate_over_channel(cfg, beta, scheme, normalize_gradient(grads), t)
            nmse[t] = estimation_nmse(g_hat, g_true)[0]

        weights = sgd_step(weights, g_hat[0], etas[t])
        if not np.all(np.isfinite(weights)):
            raise RuntimeError(
                f"training diverged at round {t} under scheme {scheme.name!r} "
                f"(non-finite weights); reduce eta or noise"
            )
        local = [local_loss(weights[cfg.cluster_of[k]], datasets[k]) for k in range(K)]
        losses[t] = cluster_average(np.array([local]), cfg.cluster_of, M)[0]

    return TrainingHistory(
        losses=losses,
        nmse=nmse,
        scheme=scheme.name,
        seed=cfg.master_seed,
        final_weights=weights.copy(),
    )


def _estimate_over_channel(cfg, beta, scheme, grads, t):
    """Draw round t's channel, phases and noise; returns the (1, M, D) estimates."""
    master = cfg.master_seed
    M, N = cfg.num_clusters, cfg.num_ris_elements
    rng = rng_from_seed(derive_seed(master, "round-channel", t))

    def phases(draw):
        if scheme.phases == "random":
            phasors = baseline_phases(
                rng_from_seed(derive_seed(master, "round-phases", t)), 1, M, N
            )
        else:
            phasors = configure_aligned(draw)
        return [phasors if scheme.bits is None else corrupt_phases(phasors, scheme.bits)]

    ch = sample_small_scale(rng, 1, M, cfg.cluster_of, N, phases)
    gains = all_cascaded_gains(ch, beta, 0)
    noise_rng = rng_from_seed(derive_seed(master, "round-noise", t))
    noise = noise_rng.standard_normal((1, M, cfg.model_dim))
    seeds = [derive_seed(master, "round-powopt", t)] if scheme.powopt else ()
    design = unbiased_design(beta, grads.std, cfg.max_power, cfg.model_dim, N, cfg.cluster_of)
    return aggregate_round(cfg, scheme, design, gains, grads, noise, seeds)
