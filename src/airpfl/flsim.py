"""Personalized federated training over the analog uplink.

Each cluster trains its own linear model on least-squares tasks. Every
round the devices compute full-batch local gradients, standardize
them, and the PS reconstructs one aggregated gradient per cluster from
the superposed analog uplink before taking a gradient step. Scheme
"ideal" bypasses the channel entirely and serves as the noise-free
reference.

`aggregate_round` is the one design-and-estimate step of the package:
training calls it with a batch of one trial per round, and the NMSE
sweep in `harness` calls it with a batch of Monte Carlo trials.
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
from .control import adaptive_denoisers, unbiased_design
from .powopt import assemble_ratio_problem, solve_projected_ascent
from .ris import baseline_phases, configure_aligned, corrupt_phases
from .seeding import derive_seed, rng_from_seed
from .sysmodel import ConfigError, Geometry, SystemConfig

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


def parse_scheme(name: str | Scheme) -> Scheme:
    """Parse a scheme label such as "mmse" or "unbiased-1bit".

    Every scheme except "ideal" takes a "-{b}bit" suffix with b a
    positive integer. Malformed labels raise ConfigError; a Scheme is
    returned unchanged.
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
        if bits < 1 or digits != str(bits):
            raise ConfigError(f"scheme {name!r}: the bit count must be a positive integer")
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

    losses: np.ndarray  # (T, M) cluster losses after each round's update
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
    """
    if samples_per_device < 1:
        raise ValueError("samples_per_device must be >= 1")
    if label_noise < 0:
        raise ValueError("label_noise must be >= 0")
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


def cluster_loss(weights: np.ndarray, datasets: list[DeviceDataset], members: np.ndarray) -> float:
    return float(np.mean([local_loss(weights, datasets[k]) for k in members]))


def sgd_step(weights: np.ndarray, grad_estimate: np.ndarray, eta: float) -> np.ndarray:
    return weights - eta * grad_estimate


def aggregate_round(
    cfg: SystemConfig,
    beta: np.ndarray,
    scheme: Scheme,
    gains: np.ndarray,
    grads: NormalizedGradient,
    noise: np.ndarray,
    powopt_seeds=(),
) -> np.ndarray:
    """One round of analog aggregation for T independent trials.

    Statistical design, then (mmse+powopt) per-trial power optimization
    seeded by powopt_seeds[t], then (mmse, mmse+powopt) the adaptive
    denoiser, then the uplink and the per-cluster estimate. gains
    (T, M, K) are the real cascaded gains under the round's phases,
    grads the normalized (T, K, D) gradients and noise (T, M, D)
    standard normal receiver draws. cfg supplies the clusters, power
    budgets, surface size and noise level. Returns the (T, M, D)
    cluster gradient estimates.

    A cluster whose devices all report zero std has no analog signal:
    the statistical design gives it an infinite denoiser, the adaptive
    denoiser falls back to it, and its estimate is the exact mean term.
    """
    sigmas = grads.std
    design = unbiased_design(
        beta, sigmas, cfg.max_power, cfg.model_dim, cfg.num_ris_elements, cfg.cluster_of
    )
    powers, denoisers = design.powers, design.denoisers
    if scheme.powopt:
        if len(powopt_seeds) != gains.shape[0]:
            raise ValueError("power optimization needs one seed per trial")
        powers = np.empty_like(powers)
        for t, seed in enumerate(powopt_seeds):
            prob = assemble_ratio_problem(
                gains[t], sigmas[t], cfg.noise_var, cfg.cluster_of, cfg.max_power
            )
            powers[t] = solve_projected_ascent(prob, seed=seed).q ** 2
    if scheme.adaptive:
        denoisers = adaptive_denoisers(
            powers, gains, sigmas, cfg.noise_var, cfg.cluster_of, design.denoisers
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

    eta may be a scalar or a length-rounds sequence. All randomness is
    derived from cfg.master_seed and the round counter, and the round
    substreams do not depend on the scheme, so runs with different
    schemes at the same seed see identical channels, noise, and
    baseline phase draws (paired comparisons).
    """
    scheme = parse_scheme(scheme)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if len(datasets) != cfg.num_devices:
        raise ValueError("one dataset per device is required")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim == 0:
        etas = np.full(rounds, float(etas))
    if etas.shape != (rounds,):
        raise ValueError(f"eta must be scalar or length {rounds}")

    M, K, D = cfg.num_clusters, cfg.num_devices, cfg.model_dim
    members = cfg.clusters()
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
        for m in range(M):
            losses[t, m] = cluster_loss(weights[m], datasets, members[m])

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
    M, K, N = cfg.num_clusters, cfg.num_devices, cfg.num_ris_elements
    ch = sample_small_scale(rng_from_seed(derive_seed(master, "round-channel", t)), 1, M, K, N)
    if scheme.phases == "random":
        phases = baseline_phases(rng_from_seed(derive_seed(master, "round-phases", t)), 1, M, N)
    else:
        phases = configure_aligned(ch, cfg.cluster_of)
    if scheme.bits is not None:
        phases = corrupt_phases(phases, scheme.bits)
    gains = all_cascaded_gains(ch, beta, phases)
    noise_rng = rng_from_seed(derive_seed(master, "round-noise", t))
    noise = noise_rng.standard_normal((1, M, cfg.model_dim))
    seeds = [derive_seed(master, "round-powopt", t)] if scheme.powopt else ()
    return aggregate_round(cfg, beta, scheme, gains, grads, noise, seeds)
