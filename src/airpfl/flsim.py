"""Personalized federated training over the analog uplink.

Each cluster trains its own linear model on least-squares tasks. Every
round the devices compute full-batch local gradients, standardize
them, and the PS reconstructs one aggregated gradient per cluster from
the superposed analog uplink before taking a gradient step. Scheme
"ideal" bypasses the channel entirely and serves as the noise-free
reference.

`draw_gains` is the one channel-draw step of the package and
`aggregate_round` its one aggregate-and-estimate step: training calls
them with a batch of one trial, one surface size and its scheme's
phases, and the NMSE sweep in `harness` calls them with a batch of
Monte Carlo trials, every surface size and phase key of its grid, and
one statistical design per power budget.
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
from .sysmodel import ConfigError, SystemConfig, as_integer, as_number, as_seed, place_geometry

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

    @property
    def key(self) -> tuple:
        """The phase key (phases, bits): schemes with equal keys see the same gains."""
        return (self.phases, self.bits)


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


def parse_scheme(name: str) -> Scheme:
    """Parse a scheme label such as "mmse" or "unbiased-1bit".

    Every scheme except "ideal" takes a "-{b}bit" suffix with b an
    integer from 1 to MAX_PHASE_BITS. Malformed labels, and anything
    that is not a string, raise ConfigError.
    """
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
class DeviceTasks:
    """Least-squares tasks, device k in row k: features (K, n, D), last column 1; targets (K, n)."""

    features: np.ndarray
    targets: np.ndarray


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
) -> tuple[DeviceTasks, np.ndarray]:
    """Clustered linear-regression tasks sharing a model per cluster.

    Draws one ground-truth weight vector per cluster (i.i.d. standard
    normal in R^D, last coordinate acting as a bias), then gives each
    device standard-normal features and noisy linear labels from its
    cluster's weights, from one (K, n*D) standard-normal block: row k
    holds device k's n(D-1) features, then its n label noises. Returns
    the tasks and the (M, D) truth. samples_per_device must be an integer
    >= 1, label_noise a finite number >= 0 and task_seed an integer in
    [0, 2**64); anything else raises ConfigError.
    """
    samples_per_device = as_integer("samples_per_device", samples_per_device)
    label_noise = as_number("label_noise", label_noise)
    task_seed = as_seed("task_seed", task_seed)
    if samples_per_device < 1:
        raise ConfigError(f"samples_per_device must be >= 1, got {samples_per_device}")
    if not 0 <= label_noise < np.inf:
        raise ConfigError(f"label_noise must be finite and >= 0, got {label_noise!r}")
    K, n, D = cfg.num_devices, samples_per_device, cfg.model_dim
    rng = rng_from_seed(derive_seed(task_seed, "tasks"))
    truth = rng.standard_normal((cfg.num_clusters, D))
    normals = rng.standard_normal((K, n * D))
    features = np.ones((K, n, D))
    features[..., :-1] = normals[:, : n * (D - 1)].reshape(K, n, D - 1)
    labels = np.matmul(features, truth[cfg.cluster_of][..., None])[..., 0]
    targets = labels + label_noise * normals[:, n * (D - 1) :]
    return DeviceTasks(features=features, targets=targets), truth


def _residuals(weights: np.ndarray, tasks: DeviceTasks) -> np.ndarray:
    return np.matmul(tasks.features, weights[..., None])[..., 0] - tasks.targets


def local_gradient(weights: np.ndarray, tasks: DeviceTasks) -> np.ndarray:
    """(K, D) full-batch gradients of every device's half mean-squared error.

    weights is (K, D), device k's model in row k, or one (D,) model
    shared by every device.
    """
    residual = _residuals(weights, tasks)[..., None]
    return np.matmul(tasks.features.transpose(0, 2, 1), residual)[..., 0] / tasks.targets.shape[1]


def local_loss(weights: np.ndarray, tasks: DeviceTasks) -> np.ndarray:
    """(K,) half mean-squared errors, weights as in `local_gradient`."""
    return 0.5 * np.mean(_residuals(weights, tasks) ** 2, axis=1)


def phase_configurations(draw, keys, phase_rng) -> list:
    """The (T, M, N) unit phasors of each phase key (phases, bits) in keys, in their order.

    Random phases are drawn once from phase_rng and aligned ones are the
    aligned design of draw (a PartialDraw); keys with equal phases share
    them, and bits, when set, quantizes them to 2**bits levels.
    """
    base = {}
    for phases, _ in keys:
        if phases not in base:
            base[phases] = (
                baseline_phases(phase_rng, *draw.own_paths.shape)
                if phases == "random"
                else configure_aligned(draw)
            )
    return [base[p] if bits is None else corrupt_phases(base[p], bits) for p, bits in keys]


def draw_gains(rng, phase_rng, trials, cluster_of, beta, sizes, keys) -> dict:
    """One channel draw for every surface size and phase key: {(n, key): (T, M, K) gains}.

    Draws `trials` realizations from rng once (sample_small_scale), at
    the largest size with each smaller one nested in it, for the
    configurations of the keys (phase_configurations, random phases from
    phase_rng), and attenuates them by beta (M, K). Sizes and keys are
    sorted first, so the draw depends only on their sets. Every (size,
    key) shares the own paths, cluster sums, drawn terms and random
    phases, so comparisons across them are paired, while each has
    exactly the law of an independent draw (see airpfl.channel).
    """
    sizes = sorted(set(sizes))
    keys = sorted(set(keys), key=lambda k: (k[0], k[1] or 0))
    ch = sample_small_scale(
        rng, trials, beta.shape[0], cluster_of, sizes,
        lambda draw: phase_configurations(draw, keys, phase_rng),
    )
    return {
        (n, key): all_cascaded_gains(ch.prefix(n), beta, j)
        for n in sizes
        for j, key in enumerate(keys)
    }


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
    tasks: DeviceTasks,
    scheme: str,
    rounds: int,
    eta=DEFAULT_LEARNING_RATE,
) -> TrainingHistory:
    """Run one federated training job under the scheme labelled `scheme` (see parse_scheme).

    tasks must be shaped for cfg's devices and model (ValueError
    otherwise). rounds must be an integer >= 1 and the learning rate eta
    a finite number > 0 (ConfigError otherwise). A round in which numpy
    meets an overflow or an invalid operation, or whose losses are not
    finite, raises RuntimeError instead of warning, whatever the warning
    filters, naming the stage it reached: "training diverged", or, while
    the weights are still zero, that the data or the deployment is out
    of numeric range.
    All randomness, the deployment included, is derived from
    cfg.master_seed and the round counter. Each round draws its gains
    with draw_gains, for its scheme's phase key alone, and its noise,
    from round substreams that do not depend on the scheme. Runs with
    different schemes at the same seed therefore share what draw_gains
    draws before and apart from the phases, and the noise, but not the
    statistics it draws given them: each scheme's law is exact, while
    the joint law across schemes is not the shared draw of one
    draw_gains call.
    """
    scheme = parse_scheme(scheme)
    rounds = as_integer("rounds", rounds)
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    M, K, D, N = cfg.num_clusters, cfg.num_devices, cfg.model_dim, cfg.num_ris_elements
    master = cfg.master_seed
    shape = tasks.targets.shape
    if len(shape) != 2 or shape[0] != K or tasks.features.shape != (*shape, D):
        raise ValueError(f"tasks need (K={K}, n, D={D}) features and (K, n) targets")
    eta = as_number("learning rate", eta)
    if not 0 < eta < np.inf:
        raise ConfigError(f"learning rate must be a finite number > 0, got {eta!r}")

    def diverged(t, what):
        if t == 0 and what != "loss":  # no update applied yet: eta is not the cause
            return RuntimeError(f"training cannot start: round 0 under scheme {scheme.name!r} "
                                f"overflows (non-finite {what}) before any update; the task "
                                "data or the deployment is out of numeric range")
        return RuntimeError(f"training diverged at round {t} under scheme {scheme.name!r} "
                            f"(non-finite {what}); reduce eta or noise")

    beta = large_scale_coefficients(place_geometry(cfg, cfg.master_seed), cfg.pathloss_exponent)
    weights = np.zeros((M, D))
    losses = np.empty((rounds, M))
    nmse = np.zeros(rounds)

    # An overflow or invalid operation raises FloatingPointError here
    # where numpy would warn, under every scheme and warning filter
    # alike, and `what` names the stage the round had reached.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(rounds):
                what = "gradient spread"
                grads = local_gradient(weights[cfg.cluster_of], tasks)[None]
                g_true = cluster_average(grads, cfg.cluster_of, M)

                if scheme.design == "ideal":
                    g_hat = g_true
                else:
                    normalized = normalize_gradient(grads)
                    what = "aggregated gradient"
                    rng = rng_from_seed(derive_seed(master, "round-channel", t))
                    phase_rng = (rng_from_seed(derive_seed(master, "round-phases", t))
                                 if scheme.phases == "random" else None)
                    gains = draw_gains(rng, phase_rng, 1, cfg.cluster_of, beta, [N], [scheme.key])
                    noise = rng_from_seed(derive_seed(master, "round-noise", t)).standard_normal(
                        (1, M, D)
                    )
                    seeds = [derive_seed(master, "round-powopt", t)] if scheme.powopt else ()
                    design = unbiased_design(
                        beta, normalized.std, cfg.max_power, D, N, cfg.cluster_of
                    )
                    g_hat = aggregate_round(
                        cfg, scheme, design, gains[N, scheme.key], normalized, noise, seeds
                    )
                    nmse[t] = estimation_nmse(g_hat, g_true)[0]

                what = "loss"
                weights = weights - eta * g_hat[0]
                local = local_loss(weights[cfg.cluster_of], tasks)
                losses[t] = cluster_average(local[None], cfg.cluster_of, M)[0]
                # einsum and arithmetic on inf set no flag, so an infinite
                # aggregate can reach the loss without a FloatingPointError.
                if not np.isfinite(losses[t]).all():
                    raise FloatingPointError("non-finite loss")
    except FloatingPointError as exc:
        raise diverged(t, what) from exc

    return TrainingHistory(
        losses=losses,
        nmse=nmse,
        scheme=scheme.name,
        seed=cfg.master_seed,
        final_weights=weights.copy(),
    )
