"""Personalized federated training over the analog uplink.

Each cluster trains its own linear model on least-squares tasks. Every
round the devices compute full-batch local gradients, standardize
them, and the PS reconstructs one aggregated gradient per cluster from
the superposed analog uplink before taking a gradient step. Scheme
"ideal" bypasses the channel entirely and serves as the noise-free
reference.

`draw_gains` is the one channel-draw step of the package and
`aggregate_round` its one round (design, power solve, denoiser, and the
NMSE from second moments, O(K^2) rather than O(K D) per sent signal)
over a grid of surface sizes and power budgets. The NMSE sweep in
`harness` calls each once per chunk of CHUNK Monte Carlo trials, for
every surface size, power budget, phase key and scheme of its grid at
once. Training draws the gains and noise of CHUNK rounds at once, one
generator per round, runs aggregate_round on each round's trial alone,
and builds its estimate with uplink and estimate_cluster_gradient. Both
scale the receiver noise once per draw, and the round takes it as it is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .aircomp import (
    NormalizedGradient,
    check_powers,
    cluster_average,
    estimate_cluster_gradient,
    normalize_gradient,
    receiver_noise,
    uplink,
)
from .channel import all_cascaded_gains, large_scale_coefficients, sample_small_scale, trial_draw
from .control import adaptive_denoisers, unbiased_design
from .powopt import assemble_ratio_problem, solve_projected_ascent
from .ris import baseline_phases, configure_aligned, corrupt_phases
from .seeding import derive_seed, rng_from_seed
from .sysmodel import ConfigError, SystemConfig, as_integer, as_number, as_seed, place_geometry

DEFAULT_LEARNING_RATE = 0.05

# Trials (sweep, verifier) or training rounds served by one channel draw.
CHUNK = 100


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
    them, and bits, when set, quantizes them to 2**bits levels. Phases
    other than "aligned" and "random" raise ValueError.
    """
    base = {}
    for phases, _ in keys:
        if phases not in ("aligned", "random"):
            raise ValueError(f"phases must be 'aligned' or 'random', got {phases!r}")
        if phases not in base:
            base[phases] = (baseline_phases(phase_rng, *draw.own_paths.shape)
                            if phases == "random" else configure_aligned(draw))
    return [base[p] if bits is None else corrupt_phases(base[p], bits) for p, bits in keys]


def draw_gains(rng, phase_rng, trials, cluster_of, beta, sizes, keys) -> dict:
    """One channel draw for every surface size and phase key: {n: {key: (T, M, K) gains}}.

    Draws `trials` realizations from rng once (sample_small_scale), at
    the largest size with each smaller one nested in it, for the
    configurations of the keys (phase_configurations, random phases from
    phase_rng), and attenuates them by beta (M, K) in one
    all_cascaded_gains call. Sizes and keys are sorted first, so the
    draw depends only on their sets. Every (size, key) shares the own
    paths, cluster sums, drawn terms and random phases, so comparisons
    across them are paired, while each has exactly the law of an
    independent draw (see airpfl.channel).

    rng and phase_rng may each be one generator or a list or tuple of
    `trials` generators, one per trial (ValueError for another length).
    Trial t then draws from its own generators alone: own paths, cluster
    sums, random phases, residuals, then each block's projection
    normals, Bartlett normals and chi-square draws, the calls and order
    of a one-trial draw. So trial t's gains are bit for bit those of a
    one-trial draw_gains call with generator t and phase generator t.
    """
    sizes = sorted(set(sizes))
    keys = sorted(set(keys), key=lambda k: (k[0], k[1] or 0))
    ch = sample_small_scale(
        rng, trials, beta.shape[0], cluster_of, sizes,
        lambda draw: phase_configurations(draw, keys, phase_rng),
    )
    return {n: dict(zip(keys, g)) for n, g in zip(sizes, all_cascaded_gains(ch, beta))}


def aggregate_round(
    cfg: SystemConfig,
    beta: np.ndarray,
    schemes: list[Scheme],
    gains: dict,
    grads: NormalizedGradient,
    noise: np.ndarray,
    g_true: np.ndarray,
    budgets=None,
    powopt_seeds=None,
):
    """One round of analog aggregation for T trials, on a grid of surface sizes and budgets.

    gains maps each surface size n to its {phase key: (T, M, K) real
    cascaded gains} (draw_gains) and budgets lists (K,) per-device power
    budgets, [cfg.max_power] by default. Each (n, budget) pair is a cell,
    and every cell runs each of schemes on the same normalized (T, K, D)
    gradients grads, (T, M, D) real receiver noise noise (as receiver_noise
    scales it) and (T, M, D) truth g_true; cfg gives the model size, the
    clusters and the noise variance. powopt_seeds maps each size to its T
    solver seeds; when a scheme optimizes powers, a size without seeds
    raises ValueError before any design or solve. Returns (powers,
    denoisers, nmse), the (I, J, S, T, K) powers and (I, J, S, T, M)
    denoisers from which uplink and estimate_cluster_gradient build each
    estimate, and those estimates' (I, J, S, T) NMSE: size i in the order
    of gains, budget j, scheme s. Each scheme's row is bit for bit the
    round of its scheme alone, and each (i, j) cell the round of its size
    and budget alone.

    The statistical design, `unbiased_design` of the (M, K) large-scale
    coefficients beta and grads.std, is formed once per budget for every
    size. Within a cell, "unbiased" uses the design's powers and denoisers
    as they are; (mmse+powopt) optimizes the powers instead, trial t seeded
    by powopt_seeds[n][t]; then (mmse, mmse+powopt) the adaptive denoiser
    replaces the denoisers. Powers that uplink would refuse, negative or
    not finite, raise ValueError before they are scored.

    The NMSE is scored from second moments formed once per round, never
    from a D-wide signal or estimate: cluster m's estimate errs by
    e = (w X + z) / lambda + r, with w = sqrt(p) h_m the sent weights, X
    the normalized gradients, z the receiver noise and r the mean term
    minus the truth, so with the Gram matrix G = X X^T

        |e|^2 = (w G w + 2 w X z + |z|^2) / lambda^2 + 2 (w X r + <z, r>) / lambda + |r|^2,

    clamped at 0 against rounding; an infinite denoiser scores |r|^2. A
    sent signal costs O(T M K^2), not O(T M K D), and the schemes that
    send the same one share its moments (_signal_moments): one per phase
    key for the design's powers, and each mmse+powopt its own.

    A cluster whose devices all report zero std has no analog signal:
    the statistical design gives it an infinite denoiser, the adaptive
    denoiser falls back to it, and its estimate is the exact mean term.
    A cluster that optimized powers switch off falls back to the
    infinite denoiser as well, the estimate the power solver scored.
    """
    sigmas, cluster_of, noise_var = grads.std, cfg.cluster_of, cfg.noise_var
    budgets = [cfg.max_power] if budgets is None else budgets
    sizes = list(gains)
    optimizing = [s.name for s in schemes if s.powopt]
    unseeded = [n for n in sizes if powopt_seeds is None or n not in powopt_seeds]
    if optimizing and unseeded:
        raise ValueError(f"schemes {optimizing} optimize powers, but surface sizes {unseeded} "
                         "have no solver seeds")
    offset = cluster_average(grads.mean, cluster_of, cfg.num_clusters)[..., None] - g_true
    values = grads.values.transpose(0, 2, 1)
    noise_sq, noise_offset, offset_sq = (np.einsum("tmd,tmd->tm", a, b) for a, b in
                                         ((noise, noise), (noise, offset), (offset, offset)))
    terms = (np.matmul(grads.values, values), 2.0 * np.matmul(noise, values),
             np.matmul(offset, values), noise_sq, noise_offset)
    energy = np.einsum("tmd,tmd->t", g_true, g_true)
    designs = [unbiased_design(beta, sigmas, budget, cfg.model_dim, sizes, cluster_of)
               for budget in budgets]
    grid = (len(sizes), len(budgets), len(schemes))
    powers = np.empty((*grid, *sigmas.shape))
    lams, err = np.empty((2, *grid, *offset_sq.shape))
    for i, n in enumerate(sizes):
        for j, (budget, design) in enumerate(zip(budgets, designs)):
            p, lam, e = powers[i, j], lams[i, j], err[i, j]  # views of this cell's rows
            statistical, moments = design.denoisers[i], {}
            for s, scheme in enumerate(schemes):
                h = gains[n][scheme.key]
                p[s], lam[s], fallback = design.powers, statistical, statistical
                if scheme.powopt:
                    prob = assemble_ratio_problem(h, sigmas, noise_var, cluster_of, budget)
                    p[s] = solve_projected_ascent(prob, powopt_seeds[n]).q ** 2
                    fallback = np.full_like(fallback, np.inf)
                if scheme.adaptive:
                    lam[s] = adaptive_denoisers(p[s], h, sigmas, noise_var, cluster_of, fallback)
                sent = scheme.name if scheme.powopt else scheme.key  # what the devices transmit
                if sent not in moments:
                    check_powers(p[s])
                    moments[sent] = _signal_moments(np.sqrt(p[s])[:, None, :] * h, *terms)
                square, inner = moments[sent]
                inv = 1.0 / lam[s]
                e[s] = (square * inv + 2.0 * inner) * inv + offset_sq
    err = np.maximum(err, 0.0, out=err).sum(axis=-1)
    return powers, lams, np.divide(err, energy, out=np.zeros_like(err), where=energy > 0)


def _signal_moments(w, gram, noise_x2, offset_x, noise_sq, noise_offset):
    """|y|^2 and <y, r>, each (T, M), of the signal y = w X + z of (T, M, K) weights w."""
    wx = np.matmul(w, gram)
    wx += noise_x2  # 2 X z
    return (np.einsum("tmk,tmk->tm", wx, w) + noise_sq,
            np.einsum("tmk,tmk->tm", offset_x, w) + noise_offset)


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
    cfg.master_seed and the round counter. Each round draws its gains,
    for its scheme's phase key alone, and its noise from round
    substreams that do not depend on the scheme. Runs with different
    schemes at the same seed therefore share what draw_gains draws
    before and apart from the phases, and the noise, but not the
    statistics it draws given them: each scheme's law is exact, while
    the joint law across schemes is not the shared draw of one
    draw_gains call.
    The channel does not depend on the models, so the rounds are drawn
    CHUNK at a time, one draw_gains call per chunk with one generator
    per round. Round t's gains and noise are bit for bit those of a
    one-round draw from its own streams, so the bytes do not depend on
    CHUNK and a shorter run is a prefix of a longer one. A chunk whose
    draw overflows is drawn again round by round, so the error names
    the round it belongs to.
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

    def round_draws(start, stop):
        """Gains (T, M, K) and real receiver noise (T, M, D) of rounds start to stop - 1."""
        window = range(start, stop)
        rngs = [rng_from_seed(derive_seed(master, "round-channel", t)) for t in window]
        phase_rngs = ([rng_from_seed(derive_seed(master, "round-phases", t)) for t in window]
                      if scheme.phases == "random" else None)
        gains = draw_gains(rngs, phase_rngs, len(window), cfg.cluster_of, beta, [N], [scheme.key])
        noise = trial_draw([rng_from_seed(derive_seed(master, "round-noise", t)) for t in window],
                           "standard_normal", (len(window), M, D))
        return gains[N][scheme.key], receiver_noise(cfg.noise_var, noise)

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
                    if t % CHUNK == 0:
                        try:
                            chunk = round_draws(t, min(t + CHUNK, rounds))
                        except FloatingPointError:  # redrawn per round, to name the round
                            chunk = None
                    i = t % CHUNK
                    gains, noise = (round_draws(t, t + 1) if chunk is None
                                    else (chunk[0][i : i + 1], chunk[1][i : i + 1]))
                    seeds = {N: [derive_seed(master, "round-powopt", t)]} if scheme.powopt else None
                    powers, lam, round_nmse = (a[0, 0, 0] for a in aggregate_round(
                        cfg, beta, [scheme], {N: {scheme.key: gains}}, normalized, noise, g_true,
                        powopt_seeds=seeds))
                    g_hat = estimate_cluster_gradient(
                        uplink(gains, powers, normalized, noise),
                        lam, cluster_average(normalized.mean, cfg.cluster_of, M)[..., None])
                    nmse[t] = round_nmse[0]

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
