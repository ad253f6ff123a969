"""Analog over-the-air aggregation of normalized gradients.

Every device standardizes its local gradient to zero mean and unit
variance, scales it by a transmit power, and all devices send
simultaneously on the same resource. The PS antenna assigned to
cluster m keeps the real part of the superposition

    y_m = sum_k sqrt(p_k) * h_{m,k} * g_bar_k + Re{z_m},

with h_{m,k} the real cascaded gain and z_m circularly symmetric
Gaussian noise of variance noise_var, so its real part has variance
noise_var / 2. The cluster estimate divides y_m by a denoising factor
and adds back the average of the reported means.

Every kernel here takes a leading trial axis T. Whoever draws the noise
scales it once, with receiver_noise; the kernels take Re{z} as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py WRAPS times aircomp.rng_from_seed; nothing here draws.
from .seeding import rng_from_seed  # noqa: F401
from .sysmodel import membership

# np.std of a constant gradient is rounding residue, not 0 (a 64-vector
# of 0.1 gives 1.4e-17, of 7.7 gives 8.9e-16), so an exact test would
# send that residue as signal.
DEGENERATE_STD_TOL = 1e-12


@dataclass(frozen=True)
class NormalizedGradient:
    """Standardized gradients plus the statistics needed to undo them."""

    values: np.ndarray  # (T, K, D)
    mean: np.ndarray    # (T, K)
    std: np.ndarray     # (T, K)


def normalize_gradient(grad: np.ndarray) -> NormalizedGradient:
    """Shift each (T, K, D) gradient to zero mean and unit population variance.

    A gradient whose population std falls below DEGENERATE_STD_TOL is
    reported as degenerate: its normalized vector is all zeros and its
    std is exactly 0.0, so the device transmits nothing and is
    reconstructed from its mean alone.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.ndim != 3 or grad.shape[2] == 0:
        raise ValueError(f"gradients must have shape (T, K, D) with D >= 1, got {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient has non-finite entries")
    mean = grad.mean(axis=2)
    std = grad.std(axis=2)
    degenerate = std < DEGENERATE_STD_TOL
    std[degenerate] = 0.0
    values = (grad - mean[:, :, None]) / np.where(degenerate, 1.0, std)[:, :, None]
    values[degenerate] = 0.0
    return NormalizedGradient(values=values, mean=mean, std=std)


def receiver_noise(noise_var: float, normals: np.ndarray) -> np.ndarray:
    """The real receiver noise Re{z}: standard normal draws scaled to variance noise_var / 2."""
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    return np.sqrt(noise_var / 2.0) * normals


def check_powers(powers: np.ndarray) -> None:
    """Refuse transmit powers that are negative or not finite (ValueError)."""
    if not ((powers >= 0) & (powers < np.inf)).all():  # NaN fails both
        raise ValueError("powers must be finite and non-negative")


def uplink(
    gains: np.ndarray,
    powers: np.ndarray,
    grads: NormalizedGradient,
    noise: np.ndarray,
) -> np.ndarray:
    """Real part of the signal at every antenna, shape (T, M, D).

    gains (T, M, K) are the real cascaded gains, powers (T, K) the
    transmit powers, and noise (T, M, D) the real receiver noise
    (receiver_noise), added as it is.
    """
    T, M, K = gains.shape
    D = grads.values.shape[2]
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (T, K):
        raise ValueError(f"powers must have shape ({T}, {K}), got {powers.shape}")
    check_powers(powers)
    if grads.values.shape[:2] != (T, K):
        raise ValueError(f"expected gradients of shape ({T}, {K}, D), got {grads.values.shape}")
    if noise.shape != (T, M, D):
        raise ValueError(f"noise must have shape ({T}, {M}, {D}), got {noise.shape}")
    weights = np.sqrt(powers)[:, None, :] * gains
    signal = np.matmul(weights, grads.values)
    signal += noise
    return signal


def cluster_average(x: np.ndarray, cluster_of: np.ndarray, num_clusters: int) -> np.ndarray:
    """Average of x (T, K, ...) over each cluster's devices, shape (T, M, ...)."""
    own = membership(cluster_of, num_clusters)
    return np.einsum("mk,tk...->tm...", own / own.sum(axis=1, keepdims=True), x)


def estimate_cluster_gradient(
    received: np.ndarray, denoisers: np.ndarray, mean_term: np.ndarray
) -> np.ndarray:
    """Recover every cluster's aggregated gradient, shape (T, M, D).

    The received signal (T, M, D) divided by the denoising factors
    (T, M), plus the (T, M, 1) mean term: the average of each cluster's
    reported gradient means (cluster_average of the (T, K) means) on
    every coordinate. An infinite denoiser discards the analog signal
    and keeps the mean term only.
    """
    if received.ndim != 3:
        raise ValueError(f"received signal must have shape (T, M, D), got {received.shape}")
    T, M, _ = received.shape
    denoisers = np.asarray(denoisers, dtype=float)
    if denoisers.shape != (T, M):
        raise ValueError(f"denoisers must have shape ({T}, {M}), got {denoisers.shape}")
    if not (denoisers > 0).all():
        raise ValueError("denoisers must be positive")
    mean_term = np.asarray(mean_term, dtype=float)
    if mean_term.shape != (T, M, 1):
        raise ValueError(f"mean term must have shape ({T}, {M}, 1), got {mean_term.shape}")
    estimate = received / denoisers[..., None]
    estimate += mean_term  # in place: no second temporary
    return estimate
