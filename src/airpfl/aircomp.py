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

Every kernel here takes a leading trial axis T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py WRAPS times aircomp.rng_from_seed; nothing here draws.
from .seeding import rng_from_seed  # noqa: F401
from .sysmodel import membership

DEGENERATE_STD_TOL = 1e-12


@dataclass(frozen=True)
class NormalizedGradient:
    """Standardized gradients plus the statistics needed to undo them."""

    values: np.ndarray  # (T, K, D)
    mean: np.ndarray    # (T, K)
    std: np.ndarray     # (T, K)


def normalize_gradient(grad: np.ndarray, eps: float = DEGENERATE_STD_TOL) -> NormalizedGradient:
    """Shift each (T, K, D) gradient to zero mean and unit population variance.

    A gradient whose population std falls below eps is reported as
    degenerate: its normalized vector is all zeros and its std is
    exactly 0.0, so the device transmits nothing and is reconstructed
    from its mean alone.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.ndim != 3 or grad.shape[2] == 0:
        raise ValueError(f"gradients must have shape (T, K, D) with D >= 1, got {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient has non-finite entries")
    mean = grad.mean(axis=2)
    std = grad.std(axis=2)
    degenerate = std < eps
    std[degenerate] = 0.0
    values = (grad - mean[:, :, None]) / np.where(degenerate, 1.0, std)[:, :, None]
    values[degenerate] = 0.0
    return NormalizedGradient(values=values, mean=mean, std=std)


def uplink(
    gains: np.ndarray,
    powers: np.ndarray,
    grads: NormalizedGradient,
    noise_var: float,
    noise: np.ndarray,
) -> np.ndarray:
    """Real part of the signal at every antenna, shape (T, M, D).

    gains (T, M, K) are the real cascaded gains, powers (T, K) the
    transmit powers, and noise (T, M, D) standard normal draws that are
    scaled to the real noise variance noise_var / 2.
    """
    T, M, K = gains.shape
    D = grads.values.shape[2]
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (T, K):
        raise ValueError(f"powers must have shape ({T}, {K}), got {powers.shape}")
    if (powers < 0).any() or not np.all(np.isfinite(powers)):
        raise ValueError("powers must be finite and non-negative")
    if grads.values.shape[:2] != (T, K):
        raise ValueError(f"expected gradients of shape ({T}, {K}, D), got {grads.values.shape}")
    if noise.shape != (T, M, D):
        raise ValueError(f"noise must have shape ({T}, {M}, {D}), got {noise.shape}")
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    weights = np.sqrt(powers)[:, None, :] * gains
    signal = np.matmul(weights, grads.values)
    return signal + np.sqrt(noise_var / 2.0) * noise


def cluster_average(x: np.ndarray, cluster_of: np.ndarray, num_clusters: int) -> np.ndarray:
    """Average of x (T, K, ...) over each cluster's devices, shape (T, M, ...); 0 for no devices."""
    own = membership(cluster_of, num_clusters)
    return np.einsum("mk,tk...->tm...", own / np.maximum(own.sum(axis=1, keepdims=True), 1), x)


def estimate_cluster_gradient(
    received: np.ndarray,
    denoisers: np.ndarray,
    means: np.ndarray,
    cluster_of: np.ndarray,
) -> np.ndarray:
    """Recover every cluster's aggregated gradient, shape (T, M, D).

    The received signal (T, M, D) divided by the denoising factors
    (T, M), plus the average of each cluster's reported gradient means
    (T, K) on every coordinate. An infinite denoiser discards the analog
    signal and keeps the mean term only.
    """
    T, M, _ = received.shape
    denoisers = np.asarray(denoisers, dtype=float)
    if denoisers.shape != (T, M):
        raise ValueError(f"denoisers must have shape ({T}, {M}), got {denoisers.shape}")
    if not np.all(denoisers > 0):
        raise ValueError("denoisers must be positive")
    means = np.asarray(means, dtype=float)
    if means.shape != (T, np.shape(cluster_of)[0]):
        raise ValueError(f"expected one reported mean per device, got shape {means.shape}")
    mean_term = cluster_average(means, cluster_of, M)
    return received / denoisers[:, :, None] + mean_term[:, :, None]
