"""Transmit power and denoising factor selection.

Two designs are implemented. The statistical design picks powers that
equalize every device's expected contribution inside its cluster and
pairs them with a denoiser computed from channel statistics alone; the
resulting cluster estimates are unbiased. The adaptive denoiser
instead uses the realized cascaded gains of the current round and
minimizes the conditional mean-squared error of the cluster estimate
for whatever powers are in force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import cluster_members

DENOISER_UNDERFLOW_TOL = 1e-15


class ClusterSignalVanished(ArithmeticError):
    """The aligned signal of a cluster underflowed; no adaptive denoiser exists."""


@dataclass(frozen=True)
class AggregationDesign:
    """Per-device transmit powers and per-cluster denoising factors."""

    powers: np.ndarray     # (K,)
    denoisers: np.ndarray  # (M,)
    scheme: str


def unbiased_design(
    beta: np.ndarray,
    sigmas: np.ndarray,
    max_power: np.ndarray,
    model_dim: int,
    num_elements: int,
    cluster_of: np.ndarray,
) -> AggregationDesign:
    """Statistics-only power control with an unbiased denoiser, per trial.

    sigmas has shape (T, K). Within cluster m the binding device fixes
    the common scale

        zeta_m = min_k sqrt(P_k) * beta[m, k] / (sigma_k * sqrt(D)),

    each device transmits with p_k = sigma_k^2 * beta[m, k]^-2 * zeta_m^2
    (so the weakest device runs at its full per-symbol budget P_k / D),
    and the denoiser is lambda_m = pi * N * sqrt(|cluster m|) * zeta_m / 4.
    Devices reporting sigma = 0 are excluded from the minimum and get
    zero power. A cluster whose devices all report sigma = 0 carries no
    analog signal: the minimum over no devices is +inf, so its devices
    get zero power and its denoiser is +inf (estimate = mean term).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    max_power = np.asarray(max_power, dtype=float)
    T, K = sigmas.shape
    M = beta.shape[0]
    if beta.shape != (M, K):
        raise ValueError(f"beta must have shape ({M}, {K}), got {beta.shape}")
    if (sigmas < 0).any():
        raise ValueError("gradient stds must be non-negative")
    if (max_power <= 0).any():
        raise ValueError("power budgets must be positive")
    live = sigmas > 0.0
    safe = np.where(live, sigmas, 1.0)
    root_d = np.sqrt(model_dim)
    powers = np.empty((T, K))
    denoisers = np.empty((T, M))
    for m, idx in enumerate(cluster_members(cluster_of, M)):
        if idx.size == 0:
            raise ValueError(f"empty cluster {m}")
        ratio = np.sqrt(max_power[idx]) * beta[m, idx] / (safe[:, idx] * root_d)
        zeta = np.where(live[:, idx], ratio, np.inf).min(axis=1)  # (T,)
        scale = np.where(np.isfinite(zeta), zeta, 0.0)
        p = (sigmas[:, idx] / beta[m, idx]) ** 2 * scale[:, None] ** 2
        powers[:, idx] = np.minimum(p, max_power[idx])
        denoisers[:, m] = np.pi * num_elements * np.sqrt(idx.size) * zeta / 4.0
    return AggregationDesign(powers=powers, denoisers=denoisers, scheme="unbiased")


def mmse_denoising(
    powers: np.ndarray,
    gains_row: np.ndarray,
    sigmas: np.ndarray,
    noise_var: float,
    cluster_of: np.ndarray,
    m: int,
) -> float:
    """Conditionally MSE-optimal denoiser for cluster m, given powers.

    With realized real cascaded gains h (row m of the gain matrix),

        lambda_m = |cluster m| * (sum_k p_k h_k^2 sigma_k^2 + noise_var / 2)
                   / (sum_{k in cluster m} sqrt(p_k) h_k sigma_k^3).

    Raises ClusterSignalVanished when the denominator magnitude falls
    below 1e-15; callers then fall back to the statistical denoiser.
    The returned value can be negative when the realized own-cluster
    signal is anti-aligned, in which case no positive minimizer exists.
    """
    powers = np.asarray(powers, dtype=float)
    gains_row = np.asarray(gains_row, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    members = np.flatnonzero(np.asarray(cluster_of) == m)
    size = members.size
    if size == 0:
        raise ValueError(f"empty cluster {m}")
    num = float(np.sum(powers * gains_row**2 * sigmas**2)) + noise_var / 2.0
    den = float(np.sum(np.sqrt(powers[members]) * gains_row[members] * sigmas[members] ** 3))
    if abs(den) < DENOISER_UNDERFLOW_TOL:
        raise ClusterSignalVanished(
            f"cluster {m} aligned signal underflowed (denominator {den!r})"
        )
    return size * num / den


def conditional_mse(
    powers: np.ndarray,
    denoiser: float,
    gains_row: np.ndarray,
    sigmas: np.ndarray,
    noise_var: float,
    model_dim: int,
    cluster_of: np.ndarray,
    m: int,
) -> float:
    """Closed-form MSE of cluster m's estimate given realized gains.

    Treats the standardized gradients as zero-mean vectors with
    per-entry variance sigma_k^2 and the extracted real noise with
    per-entry variance noise_var / 2:

        (sum_k p_k h_k^2 sigma_k^2 D + D noise_var / 2) / lambda^2
        - 2 (sum_own sqrt(p_k) h_k sigma_k^3 D / |cluster|) / lambda
        + sum_own sigma_k^4 D / |cluster|^2.

    An infinite denoiser yields the signal-free floor (last term).
    """
    if not denoiser > 0:
        raise ValueError(f"denoiser must be positive, got {denoiser!r}")
    powers = np.asarray(powers, dtype=float)
    gains_row = np.asarray(gains_row, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    members = np.flatnonzero(np.asarray(cluster_of) == m)
    size = members.size
    if size == 0:
        raise ValueError(f"empty cluster {m}")
    D = float(model_dim)
    quad = float(np.sum(powers * gains_row**2 * sigmas**2)) * D + D * noise_var / 2.0
    lin = 2.0 * float(
        np.sum(np.sqrt(powers[members]) * gains_row[members] * sigmas[members] ** 3)
    ) * D / size
    floor = float(np.sum(sigmas[members] ** 4)) * D / size**2
    if np.isinf(denoiser):
        return floor
    return quad / denoiser**2 - lin / denoiser + floor


def adaptive_denoisers(
    powers: np.ndarray,
    gains: np.ndarray,
    sigmas: np.ndarray,
    noise_var: float,
    cluster_of: np.ndarray,
    fallback: np.ndarray,
) -> np.ndarray:
    """Per-trial, per-cluster adaptive denoisers with explicit degraded modes.

    powers and sigmas have shape (T, K), gains (T, M, K) and fallback
    (T, M). For each cluster take the conditional-MSE minimizer of
    mmse_denoising when it is positive; substitute fallback[t, m] when
    the denominator magnitude falls below 1e-15 (a cluster with no
    analog signal); and return +inf (discard the analog signal, keep
    the mean term) when the minimizer is non-positive, since the
    constrained optimum over positive denoisers is then attained in the
    limit.
    """
    M = gains.shape[1]
    num = np.einsum("tk,tmk->tm", powers * sigmas**2, gains**2, optimize=True) + noise_var / 2.0
    out = np.empty(fallback.shape)
    for m, idx in enumerate(cluster_members(cluster_of, M)):
        den = np.einsum("tk,tk->t", np.sqrt(powers[:, idx]) * sigmas[:, idx] ** 3, gains[:, m, idx])
        vanished = np.abs(den) < DENOISER_UNDERFLOW_TOL
        raw = idx.size * num[:, m] / np.where(vanished, 1.0, den)
        lam = np.where(vanished, fallback[:, m], raw)
        out[:, m] = np.where(lam > 0, lam, np.inf)
    return out
