"""Transmit power and denoising factor selection.

Two designs are implemented. The statistical design picks powers that
equalize every device's expected contribution inside its cluster and
pairs them with a denoiser computed from channel statistics alone; the
resulting cluster estimates are unbiased. The adaptive denoiser
instead uses the realized cascaded gains of the current round and
minimizes the conditional mean-squared error of the cluster estimate
for whatever powers are in force. That error, `conditional_mse`, and
the adaptive denoiser read the same per-cluster terms, for T trials
at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import cluster_members

DENOISER_UNDERFLOW_TOL = 1e-15


@dataclass(frozen=True)
class AggregationDesign:
    """Per-device transmit powers and per-cluster denoising factors."""

    powers: np.ndarray     # (T, K)
    denoisers: np.ndarray  # (T, M)


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
    return AggregationDesign(powers=powers, denoisers=denoisers)


def _error_terms(powers, gains, sigmas, noise_var, cluster_of):
    """Terms of every cluster's conditional MSE under realized gains.

    Returns num[t, m] = sum_k p_k h_{m,k}^2 sigma_k^2 + noise_var / 2
    and cross[t, m] = sum_{k in m} sqrt(p_k) h_{m,k} sigma_k^3, both
    (T, M), and the (M,) cluster sizes.
    """
    M = gains.shape[1]
    num = np.einsum("tk,tmk->tm", powers * sigmas**2, gains**2, optimize=True) + noise_var / 2.0
    cross = np.empty(num.shape)
    members = cluster_members(cluster_of, M)
    for m, idx in enumerate(members):
        if idx.size == 0:
            raise ValueError(f"empty cluster {m}")
        cross[:, m] = np.einsum(
            "tk,tk->t", np.sqrt(powers[:, idx]) * sigmas[:, idx] ** 3, gains[:, m, idx]
        )
    return num, cross, np.array([idx.size for idx in members])


def conditional_mse(
    powers: np.ndarray,
    denoisers: np.ndarray,
    gains: np.ndarray,
    sigmas: np.ndarray,
    noise_var: float,
    model_dim: int,
    cluster_of: np.ndarray,
) -> np.ndarray:
    """Closed-form MSE of every cluster's estimate given realized gains.

    powers and sigmas have shape (T, K), denoisers (T, M) and gains
    (T, M, K); returns (T, M). Treats the standardized gradients as
    zero-mean vectors with per-entry variance sigma_k^2 and the
    extracted real noise with per-entry variance noise_var / 2:

        D * (num_m / lambda_m^2 - 2 cross_m / (|cluster m| lambda_m)
             + sum_{k in m} sigma_k^4 / |cluster m|^2),

    with num_m = sum_k p_k h_{m,k}^2 sigma_k^2 + noise_var / 2 and
    cross_m = sum_{k in m} sqrt(p_k) h_{m,k} sigma_k^3. An infinite
    denoiser yields the signal-free floor (last term); a non-positive
    one raises ValueError.
    """
    if not (denoisers > 0).all():
        raise ValueError(f"denoisers must be positive, got {denoisers!r}")
    num, cross, sizes = _error_terms(powers, gains, sigmas, noise_var, cluster_of)
    own = np.asarray(cluster_of)[:, None] == np.arange(sizes.size)  # (K, M)
    floor = sigmas**4 @ own / sizes**2
    inv = 1.0 / denoisers
    return model_dim * (num * inv**2 - 2.0 * cross / sizes * inv + floor)


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
    (T, M). The conditional-MSE minimizer over lambda is

        lambda_m = |cluster m| * num_m / cross_m

    (terms as in conditional_mse). It is taken when positive;
    fallback[t, m] is substituted when |cross_m| falls below 1e-15 (a
    cluster with no analog signal); and +inf (discard the analog
    signal, keep the mean term) is returned when the minimizer is
    non-positive, since the constrained optimum over positive denoisers
    is then attained in the limit.
    """
    num, cross, sizes = _error_terms(powers, gains, sigmas, noise_var, cluster_of)
    vanished = np.abs(cross) < DENOISER_UNDERFLOW_TOL
    raw = sizes * num / np.where(vanished, 1.0, cross)
    lam = np.where(vanished, fallback, raw)
    return np.where(lam > 0, lam, np.inf)
