"""Transmit power and denoising factor selection.

Two designs are implemented. The statistical design picks powers that
equalize every device's expected contribution inside its cluster and
pairs them with a denoiser computed from channel statistics alone; the
resulting cluster estimates are unbiased. The adaptive denoiser
instead uses the realized cascaded gains of the current round and
minimizes the conditional mean-squared error of the cluster estimate
for whatever powers are in force. That error, `conditional_mse`, and
the adaptive denoiser read the same per-cluster terms, built from the
per-device moments of `symbol_moments`, for T trials at once. Every
per-cluster minimum and sum is a masked reduction over the (M, K)
cluster membership matrix `sysmodel.membership`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import membership


@dataclass(frozen=True)
class AggregationDesign:
    """Per-device transmit powers and per-cluster denoising factors."""

    powers: np.ndarray     # (T, K)
    denoisers: np.ndarray  # (T, M), or (J, T, M) for J surface sizes


def unbiased_design(
    beta: np.ndarray,
    sigmas: np.ndarray,
    max_power: np.ndarray,
    model_dim: int,
    num_elements: int | list[int],
    cluster_of: np.ndarray,
) -> AggregationDesign:
    """Statistics-only power control with an unbiased denoiser, per trial.

    sigmas has shape (T, K). num_elements is one surface size, or a
    sequence of J sizes, which share the powers and stack their
    denoisers along a leading axis: (J, T, M). Within cluster m the
    binding device fixes the common scale

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
    K = sigmas.shape[1]
    M = beta.shape[0]
    if beta.shape != (M, K):
        raise ValueError(f"beta must have shape ({M}, {K}), got {beta.shape}")
    if (sigmas < 0).any():
        raise ValueError("gradient stds must be non-negative")
    if (max_power <= 0).any():
        raise ValueError("power budgets must be positive")
    own = membership(cluster_of, M)
    own_beta = beta[cluster_of, np.arange(K)]  # beta[m, k] for k's own cluster m
    live = sigmas > 0.0
    safe = np.where(live, sigmas, 1.0)
    ratio = np.sqrt(max_power) * own_beta / (safe * np.sqrt(model_dim))
    zeta = np.where(own & live[:, None, :], ratio[:, None, :], np.inf).min(axis=2)  # (T, M)
    signal = np.isfinite(zeta)
    zeta = np.where(signal, zeta, 0.0)
    powers = np.minimum((sigmas / own_beta) ** 2 * zeta[:, cluster_of] ** 2, max_power)
    sizes = np.asarray(num_elements)[..., None, None]  # (1, 1) or (J, 1, 1)
    denoisers = np.pi * sizes * np.sqrt(own.sum(axis=1)) * zeta / 4.0
    return AggregationDesign(powers=powers, denoisers=np.where(signal, denoisers, np.inf))


def symbol_moments(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E[x^2], E[x g], E[g^2]), each (T, K): the MMSE error model's per-device moments.

    These are the moments of the uplink of airpfl.aircomp: device k sends
    its standardized gradient x_k = s_k, unit-variance and independent
    across devices, and the target is its deviation g_k = sigma_k s_k
    (gradient minus its mean), so they are (1, sigma_k, sigma_k^2).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    return np.ones_like(sigmas), sigmas, sigmas**2


def _error_terms(powers, gains, sigmas, noise_var, cluster_of):
    """num and cross (T, M) of conditional_mse, and the (M, K) cluster membership."""
    second, mixed, _ = symbol_moments(sigmas)
    own = membership(cluster_of, gains.shape[1])
    num = np.matmul(gains**2, (powers * second)[..., None])[..., 0] + noise_var / 2.0
    cross = np.einsum("tk,tmk->tm", np.sqrt(powers) * mixed, np.where(own, gains, 0.0))
    return num, cross, own


def conditional_mse(
    powers: np.ndarray,
    denoisers: np.ndarray,
    gains: np.ndarray,
    sigmas: np.ndarray,
    noise_var: float,
    model_dim: int,
    cluster_of: np.ndarray,
) -> np.ndarray:
    """Expected squared error of every cluster's estimate given realized gains.

    powers and sigmas have shape (T, K), denoisers (T, M) and gains
    (T, M, K); returns (T, M). It is the error of the symbol_moments
    model (second, mixed, fourth), with real noise of per-entry variance
    noise_var / 2:

        D * (num_m / lambda_m^2 - 2 cross_m / (|cluster m| lambda_m) + floor_m),

    with num_m = sum_k p_k h_{m,k}^2 second_k + noise_var / 2, cross_m =
    sum_{k in m} sqrt(p_k) h_{m,k} mixed_k and floor_m = sum_{k in m}
    fourth_k / |cluster m|^2. An infinite denoiser yields the floor, a
    non-positive one ValueError.
    """
    if not (denoisers > 0).all():
        raise ValueError(f"denoisers must be positive, got {denoisers!r}")
    num, cross, own = _error_terms(powers, gains, sigmas, noise_var, cluster_of)
    sizes = own.sum(axis=1)
    floor = symbol_moments(sigmas)[2] @ own.T / sizes**2
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
    fallback[t, m] is substituted when cross_m is exactly 0 (a cluster
    with no analog signal); and +inf (discard the analog signal, keep
    the mean term) is returned when the minimizer is non-positive,
    since the constrained optimum over positive denoisers is then
    attained in the limit. Every vanished cluster gives an exact 0, as
    each term of its cross sum is an exact 0 factor times a finite one:
    an all-zero-std cluster has mixed_k = sigma_k = 0, a cluster whose
    own gains are 0 has h_{m,k} = 0, and a cluster whose powers the
    solver switched off has p_k = 0. The test names no scale, so the
    choice does not change when every gain is multiplied by c and
    noise_var by c^2.
    """
    num, cross, own = _error_terms(powers, gains, sigmas, noise_var, cluster_of)
    sizes = own.sum(axis=1)
    vanished = cross == 0.0
    raw = sizes * num / np.where(vanished, 1.0, cross)
    lam = np.where(vanished, fallback, raw)
    return np.where(lam > 0, lam, np.inf)
