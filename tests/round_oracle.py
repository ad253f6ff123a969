"""Explicit estimates of an aggregation round, kept as a test oracle.

flsim.aggregate_round scores every scheme from per-trial second moments
and never forms an estimate. These helpers form the estimates from the
powers and denoisers it yields, with the uplink and estimate kernels
that training runs, and score them directly.
"""

import numpy as np

from airpfl.aircomp import cluster_average, estimate_cluster_gradient, receiver_noise, uplink


def estimation_nmse(g_hat: np.ndarray, g_true: np.ndarray) -> np.ndarray:
    """Per-trial NMSE (..., T) of (..., T, M, D) estimates of a (T, M, D) truth; 0 where it is 0."""
    err = ((g_hat - g_true) ** 2).sum(axis=(-2, -1))
    energy = (g_true**2).sum(axis=(-2, -1))
    return np.divide(err, energy, out=np.zeros_like(err), where=energy > 0)


def round_estimates(cfg, schemes, gains, grads, noise, powers, denoisers) -> np.ndarray:
    """(S, T, M, D) estimates of a round's schemes from the (S, T, K) powers and (S, T, M) denoisers.

    gains maps each scheme's phase key to its (T, M, K) gains and noise
    holds the round's (T, M, D) standard normal receiver draws.
    """
    noise = receiver_noise(cfg.noise_var, noise)
    mean_term = cluster_average(grads.mean, cfg.cluster_of, cfg.num_clusters)[..., None]
    return np.stack([
        estimate_cluster_gradient(uplink(gains[s.key], p, grads, noise), lam, mean_term)
        for s, p, lam in zip(schemes, powers, denoisers)
    ])
