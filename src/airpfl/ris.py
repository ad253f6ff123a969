"""Reflecting-surface phase configuration.

The aligned design points each surface at its own cluster: element n
of surface m gets

    theta[m, n] = angle(h_ps[m, n, m]) - angle(sum_{k in cluster m} h_dev[m, k, n]),

which makes the own-cluster reflected gains real and non-negative
while leaving every cross-cluster gain zero mean. Averaged over
Rayleigh fading the own-cluster inner product concentrates at
pi * N / (4 * sqrt(|cluster|)).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
# perfbench/tracing.py WRAPS times ris.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401

ZERO_SUM_TOL = 1e-15

_TWO_PI = 2.0 * np.pi


def configure_aligned(ch: ChannelSet) -> np.ndarray:
    """Per-element phases aligning each surface with its own cluster.

    Reads ch.ris_to_ps and each cluster's summed own-surface paths
    ch.cluster_sums, and no device's own path: the sampler's own-cluster
    residual terms are exact only for phase designs that read the device
    paths through these sums alone (see airpfl.channel). Returns a
    (T, M, N) array with entries in [0, 2*pi). If the summed device
    channel of an element has magnitude below 1e-15 (the sum over a
    cluster without devices is exactly 0) its angle is taken as 0.
    """
    summed = ch.cluster_sums
    sum_angle = np.where(np.abs(summed) < ZERO_SUM_TOL, 0.0, np.angle(summed))
    own = np.angle(np.diagonal(ch.ris_to_ps, axis1=1, axis2=3))  # (T, N, M)
    theta = np.empty(summed.shape)
    np.subtract(own.swapaxes(1, 2), sum_angle, out=theta)
    return np.mod(theta, _TWO_PI, out=theta)


def baseline_phases(
    rng: np.random.Generator, trials: int, num_surfaces: int, num_elements: int
) -> np.ndarray:
    """Reference phases drawn uniformly on [0, 2*pi), shape (T, M, N)."""
    return rng.uniform(0.0, _TWO_PI, size=(trials, num_surfaces, num_elements))


def corrupt_phases(phases: np.ndarray, bits: int) -> np.ndarray:
    """Quantize phases to a uniform 2**bits grid on [0, 2*pi).

    Each phase snaps to the nearest grid point (wrapping across 2*pi),
    with exact ties resolved toward the lower neighbor, so the
    quantization error never exceeds pi / 2**bits in magnitude.
    """
    if not isinstance(bits, (int, np.integer)) or bits < 1:
        raise ValueError(f"bits must be a positive integer, got {bits!r}")
    levels = 2 ** int(bits)
    step = _TWO_PI / levels
    idx = np.ceil(np.asarray(phases) / step - 0.5)
    return np.mod(idx, levels) * step
