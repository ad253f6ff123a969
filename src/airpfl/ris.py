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
from .sysmodel import cluster_members

ZERO_SUM_TOL = 1e-15

_TWO_PI = 2.0 * np.pi


def configure_aligned(ch: ChannelSet) -> np.ndarray:
    """Per-element phases aligning each surface with its own cluster.

    Reads each cluster's own-surface paths and ch.cluster_of. Returns a
    (T, M, N) array with entries in [0, 2*pi). If the summed device
    channel of an element has magnitude below 1e-15 its angle is taken
    as 0.
    """
    theta = np.empty((ch.num_trials, ch.num_surfaces, ch.num_elements))
    for m, idx in enumerate(cluster_members(ch.cluster_of, ch.num_surfaces)):
        summed = ch.device_to_ris[:, idx, :].sum(axis=1)  # (T, N)
        sum_angle = np.where(np.abs(summed) < ZERO_SUM_TOL, 0.0, np.angle(summed))
        own = ch.ris_to_ps[:, m, :, m]
        theta[:, m, :] = np.mod(np.angle(own) - sum_angle, _TWO_PI)
    return theta


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
