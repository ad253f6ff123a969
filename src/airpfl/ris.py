"""Reflecting-surface phase configuration.

A phase configuration is a (T, M, N) complex array of unit phasors
e^{-j theta}: element n of surface m multiplies its incident path by
e^{-j theta[m, n]}. The aligned design points each surface at its own
cluster, with no trigonometry:

    phasor[m, n] = conj(h_ps[m, n, m]) / |h_ps[m, n, m]|
                   * s_m[n] / |s_m[n]|,  s_m = sum_{k in cluster m} h_dev[m, k],

that is theta = angle(h_ps[m, n, m]) - angle(s_m[n]), which makes the
own-cluster reflected gains real and non-negative while leaving every
cross-cluster gain zero mean. Averaged over Rayleigh fading the
own-cluster inner product concentrates at pi * N / (4 * sqrt(|cluster|)).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
# perfbench/tracing.py WRAPS times ris.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401

ZERO_SUM_TOL = 1e-15

_TWO_PI = 2.0 * np.pi


def configure_aligned(ch: ChannelSet) -> np.ndarray:
    """Unit phasors aligning each surface with its own cluster, shape (T, M, N).

    Reads ch.ris_to_ps and each cluster's summed own-surface paths
    ch.cluster_sums, and no device's own path: the sampler's own-cluster
    residual terms are exact only for phase designs that read the device
    paths through these sums alone (see airpfl.channel). Returns
    conj(h_ps / |h_ps|) * s / |s| per element, with h_ps the element's
    path to its own cluster's antenna and s the cluster sum. A factor
    whose path has magnitude below 1e-15 for the sum (the sum over a
    cluster without devices is exactly 0), or exactly 0 for h_ps, is
    taken as 1, the phasor of angle 0.
    """
    summed = ch.cluster_sums
    summed = np.where(np.abs(summed) < ZERO_SUM_TOL, 1.0, summed)
    own = np.diagonal(ch.ris_to_ps, axis1=1, axis2=3).swapaxes(1, 2)  # h_ps[t, i, n, i]
    phasors = np.conj(own) * summed
    mag = np.abs(phasors)
    blocked = mag == 0.0  # h_ps = 0 here, as the sum factor has modulus >= ZERO_SUM_TOL
    phasors[blocked] = summed[blocked]
    mag[blocked] = np.abs(summed[blocked])
    np.divide(phasors.real, mag, out=phasors.real)
    np.divide(phasors.imag, mag, out=phasors.imag)
    return phasors


def baseline_phases(
    rng: np.random.Generator, trials: int, num_surfaces: int, num_elements: int
) -> np.ndarray:
    """Unit phasors e^{-j theta} of angles theta drawn uniformly on [0, 2*pi), shape (T, M, N)."""
    return np.exp(-1j * rng.uniform(0.0, _TWO_PI, size=(trials, num_surfaces, num_elements)))


def corrupt_phases(phasors: np.ndarray, bits: int) -> np.ndarray:
    """Quantize unit phasors e^{-j theta} to the 2**bits-level grid of theta on [0, 2*pi).

    Each angle theta snaps to the nearest grid point (wrapping across
    2*pi), with exact ties resolved toward the lower neighbor, so the
    angular error never exceeds pi / 2**bits. The result is read from
    the table of roots of unity e^{-j 2 pi i / 2**bits}; a grid with
    more levels than phasors is evaluated at the chosen levels only,
    with the same values.
    """
    if not isinstance(bits, (int, np.integer)) or bits < 1:
        raise ValueError(f"bits must be a positive integer, got {bits!r}")
    phasors = np.asarray(phasors)
    if not np.iscomplexobj(phasors):
        raise ValueError("phases must be complex unit phasors e^{-j theta}, not real angles")
    levels = 2 ** int(bits)
    step = _TWO_PI / levels
    # theta = -angle (mod 2 pi); ceil(x - 1/2) is the nearest level, ties down.
    index = np.ceil(np.angle(phasors) / -step - 0.5)
    if levels > index.size:
        return np.exp(-1j * (np.mod(index, levels) * step))
    table = np.exp(-1j * (np.arange(levels) * step))
    return table[np.mod(index.astype(np.int64), levels)]
