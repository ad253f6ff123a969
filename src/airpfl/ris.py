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

from .channel import PartialDraw, trial_draw
# perfbench/tracing.py WRAPS times ris.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401

_TWO_PI = 2.0 * np.pi


def configure_aligned(draw: PartialDraw) -> np.ndarray:
    """Unit phasors aligning each surface with its own cluster, shape (T, M, N).

    Reads each surface's path to its own antenna, draw.own_paths, and
    each cluster's summed own-surface paths, draw.cluster_sums, and
    nothing else: the sampler's drawn terms are exact only for phase
    designs that read the paths through these alone (see
    airpfl.channel). draw is a PartialDraw or a ChannelSet. Returns
    conj(h_ps / |h_ps|) * s / |s| per element, with h_ps the element's
    path to its own cluster's antenna and s the cluster sum. A factor
    whose path is exactly 0 is taken as 1, the phasor of angle 0, and
    where the product of the two underflows to 0 the sum's angle alone
    is used.
    """
    summed = draw.cluster_sums
    if (summed == 0).any():  # each fix-up only where an entry needs it
        summed = np.where(summed == 0, 1.0, summed)
    phasors = np.conj(draw.own_paths) * summed
    mag = np.abs(phasors)
    blocked = mag == 0.0  # h_ps = 0, or the product underflowed: keep the sum's angle
    if blocked.any():
        phasors[blocked] = summed[blocked]
        mag[blocked] = np.abs(summed[blocked])
    np.divide(phasors.real, mag, out=phasors.real)
    np.divide(phasors.imag, mag, out=phasors.imag)
    return phasors


def baseline_phases(rng, trials: int, num_surfaces: int, num_elements: int) -> np.ndarray:
    """Unit phasors e^{-j theta} of angles theta drawn uniformly on [0, 2*pi), shape (T, M, N).

    The angles are one uniform (T, M, N) block from rng, in C order. rng
    may also be a list or tuple of T generators (ValueError for another
    length): generator t then draws trial t's (1, M, N) block, as a
    one-trial call with it does.
    """
    shape = (trials, num_surfaces, num_elements)
    exponent = np.zeros(shape, dtype=complex)  # +0 - j theta: the bytes of -1j * theta
    np.negative(trial_draw(rng, "uniform", shape, 0.0, _TWO_PI), out=exponent.imag)
    return np.exp(exponent, out=exponent)


def corrupt_phases(phasors: np.ndarray, bits: int) -> np.ndarray:
    """Quantize unit phasors e^{-j theta} to the 2**bits-level grid of theta on [0, 2*pi).

    Each angle theta snaps to the nearest grid point (wrapping across
    2*pi), with exact ties resolved toward the lower neighbor, so the
    angular error never exceeds pi / 2**bits. The result is read from
    the table of roots of unity e^{-j 2 pi i / 2**bits}; a grid with
    more levels than phasors is evaluated at the chosen levels only,
    with the same values.
    """
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)) or bits < 1:
        raise ValueError(f"bits must be a positive integer, got {bits!r}")
    phasors = np.asarray(phasors)
    if not np.iscomplexobj(phasors):
        raise ValueError("phases must be complex unit phasors e^{-j theta}, not real angles")
    levels = 2 ** int(bits)
    step = _TWO_PI / levels
    # theta = -angle (mod 2 pi); ceil(x - 1/2) is the nearest level, ties down. In place.
    index = np.angle(phasors)
    np.ceil(np.subtract(np.divide(index, -step, out=index), 0.5, out=index), out=index)
    if levels > index.size:
        return np.exp(-1j * (np.mod(index, levels) * step))
    table = np.exp(-1j * (np.arange(levels) * step))
    return table[np.bitwise_and(index.astype(np.int64), levels - 1)]  # mod 2**bits
