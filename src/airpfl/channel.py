"""Fading channels for the surface-assisted uplink.

Direct device-to-PS paths are assumed blocked, so every uplink symbol
travels device -> surface -> PS. Small-scale fading is Rayleigh: each
entry is circularly symmetric complex Gaussian with unit variance
(real and imaginary parts each N(0, 1/2)), redrawn independently every
communication round (block fading). Large-scale attenuation is a pure
distance power law applied to the cascaded path amplitude,

    beta[i, k] = (d_ki * d_i)^(-alpha/2),

with d_ki the device-k-to-surface-i distance (clamped below at 1 m)
and d_i the surface-i-to-PS distance.

Every kernel takes a leading trial axis. A draw fills each complex
array once from one planar normal draw (all real parts, then all
imaginary parts), so the random stream is that of separate real and
imaginary draws. Only the real part of a reflected path is ever used,
so the gain kernels contract it as one real batched matmul over the
interleaved (re, im) pairs of the N surface elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py WRAPS times channel.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401
from .sysmodel import Geometry

MIN_DEVICE_RIS_DISTANCE = 1.0


@dataclass(frozen=True)
class ChannelSet:
    """Block-fading realizations of every uplink path, one per trial.

    ris_to_ps[t, i, n, m] is element n of the channel from surface i to
    PS antenna m in trial t. device_to_ris[t, i, k, n] is element n of
    the channel from device k to surface i.
    """

    ris_to_ps: np.ndarray      # (T, M, N, M) complex
    device_to_ris: np.ndarray  # (T, M, K, N) complex

    @property
    def num_trials(self) -> int:
        return self.ris_to_ps.shape[0]

    @property
    def num_surfaces(self) -> int:
        return self.ris_to_ps.shape[1]

    @property
    def num_elements(self) -> int:
        return self.ris_to_ps.shape[2]


def large_scale_coefficients(geom: Geometry, pathloss_exponent: float) -> np.ndarray:
    """Cascaded amplitude attenuation beta, shape (M, K).

    Covers every (surface, device) pair, not only a device's own
    cluster, because a device near a foreign surface also reflects
    off it.
    """
    diff = geom.device_positions[None, :, :] - geom.ris_positions[:, None, :]
    d_dev = np.linalg.norm(diff, axis=2)
    d_dev = np.maximum(d_dev, MIN_DEVICE_RIS_DISTANCE)
    d_ps = np.linalg.norm(geom.ris_positions - geom.ps_position[None, :], axis=1)
    beta = (d_dev * d_ps[:, None]) ** (-pathloss_exponent / 2.0)
    if not np.all(np.isfinite(beta)):
        raise ValueError("non-finite large-scale coefficient; check geometry")
    return beta


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Unit-variance circular complex Gaussians: real parts drawn first, then imaginary.

    The planar draw gives the same values in the same order as two
    separate calls, and each part is written once, scaled by 1/sqrt(2),
    into the complex result.
    """
    parts = rng.standard_normal((2,) + shape)
    h = np.empty(shape, dtype=complex)
    np.multiply(parts[0], 1.0 / np.sqrt(2.0), out=h.real)
    np.multiply(parts[1], 1.0 / np.sqrt(2.0), out=h.imag)
    return h


def sample_small_scale(
    rng: np.random.Generator, trials: int, num_clusters: int, num_devices: int, num_elements: int
) -> ChannelSet:
    """Draw `trials` independent block-fading realizations from rng.

    Draw order is fixed: real then imaginary parts of every
    surface-to-PS entry, then real then imaginary parts of every
    device-to-surface entry, each block in C order with the trial axis
    first. Each entry is real part * (1/sqrt(2)) + 1j * imaginary
    part * (1/sqrt(2)).
    """
    T, M, K, N = trials, num_clusters, num_devices, num_elements
    return ChannelSet(
        ris_to_ps=_complex_normal(rng, (T, M, N, M)),
        device_to_ris=_complex_normal(rng, (T, M, K, N)),
    )


def _reflected(ch: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """Re{ h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) h_dev[t, i, k] }, shape (T, M, M, K).

    With w[t, i, m, n] = h_ps[t, i, n, m] e^{-j phases[t, i, n]}, the
    real part of sum_n conj(w_n) h_dev_n is the real dot product of w and
    h_dev viewed as interleaved (re, im) pairs, so one real batched
    matmul over the 2N axis gives it.
    """
    T, M, N, M_ant = ch.ris_to_ps.shape
    w = np.empty((T, M, M_ant, N), dtype=complex)
    np.multiply(ch.ris_to_ps.transpose(0, 1, 3, 2), np.exp(-1j * phases)[:, :, None, :], out=w)
    h = np.ascontiguousarray(ch.device_to_ris, dtype=complex)
    return np.matmul(w.view(np.float64), h.view(np.float64).swapaxes(-1, -2))


def all_cascaded_gains(ch: ChannelSet, beta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Real cascaded gains for every (trial t, antenna m, device k), shape (T, M, K).

    Sums over every surface i the attenuated reflected path
    beta[i, k] * Re{ h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) h_dev[t, i, k] };
    phases has shape (T, M, N).
    """
    return cascaded_components(ch, beta, phases).sum(axis=1)


def cascaded_components(ch: ChannelSet, beta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-surface terms of the cascaded gains, shape (T, M_surface, M_antenna, K).

    Summing over the surface axis gives all_cascaded_gains.
    """
    return beta[None, :, None, :] * _reflected(ch, phases)
