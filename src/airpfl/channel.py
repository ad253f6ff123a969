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


def sample_small_scale(
    rng: np.random.Generator, trials: int, num_clusters: int, num_devices: int, num_elements: int
) -> ChannelSet:
    """Draw `trials` independent block-fading realizations from rng.

    Draw order is fixed: real then imaginary parts of every
    surface-to-PS entry, then real then imaginary parts of every
    device-to-surface entry, each block in C order with the trial axis
    first.
    """
    T, M, K, N = trials, num_clusters, num_devices, num_elements
    hp = rng.standard_normal((T, M, N, M)) + 1j * rng.standard_normal((T, M, N, M))
    hd = rng.standard_normal((T, M, K, N)) + 1j * rng.standard_normal((T, M, K, N))
    return ChannelSet(ris_to_ps=hp / np.sqrt(2.0), device_to_ris=hd / np.sqrt(2.0))


def _reflected(ch: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """inner[t, i, m, k] = h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) h_dev[t, i, k]."""
    return np.einsum(
        "tinm,tin,tikn->timk",
        np.conj(ch.ris_to_ps), np.exp(1j * phases), ch.device_to_ris, optimize=True,
    )


def all_cascaded_gains(ch: ChannelSet, beta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Real cascaded gains for every (trial t, antenna m, device k), shape (T, M, K).

    Sums over every surface i the attenuated reflected path
    beta[i, k] * Re{ h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) h_dev[t, i, k] };
    phases has shape (T, M, N).
    """
    return np.einsum("ik,timk->tmk", beta, np.real(_reflected(ch, phases)), optimize=True)


def cascaded_components(ch: ChannelSet, beta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-surface terms of the cascaded gains, shape (T, M_surface, M_antenna, K).

    Summing over the surface axis gives all_cascaded_gains up to
    rounding.
    """
    return beta[None, :, None, :] * np.real(_reflected(ch, phases))
