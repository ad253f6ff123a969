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

Every kernel takes a leading trial axis. Only the real part of a
reflected path is ever used. For a device k outside cluster i, the path
h_dev[i, k] to surface i is CN(0, I_N) and independent of everything
else, surface i's phases included. With W_i = diag(e^{-j theta_i}) H_i,
H_i[n, m] = h_ps[i, n, m], the foreign term Re{W_i^H h_dev[i, k]} is
therefore, given H_i, exactly N(0, Re(W_i^H W_i) / 2), independently
across such (i, k); and Re(W_i^H W_i) = Re(H_i^H H_i) for every theta_i,
because the phases cancel. A draw therefore materializes only each
device's path to its own surface, and draws one standard-normal
M-vector u per (surface, device) pair, which it turns into the foreign
term F_i u, with F_i the lower-triangular factor of Re(H_i^H H_i) / 2.
Normals per trial drop from 2N(M^2 + MK) to 2N(M^2 + K) + M^2 K.
Every phase configuration evaluated on one draw sees the same foreign
terms, each under its exact law. The gain kernels take own-surface
terms as one real batched matmul over the interleaved (re, im) pairs
of the N surface elements.

One draw can also serve a grid of B increasing surface sizes
n_1 < ... < n_B = N_max, as nested surfaces: the size-n surface is the
first n elements of the N_max one. Paths are drawn once at N_max; the
foreign terms are drawn per block of elements [n_{b-1}, n_b) (n_0 = 0),
whose contributions are independent given the paths, and a size's
foreign terms are the sum of its blocks' increments. Each size then has
exactly its own law, and the joint law across sizes is that of one
fully materialized surface, for 2 N_max (M^2 + K) + B M^2 K normals per
trial.
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
    """Block-fading realizations of the uplink, one per trial.

    ris_to_ps[t, i, n, m] is element n of the channel from surface i to
    PS antenna m in trial t. device_to_ris[t, k, n] is element n of the
    channel from device k to its own surface cluster_of[k] only; paths
    to foreign surfaces are never materialized. foreign_terms[t, i, m, k]
    is, for i != cluster_of[k], device k's real reflected path off
    surface i to antenna m, Re{h_ps[t, i, :, m]^H diag(e^{j theta}) h},
    drawn from its exact law given ris_to_ps, which is the same for
    every phase vector theta. Entries with i == cluster_of[k] are
    computed but unused, which keeps the shapes regular for any
    cluster sizes. smaller_foreign holds, for each smaller nested size n
    drawn alongside (ascending), the foreign terms of the surface made of
    the first n elements; see prefix.
    """

    ris_to_ps: np.ndarray      # (T, M, N, M) complex
    device_to_ris: np.ndarray  # (T, K, N) complex, own-surface paths
    foreign_terms: np.ndarray  # (T, M, M, K) real
    cluster_of: np.ndarray     # (K,) int
    smaller_foreign: tuple = ()  # ((n, (T, M, M, K) real), ...) for nested sizes n < N

    @property
    def num_trials(self) -> int:
        return self.ris_to_ps.shape[0]

    @property
    def num_surfaces(self) -> int:
        return self.ris_to_ps.shape[1]

    @property
    def num_elements(self) -> int:
        return self.ris_to_ps.shape[2]

    def prefix(self, n: int) -> "ChannelSet":
        """The nested surface of the first n elements of every surface, as views.

        n must be num_elements or one of the smaller sizes drawn with
        this set (KeyError otherwise).
        """
        if n == self.num_elements:
            return self
        return ChannelSet(
            ris_to_ps=self.ris_to_ps[:, :, :n],
            device_to_ris=self.device_to_ris[:, :, :n],
            foreign_terms=dict(self.smaller_foreign)[n],
            cluster_of=self.cluster_of,
        )


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
    rng: np.random.Generator, trials: int, num_clusters: int, cluster_of, num_elements
) -> ChannelSet:
    """Draw `trials` independent block-fading realizations from rng.

    cluster_of (K,) names each device's own surface. num_elements is a
    surface size N, or an increasing sequence of nested sizes
    n_1 < ... < n_B = N served by one draw (see prefix). Draw order is
    fixed, each block in C order with the trial axis first: real then
    imaginary parts of every surface-to-PS entry (T, M, N, M); real
    then imaginary parts of every device's own-surface entry (T, K, N);
    then, for each size b in turn, one standard-normal M-vector u_b per
    (surface, device) pair (T, M, M, K). Each complex entry is real
    part * (1/sqrt(2)) + 1j * imaginary part * (1/sqrt(2)). With F_b =
    foreign_factor(ris_to_ps[:, :, n_{b-1}:n_b]) (n_0 = 0), the
    foreign terms of size n_b are the running sum over blocks c <= b of
    F_c @ u_c[..., :min(2 (n_c - n_{c-1}), M)]; those of size N are
    foreign_terms.
    """
    cluster_of = np.asarray(cluster_of, dtype=int)
    sizes = tuple(int(n) for n in np.atleast_1d(num_elements))
    T, M, K, N = trials, num_clusters, cluster_of.size, sizes[-1]
    if cluster_of.ndim != 1 or cluster_of.min(initial=0) < 0 or cluster_of.max(initial=0) >= M:
        raise ValueError(f"cluster_of must be a 1-D array of surfaces in [0, {M})")
    if any(b <= a for a, b in zip((0,) + sizes, sizes)):
        raise ValueError(f"surface sizes must be positive and increasing, got {sizes}")
    ris_to_ps = _complex_normal(rng, (T, M, N, M))
    device_to_ris = _complex_normal(rng, (T, K, N))
    normals = rng.standard_normal((len(sizes), T, M, M, K))
    foreign = []
    for b, (lo, hi) in enumerate(zip((0,) + sizes, sizes)):
        factor = foreign_factor(ris_to_ps[:, :, lo:hi])
        step = np.matmul(factor, normals[b, :, :, : factor.shape[-1]])
        foreign.append(step if b == 0 else foreign[-1] + step)
    return ChannelSet(
        ris_to_ps=ris_to_ps,
        device_to_ris=device_to_ris,
        foreign_terms=foreign[-1],
        cluster_of=cluster_of,
        smaller_foreign=tuple(zip(sizes[:-1], foreign[:-1])),
    )


def foreign_factor(ris_to_ps: np.ndarray) -> np.ndarray:
    """Lower-triangular F_i with F_i F_i^T = Re(H_i^H H_i) / 2, shape (T, M, M, min(2N, M)).

    H_i = ris_to_ps[t, i] (N x M). F_i is the transposed R of the thin
    QR of the real (2N x M) matrix [Re H_i; Im H_i], its rows signed so
    the diagonal is non-negative, scaled by 1/sqrt(2). That needs no
    positive definiteness, so it holds for 2N < M and for a zero
    surface-to-PS column as well, and it equals the Cholesky factor
    whenever the Gram matrix is positive definite.
    """
    r = np.linalg.qr(np.concatenate((ris_to_ps.real, ris_to_ps.imag), axis=2), mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    r *= np.where(diag < 0.0, -1.0, 1.0)[..., None] * (1.0 / np.sqrt(2.0))
    return r.swapaxes(-1, -2)


def _reflected(ch: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """Re{ h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) h_dev[t, i, k] }, shape (T, M, M, K).

    With w[t, i, m, n] = h_ps[t, i, n, m] e^{-j phases[t, i, n]}, the
    real part of sum_n conj(w_n) h_dev_n is the real dot product of w and
    h_dev viewed as interleaved (re, im) pairs, so one real batched
    matmul over the 2N axis gives every device's term on every surface;
    each device keeps its own surface's term and the foreign terms
    elsewhere.
    """
    T, M, N, M_ant = ch.ris_to_ps.shape
    w = np.empty((T, M, M_ant, N), dtype=complex)
    np.multiply(ch.ris_to_ps.transpose(0, 1, 3, 2), np.exp(-1j * phases)[:, :, None, :], out=w)
    h = np.ascontiguousarray(ch.device_to_ris, dtype=complex).view(np.float64)
    own = np.matmul(w.view(np.float64), h[:, None].swapaxes(-1, -2))
    own_surface = ch.cluster_of[None, :] == np.arange(M)[:, None]  # (M, K)
    return np.where(own_surface[None, :, None, :], own, ch.foreign_terms)


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
