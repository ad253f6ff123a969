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
reflected path is ever used, and the phases of surface i may depend on
the device paths to it only through the cluster sum
s_i = sum_{k in C_i} h_dev[i, k] (the aligned design reads nothing
else). Under that contract no device's own N-element path needs to be
materialized. With W_i = diag(e^{-j theta_i}) H_i, H_i[n, m] =
h_ps[i, n, m]:

- For a device k outside cluster i, the path h_dev[i, k] is CN(0, I_N)
  and independent of everything else, surface i's phases included, so
  the foreign term Re{W_i^H h_dev[i, k]} is, given H_i, exactly
  N(0, Re(W_i^H W_i) / 2), independently across such (i, k); and
  Re(W_i^H W_i) = Re(H_i^H H_i) for every theta_i, because the phases
  cancel.
- For a device k in cluster i, h_dev[i, k] = s_i / |C_i| + r_k. The
  centred residuals r_k have covariance (I - J / |C_i|) (x) I_N and are
  independent of s_i, of H_i and so of any theta_i that keeps the
  contract. Re{W_i^H h_dev[i, k]} is therefore Re{W_i^H s_i} / |C_i|
  plus a residual term that is, given H_i, exactly Gaussian with
  covariance Re(H_i^H H_i) / 2 (x) (I - J / |C_i|) over the cluster's
  devices.

A draw therefore materializes the surface-to-PS paths and each
cluster's sum s_i ~ CN(0, |C_i| I_N), and draws one standard-normal
M-vector u per (surface, device) pair. With F_i the lower-triangular
factor of Re(H_i^H H_i) / 2, a foreign term is F_i u, and an own
residual term is F_i u~, where u~ is u centred over the cluster's
devices (exactly 0 for a singleton cluster). Normals per trial are
2N(M^2 + M) + M^2 K, against 2N(M^2 + MK) for every path. Every phase
configuration evaluated on one draw sees the same drawn terms, each
under its exact law. cascaded_components and the elimination verifier
take the cluster-sum terms from cluster_sum_terms, one real batched
matmul over the interleaved (re, im) pairs of the N surface elements.

One draw can also serve a grid of B increasing surface sizes
n_1 < ... < n_B = N_max, as nested surfaces: the size-n surface is the
first n elements of the N_max one. Paths and sums are drawn once at
N_max; the drawn terms are drawn per block of elements
[n_{b-1}, n_b) (n_0 = 0), whose contributions are independent given the
paths, and a size's drawn terms are the sum of its blocks' increments.
Each size then has exactly its own law, and the joint law across sizes
is that of one fully materialized surface, for 2 N_max (M^2 + M) +
B M^2 K normals per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py WRAPS times channel.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401
from .sysmodel import Geometry, membership

MIN_DEVICE_RIS_DISTANCE = 1.0


@dataclass(frozen=True)
class ChannelSet:
    """Block-fading realizations of the uplink, one per trial.

    ris_to_ps[t, i, n, m] is element n of the channel from surface i to
    PS antenna m in trial t. cluster_sums[t, i, n] is element n of the
    summed channel from surface i's own cluster to it,
    sum_{k in C_i} h_dev[t, i, k, n]; no device's own path is
    materialized, and neither is any path to a foreign surface.
    drawn_terms[t, i, m, k] is the part of device k's real reflected
    path off surface i to antenna m, Re{h_ps[t, i, :, m]^H
    diag(e^{j theta}) h_dev[t, i, k]}, that is drawn from its exact law
    given ris_to_ps, which is the same for every phase vector theta that
    reads the device paths only through cluster_sums: the whole term for
    i != cluster_of[k], and the residual about the cluster-mean term
    Re{... s_i} / |C_i| for i == cluster_of[k]. smaller_drawn holds, for
    each smaller nested size n drawn alongside (ascending), the drawn
    terms of the surface made of the first n elements; see prefix.
    """

    ris_to_ps: np.ndarray      # (T, M, N, M) complex
    cluster_sums: np.ndarray   # (T, M, N) complex, each cluster's summed own-surface paths
    drawn_terms: np.ndarray    # (T, M, M, K) real
    cluster_of: np.ndarray     # (K,) int
    smaller_drawn: tuple = ()  # ((n, (T, M, M, K) real), ...) for nested sizes n < N

    # perfbench/tracing.py counts draw and gain bytes from ris_to_ps and device_to_ris.
    @property
    def device_to_ris(self) -> np.ndarray:
        return self.cluster_sums

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
            cluster_sums=self.cluster_sums[:, :, :n],
            drawn_terms=dict(self.smaller_drawn)[n],
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


def _complex_normal(rng: np.random.Generator, shape: tuple, scale=1.0 / np.sqrt(2.0)):
    """Circular complex Gaussians: real parts drawn first, then imaginary, times scale.

    The planar draw gives the same values in the same order as two
    separate calls, and each part is written once, multiplied by scale
    (broadcast against shape; 1/sqrt(2) gives unit variance), into the
    complex result.
    """
    parts = rng.standard_normal((2,) + shape)
    h = np.empty(shape, dtype=complex)
    np.multiply(parts[0], scale, out=h.real)
    np.multiply(parts[1], scale, out=h.imag)
    return h


def sample_small_scale(
    rng: np.random.Generator, trials: int, num_clusters: int, cluster_of, num_elements
) -> ChannelSet:
    """Draw `trials` independent block-fading realizations from rng.

    cluster_of (K,) names each device's own surface. num_elements is a
    surface size N, or an increasing sequence of nested sizes
    n_1 < ... < n_B = N served by one draw (see prefix). Draw order is
    fixed, each block in C order with the trial axis first: real then
    imaginary parts of every surface-to-PS entry (T, M, N, M), each
    times 1/sqrt(2); real then imaginary parts of every cluster-sum
    entry (T, M, N), each times sqrt(|C_i| / 2); then, for each size b
    in turn, one standard-normal M-vector u_b per (surface, device)
    pair (T, M, M, K). On each surface i, the vectors of its own
    devices C_i are then replaced by their differences from their mean
    over C_i (u_b[..., C_i] minus its numpy mean over the device axis).
    With F_b = foreign_factor(ris_to_ps[:, :, n_{b-1}:n_b]) (n_0 = 0),
    the drawn terms of size n_b are the running sum over blocks c <= b
    of F_c @ u_c[..., :min(2 (n_c - n_{c-1}), M), :]; those of size N
    are drawn_terms.
    """
    own = membership(cluster_of, num_clusters)
    cluster_of = np.asarray(cluster_of, dtype=int)
    sizes = tuple(int(n) for n in np.atleast_1d(num_elements))
    T, M, K, N = trials, num_clusters, cluster_of.size, sizes[-1]
    if any(b <= a for a, b in zip((0,) + sizes, sizes)):
        raise ValueError(f"surface sizes must be positive and increasing, got {sizes}")
    counts = own.sum(axis=1)
    ris_to_ps = _complex_normal(rng, (T, M, N, M))
    cluster_sums = _complex_normal(rng, (T, M, N), np.sqrt(counts / 2.0)[:, None])
    normals = rng.standard_normal((len(sizes), T, M, M, K))
    for i in np.flatnonzero(counts):
        surface = normals[:, :, i]  # a view: (B, T, M, K)
        residual = surface[..., own[i]]
        surface[..., own[i]] = residual - residual.mean(axis=-1, keepdims=True)
    drawn = []
    for b, (lo, hi) in enumerate(zip((0,) + sizes, sizes)):
        factor = foreign_factor(ris_to_ps[:, :, lo:hi])
        step = np.matmul(factor, normals[b, :, :, : factor.shape[-1]])
        drawn.append(step if b == 0 else drawn[-1] + step)
    return ChannelSet(
        ris_to_ps=ris_to_ps,
        cluster_sums=cluster_sums,
        drawn_terms=drawn[-1],
        cluster_of=cluster_of,
        smaller_drawn=tuple(zip(sizes[:-1], drawn[:-1])),
    )


def foreign_factor(ris_to_ps: np.ndarray) -> np.ndarray:
    """Lower-triangular F_i with F_i F_i^T = Re(H_i^H H_i) / 2, shape (T, M, M, min(2N, M)).

    H_i = ris_to_ps[t, i] (N x M). When every Gram matrix of the batch
    is positive definite, F_i is its Cholesky factor. Otherwise (always
    for 2N < M; also for a zero surface-to-PS column) F_i is the
    transposed R of the thin QR of the real (2N x M) matrix
    [Re H_i; Im H_i], its rows signed so the diagonal is non-negative,
    scaled by 1/sqrt(2), which needs no positive definiteness and equals
    the Cholesky factor wherever that exists.
    """
    if 2 * ris_to_ps.shape[-2] >= ris_to_ps.shape[-1]:
        gram = np.matmul(ris_to_ps.conj().swapaxes(-1, -2), ris_to_ps).real
        gram *= 0.5
        try:
            return np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            pass  # a singular Gram matrix somewhere in the batch
    r = np.linalg.qr(np.concatenate((ris_to_ps.real, ris_to_ps.imag), axis=2), mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    r *= np.where(diag < 0.0, -1.0, 1.0)[..., None] * (1.0 / np.sqrt(2.0))
    return r.swapaxes(-1, -2)


def cluster_sum_terms(ch: ChannelSet, phases: np.ndarray) -> np.ndarray:
    """Re{ h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) s[t, i] }, shape (T, M_surface, M_antenna).

    The cluster-sum term of surface i at antenna m: each own device of
    surface i reflects its share 1/|C_i| of it, on top of its drawn
    residual (cascaded_components), and the elimination verifier reads
    it directly. phases are real angles, or the complex phasors
    e^{-j phases}. With w[t, i, m, n] = h_ps[t, i, n, m] e^{-j phases[t, i, n]},
    the real part of sum_n conj(w_n) s_n is the real dot product of w
    and the cluster sum s viewed as interleaved (re, im) pairs, so one
    real batched matmul over the 2N axis gives every term.
    """
    T, M, N, M_ant = ch.ris_to_ps.shape
    phasors = phases if np.iscomplexobj(phases) else np.exp(-1j * phases)
    w = np.empty((T, M, M_ant, N), dtype=complex)
    np.multiply(ch.ris_to_ps.transpose(0, 1, 3, 2), phasors[:, :, None, :], out=w)
    s = np.ascontiguousarray(ch.cluster_sums, dtype=complex).view(np.float64)
    return np.matmul(w.view(np.float64), s[..., None])[..., 0]


def all_cascaded_gains(ch: ChannelSet, beta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Real cascaded gains for every (trial t, antenna m, device k), shape (T, M, K).

    Sums over every surface i the attenuated reflected path
    beta[i, k] * Re{ h_ps[t, i, :, m]^H diag(e^{j phases[t, i]}) h_dev[t, i, k] };
    phases has shape (T, M, N). A complex phases array is taken as the
    phasors e^{-j phases} themselves, which a caller evaluating several
    nested sizes computes once at the largest size and slices.
    """
    return cascaded_components(ch, beta, phases).sum(axis=1)


def cascaded_components(ch: ChannelSet, beta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-surface terms of the cascaded gains, shape (T, M_surface, M_antenna, K).

    Term [t, i, m, k] is beta[i, k] times device k's reflected path off
    surface i at antenna m: its drawn term, plus, for a device of
    surface i's own cluster C_i, its share 1 / |C_i| of the cluster-sum
    term cluster_sum_terms[t, i, m]. Summing over the surface axis gives
    all_cascaded_gains; phases as there.
    """
    own = membership(ch.cluster_of, ch.num_surfaces)
    share = beta * own / np.maximum(own.sum(axis=1, keepdims=True), 1)  # (M, K)
    summed = cluster_sum_terms(ch, phases)[..., None]  # (T, M, M_ant, 1)
    return beta[None, :, None, :] * ch.drawn_terms + summed * share[:, None, :]
