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
reflected path is ever used. The phases of surface i may read the
surface-to-PS paths H_i (N x M, H_i[n, m] = h_ps[i, n, m]) only through
its own-antenna column h_i = H_i[:, i], and the device paths to it only
through the cluster sum s_i = sum_{k in C_i} h_dev[i, k]: a phase
design is a function of these two (T, M, N) arrays, a PartialDraw, and
of randomness of its own, and a design that reads another antenna's
column cannot be expressed. The aligned design reads nothing else.
Under that contract neither a device's own path nor a column of H_i
toward a foreign antenna is materialized. With W_i = diag(e^{-j
theta_i}) H_i:

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
- The foreign-antenna columns h_m = H_i[:, m], m != i, are CN(0, I_N)
  and independent of h_i, of s_i and so of the phases. They are read
  only through the cluster-sum terms Re{w_j^T h_m} of each phase
  configuration j, with w_j = phasors_j * conj(s_i), and through the
  Gram matrix Re(H_i^H H_i) of the drawn terms. Stack the real and
  imaginary parts of B = [h_i, conj(w_1), ..., conj(w_J)] into the real
  (2N x (1+J)) matrix S, so that real inner products of the stacked
  vectors are the real parts Re(a^H b) of the complex ones, and let F
  be the lower-triangular factor of S^T S / 2 with k = min(2N, 1+J)
  columns (foreign_factor). Then S = sqrt(2) Q F^T for some 2N x k
  orthonormal Q, and the stacked h_m, whose entries are N(0, 1/2),
  splits into Q z_m / sqrt(2), with z_m ~ N(0, I_k), and a part in the
  (2N - k)-dimensional complement. So B's terms at antenna m are F z_m,
  and the complement parts of the M - 1 foreign columns enter the Gram
  matrix only through their own Gram matrix, a Wishart matrix with
  2N - k degrees of freedom, drawn exactly as R^T R / 2 from its
  upper-trapezoidal Bartlett factor R (Odell & Feiveson, JASA 1966):
  min(2N - k, M - 1) rows, sqrt(chi2(2N - k - r)) on the diagonal of
  row r and N(0, 1) above it. In these virtual coordinates the own
  column is sqrt(2) F[0] and foreign column m is [z_m, R[:, m]] /
  sqrt(2), and their Gram matrix is exactly Re(H_i^H H_i), jointly with
  the cluster-sum terms.

A draw therefore materializes each surface's path to its own antenna
and each cluster's sum s_i ~ CN(0, |C_i| I_N), calls the phase design
on them, and then draws the foreign-antenna statistics above and one
standard-normal M-vector u per (surface, device) pair. With F_V the
lower-triangular factor of the virtual Gram matrix over 2, a foreign
term is F_V u, and an own residual term is F_V u~, where u~ is u
centred over the cluster's devices (exactly 0 for a singleton
cluster). Normals per trial are 4NM + M^2 K + M(k (M - 1) + q) with q
the Bartlett entries above the diagonal, plus M min(2N - k, M - 1)
chi-square draws, against 2N(M^2 + MK) for every path. Every phase
configuration served by one draw sees the same drawn terms, each under
its exact law, and the cluster-sum terms of every configuration are
those of one shared channel.

One draw can also serve a grid of B increasing surface sizes
n_1 < ... < n_B = N_max, as nested surfaces: the size-n surface is the
first n elements of the N_max one. Own paths and sums are drawn once at
N_max; everything else is drawn per block of elements
[n_{b-1}, n_b) (n_0 = 0), with the block length in place of N, as the
blocks' contributions are independent given the own paths, the sums
and the phases; a size's terms are the sum of its blocks' increments,
held on a leading size axis of the ChannelSet. Each size then has
exactly its own law, and the joint law across sizes and configurations
is that of one fully materialized surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# perfbench/tracing.py WRAPS times channel.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401
from .sysmodel import ConfigError, Geometry, as_integer, membership

MIN_DEVICE_RIS_DISTANCE = 1.0

_SQRT2 = np.sqrt(2.0)


class PartialDraw(NamedTuple):
    """What a phase design may read of a draw.

    own_paths[t, i, n] is element n of the path from surface i to its
    own PS antenna i, h_ps[t, i, n, i]; cluster_sums[t, i, n] is element
    n of the summed path from surface i's own cluster to it,
    sum_{k in C_i} h_dev[t, i, k, n].
    """

    own_paths: np.ndarray     # (T, M, N) complex
    cluster_sums: np.ndarray  # (T, M, N) complex


@dataclass(frozen=True)
class ChannelSet:
    """Block-fading realizations of the uplink, one per trial, for B nested sizes and J configurations.

    own_paths and cluster_sums are as in PartialDraw, at the largest
    size N; no device's own path is materialized, nor any path to a
    foreign surface or toward a foreign antenna. Entry b of the terms
    belongs to the surface made of the first n_b elements (B = 1 for a
    draw of one size). summed_terms[b, j, t, i, m] is the cluster-sum
    term Re{h_ps[t, i, :n_b, m]^H diag(conj(phasors_j[t, i, :n_b]))
    s[t, i, :n_b]} of surface i at antenna m under configuration j:
    computed from own_paths at m = i, drawn from its exact law
    elsewhere. drawn_terms[b, t, i, m, k] is the part of device k's real
    reflected path off surface i to antenna m that is drawn from its
    exact law, which is the same for every configuration: the whole
    term for i != cluster_of[k], and the residual about the
    cluster-mean term summed_terms[b, j, t, i, m] / |C_i| for
    i == cluster_of[k].
    """

    own_paths: np.ndarray      # (T, M, N) complex, h_ps[t, i, :, i]
    cluster_sums: np.ndarray   # (T, M, N) complex, each cluster's summed own-surface paths
    summed_terms: np.ndarray   # (B, J, T, M, M) real, per size and configuration
    drawn_terms: np.ndarray    # (B, T, M, M, K) real, per size
    cluster_of: np.ndarray     # (K,) int

    # perfbench/tracing.py counts draw and gain bytes from ris_to_ps and
    # device_to_ris: read-only names of the two materialized path arrays.
    @property
    def ris_to_ps(self) -> np.ndarray:
        return self.own_paths

    @property
    def device_to_ris(self) -> np.ndarray:
        return self.cluster_sums

    @property
    def num_surfaces(self) -> int:
        return self.own_paths.shape[1]

    @property
    def num_elements(self) -> int:
        return self.own_paths.shape[2]


def large_scale_coefficients(geom: Geometry, pathloss_exponent: float) -> np.ndarray:
    """Cascaded amplitude attenuation beta, shape (M, K).

    Covers every (surface, device) pair, not only a device's own
    cluster, because a device near a foreign surface also reflects
    off it. A geometry whose attenuation overflows, underflows to 0 or
    is otherwise not finite and positive raises ConfigError.
    """
    with np.errstate(all="ignore"):
        diff = geom.device_positions[None, :, :] - geom.ris_positions[:, None, :]
        d_dev = np.maximum(np.linalg.norm(diff, axis=2), MIN_DEVICE_RIS_DISTANCE)
        d_ps = np.linalg.norm(geom.ris_positions - geom.ps_position[None, :], axis=1)
        beta = (d_dev * d_ps[:, None]) ** (-pathloss_exponent / 2.0)
    if not (np.isfinite(beta) & (beta > 0)).all():
        raise ConfigError("large-scale coefficients must be finite and > 0; check the geometry")
    return beta


def trial_draw(rng, method: str, shape: tuple, *args, axis: int = 0) -> np.ndarray:
    """rng.method(*args, size=shape), with rng one generator or a list or tuple of one per trial.

    shape[axis] is the trial axis. Given a sequence of generators,
    generator t draws trial t's slice, with the call a one-trial draw
    makes (size 1 on that axis), and the slices are joined in order; a
    sequence whose length is not shape[axis] raises ValueError.
    """
    if not isinstance(rng, (list, tuple)):
        return getattr(rng, method)(*args, size=shape)
    if len(rng) != shape[axis]:
        raise ValueError(f"{len(rng)} generators given for {shape[axis]} trials")
    one = shape[:axis] + (1,) + shape[axis + 1:]
    return np.concatenate([getattr(g, method)(*args, size=one) for g in rng], axis=axis)


def _complex_normal(rng, shape: tuple, scale=1.0 / np.sqrt(2.0)):
    """Circular complex Gaussians: real parts drawn first, then imaginary, times scale.

    The planar draw gives the same values in the same order as two
    separate calls, and each part is written once, multiplied by scale
    (broadcast against shape; 1/sqrt(2) gives unit variance), into the
    complex result. shape leads with the trial axis.
    """
    parts = trial_draw(rng, "standard_normal", (2,) + shape, axis=1)
    h = np.empty(shape, dtype=complex)
    np.multiply(parts[0], scale, out=h.real)
    np.multiply(parts[1], scale, out=h.imag)
    return h


def sample_small_scale(
    rng, trials: int, num_clusters: int, cluster_of, num_elements, phases
) -> ChannelSet:
    """Draw `trials` independent block-fading realizations from rng, for J phase configurations.

    cluster_of (K,) names each device's own surface. num_elements is a
    surface size N, or an increasing sequence of B nested sizes
    n_1 < ... < n_B = N served by one draw; each must be an integer
    (ConfigError otherwise; bools and integral floats are not). phases
    is called once, on the PartialDraw of own paths and cluster sums,
    and returns the J (T, M, N) unit-phasor arrays (airpfl.ris) of the
    configurations the draw serves; summed_terms[:, j] belongs to the
    j-th. A real array raises ValueError.

    Draw order is fixed, each block in C order with the trial axis
    first: real then imaginary parts of every own-path entry (T, M, N),
    each times 1/sqrt(2); real then imaginary parts of every
    cluster-sum entry (T, M, N), each times sqrt(|C_i| / 2); whatever
    phases draws from rng; one standard-normal M-vector u per (surface,
    device) pair and size (B, T, M, M, K); then, for each size b in
    turn, the foreign-antenna statistics of its block of elements
    (_block_terms). On each surface i, the vectors u of its own devices
    C_i are replaced by their differences from their numpy mean over
    C_i. Slot b of the summed and drawn terms is the running sum of the
    increments of blocks 1 to b.

    rng is one numpy Generator, or a list or tuple of `trials` of them
    (ValueError for another length). Then generator t draws trial t
    alone, with the calls a one-trial draw from it makes, in the order
    above (phases should draw trial t from generator t as well, as
    ris.baseline_phases does), so trial t is bit for bit the one-trial
    draw from generator t, whatever the other trials.
    """
    own = membership(cluster_of, num_clusters)
    cluster_of = np.asarray(cluster_of, dtype=int)
    given = num_elements if np.ndim(num_elements) else [num_elements]
    sizes = tuple(as_integer("surface size", n) for n in given)
    if not sizes or any(b <= a for a, b in zip((0,) + sizes, sizes)):
        raise ValueError(f"surface sizes must be positive and increasing, got {sizes}")
    T, M, K, N, B = trials, num_clusters, cluster_of.size, sizes[-1], len(sizes)
    counts = own.sum(axis=1)
    own_paths = _complex_normal(rng, (T, M, N))
    cluster_sums = _complex_normal(rng, (T, M, N), np.sqrt(counts / 2.0)[:, None])
    configs = list(phases(PartialDraw(own_paths, cluster_sums)))
    if not all(np.iscomplexobj(p) for p in configs):
        raise ValueError("phases must be complex unit phasors e^{-j theta}, not real angles")
    residuals = trial_draw(rng, "standard_normal", (B, T, M, M, K), axis=1)
    for i in range(M):
        surface = residuals[:, :, i]  # a view: (B, T, M, K)
        centred = surface[..., own[i]]
        surface[..., own[i]] = centred - centred.mean(axis=-1, keepdims=True)
    summed = np.empty((B, len(configs), T, M, M))
    drawn = np.empty((B, T, M, M, K))
    for b, (lo, hi) in enumerate(zip((0,) + sizes, sizes)):
        block = slice(lo, hi)
        _block_terms(rng, own_paths[:, :, block], cluster_sums[:, :, block],
                     [p[:, :, block] for p in configs], residuals[b], summed[b], drawn[b])
        if b:
            summed[b] += summed[b - 1]
            drawn[b] += drawn[b - 1]
    return ChannelSet(own_paths, cluster_sums, summed, drawn, cluster_of)


def _block_terms(rng, own_paths, cluster_sums, configs, residual, summed, drawn):
    """Write one block's increments into summed (J, T, M, M) and drawn (T, M, M, K).

    Stacks [h_i, conj(w_1), ..., conj(w_J)] over the block's n elements,
    with real and imaginary parts interleaved, which leaves every real
    inner product unchanged; reads the own-antenna cluster-sum terms
    off it; factors it (F, k = min(2n, 1 + J) columns); and draws from
    rng, in this order, the projection normals z (T, M, M - 1, k), other
    antennas in increasing order, the Bartlett entries above the
    diagonal (T, M, q), row by row, and the chi-square diagonal
    (T, M, r), row r with 2n - k - r degrees of freedom, for
    r = min(2n - k, M - 1) rows. The foreign-antenna cluster-sum terms
    are F z, and the drawn terms F_V u with F_V the factor of the
    virtual coordinates (see the module docstring), in which entry
    (row, column) of the Bartlett factor R sits at coordinate k + row
    of the column-th other antenna.
    """
    T, M, n = own_paths.shape
    J = len(configs)
    k = min(2 * n, 1 + J)
    rows = min(2 * n - k, M - 1)
    own = np.arange(M)
    others = np.arange(M - 1) + (np.arange(M - 1) >= own[:, None])  # (M, M - 1)
    diagonal = np.arange(rows)
    upper_rows, upper_cols = np.nonzero(np.arange(M - 1) > diagonal[:, None])
    stack = np.empty((T, M, 1 + J, n), dtype=complex)
    stack[:, :, 0] = own_paths
    for j, phasors in enumerate(configs):
        column = stack[:, :, 1 + j]  # conj(phasors) * cluster_sums, with no temporary
        np.conjugate(phasors, out=column)
        column *= cluster_sums
    stacked = stack.view(np.float64)  # (T, M, 1 + J, 2n)
    factor = foreign_factor(stacked.swapaxes(-1, -2))  # (T, M, 1 + J, k)
    z = trial_draw(rng, "standard_normal", (T, M, M - 1, k))
    bartlett = np.zeros((T, M, rows, M - 1))
    bartlett[:, :, upper_rows, upper_cols] = trial_draw(rng, "standard_normal",
                                                        (T, M, upper_rows.size))
    bartlett[:, :, diagonal, diagonal] = np.sqrt(
        trial_draw(rng, "chisquare", (T, M, rows), 2 * n - k - diagonal))

    own_terms = np.matmul(stacked[:, :, 1:], stacked[:, :, 0, :, None])  # (T, M, J, 1)
    summed[:, :, own, own] = own_terms[..., 0].transpose(2, 0, 1)
    foreign_terms = np.matmul(z, factor[:, :, 1:].swapaxes(-1, -2))  # (T, M, M - 1, J)
    summed[:, :, own[:, None], others] = foreign_terms.transpose(3, 0, 1, 2)

    # Virtual coordinates (trial, surface, antenna, coordinate): the own
    # column sqrt(2) F[0], foreign column m [z_m, R[:, m]] / sqrt(2).
    virtual = np.zeros((T, M, M, k + rows))
    virtual[:, own, own, :k] = _SQRT2 * factor[:, :, 0]
    virtual[:, own[:, None], others, :k] = z * (1.0 / _SQRT2)
    virtual[:, own[:, None], others, k:] = bartlett.swapaxes(-1, -2) * (1.0 / _SQRT2)
    drawn_factor = foreign_factor(virtual.swapaxes(-1, -2))  # (T, M, M, min(k + rows, M))
    np.matmul(drawn_factor, residual[:, :, : drawn_factor.shape[-1]], out=drawn)


def foreign_factor(stacked: np.ndarray) -> np.ndarray:
    """Lower-triangular F with F F^T = S^T S / 2, (..., C, min(R, C)), for real S (..., R, C).

    For the surface-to-PS paths H of one surface, S = [Re H; Im H]
    gives S^T S / 2 = Re(H^H H) / 2. Where S^T S is positive definite,
    F is the Cholesky factor of S^T S / 2. Elsewhere (always for R < C;
    also for a zero column) F is the transposed R of the thin QR of S,
    its rows signed so the diagonal is non-negative, scaled by
    1/sqrt(2), which needs no positive definiteness and equals the
    Cholesky factor wherever that exists. The choice is made per
    matrix, so each factor is the same alone as in any batch.
    """
    if stacked.shape[-2] < stacked.shape[-1]:
        return _qr_factor(stacked)
    gram = np.matmul(stacked.swapaxes(-1, -2), stacked)
    gram *= 0.5
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        pass  # a singular Gram matrix somewhere in the batch: try each matrix alone
    factor = np.empty_like(gram)
    singular = np.zeros(gram.shape[:-2], dtype=bool)
    for i in np.ndindex(singular.shape):
        try:
            factor[i] = np.linalg.cholesky(gram[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    factor[singular] = _qr_factor(stacked[singular])
    return factor


def _qr_factor(stacked: np.ndarray) -> np.ndarray:
    """foreign_factor from the thin QR of S, for every S in the batch."""
    r = np.linalg.qr(stacked, mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    r *= np.where(diag < 0.0, -1.0, 1.0)[..., None] * (1.0 / _SQRT2)
    return r.swapaxes(-1, -2)


def _size_components(ch: ChannelSet, beta: np.ndarray):
    """Per-surface terms of the cascaded gains, (J, T, M_surface, M_antenna, K), of each size in turn.

    Term [j, t, i, m, k] is beta[i, k] times device k's reflected path
    off surface i at antenna m under configuration j: its drawn term,
    which every configuration shares, plus, for a device of surface i's
    own cluster C_i, its share 1 / |C_i| of the cluster-sum term.
    """
    own = membership(ch.cluster_of, ch.num_surfaces)
    share = beta * own / own.sum(axis=1, keepdims=True)  # (M, K)
    for summed, drawn in zip(ch.summed_terms, ch.drawn_terms):
        terms = summed[..., None] * share[:, None, :]
        terms += beta[None, :, None, :] * drawn
        yield terms


def all_cascaded_gains(ch: ChannelSet, beta: np.ndarray) -> np.ndarray:
    """Real cascaded gains for every (size b, configuration j, trial t, antenna m, device k), (B, J, T, M, K).

    Sums over every surface i, one size's _size_components at a time,
    beta[i, k] * Re{ h_ps[t, i, :n_b, m]^H diag(conj(phasors_j[t, i, :n_b])) h_dev[t, i, k, :n_b] }.
    """
    gains = np.empty(ch.summed_terms.shape[:-1] + ch.cluster_of.shape)
    for b, terms in enumerate(_size_components(ch, beta)):
        terms.sum(axis=2, out=gains[b])
    return gains


def cascaded_components(ch: ChannelSet, beta: np.ndarray) -> np.ndarray:
    """Per-surface terms of the cascaded gains of every size, (B, J, T, M_surface, M_antenna, K)."""
    return np.stack(list(_size_components(ch, beta)))
