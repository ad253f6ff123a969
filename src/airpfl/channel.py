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
those of one shared channel. cascaded_components and the elimination
verifier read the cluster-sum terms from ChannelSet.summed_terms.

One draw can also serve a grid of B increasing surface sizes
n_1 < ... < n_B = N_max, as nested surfaces: the size-n surface is the
first n elements of the N_max one. Own paths and sums are drawn once at
N_max; everything else is drawn per block of elements
[n_{b-1}, n_b) (n_0 = 0), with the block length in place of N, as the
blocks' contributions are independent given the own paths, the sums
and the phases; a size's terms are the sum of its blocks' increments.
Each size then has exactly its own law, and the joint law across sizes
and configurations is that of one fully materialized surface.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# perfbench/tracing.py WRAPS times channel.rng_from_seed; draws take a generator.
from .seeding import rng_from_seed  # noqa: F401
from .sysmodel import ConfigError, Geometry, membership

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
    """Block-fading realizations of the uplink, one per trial, for J phase configurations.

    own_paths and cluster_sums are as in PartialDraw; no device's own
    path is materialized, nor any path to a foreign surface or toward a
    foreign antenna. summed_terms[j, t, i, m] is the cluster-sum term
    Re{h_ps[t, i, :, m]^H diag(conj(phasors_j[t, i])) s[t, i]} of
    surface i at antenna m under configuration j: computed from
    own_paths at m = i, drawn from its exact law elsewhere.
    drawn_terms[t, i, m, k] is the part of device k's real reflected
    path off surface i to antenna m that is drawn from its exact law,
    which is the same for every configuration: the whole term for
    i != cluster_of[k], and the residual about the cluster-mean term
    summed_terms[j, t, i, m] / |C_i| for i == cluster_of[k]. smaller
    holds, for each smaller nested size n drawn alongside (ascending),
    the summed and drawn terms of the surface made of the first n
    elements; see prefix.
    """

    own_paths: np.ndarray      # (T, M, N) complex, h_ps[t, i, :, i]
    cluster_sums: np.ndarray   # (T, M, N) complex, each cluster's summed own-surface paths
    summed_terms: np.ndarray   # (J, T, M, M) real, per configuration
    drawn_terms: np.ndarray    # (T, M, M, K) real
    cluster_of: np.ndarray     # (K,) int
    smaller: tuple = ()        # ((n, summed_terms, drawn_terms), ...) for nested sizes n < N

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

    def prefix(self, n: int) -> "ChannelSet":
        """The nested surface of the first n elements of every surface, as views.

        n must be num_elements or one of the smaller sizes drawn with
        this set (KeyError otherwise).
        """
        if n == self.num_elements:
            return self
        summed, drawn = {size: terms for size, *terms in self.smaller}[n]
        return ChannelSet(
            own_paths=self.own_paths[:, :, :n],
            cluster_sums=self.cluster_sums[:, :, :n],
            summed_terms=summed,
            drawn_terms=drawn,
            cluster_of=self.cluster_of,
        )


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
    rng: np.random.Generator, trials: int, num_clusters: int, cluster_of, num_elements, phases
) -> ChannelSet:
    """Draw `trials` independent block-fading realizations from rng, for J phase configurations.

    cluster_of (K,) names each device's own surface. num_elements is a
    surface size N, or an increasing sequence of nested sizes
    n_1 < ... < n_B = N served by one draw (see prefix). phases is
    called once, on the PartialDraw of own paths and cluster sums, and
    returns the J (T, M, N) unit-phasor arrays (airpfl.ris) of the
    configurations the draw serves; summed_terms[j] belongs to the j-th.
    A real array raises ValueError.

    Draw order is fixed, each block in C order with the trial axis
    first: real then imaginary parts of every own-path entry (T, M, N),
    each times 1/sqrt(2); real then imaginary parts of every
    cluster-sum entry (T, M, N), each times sqrt(|C_i| / 2); whatever
    phases draws from rng; one standard-normal M-vector u per (surface,
    device) pair and size (B, T, M, M, K); then, for each size b in
    turn, the foreign-antenna statistics of its block of elements
    (_block_terms). On each surface i, the vectors u of its own devices
    C_i are replaced by their differences from their numpy mean over
    C_i. A size's summed and drawn terms are the running sums of its
    blocks' increments.
    """
    own = membership(cluster_of, num_clusters)
    cluster_of = np.asarray(cluster_of, dtype=int)
    sizes = tuple(int(n) for n in np.atleast_1d(num_elements))
    T, M, K, N = trials, num_clusters, cluster_of.size, sizes[-1]
    if any(b <= a for a, b in zip((0,) + sizes, sizes)):
        raise ValueError(f"surface sizes must be positive and increasing, got {sizes}")
    counts = own.sum(axis=1)
    own_paths = _complex_normal(rng, (T, M, N))
    cluster_sums = _complex_normal(rng, (T, M, N), np.sqrt(counts / 2.0)[:, None])
    configs = list(phases(PartialDraw(own_paths, cluster_sums)))
    if not all(np.iscomplexobj(p) for p in configs):
        raise ValueError("phases must be complex unit phasors e^{-j theta}, not real angles")
    residuals = rng.standard_normal((len(sizes), T, M, M, K))
    for i in range(M):
        surface = residuals[:, :, i]  # a view: (B, T, M, K)
        centred = surface[..., own[i]]
        surface[..., own[i]] = centred - centred.mean(axis=-1, keepdims=True)
    steps = []
    for b, (lo, hi) in enumerate(zip((0,) + sizes, sizes)):
        block = slice(lo, hi)
        step = _block_terms(rng, own_paths[:, :, block], cluster_sums[:, :, block],
                            [p[:, :, block] for p in configs], residuals[b])
        steps.append(step if b == 0 else tuple(a + s for a, s in zip(steps[-1], step)))
    return ChannelSet(
        own_paths=own_paths,
        cluster_sums=cluster_sums,
        summed_terms=steps[-1][0],
        drawn_terms=steps[-1][1],
        cluster_of=cluster_of,
        smaller=tuple((n, *terms) for n, terms in zip(sizes[:-1], steps[:-1])),
    )


def _block_terms(rng, own_paths, cluster_sums, configs, residual):
    """One block's increments of the summed (J, T, M, M) and drawn (T, M, M, K) terms.

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
    virtual coordinates (see the module docstring).
    """
    T, M, n = own_paths.shape
    J = len(configs)
    layout = _block_layout(M, n, J)
    k, rows = layout.rank, layout.degrees.size
    stack = np.empty((T, M, 1 + J, n), dtype=complex)
    stack[:, :, 0] = own_paths
    for j, phasors in enumerate(configs):
        column = stack[:, :, 1 + j]  # conj(phasors) * cluster_sums, with no temporary
        np.conjugate(phasors, out=column)
        column *= cluster_sums
    stacked = stack.view(np.float64)  # (T, M, 1 + J, 2n)
    factor = foreign_factor(stacked.swapaxes(-1, -2))  # (T, M, 1 + J, k)
    z = rng.standard_normal((T, M, M - 1, k))
    upper = rng.standard_normal((T, M, layout.upper[1].shape[1]))
    chi2 = rng.chisquare(layout.degrees, size=(T, M, rows))

    own, others = layout.own, layout.others
    summed = np.empty((J, T, M, M))
    own_terms = np.matmul(stacked[:, :, 1:], stacked[:, :, 0, :, None])  # (T, M, J, 1)
    summed[:, :, own, own] = own_terms[..., 0].transpose(2, 0, 1)
    foreign_terms = np.matmul(z, factor[:, :, 1:].swapaxes(-1, -2))  # (T, M, M - 1, J)
    summed[:, :, own[:, None], others] = foreign_terms.transpose(3, 0, 1, 2)

    # Virtual coordinates (trial, surface, antenna, coordinate): the own
    # column sqrt(2) F[0], foreign column m [z_m, R[:, m]] / sqrt(2).
    virtual = np.zeros((T, M, M, k + rows))
    virtual[:, own, own, :k] = _SQRT2 * factor[:, :, 0]
    virtual[:, own[:, None], others, :k] = z * (1.0 / _SQRT2)
    virtual[(slice(None),) + layout.upper] = upper * (1.0 / _SQRT2)
    virtual[(slice(None),) + layout.diagonal] = np.sqrt(chi2) * (1.0 / _SQRT2)
    drawn_factor = foreign_factor(virtual.swapaxes(-1, -2))  # (T, M, M, min(k + rows, M))
    return summed, np.matmul(drawn_factor, residual[:, :, : drawn_factor.shape[-1]])


class _Layout(NamedTuple):
    rank: int              # k = min(2n, 1 + J)
    degrees: np.ndarray    # (r,) chi-square degrees of freedom of the Bartlett diagonal
    own: np.ndarray        # (M,) each surface's own antenna
    others: np.ndarray     # (M, M - 1) the other antennas, in increasing order
    upper: tuple           # (surface, antenna, coordinate) of the entries above the diagonal
    diagonal: tuple        # (surface, antenna, coordinate) of the diagonal


@functools.lru_cache(maxsize=64)
def _block_layout(M: int, n: int, J: int) -> _Layout:
    """Sizes and read-only index arrays of a block of n elements, M antennas and J configurations.

    The Bartlett factor has r = min(2n - k, M - 1) rows; its entry
    (row, column) sits at virtual coordinate k + row of the column-th
    foreign antenna, and the entries above the diagonal are listed row
    by row.
    """
    k = min(2 * n, 1 + J)
    rows = min(2 * n - k, M - 1)
    own = np.arange(M)
    others = np.array([[m for m in range(M) if m != i] for i in range(M)], dtype=int)
    upper_rows, upper_cols = np.triu_indices(rows, 1, M - 1)
    diagonal = np.arange(rows)
    layout = _Layout(
        rank=k,
        degrees=2 * n - k - diagonal,
        own=own,
        others=others,
        upper=(own[:, None], others[:, upper_cols], k + upper_rows),
        diagonal=(own[:, None], others[:, diagonal], k + diagonal),
    )
    for a in (layout.degrees, own, others) + layout.upper + layout.diagonal:
        a.setflags(write=False)
    return layout


def foreign_factor(stacked: np.ndarray) -> np.ndarray:
    """Lower-triangular F with F F^T = S^T S / 2, (..., C, min(R, C)), for real S (..., R, C).

    For the surface-to-PS paths H of one surface, S = [Re H; Im H]
    gives S^T S / 2 = Re(H^H H) / 2. When every S^T S of the batch is
    positive definite, F is the Cholesky factor of S^T S / 2. Otherwise
    (always for R < C; also for a zero column) F is the transposed R of
    the thin QR of S, its rows signed so the diagonal is non-negative,
    scaled by 1/sqrt(2), which needs no positive definiteness and equals
    the Cholesky factor wherever that exists.
    """
    if stacked.shape[-2] >= stacked.shape[-1]:
        gram = np.matmul(stacked.swapaxes(-1, -2), stacked)
        gram *= 0.5
        try:
            return np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            pass  # a singular Gram matrix somewhere in the batch
    r = np.linalg.qr(stacked, mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    r *= np.where(diag < 0.0, -1.0, 1.0)[..., None] * (1.0 / _SQRT2)
    return r.swapaxes(-1, -2)


def all_cascaded_gains(ch: ChannelSet, beta: np.ndarray, config: int) -> np.ndarray:
    """Real cascaded gains for every (trial t, antenna m, device k), shape (T, M, K).

    Sums over every surface i the attenuated reflected path
    beta[i, k] * Re{ h_ps[t, i, :, m]^H diag(conj(phasors[t, i])) h_dev[t, i, k] }
    under configuration `config`, the index of its phasors among those
    the channel was drawn for.
    """
    return cascaded_components(ch, beta, config).sum(axis=1)


def cascaded_components(ch: ChannelSet, beta: np.ndarray, config: int) -> np.ndarray:
    """Per-surface terms of the cascaded gains, shape (T, M_surface, M_antenna, K).

    Term [t, i, m, k] is beta[i, k] times device k's reflected path off
    surface i at antenna m: its drawn term, plus, for a device of
    surface i's own cluster C_i, its share 1 / |C_i| of the cluster-sum
    term summed_terms[config, t, i, m]. Summing over the surface axis
    gives all_cascaded_gains; config as there, and anything but an
    integer index (phases or phasors, say) raises ValueError.
    """
    if isinstance(config, (bool, np.bool_)) or not isinstance(config, (int, np.integer)):
        raise ValueError("gain kernels take the index of a configuration drawn with the "
                         f"channel, not phases or phasors; got {type(config).__name__}")
    own = membership(ch.cluster_of, ch.num_surfaces)
    share = beta * own / own.sum(axis=1, keepdims=True)  # (M, K)
    summed = ch.summed_terms[config][..., None]  # (T, M, M_ant, 1)
    return beta[None, :, None, :] * ch.drawn_terms + summed * share[:, None, :]
