"""Fading statistics, path loss, and cascaded-gain reductions."""

from statistics import NormalDist

import numpy as np
import pytest

from airpfl.channel import (
    MIN_DEVICE_RIS_DISTANCE,
    ChannelSet,
    all_cascaded_gains,
    cascaded_components,
    foreign_factor,
    large_scale_coefficients,
    sample_small_scale,
)
from airpfl.ris import configure_aligned
from airpfl.seeding import derive_seed, rng_from_seed
from airpfl.sysmodel import Geometry, make_config, place_geometry
from airpfl.ris import corrupt_phases
from full_channel import aligned_phases, channel_set, draw_full, reflected

# (100 * 200)^(-2.2/2), evaluated with mpmath at 40 digits and rounded
# to the nearest double.
BETA_100_200 = 1.8572356214689176e-05


def _config(K=4, M=2, N=8, D=4, seed=0):
    return make_config(
        num_devices=K,
        num_clusters=M,
        num_ris_elements=N,
        model_dim=D,
        cluster_of=np.sort(np.arange(K) % M),
        max_power=1.0,
        noise_var=1e-9,
        master_seed=seed,
    )


def test_pathloss_frozen_value():
    geom = Geometry(
        ps_position=np.zeros(2),
        ris_positions=np.array([[200.0, 0.0]]),
        device_positions=np.array([[100.0, 0.0]]),
    )
    beta = large_scale_coefficients(geom, 2.2)
    assert beta.shape == (1, 1)
    assert beta[0, 0] == pytest.approx(BETA_100_200, rel=1e-14)


def test_pathloss_monotone_in_distance():
    # Device 0 sits 50 m from the surface, device 1 sits 80 m away.
    geom = Geometry(
        ps_position=np.zeros(2),
        ris_positions=np.array([[200.0, 0.0]]),
        device_positions=np.array([[150.0, 0.0], [120.0, 0.0]]),
    )
    beta = large_scale_coefficients(geom, 2.2)
    assert beta[0, 0] > beta[0, 1] > 0


def test_pathloss_distance_clamp():
    # A device sitting on top of its surface must not blow up the gain.
    geom = Geometry(
        ps_position=np.zeros(2),
        ris_positions=np.array([[200.0, 0.0]]),
        device_positions=np.array([[200.0, 0.0], [200.3, 0.0]]),
    )
    beta = large_scale_coefficients(geom, 2.2)
    clamped = (MIN_DEVICE_RIS_DISTANCE * 200.0) ** -1.1
    assert beta[0, 0] == pytest.approx(clamped, rel=1e-14)
    assert beta[0, 1] == pytest.approx(clamped, rel=1e-14)
    assert np.all(np.isfinite(beta))


CLUSTERS_5 = np.array([0, 0, 1, 1, 1])


def test_small_scale_shapes():
    ch = sample_small_scale(rng_from_seed(42), 3, 2, CLUSTERS_5, 7)
    assert ch.ris_to_ps.shape == (3, 2, 7, 2)
    assert ch.cluster_sums.shape == (3, 2, 7)
    assert ch.drawn_terms.shape == (3, 2, 2, 5)
    assert np.array_equal(ch.cluster_of, CLUSTERS_5)
    assert ch.num_trials == 3
    assert ch.num_surfaces == 2
    assert ch.num_elements == 7


@pytest.mark.parametrize("cluster_of", [[0, 2], [-1, 0], [[0, 1]]], ids=["too-high", "negative", "2-D"])
def test_small_scale_rejects_bad_clusters(cluster_of):
    with pytest.raises(ValueError):
        sample_small_scale(rng_from_seed(1), 1, 2, cluster_of, 4)


def test_small_scale_deterministic_in_round_seed():
    cluster_of = [0, 0, 1, 1]
    a = sample_small_scale(rng_from_seed(9), 1, 2, cluster_of, 8)
    b = sample_small_scale(rng_from_seed(9), 1, 2, cluster_of, 8)
    assert np.array_equal(a.ris_to_ps, b.ris_to_ps)
    assert np.array_equal(a.cluster_sums, b.cluster_sums)
    assert np.array_equal(a.drawn_terms, b.drawn_terms)
    c = sample_small_scale(rng_from_seed(10), 1, 2, cluster_of, 8)
    assert not np.allclose(a.cluster_sums, c.cluster_sums)


def _documented_draw(seed, T, M, cluster_of, sizes):
    """The documented draw order, step by step: paths, sums, centred normals."""
    K, N = len(cluster_of), sizes[-1]
    counts = np.bincount(cluster_of, minlength=M)
    rng = rng_from_seed(seed)
    hp_re, hp_im = rng.standard_normal((T, M, N, M)), rng.standard_normal((T, M, N, M))
    s_re, s_im = rng.standard_normal((T, M, N)), rng.standard_normal((T, M, N))
    u = rng.standard_normal((len(sizes), T, M, M, K))
    scale = 1 / np.sqrt(2)
    sum_scale = np.sqrt(counts / 2.0)[:, None]
    hp = (hp_re * scale, hp_im * scale)
    sums = (s_re * sum_scale, s_im * sum_scale)
    for i in np.unique(cluster_of):
        own = u[:, :, i][..., cluster_of == i]
        u[:, :, i, :, cluster_of == i] = np.moveaxis(own - own.mean(axis=-1, keepdims=True), -1, 0)
    return rng, hp, sums, u


def _assert_bits(got, parts):
    assert np.array_equal(got.real.view(np.uint64), parts[0].view(np.uint64))
    assert np.array_equal(got.imag.view(np.uint64), parts[1].view(np.uint64))


def test_small_scale_draw_order_is_documented_order():
    # Surface-to-PS real then imaginary parts times 1/sqrt(2), then the
    # cluster sums' real then imaginary parts times sqrt(|C_i| / 2),
    # then the normals, centred over each surface's own devices;
    # compared bit for bit, so the draw stream cannot move unnoticed.
    # The third shape is one sweep chunk; in the fourth, 2N < M, so only
    # the first 2N normals of each pair enter its drawn term; the last
    # has unequal clusters, a singleton and an empty one.
    for T, M, cluster_of, N in [
        (1, 2, np.arange(3) % 2, 5),
        (3, 2, np.arange(3) % 2, 5),
        (100, 4, np.arange(20) % 4, 16),
        (2, 4, np.arange(5) % 4, 1),
        (4, 4, np.array([0, 2, 2, 2, 3, 3]), 3),
    ]:
        rng_kernel = rng_from_seed(21)
        ch = sample_small_scale(rng_kernel, T, M, cluster_of, N)
        rng, hp, sums, u = _documented_draw(21, T, M, cluster_of, (N,))
        _assert_bits(ch.ris_to_ps, hp)
        _assert_bits(ch.cluster_sums, sums)
        drawn = np.matmul(foreign_factor(ch.ris_to_ps), u[0, :, :, : min(2 * N, M)])
        assert np.array_equal(ch.drawn_terms.view(np.uint64), drawn.view(np.uint64))
        # Nothing else was drawn.
        assert rng_kernel.random() == rng.random()


class _RecordingGenerator:
    """A generator that records the shape of every normal block it is asked for.

    It offers standard_normal only, so a draw that asks for anything
    else fails.
    """

    def __init__(self, seed):
        self._rng = rng_from_seed(seed)
        self.shapes = []

    def standard_normal(self, size):
        self.shapes.append(tuple(size))
        return self._rng.standard_normal(size)


@pytest.mark.parametrize("T, M, K, sizes", [(100, 4, 20, (64,)), (3, 4, 9, (16, 32, 64, 128, 256)),
                                            (2, 3, 5, (1,))])
def test_draw_requests_exactly_the_documented_normals(T, M, K, sizes):
    # Per trial: 2N M^2 for the surface-to-PS paths, 2N M for the
    # cluster sums and M^2 K per nested size for the drawn terms, in
    # that order; nothing per device path.
    rng = _RecordingGenerator(3)
    sample_small_scale(rng, T, M, np.arange(K) % M, sizes)
    N, B = sizes[-1], len(sizes)
    assert rng.shapes == [(2, T, M, N, M), (2, T, M, N), (B, T, M, M, K)]
    assert sum(np.prod(shape) for shape in rng.shapes) == T * (
        2 * N * M**2 + 2 * N * M + B * M**2 * K)


def test_nested_draw_is_documented_order_and_prefixes_are_views():
    # Sizes 1 < 3 < 7 in one draw: paths and sums at the largest size,
    # then one block of normals per size; each prefix views the first n
    # elements and carries the running sum of its blocks' increments.
    T, M, K, sizes = 3, 4, 6, (1, 3, 7)
    cluster_of = np.arange(K) % M
    rng_kernel = rng_from_seed(8)
    ch = sample_small_scale(rng_kernel, T, M, cluster_of, sizes)
    rng, hp, sums, u = _documented_draw(8, T, M, cluster_of, sizes)
    assert rng_kernel.random() == rng.random()
    _assert_bits(ch.ris_to_ps, hp)
    _assert_bits(ch.cluster_sums, sums)
    running = 0.0
    for b, (lo, hi) in enumerate(zip((0,) + sizes, sizes)):
        factor = foreign_factor(ch.ris_to_ps[:, :, lo:hi])
        running = running + np.matmul(factor, u[b, :, :, : factor.shape[-1]])
        sub = ch.prefix(hi)
        assert sub.num_elements == hi
        assert np.shares_memory(sub.ris_to_ps, ch.ris_to_ps)
        assert np.shares_memory(sub.cluster_sums, ch.cluster_sums)
        assert np.array_equal(sub.ris_to_ps, ch.ris_to_ps[:, :, :hi])
        assert np.array_equal(sub.cluster_sums, ch.cluster_sums[:, :, :hi])
        assert np.array_equal(sub.drawn_terms, running)
    assert ch.prefix(7) is ch
    with pytest.raises(KeyError):
        ch.prefix(5)


def test_own_residuals_are_centred_and_vanish_for_a_singleton():
    # A singleton cluster's device is its cluster sum, so its residual is
    # exactly 0; a larger cluster's residuals sum to 0 over its devices,
    # at every nested size. Foreign entries are not centred.
    cluster_of = np.array([1, 0, 1, 1, 2, 2])  # sizes 1, 3, 2
    ch = sample_small_scale(rng_from_seed(4), 5, 3, cluster_of, (2, 6))
    for drawn in (ch.drawn_terms, ch.prefix(2).drawn_terms):
        assert np.all(drawn[:, 0, :, 1] == 0.0)
        for i in (1, 2):
            own = drawn[:, i][..., cluster_of == i]
            assert np.abs(own.sum(axis=-1)).max() <= 1e-12 * np.abs(own).max()
            assert np.all(own != 0.0)
        assert np.abs(drawn[:, 0][..., cluster_of != 0].sum(axis=-1)).min() > 1e-6
    # The singleton's own term is the cluster-sum term alone.
    beta = np.ones((3, 6))
    phases = configure_aligned(ch)
    comp = cascaded_components(ch, beta, phases)
    assert np.allclose(comp[:, 0, :, 1], _reflected_sums(ch, phases)[:, 0], rtol=1e-12, atol=0)


def _reflected_sums(ch, phases):
    """Re{h_ps[t, i, :, m]^H diag(e^{j phases}) s_i}, shape (T, M, M), by einsum."""
    return np.einsum("tinm,tin,tin->tim", np.conj(ch.ris_to_ps), np.exp(1j * phases),
                     ch.cluster_sums).real


@pytest.mark.parametrize("sizes", [(3, 1), (2, 2), (0, 4)], ids=["decreasing", "repeated", "zero"])
def test_small_scale_rejects_bad_nested_sizes(sizes):
    with pytest.raises(ValueError):
        sample_small_scale(rng_from_seed(1), 1, 2, [0, 1, 1], sizes)


def test_nested_foreign_blocks_compose_the_prefix_gram():
    # Sum over blocks of F_b F_b^T is Re(H_:n^H H_:n) / 2 for every
    # prefix n. With M = 4 antennas the first block (one element, two
    # real rows) and the second (two elements) have 2 * size <= M, so
    # their factors are rank deficient or square.
    T, M, sizes = 5, 4, (1, 3, 4, 9)
    hp = sample_small_scale(rng_from_seed(12), T, M, np.arange(8) % M, sizes).ris_to_ps
    total = 0.0
    for lo, hi in zip((0,) + sizes, sizes):
        factor = foreign_factor(hp[:, :, lo:hi])
        assert factor.shape[-1] == min(2 * (hi - lo), M)
        total = total + factor @ factor.swapaxes(-1, -2)
        head = hp[:, :, :hi]
        gram = (head.conj().swapaxes(-1, -2) @ head).real / 2
        assert np.abs(total - gram).max() <= 1e-12 * np.abs(gram).max()


def test_small_scale_moments():
    # Entries are circularly symmetric with unit second moment, so
    # E|h| = sqrt(pi)/2 (folded-Gaussian mean scaled by 1/sqrt(2)); a
    # cluster sum has second moment |C_i|, so it is checked divided by
    # sqrt(|C_i|). Clusters of sizes 3 and 1.
    ch = sample_small_scale(rng_from_seed(1), 2000, 2, [0, 0, 0, 1], 250)
    sums = ch.cluster_sums / np.sqrt([3.0, 1.0])[:, None]
    for h in (ch.ris_to_ps.ravel()[:1_000_000], sums.ravel()):  # one million entries
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
        assert abs(np.mean(np.abs(h)) - 0.8862269254527579) < 0.005
        assert abs(np.mean(h.real)) < 0.005
        assert abs(np.mean(h.imag)) < 0.005


# ---------------------------------------------------------------------------
# the foreign-term factor
# ---------------------------------------------------------------------------

def _gram(hp, phases):
    """Re(W^H W) / 2 for W = diag(e^{-j phases}) H, per (trial, surface)."""
    w = np.exp(-1j * phases)[..., None] * hp
    return np.einsum("tinm,tinl->timl", np.conj(w), w).real / 2


def _factor_error(hp):
    # The factor must reproduce the Gram matrix under any phases: the
    # phases cancel in W^H W.
    phases = np.random.default_rng(4).uniform(0, 2 * np.pi, size=hp.shape[:3])
    factor = foreign_factor(hp)
    gram = _gram(hp, phases)
    product = np.matmul(factor, factor.swapaxes(-1, -2))
    return factor, np.max(np.abs(product - gram)) / np.max(np.abs(gram))


def test_foreign_factor_on_a_rank_deficient_gram():
    # N = 1 element and M = 4 antennas: the 4 x 4 Gram matrix has rank
    # at most 2, so a plain Cholesky fails; only 2 normals are used.
    hp, _ = draw_full(np.random.default_rng(1), 3, 4, 1, 1)
    gram = _gram(hp, np.zeros(hp.shape[:3]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    factor, err = _factor_error(hp)
    assert factor.shape == (3, 4, 4, 2)
    assert err < 1e-12
    assert np.all(np.triu(factor[..., :2, :], 1) == 0.0)
    assert np.all(np.diagonal(factor, axis1=-2, axis2=-1) >= 0.0)


def test_foreign_factor_with_a_zero_antenna_column():
    hp, _ = draw_full(np.random.default_rng(2), 3, 3, 1, 6)
    hp[:, :, :, 1] = 0.0
    factor, err = _factor_error(hp)
    assert factor.shape == (3, 3, 3, 3)
    assert err < 1e-12
    assert np.all(factor[..., 1, :] == 0.0)
    assert np.all(np.diagonal(factor, axis1=-2, axis2=-1) >= 0.0)


def test_foreign_factor_falls_back_to_qr_for_the_whole_batch():
    # One trial with a zero antenna column makes its Gram matrix
    # singular, so the batch takes the QR route; every trial's factor
    # still reproduces its Gram matrix.
    hp, _ = draw_full(np.random.default_rng(4), 3, 2, 1, 5)
    hp[0, 1, :, 0] = 0.0
    factor, err = _factor_error(hp)
    assert factor.shape == (3, 2, 2, 2)
    assert err < 1e-12
    assert np.all(factor[0, 1, 0] == 0.0)


def test_foreign_factor_is_the_cholesky_factor_when_definite():
    hp, _ = draw_full(np.random.default_rng(3), 4, 3, 1, 5)
    factor, err = _factor_error(hp)
    assert err < 1e-12
    chol = np.linalg.cholesky(_gram(hp, np.zeros(hp.shape[:3])))
    assert np.allclose(factor, chol, rtol=1e-12, atol=1e-14)


def test_unequal_clusters_give_finite_gains():
    cluster_of = np.array([0, 1, 1, 1, 1, 1, 1, 1])  # sizes 1 and 7
    ch = sample_small_scale(rng_from_seed(8), 5, 2, cluster_of, 6)
    beta = np.random.default_rng(8).uniform(0.1, 1.0, size=(2, 8))
    phases = configure_aligned(ch)
    gains = all_cascaded_gains(ch, beta, phases)
    assert gains.shape == (5, 2, 8)
    assert np.all(np.isfinite(gains))
    for t in range(5):
        for m in range(2):
            for k in range(8):
                ref = _cascaded_gain(ch, beta, phases, t, m, k)
                assert gains[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# gain kernels
# ---------------------------------------------------------------------------

def _cascaded_gain(ch, beta, phases, t, m, k):
    """Scalar reference: real cascaded device-k-to-antenna-m gain of trial t."""
    own = ch.cluster_of[k]
    total = 0.0
    for i in range(ch.num_surfaces):
        term = ch.drawn_terms[t, i, m, k]
        if i == own:
            reflected = np.exp(1j * phases[t, i]) * ch.cluster_sums[t, i]
            share = np.count_nonzero(ch.cluster_of == own)
            term += float(np.real(np.vdot(ch.ris_to_ps[t, i, :, m], reflected))) / share
        total += beta[i, k] * term
    return total


def test_cascaded_gain_matches_direct_sum():
    # Own-surface components against an element-by-element sum over the
    # cluster sum, shared by the cluster's devices, plus each device's
    # drawn residual; the foreign ones are the drawn terms, attenuated.
    cluster_of = np.array([0, 1, 1])
    ch = sample_small_scale(rng_from_seed(7), 2, 2, cluster_of, 5)
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.5, 2.0, size=(2, 3))
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2, 5))
    comp = cascaded_components(ch, beta, phases)
    assert comp.shape == (2, 2, 2, 3)
    for t in range(2):
        for i in range(2):
            for m in range(2):
                for k in range(3):
                    if i != cluster_of[k]:
                        assert comp[t, i, m, k] == beta[i, k] * ch.drawn_terms[t, i, m, k]
                        continue
                    acc = 0.0 + 0.0j
                    for n in range(5):
                        acc += (
                            np.conj(ch.ris_to_ps[t, i, n, m])
                            * np.exp(1j * phases[t, i, n])
                            * ch.cluster_sums[t, i, n]
                        )
                    share = np.count_nonzero(cluster_of == i)
                    ref = beta[i, k] * (acc.real / share + ch.drawn_terms[t, i, m, k])
                    assert comp[t, i, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_all_cascaded_gains_matches_scalar_loop():
    ch = sample_small_scale(rng_from_seed(13), 3, 2, [0, 0, 1, 1], 6)
    rng = np.random.default_rng(2)
    beta = rng.uniform(0.1, 1.0, size=(2, 4))
    phases = rng.uniform(0, 2 * np.pi, size=(3, 2, 6))
    grid = all_cascaded_gains(ch, beta, phases)
    assert grid.shape == (3, 2, 4)
    comp_sum = cascaded_components(ch, beta, phases).sum(axis=1)
    for t in range(3):
        for m in range(2):
            for k in range(4):
                ref = _cascaded_gain(ch, beta, phases, t, m, k)
                assert grid[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)
                assert comp_sum[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_kernels_reproduce_the_full_channel():
    # On the channel set built from a fully materialized draw, the
    # kernels give the full channel's per-surface terms and gains.
    hp, hd = draw_full(np.random.default_rng(5), 3, 3, 7, 4)
    cluster_of = np.array([0, 0, 1, 1, 1, 2, 2])
    beta = np.random.default_rng(6).uniform(0.1, 1.0, size=(3, 7))
    phases = aligned_phases(hp, hd, cluster_of)
    ch = channel_set(hp, hd, cluster_of, phases)
    ref = beta[None, :, None, :] * reflected(hp, hd, phases)
    assert np.allclose(cascaded_components(ch, beta, phases), ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(all_cascaded_gains(ch, beta, phases), ref.sum(axis=1), rtol=1e-12,
                       atol=1e-14)
    assert np.allclose(np.mod(phases, 2 * np.pi), configure_aligned(ch), rtol=0, atol=1e-12)


PHASE_KINDS = ("aligned", "aligned-1bit", "random")


def _nested_components(name, trials, M, cluster_of, sizes, seed, chunk):
    """Per-surface terms of each nested size under each phase kind, unit beta.

    On each draw the phases are aligned at the largest size, that
    alignment quantized to one bit, or drawn uniformly after the
    channel, and sliced per size. Returns {kind: (trials, sizes * M * M
    * K)}, each row the raveled (size, surface, antenna, device) terms,
    kept in single precision to halve the memory: its rounding, 6e-8
    relative, is far below the Monte Carlo error of any statistic here.
    """
    K = cluster_of.size
    parts = {kind: [] for kind in PHASE_KINDS}
    for start in range(0, trials, chunk):
        rng = rng_from_seed(derive_seed(seed, name, start))
        if name == "sampler":
            ch = sample_small_scale(rng, chunk, M, cluster_of, sizes)
            aligned = configure_aligned(ch)
        else:
            hp, hd = draw_full(rng, chunk, M, K, sizes[-1])
            aligned = aligned_phases(hp, hd, cluster_of)
        thetas = (aligned, corrupt_phases(aligned, 1), rng.uniform(0, 2 * np.pi, aligned.shape))
        for kind, theta in zip(PHASE_KINDS, thetas):
            if name == "sampler":
                terms = [cascaded_components(ch.prefix(n), np.ones((M, K)), theta[:, :, :n])
                         for n in sizes]
            else:
                terms = [reflected(hp[:, :, :n], hd[..., :n], theta[:, :, :n]) for n in sizes]
            parts[kind].append(np.stack(terms, axis=1).reshape(chunk, -1).astype(np.float32))
    return {kind: np.concatenate(p) for kind, p in parts.items()}


def _mean_and_stderr(x):
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])


def _covariance_pairs(cluster_of, sizes, M):
    """Index pairs into one trial's raveled (size, surface, antenna, device) terms.

    Every pair of (size, antenna) terms within one (surface, device),
    which gives the variances, the antenna covariances and the
    cross-size covariances; and every (size, antenna) x (size, antenna)
    pair of two devices of one cluster on their own surface, which gives
    the within-cluster cross-device covariances.
    """
    K = cluster_of.size
    idx = np.arange(len(sizes) * M * M * K).reshape(len(sizes), M, M, K)
    pairs = []
    for i in range(M):
        for k in range(K):
            v = idx[:, i, :, k].ravel()
            a, b = np.triu_indices(v.size)
            pairs.append(np.stack([v[a], v[b]], axis=1))
        own = np.flatnonzero(cluster_of == i)
        for a, k in enumerate(own):
            for l in own[a + 1:]:
                v, w = idx[:, i, :, k].ravel(), idx[:, i, :, l].ravel()
                pairs.append(np.stack(np.meshgrid(v, w, indexing="ij"), axis=-1).reshape(-1, 2))
    return np.concatenate(pairs)


def _covariance_and_stderr(x, pairs):
    """Sample covariance of each index pair of x (trials, Q) and its standard error.

    The covariance is the mean of the centred products, and its
    standard error that of the products (ddof=1), both read off Q x Q
    matmuls.
    """
    n = x.shape[0]
    x = x - x.mean(axis=0)
    p, q = pairs.T
    cov = (x.T @ x)[p, q] / n
    x *= x
    fourth = (x.T @ x)[p, q] / n
    return cov, np.sqrt((fourth - cov**2) / (n - 1))


def _exactness_z(trials, M, cluster_of, sizes, seed, chunk):
    """Two-sample z-scores, sampler against full materialization, for every phase kind.

    Per kind: the mean of every (size, surface, antenna, device) term
    and every covariance named by _covariance_pairs.
    """
    pairs = _covariance_pairs(cluster_of, sizes, M)
    x, y = (_nested_components(name, trials, M, cluster_of, sizes, seed, chunk)
            for name in ("sampler", "full"))
    z = []
    for kind in PHASE_KINDS:
        for stats in (_mean_and_stderr, lambda v: _covariance_and_stderr(v, pairs)):
            (mx, sx), (my, sy) = (stats(v[kind].astype(np.float64)) for v in (x, y))
            z.append((mx - my) / np.hypot(sx, sy))
    z = np.concatenate(z)
    assert z.size == len(PHASE_KINDS) * (len(sizes) * M * M * cluster_of.size + len(pairs))
    return z


def test_conditional_sampler_matches_full_materialization():
    # Two-sample z-tests at the desk shape with N = 16, between the
    # conditional sampler and full materialization under aligned,
    # 1-bit aligned and random phases: the mean of every (surface,
    # antenna, device) component, every antenna covariance (variances
    # included) within a (surface, device) pair, and every antenna x
    # antenna covariance between two devices of one cluster on their own
    # surface, which the centring of the own residuals sets. Bonferroni
    # over the whole family at a family-wise false-alarm rate of 1e-4.
    trials, M, K, N = 20_000, 4, 20, 16
    z = _exactness_z(trials, M, np.repeat(np.arange(M), K // M), (N,), 77, 1000)
    family_alpha = 1e-4
    z_crit = NormalDist().inv_cdf(1 - family_alpha / (2 * z.size))
    assert np.max(np.abs(z)) <= z_crit


def test_nested_prefixes_match_one_materialized_surface():
    # Two-sample z-tests between nested prefixes of one sampler draw and
    # the prefixes of one fully materialized surface, under aligned,
    # 1-bit aligned and random phases computed at the largest size and
    # sliced, with unequal clusters (a singleton, a pair and a triple):
    # the mean of every (size, surface, antenna, device) component, every
    # covariance between two (size, antenna) components of one (surface,
    # device) pair, which ties the sizes' drawn terms together, and
    # every such covariance between two devices of one cluster on their
    # own surface. Bonferroni over the whole family at a family-wise
    # false-alarm rate of 1e-4.
    trials, M, sizes = 20_000, 3, (2, 5)
    z = _exactness_z(trials, M, np.array([0, 1, 1, 2, 2, 2]), sizes, 78, 5000)
    family_alpha = 1e-4
    z_crit = NormalDist().inv_cdf(1 - family_alpha / (2 * z.size))
    assert np.max(np.abs(z)) <= z_crit


def _awkward_channels():
    cluster_of = np.array([0, 1, 1])
    ch = sample_small_scale(rng_from_seed(5), 6, 2, cluster_of, 4)
    # A trial-axis slice, and Fortran-order copies, whose last axes are
    # not contiguous.
    yield ChannelSet(ch.ris_to_ps[::2], ch.cluster_sums[::2], ch.drawn_terms[::2], cluster_of)
    yield ChannelSet(
        np.asfortranarray(ch.ris_to_ps),
        np.asfortranarray(ch.cluster_sums),
        np.asfortranarray(ch.drawn_terms),
        cluster_of,
    )
    # One element per surface.
    yield sample_small_scale(rng_from_seed(6), 2, 2, cluster_of, 1)


@pytest.mark.parametrize("ch", list(_awkward_channels()), ids=["trial-slice", "fortran", "N=1"])
def test_gain_kernels_on_awkward_layouts(ch):
    T, M, N = ch.num_trials, ch.num_surfaces, ch.num_elements
    K = ch.cluster_of.size
    rng = np.random.default_rng(3)
    beta = rng.uniform(0.1, 1.0, size=(M, K))
    # A phase array whose last axis is strided.
    phases = rng.uniform(0, 2 * np.pi, size=(T, M, 2 * N))[:, :, ::2]
    grid = all_cascaded_gains(ch, beta, phases)
    comp_sum = cascaded_components(ch, beta, phases).sum(axis=1)
    for t in range(T):
        for m in range(M):
            for k in range(K):
                ref = _cascaded_gain(ch, beta, phases, t, m, k)
                assert grid[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)
                assert comp_sum[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_geometry_to_channel_pipeline():
    cfg = _config(K=6, M=2, N=4)
    geom = place_geometry(cfg, cfg.master_seed)
    beta = large_scale_coefficients(geom, cfg.pathloss_exponent)
    assert beta.shape == (2, 6)
    assert np.all(beta > 0)
    # Own-cluster links are usually shorter, hence stronger on average.
    own = np.array([beta[cfg.cluster_of[k], k] for k in range(6)])
    assert np.all(own > 0)
