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
    assert ch.device_to_ris.shape == (3, 5, 7)
    assert ch.foreign_terms.shape == (3, 2, 2, 5)
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
    assert np.array_equal(a.device_to_ris, b.device_to_ris)
    assert np.array_equal(a.foreign_terms, b.foreign_terms)
    c = sample_small_scale(rng_from_seed(10), 1, 2, cluster_of, 8)
    assert not np.allclose(a.device_to_ris, c.device_to_ris)


def test_small_scale_draw_order_is_documented_order():
    # Surface-to-PS real then imaginary parts, then own-surface real
    # then imaginary parts, each scaled by 1/sqrt(2), then the foreign
    # normals; compared bit for bit, so the draw stream cannot move
    # unnoticed. The third shape is one sweep chunk; in the last, 2N < M,
    # so only the first 2N normals of each pair enter its foreign term.
    scale = 1 / np.sqrt(2)
    for T, M, K, N in [(1, 2, 3, 5), (3, 2, 3, 5), (100, 4, 20, 16), (2, 4, 5, 1)]:
        cluster_of = np.arange(K) % M
        rng_kernel = rng_from_seed(21)
        ch = sample_small_scale(rng_kernel, T, M, cluster_of, N)
        rng = rng_from_seed(21)
        hp_re, hp_im = rng.standard_normal((T, M, N, M)), rng.standard_normal((T, M, N, M))
        hd_re, hd_im = rng.standard_normal((T, K, N)), rng.standard_normal((T, K, N))
        u = rng.standard_normal((T, M, M, K))
        for got, re, im in [(ch.ris_to_ps, hp_re, hp_im), (ch.device_to_ris, hd_re, hd_im)]:
            assert np.array_equal(got.real.view(np.uint64), (re * scale).view(np.uint64))
            assert np.array_equal(got.imag.view(np.uint64), (im * scale).view(np.uint64))
        foreign = np.matmul(foreign_factor(ch.ris_to_ps), u[:, :, : min(2 * N, M)])
        assert np.array_equal(ch.foreign_terms.view(np.uint64), foreign.view(np.uint64))
        # Nothing else was drawn.
        assert rng_kernel.random() == rng.random()


def test_nested_draw_is_documented_order_and_prefixes_are_views():
    # Sizes 1 < 3 < 7 in one draw: paths at the largest size, then one
    # block of foreign normals per size; each prefix views the first n
    # elements and carries the running sum of its blocks' increments.
    T, M, K, sizes = 3, 4, 6, (1, 3, 7)
    scale = 1 / np.sqrt(2)
    cluster_of = np.arange(K) % M
    rng_kernel = rng_from_seed(8)
    ch = sample_small_scale(rng_kernel, T, M, cluster_of, sizes)
    rng = rng_from_seed(8)
    hp = (rng.standard_normal((T, M, 7, M)) + 1j * rng.standard_normal((T, M, 7, M))) * scale
    hd = (rng.standard_normal((T, K, 7)) + 1j * rng.standard_normal((T, K, 7))) * scale
    u = rng.standard_normal((len(sizes), T, M, M, K))
    assert rng_kernel.random() == rng.random()
    assert np.array_equal(ch.ris_to_ps, hp) and np.array_equal(ch.device_to_ris, hd)
    running = 0.0
    for b, (lo, hi) in enumerate(zip((0,) + sizes, sizes)):
        factor = foreign_factor(hp[:, :, lo:hi])
        running = running + np.matmul(factor, u[b, :, :, : factor.shape[-1]])
        sub = ch.prefix(hi)
        assert sub.num_elements == hi
        assert np.shares_memory(sub.ris_to_ps, ch.ris_to_ps)
        assert np.shares_memory(sub.device_to_ris, ch.device_to_ris)
        assert np.array_equal(sub.ris_to_ps, hp[:, :, :hi])
        assert np.array_equal(sub.device_to_ris, hd[:, :, :hi])
        assert np.array_equal(sub.foreign_terms, running)
    assert ch.prefix(7) is ch
    with pytest.raises(KeyError):
        ch.prefix(5)


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
    # E|h| = sqrt(pi)/2 (folded-Gaussian mean scaled by 1/sqrt(2)).
    ch = sample_small_scale(rng_from_seed(1), 1, 2, np.arange(4000) % 2, 250)
    h = ch.device_to_ris.ravel()  # one million entries
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
        if i == own:
            reflected = np.exp(1j * phases[t, i]) * ch.device_to_ris[t, k]
            term = float(np.real(np.vdot(ch.ris_to_ps[t, i, :, m], reflected)))
        else:
            term = ch.foreign_terms[t, i, m, k]
        total += beta[i, k] * term
    return total


def test_cascaded_gain_matches_direct_sum():
    # Own-surface components against an element-by-element sum; the
    # foreign ones are the drawn foreign terms, attenuated.
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
                        assert comp[t, i, m, k] == beta[i, k] * ch.foreign_terms[t, i, m, k]
                        continue
                    acc = 0.0 + 0.0j
                    for n in range(5):
                        acc += (
                            np.conj(ch.ris_to_ps[t, i, n, m])
                            * np.exp(1j * phases[t, i, n])
                            * ch.device_to_ris[t, k, n]
                        )
                    assert comp[t, i, m, k] == pytest.approx(beta[i, k] * acc.real, rel=1e-12)


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


def _nested_components(name, trials, M, K, sizes, seed, chunk):
    """Per-surface terms of each nested size under aligned phases, unit beta.

    The phases are aligned at the largest size and sliced; shape
    (trials, len(sizes), M, M, K).
    """
    cluster_of = np.repeat(np.arange(M), K // M)
    parts = []
    for start in range(0, trials, chunk):
        rng = rng_from_seed(derive_seed(seed, name, start))
        if name == "sampler":
            ch = sample_small_scale(rng, chunk, M, cluster_of, sizes)
            theta = configure_aligned(ch)
            terms = [
                cascaded_components(ch.prefix(n), np.ones((M, K)), theta[:, :, :n]) for n in sizes
            ]
        else:
            hp, hd = draw_full(rng, chunk, M, K, sizes[-1])
            theta = aligned_phases(hp, hd, cluster_of)
            terms = [
                reflected(hp[:, :, :n], hd[..., :n], theta[:, :, :n]) for n in sizes
            ]
        parts.append(np.stack(terms, axis=1))
    return np.concatenate(parts)


def _mean_and_stderr(x):
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])


def test_conditional_sampler_matches_full_materialization():
    # Two-sample z-tests at the desk shape with N = 16, between the
    # conditional sampler and full materialization under aligned
    # phases: the mean of every (surface, antenna, device) component,
    # and every antenna-pair covariance within a (surface, device)
    # pair. Bonferroni over the whole family at a family-wise
    # false-alarm rate of 1e-4.
    trials, M, K, N = 20_000, 4, 20, 16
    x, y = (_nested_components(name, trials, M, K, (N,), 77, 1000)[:, 0]
            for name in ("sampler", "full"))
    z = []
    (mx, sx), (my, sy) = _mean_and_stderr(x), _mean_and_stderr(y)
    z.append((mx - my) / np.hypot(sx, sy))
    for a in range(M):
        for b in range(a, M):
            (cx, sx), (cy, sy) = (
                _mean_and_stderr((v[:, :, a] - v[:, :, a].mean(0)) * (v[:, :, b] - v[:, :, b].mean(0)))
                for v in (x, y)
            )
            z.append((cx - cy) / np.hypot(sx, sy))
    z = np.concatenate([v.ravel() for v in z])
    assert z.size == M * M * K + M * K * M * (M + 1) // 2
    family_alpha = 1e-4
    z_crit = NormalDist().inv_cdf(1 - family_alpha / (2 * z.size))
    assert np.max(np.abs(z)) <= z_crit


def test_nested_prefixes_match_one_materialized_surface():
    # Two-sample z-tests between nested prefixes of one sampler draw and
    # the prefixes of one fully materialized surface, under aligned
    # phases computed at the largest size and sliced: the mean of every
    # (size, surface, antenna, device) component, and every covariance
    # between two (size, antenna) components of one (surface, device)
    # pair, which ties the sizes' foreign terms together. Bonferroni over
    # the whole family at a family-wise false-alarm rate of 1e-4.
    trials, M, K, sizes = 20_000, 3, 6, (2, 5)
    x, y = (_nested_components(name, trials, M, K, sizes, 78, 5000)
            for name in ("sampler", "full"))
    V = len(sizes) * M  # (size, antenna) variables per (surface, device) pair
    x, y = (v.transpose(0, 2, 4, 1, 3).reshape(trials, M, K, V) for v in (x, y))
    z = []
    (mx, sx), (my, sy) = _mean_and_stderr(x), _mean_and_stderr(y)
    z.append((mx - my) / np.hypot(sx, sy))
    for a in range(V):
        for b in range(a, V):
            (cx, sx), (cy, sy) = (
                _mean_and_stderr((v[..., a] - v[..., a].mean(0)) * (v[..., b] - v[..., b].mean(0)))
                for v in (x, y)
            )
            z.append((cx - cy) / np.hypot(sx, sy))
    z = np.concatenate([v.ravel() for v in z])
    assert z.size == M * K * V + M * K * V * (V + 1) // 2
    family_alpha = 1e-4
    z_crit = NormalDist().inv_cdf(1 - family_alpha / (2 * z.size))
    assert np.max(np.abs(z)) <= z_crit


def _awkward_channels():
    cluster_of = np.array([0, 1, 1])
    ch = sample_small_scale(rng_from_seed(5), 6, 2, cluster_of, 4)
    # A trial-axis slice, and Fortran-order copies, whose last axes are
    # not contiguous.
    yield ChannelSet(ch.ris_to_ps[::2], ch.device_to_ris[::2], ch.foreign_terms[::2], cluster_of)
    yield ChannelSet(
        np.asfortranarray(ch.ris_to_ps),
        np.asfortranarray(ch.device_to_ris),
        np.asfortranarray(ch.foreign_terms),
        cluster_of,
    )
    # One element per surface.
    yield sample_small_scale(rng_from_seed(6), 2, 2, cluster_of, 1)


@pytest.mark.parametrize("ch", list(_awkward_channels()), ids=["trial-slice", "fortran", "N=1"])
def test_gain_kernels_on_awkward_layouts(ch):
    T, M, N = ch.num_trials, ch.num_surfaces, ch.num_elements
    K = ch.device_to_ris.shape[1]
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
