"""Gradient normalization, the analog uplink, and estimate recovery."""

import numpy as np
import pytest

from airpfl.aircomp import (
    cluster_average,
    estimate_cluster_gradient,
    normalize_gradient,
    receiver_noise,
    uplink,
)
from airpfl.channel import all_cascaded_gains, sample_small_scale
from airpfl.seeding import rng_from_seed
from airpfl.sysmodel import make_config
from full_channel import aligned, channel_set, draw_full
from round_oracle import estimation_nmse

# Population statistics of [0, 1, 2]: mean 1, std sqrt(2/3). The std
# and the standardized entries below are 40-digit evaluations rounded
# to the nearest double.
STD_012 = 0.816496580927726
ENTRY_012 = 1.224744871391589


def test_normalize_frozen_example():
    ng = normalize_gradient(np.array([[[0.0, 1.0, 2.0]]]))
    assert ng.mean[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert ng.std[0, 0] == pytest.approx(STD_012, rel=1e-15)
    assert ng.values[0, 0, 0] == pytest.approx(-ENTRY_012, rel=1e-15)
    assert ng.values[0, 0, 1] == pytest.approx(0.0, abs=1e-15)
    assert ng.values[0, 0, 2] == pytest.approx(ENTRY_012, rel=1e-15)


def test_normalized_values_have_unit_population_std():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.standard_normal((3, 4, rng.integers(2, 40)))
        ng = normalize_gradient(g)
        assert np.allclose(np.mean(ng.values, axis=2), 0.0, atol=1e-12)
        assert np.allclose(np.std(ng.values, axis=2), 1.0, rtol=1e-12)


def test_degenerate_gradient_reports_zero_std():
    g = np.stack([np.full(7, 3.25), np.arange(7.0)])[None]
    ng = normalize_gradient(g)
    assert ng.std[0, 0] == 0.0
    assert ng.mean[0, 0] == pytest.approx(3.25)
    assert np.all(ng.values[0, 0] == 0.0)
    assert ng.std[0, 1] > 0.0


def test_denormalize_roundtrip():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((2, 3, 33)) * 4.0 + 2.0
    ng = normalize_gradient(g)
    assert np.allclose(ng.std[:, :, None] * ng.values + ng.mean[:, :, None], g, atol=1e-9)


def test_denormalize_roundtrip_degenerate():
    g = np.full((1, 1, 5), -1.5)
    ng = normalize_gradient(g)
    assert np.allclose(ng.std[:, :, None] * ng.values + ng.mean[:, :, None], g, atol=1e-12)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_gradient(np.zeros((1, 1, 0)))
    with pytest.raises(ValueError):
        normalize_gradient(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        normalize_gradient(np.array([[[1.0, np.nan]]]))


# ---------------------------------------------------------------------------
# uplink
# ---------------------------------------------------------------------------

def _normalized_batch(rng, T, K, D):
    return normalize_gradient(rng.standard_normal((T, K, D)))


def test_noiseless_uplink_matches_direct_superposition():
    # The kernels run on the channel set of a fully materialized draw;
    # the reference superposes that full channel element by element.
    T, M, K, N, D = 2, 2, 4, 6, 5
    hp, hd = draw_full(rng_from_seed(3), T, M, K, N)
    rng = np.random.default_rng(1)
    beta = rng.uniform(0.1, 1.0, size=(M, K))
    phases = rng.uniform(0, 2 * np.pi, size=(T, M, N))
    ch = channel_set(hp, hd, [0, 0, 1, 1], lambda draw: [np.exp(-1j * phases)])
    powers = rng.uniform(0.0, 2.0, size=(T, K))
    grads = _normalized_batch(rng, T, K, D)

    gains = all_cascaded_gains(ch, beta)[0, 0]
    received = uplink(gains, powers, grads, np.zeros((T, M, D)))
    assert received.shape == (T, M, D)

    # Real part of the complex superposition, built element by element.
    phase = np.exp(1j * phases)
    for t in range(T):
        for m in range(M):
            for d in range(D):
                acc = 0.0 + 0.0j
                for k in range(K):
                    gain = 0.0 + 0.0j
                    for i in range(M):
                        gain += beta[i, k] * np.vdot(hp[t, i, :, m], phase[t, i] * hd[t, i, k])
                    acc += np.sqrt(powers[t, k]) * gain * grads.values[t, k, d]
                assert received[t, m, d] == pytest.approx(acc.real, rel=1e-11, abs=1e-12)


def test_uplink_noise_is_reproducible_and_sized():
    # The receiver noise enters scaled to the real-part variance
    # noise_var / 2; identical inputs give identical outputs.
    rng = np.random.default_rng(2)
    gains = rng.standard_normal((3, 2, 4))
    grads = _normalized_batch(rng, 3, 4, 5)
    noise = rng.standard_normal((3, 2, 5))
    a = uplink(gains, np.ones((3, 4)), grads, receiver_noise(1e-2, noise))
    b = uplink(gains, np.ones((3, 4)), grads, receiver_noise(1e-2, noise))
    clean = uplink(gains, np.ones((3, 4)), grads, receiver_noise(0.0, noise))
    assert a.shape == (3, 2, 5)
    assert np.array_equal(a, b)
    assert np.allclose(a - clean, np.sqrt(1e-2 / 2.0) * noise, rtol=1e-12, atol=1e-15)


def test_uplink_noise_variance_split():
    # Zero powers leave pure receiver noise; its real part carries half
    # the complex noise variance.
    D = 400000
    grads = _normalized_batch(np.random.default_rng(4), 1, 2, D)
    noise = rng_from_seed(5).standard_normal((1, 1, D))
    received = uplink(np.ones((1, 1, 2)), np.zeros((1, 2)), grads, receiver_noise(0.5, noise))
    assert abs(np.var(received) - 0.25) < 0.25 * 0.02
    assert abs(np.mean(received)) < 0.005


def test_uplink_validates_inputs():
    T, M, K, D = 2, 2, 4, 5
    gains = np.ones((T, M, K))
    grads = _normalized_batch(np.random.default_rng(0), T, K, D)
    noise = np.zeros((T, M, D))
    with pytest.raises(ValueError):
        uplink(gains, np.ones((T, 3)), grads, noise)
    with pytest.raises(ValueError):
        uplink(gains, -np.ones((T, K)), grads, noise)
    with pytest.raises(ValueError):
        uplink(gains, np.ones((T, K)), _normalized_batch(np.random.default_rng(0), T, 3, D),
               noise)
    with pytest.raises(ValueError):
        receiver_noise(-1.0, noise)
    with pytest.raises(ValueError):
        uplink(gains, np.ones((T, K)), grads, np.zeros((T, M, D + 1)))


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_noiseless_estimate_equals_weighted_sum():
    # Without noise the recovered estimate must equal the per-entry
    # weights sqrt(p_k) h_{m,k} / lambda_m applied to the normalized
    # gradients plus the mean term.
    M, K, N, D = 2, 4, 6, 5
    cluster_of = np.array([0, 0, 1, 1])
    ch = sample_small_scale(rng_from_seed(9), 1, M, cluster_of, N, aligned)
    rng = np.random.default_rng(3)
    beta = rng.uniform(0.1, 1.0, size=(M, K))
    gains = all_cascaded_gains(ch, beta)[0, 0]
    powers = rng.uniform(0.1, 1.0, size=(1, K))
    denoisers = np.array([[2.0, 0.7]])
    grads = _normalized_batch(rng, 1, K, D)

    received = uplink(gains, powers, grads, np.zeros((1, M, D)))
    mean_term = cluster_average(grads.mean, cluster_of, M)[..., None]
    est = estimate_cluster_gradient(received, denoisers, mean_term)
    assert est.shape == (1, M, D)
    for m in range(M):
        idx = np.flatnonzero(cluster_of == m)
        weights = np.sqrt(powers[0]) * gains[0, m] / denoisers[0, m]
        expected = weights @ grads.values[0] + grads.mean[0, idx].sum() / idx.size
        assert np.allclose(est[0, m], expected, rtol=1e-10, atol=1e-12)


def test_infinite_denoiser_keeps_mean_only():
    received = np.array([[[3.0, -1.0], [0.5, 2.0]]])
    mean_term = cluster_average(np.array([[2.0, 4.0, 1.0]]), np.array([0, 0, 1]), 2)[..., None]
    est = estimate_cluster_gradient(received, np.array([[np.inf, 1.0]]), mean_term)
    assert est.shape == (1, 2, 2)
    assert np.all(est[0, 0] == 3.0)
    assert np.array_equal(est[0, 1], [1.5, 3.0])


def test_estimate_validates_inputs():
    received, mean_term = np.zeros((1, 1, 3)), np.ones((1, 1, 1))
    with pytest.raises(ValueError):
        estimate_cluster_gradient(received, np.array([[0.0]]), mean_term)
    with pytest.raises(ValueError):
        estimate_cluster_gradient(received, np.array([[-1.0]]), mean_term)
    with pytest.raises(ValueError):
        estimate_cluster_gradient(received, np.array([[np.nan]]), mean_term)
    with pytest.raises(ValueError):
        estimate_cluster_gradient(received, np.array([[1.0]]), np.ones((1, 1, 2)))
    with pytest.raises(ValueError):
        estimate_cluster_gradient(received, np.array([[1.0]]), np.ones((1, 1)))
    with pytest.raises(ValueError):
        estimate_cluster_gradient(received, np.array([1.0]), mean_term)
    # Training's one (T, M, D) round is the only shape: no leading scheme axis.
    with pytest.raises(ValueError, match="received signal must have shape"):
        estimate_cluster_gradient(np.zeros((2, 1, 1, 3)), np.ones((2, 1, 1)), np.ones((1, 1, 1)))


def test_estimation_nmse_with_a_leading_axis_equals_each_slice_alone():
    # 2 x 100 entries per trial: long enough for numpy's pairwise sum.
    rng = np.random.default_rng(22)
    g_true = rng.standard_normal((4, 2, 100))
    g_true[1] = 0.0
    g_hat = g_true + 0.1 * rng.standard_normal((3, 4, 2, 100))
    nmse = estimation_nmse(g_hat, g_true)
    assert nmse.shape == (3, 4)
    assert np.all(nmse[:, 1] == 0.0)
    for s in range(3):
        assert np.array_equal(nmse[s], estimation_nmse(g_hat[s], g_true))


@pytest.mark.parametrize(
    "denoiser_shape, means_shape",
    [((4, 3), (4, 2, 1)), ((5, 2), (4, 2, 1)), ((3, 4, 2), (4, 2, 1)), ((4, 2), (4, 2, 6)),
     ((4, 2), (5, 2, 1)), ((4, 2), (4, 2))],
)
def test_estimate_rejects_mismatched_trailing_shapes(denoiser_shape, means_shape):
    # received is (T=4, M=2, D=6). Each case breaks one input's shape, the
    # denoisers' or else the mean term's, and that input's check refuses it.
    # A mean term repeated along the coordinates, (T, M, D), is refused too.
    check = "denoisers" if denoiser_shape != (4, 2) else "mean term"
    with pytest.raises(ValueError, match=f"{check} must have shape"):
        estimate_cluster_gradient(np.zeros((4, 2, 6)), np.ones(denoiser_shape),
                                  np.zeros(means_shape))


@pytest.mark.parametrize("truth_shape", [(4, 2, 5), (4, 3, 6), (5, 2, 6)])
def test_estimation_nmse_rejects_mismatched_trailing_shapes(truth_shape):
    with pytest.raises(ValueError):
        estimation_nmse(np.zeros((3, 4, 2, 6)), np.zeros(truth_shape))


def test_cluster_average_groups_devices():
    x = np.arange(12.0).reshape(2, 3, 2)  # (T, K, D)
    avg = cluster_average(x, np.array([1, 0, 1]), 2)
    assert avg.shape == (2, 2, 2)
    assert np.array_equal(avg[:, 0], x[:, 1])
    assert np.array_equal(avg[:, 1], (x[:, 0] + x[:, 2]) / 2)
