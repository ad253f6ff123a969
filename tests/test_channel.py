"""Fading statistics, path loss, and cascaded-gain reductions."""

import numpy as np
import pytest

from airpfl.channel import (
    MIN_DEVICE_RIS_DISTANCE,
    all_cascaded_gains,
    cascaded_components,
    large_scale_coefficients,
    sample_small_scale,
)
from airpfl.seeding import rng_from_seed
from airpfl.sysmodel import Geometry, make_config, place_geometry

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


def test_small_scale_shapes():
    ch = sample_small_scale(rng_from_seed(42), 3, 2, 5, 7)
    assert ch.ris_to_ps.shape == (3, 2, 7, 2)
    assert ch.device_to_ris.shape == (3, 2, 5, 7)
    assert ch.num_trials == 3
    assert ch.num_surfaces == 2
    assert ch.num_elements == 7


def test_small_scale_deterministic_in_round_seed():
    a = sample_small_scale(rng_from_seed(9), 1, 2, 4, 8)
    b = sample_small_scale(rng_from_seed(9), 1, 2, 4, 8)
    assert np.array_equal(a.ris_to_ps, b.ris_to_ps)
    assert np.array_equal(a.device_to_ris, b.device_to_ris)
    c = sample_small_scale(rng_from_seed(10), 1, 2, 4, 8)
    assert not np.allclose(a.device_to_ris, c.device_to_ris)


def test_small_scale_draw_order_is_documented_order():
    # Surface-to-PS real then imaginary parts, then device-to-surface
    # real then imaginary parts, each scaled to unit complex variance.
    M, K, N = 2, 3, 5
    ch = sample_small_scale(rng_from_seed(21), 1, M, K, N)
    rng = rng_from_seed(21)
    hp_re, hp_im = rng.standard_normal((M, N, M)), rng.standard_normal((M, N, M))
    hd_re, hd_im = rng.standard_normal((M, K, N)), rng.standard_normal((M, K, N))
    assert np.array_equal(ch.ris_to_ps[0], (hp_re + 1j * hp_im) / np.sqrt(2.0))
    assert np.array_equal(ch.device_to_ris[0], (hd_re + 1j * hd_im) / np.sqrt(2.0))


def test_small_scale_moments():
    # Entries are circularly symmetric with unit second moment, so
    # E|h| = sqrt(pi)/2 (folded-Gaussian mean scaled by 1/sqrt(2)).
    ch = sample_small_scale(rng_from_seed(1), 1, 2, 2000, 250)
    h = ch.device_to_ris.ravel()  # one million entries
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
    assert abs(np.mean(np.abs(h)) - 0.8862269254527579) < 0.005
    assert abs(np.mean(h.real)) < 0.005
    assert abs(np.mean(h.imag)) < 0.005


def _cascaded_gain(ch, beta, phases, t, m, k):
    """Scalar reference: real cascaded device-k-to-antenna-m gain of trial t."""
    total = 0.0
    for i in range(ch.num_surfaces):
        reflected = np.exp(1j * phases[t, i]) * ch.device_to_ris[t, i, k]
        total += beta[i, k] * float(np.real(np.vdot(ch.ris_to_ps[t, i, :, m], reflected)))
    return total


def test_cascaded_gain_matches_direct_sum():
    # Every per-surface component against an element-by-element sum.
    ch = sample_small_scale(rng_from_seed(7), 2, 2, 3, 5)
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.5, 2.0, size=(2, 3))
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2, 5))
    comp = cascaded_components(ch, beta, phases)
    assert comp.shape == (2, 2, 2, 3)
    for t in range(2):
        for i in range(2):
            for m in range(2):
                for k in range(3):
                    acc = 0.0 + 0.0j
                    for n in range(5):
                        acc += (
                            np.conj(ch.ris_to_ps[t, i, n, m])
                            * np.exp(1j * phases[t, i, n])
                            * ch.device_to_ris[t, i, k, n]
                        )
                    assert comp[t, i, m, k] == pytest.approx(beta[i, k] * acc.real, rel=1e-12)


def test_all_cascaded_gains_matches_scalar_loop():
    ch = sample_small_scale(rng_from_seed(13), 3, 2, 4, 6)
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


def test_geometry_to_channel_pipeline():
    cfg = _config(K=6, M=2, N=4)
    geom = place_geometry(cfg, cfg.master_seed)
    beta = large_scale_coefficients(geom, cfg.pathloss_exponent)
    assert beta.shape == (2, 6)
    assert np.all(beta > 0)
    # Own-cluster links are usually shorter, hence stronger on average.
    own = np.array([beta[cfg.cluster_of[k], k] for k in range(6)])
    assert np.all(own > 0)
