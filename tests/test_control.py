"""Power control, denoising factors, and the estimation-error model."""

import numpy as np
import pytest
from scipy import optimize

from airpfl.channel import ChannelSet, all_cascaded_gains
from airpfl.control import (
    ClusterSignalVanished,
    adaptive_denoisers,
    conditional_mse,
    mmse_denoising,
    unbiased_design,
)
from airpfl.ris import configure_aligned

# pi * 8 * sqrt(2) * 0.25 / 4, evaluated with mpmath at 40 digits.
LAMBDA_FROZEN = 2.221441469079183


# ---------------------------------------------------------------------------
# statistical design
# ---------------------------------------------------------------------------

def test_unbiased_design_frozen_instance():
    # Two devices, one cluster. The nearer device (beta 1) binds the
    # common scale: zeta = min(1/4, 2/4) = 1/4.
    beta = np.array([[1.0, 2.0]])
    design = unbiased_design(
        beta,
        sigmas=np.array([[1.0, 1.0]]),
        max_power=np.array([1.0, 1.0]),
        model_dim=16,
        num_elements=8,
        cluster_of=np.array([0, 0]),
    )
    assert design.powers[0, 0] == pytest.approx(0.0625, rel=1e-15)
    assert design.powers[0, 1] == pytest.approx(0.015625, rel=1e-15)
    assert design.denoisers[0, 0] == pytest.approx(LAMBDA_FROZEN, rel=1e-14)
    assert design.scheme == "unbiased"


def test_binding_device_transmits_at_budget():
    rng = np.random.default_rng(0)
    for _ in range(20):
        K = 5
        beta = rng.uniform(0.2, 3.0, size=(1, K))
        sigmas = rng.uniform(0.5, 2.0, size=K)
        max_power = rng.uniform(0.5, 4.0, size=K)
        D = int(rng.integers(4, 64))
        design = unbiased_design(
            beta, sigmas[None], max_power, D, 16, np.zeros(K, dtype=int)
        )
        per_symbol = design.powers[0] * D
        assert np.all(per_symbol <= max_power * (1 + 1e-12))
        binding = np.argmin(np.sqrt(max_power) * beta[0] / sigmas)
        assert per_symbol[binding] == pytest.approx(max_power[binding], rel=1e-12)


def test_design_scaling_with_gradient_spread():
    # Doubling every reported std leaves powers alone and halves the
    # denoiser, keeping the normalized link weights unchanged.
    beta = np.array([[0.8, 1.7, 0.6]])
    sigmas = np.array([1.0, 2.0, 0.7])
    base = unbiased_design(beta, sigmas[None], np.ones(3), 8, 32, np.zeros(3, dtype=int))
    scaled = unbiased_design(beta, 2 * sigmas[None], np.ones(3), 8, 32, np.zeros(3, dtype=int))
    assert np.allclose(scaled.powers, base.powers, rtol=1e-12)
    assert np.allclose(scaled.denoisers, base.denoisers / 2, rtol=1e-12)


def test_degenerate_device_gets_zero_power():
    beta = np.array([[1.0, 1.0, 1.0]])
    design = unbiased_design(
        beta, np.array([[1.0, 0.0, 2.0]]), np.ones(3), 4, 8, np.zeros(3, dtype=int)
    )
    assert design.powers[0, 1] == 0.0
    assert design.powers[0, 0] > 0 and design.powers[0, 2] > 0


def test_all_degenerate_cluster_carries_no_signal():
    # A cluster whose devices all report zero std gets zero powers and
    # an infinite denoiser; the other trial and cluster are unaffected.
    beta = np.ones((2, 4))
    sigmas = np.array([[0.0, 0.0, 1.0, 2.0], [1.0, 0.5, 1.0, 2.0]])
    cluster_of = np.array([0, 0, 1, 1])
    with np.errstate(all="raise"):
        design = unbiased_design(beta, sigmas, np.ones(4), 4, 8, cluster_of)
    assert np.all(design.powers[0, :2] == 0.0)
    assert design.denoisers[0, 0] == np.inf
    live = unbiased_design(beta, sigmas[1:], np.ones(4), 4, 8, cluster_of)
    assert np.array_equal(design.powers[1], live.powers[0])
    assert np.array_equal(design.denoisers[1], live.denoisers[0])
    assert np.array_equal(design.powers[0, 2:], live.powers[0, 2:])


def test_unbiased_link_weights_average_to_share():
    # Full-chain Monte Carlo: under aligned phases and the statistical
    # design, device k's weight in its own cluster's estimate averages
    # sigma_k / cluster size.
    rng = np.random.default_rng(23)
    K, M, N = 3, 1, 12
    cluster_of = np.zeros(K, dtype=int)
    beta = np.array([[0.9, 0.5, 1.4]])
    sigmas = np.array([1.0, 1.6, 0.8])
    design = unbiased_design(beta, sigmas[None], np.ones(K), 6, N, cluster_of)

    draws = 2500
    acc = np.zeros(K)
    acc_sq = np.zeros(K)
    for _ in range(draws):
        hp = (rng.standard_normal((M, N, M)) + 1j * rng.standard_normal((M, N, M))) / np.sqrt(2)
        hd = (rng.standard_normal((M, K, N)) + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
        ch = ChannelSet(ris_to_ps=hp[None], device_to_ris=hd[None])
        gains = all_cascaded_gains(ch, beta, configure_aligned(ch, cluster_of))[0]
        w = np.sqrt(design.powers[0]) * gains[0] / design.denoisers[0, 0]
        acc += w
        acc_sq += w**2
    mean = acc / draws
    stderr = np.sqrt((acc_sq / draws - mean**2) / (draws - 1))
    assert np.all(np.abs(mean - sigmas / K) <= 3 * stderr)


# ---------------------------------------------------------------------------
# adaptive denoising
# ---------------------------------------------------------------------------

def test_mmse_denoiser_single_device_unit_instance():
    lam = mmse_denoising(
        powers=np.array([1.0]),
        gains_row=np.array([1.0]),
        sigmas=np.array([1.0]),
        noise_var=0.0,
        cluster_of=np.array([0]),
        m=0,
    )
    assert lam == pytest.approx(1.0, rel=1e-15)


def test_mmse_denoiser_noise_shifts_factor():
    lam = mmse_denoising(
        powers=np.array([1.0]),
        gains_row=np.array([1.0]),
        sigmas=np.array([1.0]),
        noise_var=2.0,
        cluster_of=np.array([0]),
        m=0,
    )
    assert lam == pytest.approx(2.0, rel=1e-15)


def test_mmse_denoiser_two_device_instance():
    # num = 2 * (1*1 + 4*0.25) = 4, den = 1 + 2*0.5 = 2.
    lam = mmse_denoising(
        powers=np.array([1.0, 4.0]),
        gains_row=np.array([1.0, 0.5]),
        sigmas=np.array([1.0, 1.0]),
        noise_var=0.0,
        cluster_of=np.array([0, 0]),
        m=0,
    )
    assert lam == pytest.approx(2.0, rel=1e-15)
    # That factor zeroes the error in this noiseless instance.
    mse = conditional_mse(
        np.array([1.0, 4.0]), lam, np.array([1.0, 0.5]), np.array([1.0, 1.0]),
        0.0, 8, np.array([0, 0]), 0,
    )
    assert mse == pytest.approx(0.0, abs=1e-12)


def test_mmse_denoiser_raises_when_signal_vanishes():
    with pytest.raises(ClusterSignalVanished):
        mmse_denoising(
            powers=np.array([1.0, 1.0]),
            gains_row=np.array([0.0, 2.0]),
            sigmas=np.array([1.0, 1.0]),
            noise_var=0.1,
            cluster_of=np.array([0, 1]),
            m=0,
        )


def test_conditional_mse_zero_power_is_noise_plus_floor():
    mse = conditional_mse(
        powers=np.array([0.0]),
        denoiser=2.0,
        gains_row=np.array([1.0]),
        sigmas=np.array([1.0]),
        noise_var=2.0,
        model_dim=4,
        cluster_of=np.array([0]),
        m=0,
    )
    assert mse == pytest.approx(5.0, rel=1e-15)


def test_conditional_mse_exact_link_is_zero():
    mse = conditional_mse(
        powers=np.array([1.0]),
        denoiser=1.0,
        gains_row=np.array([1.0]),
        sigmas=np.array([1.0]),
        noise_var=0.0,
        model_dim=7,
        cluster_of=np.array([0]),
        m=0,
    )
    assert mse == 0.0


def test_conditional_mse_infinite_denoiser_hits_floor():
    sigmas = np.array([1.0, 2.0, 0.5])
    cluster_of = np.array([0, 0, 1])
    floor = np.sum(sigmas[:2] ** 4) * 6 / 4
    mse = conditional_mse(
        np.ones(3), np.inf, np.array([0.3, -0.2, 1.0]), sigmas, 0.7, 6, cluster_of, 0
    )
    assert mse == pytest.approx(floor, rel=1e-14)


def test_conditional_mse_rejects_nonpositive_denoiser():
    with pytest.raises(ValueError):
        conditional_mse(
            np.ones(1), 0.0, np.ones(1), np.ones(1), 0.0, 4, np.zeros(1, dtype=int), 0
        )


def _random_instance(rng, K=5):
    cluster_of = np.array([0, 0, 0, 1, 1])
    powers = rng.uniform(0.1, 2.0, size=K)
    sigmas = rng.uniform(0.4, 1.8, size=K)
    gains = rng.uniform(-0.6, 0.6, size=K)
    own = np.flatnonzero(cluster_of == 0)
    gains[own] = rng.uniform(0.3, 1.5, size=own.size)  # keep the signal alive
    noise_var = rng.uniform(0.0, 0.5)
    return powers, gains, sigmas, noise_var, cluster_of


def test_mmse_denoiser_is_the_conditional_minimizer():
    rng = np.random.default_rng(31)
    for _ in range(25):
        powers, gains, sigmas, noise_var, cluster_of = _random_instance(rng)
        lam = mmse_denoising(powers, gains, sigmas, noise_var, cluster_of, 0)
        assert lam > 0

        def f(x):
            return conditional_mse(powers, x, gains, sigmas, noise_var, 6, cluster_of, 0)

        # Grid bracket plus golden refinement, independent of the
        # closed form.
        grid = np.logspace(-4, 4, 400)
        values = [f(x) for x in grid]
        i = int(np.argmin(values))
        assert 0 < i < len(grid) - 1
        res = optimize.minimize_scalar(
            f, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
            options={"xtol": 1e-12},
        )
        assert lam == pytest.approx(res.x, rel=1e-6)
        assert f(lam) <= min(values) + 1e-12


def test_conditional_mse_matches_error_model_simulation():
    # Draw standardized gradients with per-entry variance sigma_k^2 and
    # real extracted noise with variance noise_var / 2, form the
    # estimation error directly, and compare its mean square against
    # the closed form.
    rng = np.random.default_rng(57)
    D = 6
    for _ in range(4):
        powers, gains, sigmas, noise_var, cluster_of = _random_instance(rng)
        noise_var = 0.3
        lam = mmse_denoising(powers, gains, sigmas, noise_var, cluster_of, 0)
        for factor in (1.0, 0.35, 3.0):
            lam_t = lam * factor
            ell = np.sqrt(powers) * gains / lam_t
            own = cluster_of == 0
            # Own-cluster weight per unit standard draw is
            # ell*sigma - sigma^2 / cluster size.
            w = np.where(own, ell - sigmas / own.sum(), ell) * sigmas
            draws = 200000
            xi = rng.standard_normal((draws, len(powers)))
            err = xi @ w + rng.standard_normal(draws) * np.sqrt(
                noise_var / 2.0
            ) / lam_t
            sq = D * err**2
            mc = sq.mean()
            se = sq.std(ddof=1) / np.sqrt(draws)
            closed = conditional_mse(
                powers, lam_t, gains, sigmas, noise_var, D, cluster_of, 0
            )
            assert abs(mc - closed) <= 3 * se


def test_adaptive_denoisers_follow_closed_form():
    rng = np.random.default_rng(71)
    powers, gains_row, sigmas, noise_var, cluster_of = _random_instance(rng)
    gains = np.stack([gains_row, rng.uniform(0.2, 1.0, size=5)])
    fallback = np.array([[10.0, 20.0]])
    lam = adaptive_denoisers(powers[None], gains[None], sigmas[None], noise_var, cluster_of,
                             fallback)[0]
    assert lam[0] == pytest.approx(
        mmse_denoising(powers, gains[0], sigmas, noise_var, cluster_of, 0), rel=1e-14
    )
    assert lam[1] == pytest.approx(
        mmse_denoising(powers, gains[1], sigmas, noise_var, cluster_of, 1), rel=1e-14
    )


def test_adaptive_denoisers_fallback_on_vanished_signal():
    cluster_of = np.array([0, 1])
    powers = np.ones(2)
    sigmas = np.ones(2)
    gains = np.array([[[0.0, 0.5], [0.3, 0.4]]])
    fallback = np.array([[7.5, 9.0]])
    lam = adaptive_denoisers(powers[None], gains, sigmas[None], 0.1, cluster_of, fallback)[0]
    assert lam[0] == 7.5
    assert lam[1] > 0 and np.isfinite(lam[1])


def test_adaptive_denoisers_discard_when_minimizer_negative():
    # A negative own-cluster gain makes the unconstrained minimizer
    # negative; the constrained optimum walks off to infinity, which
    # encodes "drop the analog signal this round".
    cluster_of = np.array([0, 1])
    gains = np.array([[[-0.8, 0.2], [0.1, 0.6]]])
    lam = adaptive_denoisers(np.ones((1, 2)), gains, np.ones((1, 2)), 0.1, cluster_of,
                             np.ones((1, 2)))[0]
    assert lam[0] == np.inf
    assert np.isfinite(lam[1])


def test_discard_mode_mse_not_worse_than_tail():
    # When the minimizer is negative the error decreases toward the
    # floor as the denoiser grows; any finite positive factor is worse.
    cluster_of = np.array([0, 1])
    gains_row = np.array([-0.8, 0.2])
    floor = conditional_mse(
        np.ones(2), np.inf, gains_row, np.ones(2), 0.1, 4, cluster_of, 0
    )
    for lam in [0.5, 2.0, 50.0, 5000.0]:
        assert (
            conditional_mse(np.ones(2), lam, gains_row, np.ones(2), 0.1, 4, cluster_of, 0)
            >= floor - 1e-12
        )
