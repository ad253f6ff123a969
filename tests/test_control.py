"""Power control, denoising factors, and the estimation-error model."""

import numpy as np
import pytest
from scipy import optimize

import airpfl.flsim as flsim
from airpfl.aircomp import cluster_average, normalize_gradient
from airpfl.channel import all_cascaded_gains, large_scale_coefficients
from airpfl.control import adaptive_denoisers, conditional_mse, unbiased_design
from airpfl.flsim import draw_gains
from airpfl.sysmodel import make_config, place_geometry
from full_channel import aligned, channel_set, draw_full
from round_oracle import round_estimates

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


@pytest.mark.parametrize(
    "beta, sigmas, max_power, match",
    [(np.ones((1, 3)), np.ones((1, 2)), np.ones(2), "beta must have shape"),
     (np.ones((1, 2)), np.array([[1.0, -0.5]]), np.ones(2), "non-negative"),
     (np.ones((1, 2)), np.ones((1, 2)), np.array([1.0, 0.0]), "positive")],
    ids=["beta-shape", "negative-std", "zero-budget"],
)
def test_unbiased_design_rejects_malformed_inputs(beta, sigmas, max_power, match):
    with pytest.raises(ValueError, match=match):
        unbiased_design(beta, sigmas, max_power, 4, 8, np.zeros(2, dtype=int))


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
        hp, hd = draw_full(rng, 1, M, K, N)
        ch = channel_set(hp, hd, cluster_of, aligned)
        gains = all_cascaded_gains(ch, beta)[0, 0, 0]
        w = np.sqrt(design.powers[0]) * gains[0] / design.denoisers[0, 0]
        acc += w
        acc_sq += w**2
    mean = acc / draws
    stderr = np.sqrt((acc_sq / draws - mean**2) / (draws - 1))
    assert np.all(np.abs(mean - sigmas / K) <= 3 * stderr)


# ---------------------------------------------------------------------------
# adaptive denoising
# ---------------------------------------------------------------------------

def _denoisers(powers, gains, sigmas, noise_var, cluster_of):
    """Adaptive denoisers (M,) of one trial with (M, K) gains, infinite fallback."""
    fallback = np.full((1, gains.shape[0]), np.inf)
    return adaptive_denoisers(
        powers[None], gains[None], sigmas[None], noise_var, cluster_of, fallback
    )[0]


def _mse(powers, denoisers, gains, sigmas, noise_var, model_dim, cluster_of):
    """Conditional MSE (M,) of one trial with (M, K) gains and (M,) denoisers."""
    return conditional_mse(
        powers[None], denoisers[None], gains[None], sigmas[None], noise_var, model_dim,
        cluster_of,
    )[0]


def test_mmse_denoiser_single_device_unit_instance():
    lam = _denoisers(
        powers=np.array([1.0]),
        gains=np.array([[1.0]]),
        sigmas=np.array([1.0]),
        noise_var=0.0,
        cluster_of=np.array([0]),
    )[0]
    assert lam == pytest.approx(1.0, rel=1e-15)


def test_mmse_denoiser_noise_shifts_factor():
    lam = _denoisers(
        powers=np.array([1.0]),
        gains=np.array([[1.0]]),
        sigmas=np.array([1.0]),
        noise_var=2.0,
        cluster_of=np.array([0]),
    )[0]
    assert lam == pytest.approx(2.0, rel=1e-15)


def test_mmse_denoiser_two_device_instance():
    # num = 2 * (1*1 + 4*0.25) = 4, den = 1 + 2*0.5 = 2.
    lam = _denoisers(
        powers=np.array([1.0, 4.0]),
        gains=np.array([[1.0, 0.5]]),
        sigmas=np.array([1.0, 1.0]),
        noise_var=0.0,
        cluster_of=np.array([0, 0]),
    )
    assert lam[0] == pytest.approx(2.0, rel=1e-15)
    # That factor zeroes the error in this noiseless instance.
    mse = _mse(
        np.array([1.0, 4.0]), lam, np.array([[1.0, 0.5]]), np.array([1.0, 1.0]),
        0.0, 8, np.array([0, 0]),
    )
    assert mse[0] == pytest.approx(0.0, abs=1e-12)


def test_conditional_mse_zero_power_is_noise_plus_floor():
    mse = conditional_mse(
        powers=np.array([[0.0]]),
        denoisers=np.array([[2.0]]),
        gains=np.array([[[1.0]]]),
        sigmas=np.array([[1.0]]),
        noise_var=2.0,
        model_dim=4,
        cluster_of=np.array([0]),
    )
    assert mse.shape == (1, 1)
    assert mse[0, 0] == pytest.approx(5.0, rel=1e-15)


def test_conditional_mse_exact_link_is_zero():
    mse = conditional_mse(
        powers=np.array([[1.0]]),
        denoisers=np.array([[1.0]]),
        gains=np.array([[[1.0]]]),
        sigmas=np.array([[1.0]]),
        noise_var=0.0,
        model_dim=7,
        cluster_of=np.array([0]),
    )
    assert mse[0, 0] == 0.0


def test_conditional_mse_infinite_denoiser_hits_floor():
    sigmas = np.array([1.0, 2.0, 0.5])
    cluster_of = np.array([0, 0, 1])
    floor = np.sum(sigmas[:2] ** 2) * 6 / 4
    gains = np.array([[0.3, -0.2, 1.0], [1.0, 1.0, 1.0]])
    mse = _mse(np.ones(3), np.array([np.inf, 1.0]), gains, sigmas, 0.7, 6, cluster_of)
    assert mse[0] == pytest.approx(floor, rel=1e-14)


def test_conditional_mse_rejects_nonpositive_denoiser():
    # One bad denoiser anywhere in the batch rejects the call.
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            conditional_mse(
                np.ones((2, 1)), np.array([[1.0], [bad]]), np.ones((2, 1, 1)),
                np.ones((2, 1)), 0.0, 4, np.zeros(1, dtype=int),
            )


def _random_instance(rng, K=5):
    """Cluster 0's gain row is drawn; cluster 1's row is a constant."""
    cluster_of = np.array([0, 0, 0, 1, 1])
    powers = rng.uniform(0.1, 2.0, size=K)
    sigmas = rng.uniform(0.4, 1.8, size=K)
    gains = rng.uniform(-0.6, 0.6, size=K)
    own = np.flatnonzero(cluster_of == 0)
    gains[own] = rng.uniform(0.3, 1.5, size=own.size)  # keep the signal alive
    noise_var = rng.uniform(0.0, 0.5)
    return powers, np.stack([gains, np.ones(K)]), sigmas, noise_var, cluster_of


def test_mmse_denoiser_is_the_conditional_minimizer():
    rng = np.random.default_rng(31)
    for _ in range(25):
        powers, gains, sigmas, noise_var, cluster_of = _random_instance(rng)
        lam = _denoisers(powers, gains, sigmas, noise_var, cluster_of)[0]
        assert 0 < lam < np.inf

        def f(x):
            return _mse(powers, np.array([x, 1.0]), gains, sigmas, noise_var, 6, cluster_of)[0]

        # Grid bracket plus golden refinement, independent of the
        # closed form.
        grid = np.logspace(-4, 4, 400)
        values = conditional_mse(
            np.broadcast_to(powers, (400, 5)), np.stack([grid, np.ones(400)], axis=1),
            np.broadcast_to(gains, (400, 2, 5)), np.broadcast_to(sigmas, (400, 5)),
            noise_var, 6, cluster_of,
        )[:, 0]
        i = int(np.argmin(values))
        assert 0 < i < len(grid) - 1
        res = optimize.minimize_scalar(
            f, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
            options={"xtol": 1e-12},
        )
        assert lam == pytest.approx(res.x, rel=1e-6)
        assert f(lam) <= min(values) + 1e-12


def test_conditional_mse_matches_error_model_simulation():
    # Draw unit-variance symbols (what normalize_gradient sends) and
    # real extracted noise with variance noise_var / 2, form the
    # estimation error directly, and compare its mean square against
    # the closed form.
    rng = np.random.default_rng(57)
    D = 6
    for _ in range(4):
        powers, gains, sigmas, noise_var, cluster_of = _random_instance(rng)
        noise_var = 0.3
        lam = _denoisers(powers, gains, sigmas, noise_var, cluster_of)[0]
        for factor in (1.0, 0.35, 3.0):
            lam_t = lam * factor
            ell = np.sqrt(powers) * gains[0] / lam_t
            own = cluster_of == 0
            # Own-cluster weight per unit symbol is ell - sigma / cluster
            # size: the target deviation is sigma times the symbol.
            w = np.where(own, ell - sigmas / own.sum(), ell)
            draws = 200000
            xi = rng.standard_normal((draws, len(powers)))
            err = xi @ w + rng.standard_normal(draws) * np.sqrt(
                noise_var / 2.0
            ) / lam_t
            sq = D * err**2
            mc = sq.mean()
            se = sq.std(ddof=1) / np.sqrt(draws)
            closed = _mse(
                powers, np.array([lam_t, 1.0]), gains, sigmas, noise_var, D, cluster_of
            )[0]
            assert abs(mc - closed) <= 3 * se


@pytest.mark.parametrize(
    "scales, scheme, noise_var",
    [
        pytest.param(scales, scheme, noise_var, id=f"{name}{suffix}")
        for noise_var, suffix in ((1e-2, ""), (1e-10, "-noise-1e-10"))
        for name, scales, scheme in (
            ("unit-std", np.ones(8), "mmse"),
            ("three-decade-std", np.logspace(-3, 0, 8), "mmse"),
            ("unit-std-mmse+powopt", np.ones(8), "mmse+powopt"),
            ("three-decade-std-mmse+powopt", np.logspace(-3, 0, 8), "mmse+powopt"),
            ("unit-std-unbiased", np.ones(8), "unbiased"),
            ("three-decade-std-unbiased", np.logspace(-3, 0, 8), "unbiased"),
        )
    ],
)
def test_conditional_mse_matches_the_implemented_uplink(scales, scheme, noise_var, monkeypatch):
    # The round as training and the sweep run it, flsim.aggregate_round,
    # on draw_gains gains; spies on flsim.unbiased_design and
    # flsim.adaptive_denoisers capture the powers and denoisers it used,
    # and the uplink sends them (round_estimates, as training does).
    # Device k's gradient is a random mean plus scales[k] times a
    # standardized random direction, so its reported std is scales[k].
    # Given the gains and stds, every trial's squared error has
    # expectation conditional_mse, so each cluster's mean difference over
    # the trials must lie within 4 of its standard errors (two-sided
    # false-alarm rate 6e-5 per cluster). At noise_var 1e-2 the receiver
    # noise drowns the cascaded gains (about 1e-4); at the desk config's
    # 1e-10 the signal dominates, so the check sees the powers sent.
    K, M, N, D, T = 8, 2, 16, 32, 400
    cfg = make_config(
        num_devices=K, num_clusters=M, num_ris_elements=N, model_dim=D,
        cluster_of=np.repeat(np.arange(M), K // M), max_power=1.0, noise_var=noise_var,
        master_seed=3,
    )
    beta = large_scale_coefficients(place_geometry(cfg, 3), cfg.pathloss_exponent)
    rng = np.random.default_rng(3)
    key = ("aligned", None)
    gains = draw_gains(rng, None, T, cfg.cluster_of, beta, [N], [key])[N][key]
    direction = rng.standard_normal((T, K, D))
    direction -= direction.mean(axis=2, keepdims=True)
    direction /= direction.std(axis=2, keepdims=True)
    grads = rng.standard_normal((T, K, 1)) + scales[:, None] * direction
    noise = rng.standard_normal((T, M, D))

    designs, denoised = [], []

    def spy(kernel, calls):
        def recorded(*args):
            calls.append((args, kernel(*args)))
            return calls[-1][1]
        return recorded

    monkeypatch.setattr(flsim, "unbiased_design", spy(unbiased_design, designs))
    monkeypatch.setattr(flsim, "adaptive_denoisers", spy(adaptive_denoisers, denoised))
    normalized = normalize_gradient(grads)
    truth = cluster_average(grads, cfg.cluster_of, M)
    schemes = [flsim.parse_scheme(scheme)]
    [(_, _, sent, denoisers, _)] = flsim.aggregate_round(
        cfg, beta, schemes, {N: {key: gains}}, normalized, noise, truth,
        powopt_seeds={N: range(T)},
    )
    [estimate] = round_estimates(cfg, schemes, {key: gains}, normalized, noise, sent, denoisers)
    assert len(designs) == 1 and len(denoised) == (scheme != "unbiased")
    design = designs[0][1]
    powers, lam = design.powers, design.denoisers[0]  # the one size's denoisers
    if denoised:
        (powers, *_), lam = denoised[0]
    assert np.array_equal(sent[0], powers) and np.array_equal(denoisers[0], lam)
    realized = np.sum((estimate - truth) ** 2, axis=2)
    predicted = conditional_mse(
        powers, lam, gains, normalized.std, cfg.noise_var, D, cfg.cluster_of
    )
    diff = realized - predicted
    assert np.all(np.abs(diff.mean(axis=0)) <= 4 * diff.std(axis=0, ddof=1) / np.sqrt(T))


def test_adaptive_denoisers_follow_closed_form():
    rng = np.random.default_rng(71)
    powers, gains, sigmas, noise_var, cluster_of = _random_instance(rng)
    gains = np.stack([gains[0], rng.uniform(0.2, 1.0, size=5)])
    fallback = np.array([[10.0, 20.0]])
    lam = adaptive_denoisers(powers[None], gains[None], sigmas[None], noise_var, cluster_of,
                             fallback)[0]
    for m in range(2):
        # lambda_m = |m| (sum_k p_k h_k^2 + noise_var / 2)
        #            / sum_{k in m} sqrt(p_k) h_k sigma_k, term by term.
        own = np.flatnonzero(cluster_of == m)
        num = sum(powers[k] * gains[m, k] ** 2 for k in range(5))
        den = sum(np.sqrt(powers[k]) * gains[m, k] * sigmas[k] for k in own)
        assert lam[m] == pytest.approx(own.size * (num + noise_var / 2) / den, rel=1e-14)


def test_adaptive_denoisers_fallback_on_vanished_signal():
    cluster_of = np.array([0, 1])
    powers = np.ones(2)
    sigmas = np.ones(2)
    gains = np.array([[[0.0, 0.5], [0.3, 0.4]]])
    fallback = np.array([[7.5, 9.0]])
    lam = adaptive_denoisers(powers[None], gains, sigmas[None], 0.1, cluster_of, fallback)[0]
    assert lam[0] == 7.5
    assert lam[1] > 0 and np.isfinite(lam[1])


def test_a_tiny_cross_term_gets_the_minimizer():
    # Only an exactly zero cross term takes the fallback: a cross term of
    # 1e-17 gets the minimizer |cluster| * num / cross = (1e-34 + 1) / 1e-17.
    lam = adaptive_denoisers(np.ones((1, 1)), np.array([[[1e-17]]]), np.ones((1, 1)), 2.0,
                             np.array([0]), np.array([[7.5]]))
    assert lam[0, 0] == pytest.approx(1e17, rel=1e-15)


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
    gains = np.array([[-0.8, 0.2], [1.0, 1.0]])
    lams = np.array([np.inf, 0.5, 2.0, 50.0, 5000.0])
    mse = conditional_mse(
        np.ones((5, 2)), np.stack([lams, np.ones(5)], axis=1), np.broadcast_to(gains, (5, 2, 2)),
        np.ones((5, 2)), 0.1, 4, cluster_of,
    )[:, 0]
    assert np.all(mse[1:] >= mse[0] - 1e-12)


# ---------------------------------------------------------------------------
# masked contractions against per-cluster loops
# ---------------------------------------------------------------------------

def _per_cluster_reference(beta, sigmas, max_power, model_dim, num_elements, cluster_of, gains):
    """The design, error terms and averages computed one cluster at a time.

    Returns powers (T, K), denoisers (T, M), num and cross (T, M), the
    (M,) sizes and a function averaging (T, K, ...) over each cluster.
    """
    T, K = sigmas.shape
    M = beta.shape[0]
    live = sigmas > 0.0
    safe = np.where(live, sigmas, 1.0)
    powers, denoisers = np.empty((T, K)), np.empty((T, M))
    members = [np.flatnonzero(cluster_of == m) for m in range(M)]
    for m, idx in enumerate(members):
        ratio = np.sqrt(max_power[idx]) * beta[m, idx] / (safe[:, idx] * np.sqrt(model_dim))
        zeta = np.where(live[:, idx], ratio, np.inf).min(axis=1)
        scale = np.where(np.isfinite(zeta), zeta, 0.0)
        p = (sigmas[:, idx] / beta[m, idx]) ** 2 * scale[:, None] ** 2
        powers[:, idx] = np.minimum(p, max_power[idx])
        denoisers[:, m] = np.pi * num_elements * np.sqrt(idx.size) * zeta / 4.0
    num = (powers[:, None, :] * gains**2).sum(axis=2) + 1e-3 / 2.0
    cross = np.stack(
        [(np.sqrt(powers[:, idx]) * gains[:, m, idx] * sigmas[:, idx]).sum(axis=1)
         for m, idx in enumerate(members)], axis=1
    )
    sizes = np.array([idx.size for idx in members])

    def average(x):
        return np.stack([x[:, idx].mean(axis=1) for idx in members], axis=1)

    return powers, denoisers, num, cross, sizes, average


def test_masked_kernels_match_per_cluster_loops():
    # Unequal clusters (2, 2 and 4 devices, labels not sorted), a device
    # that reports zero std and a cluster whose devices all do. The
    # design takes the same operations per element as the loop, so it is
    # bit-identical; the sums over a cluster only change their order, so
    # they agree to a few float64 ulps.
    rng = np.random.default_rng(41)
    cluster_of = np.array([2, 0, 1, 2, 2, 0, 1, 2])
    T, M, K, D, N = 6, 3, 8, 16, 32
    beta = rng.uniform(0.2, 2.0, (M, K))
    sigmas = rng.uniform(0.5, 1.5, (T, K))
    sigmas[1, 1] = 0.0
    sigmas[2, [2, 6]] = 0.0
    max_power = rng.uniform(0.5, 2.0, K)
    gains = rng.uniform(0.1, 1.0, (T, M, K))
    powers, denoisers, num, cross, sizes, average = _per_cluster_reference(
        beta, sigmas, max_power, D, N, cluster_of, gains
    )
    design = unbiased_design(beta, sigmas, max_power, D, N, cluster_of)
    assert np.array_equal(design.powers, powers)
    assert np.array_equal(design.denoisers, denoisers)

    tol = 16 * np.finfo(float).eps
    live = np.isfinite(denoisers)
    lam = np.where(live, denoisers, 1.0)
    mse = conditional_mse(powers, lam, gains, sigmas, 1e-3, D, cluster_of)
    floor = average(sigmas**2) / sizes
    expected = D * (num / lam**2 - 2.0 * cross / (sizes * lam) + floor)
    assert np.allclose(mse, expected, rtol=tol, atol=0)
    fallback = np.full((T, M), 7.0)
    adaptive = adaptive_denoisers(powers, gains, sigmas, 1e-3, cluster_of, fallback)
    assert np.array_equal(live, adaptive != fallback)  # only the silent cluster falls back
    minimizer = sizes * num / np.where(live, cross, 1.0)
    assert np.allclose(adaptive[live], minimizer[live], rtol=tol, atol=0)
    x = rng.standard_normal((T, K, 5))
    assert np.allclose(cluster_average(x, cluster_of, M), average(x), rtol=tol, atol=tol)
