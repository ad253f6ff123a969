"""End-to-end acceptance checks.

Each test prints one line naming the property it certifies and whether
the deterministic acceptance run passed. Run with -s to see the lines;
statistical checks use fixed seeds, so reruns are exact repeats.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import optimize

from airpfl.aircomp import (
    cluster_average,
    estimate_cluster_gradient,
    normalize_gradient,
    uplink,
)
from airpfl.channel import all_cascaded_gains, large_scale_coefficients
from airpfl.cli import cli_main
from airpfl.control import adaptive_denoisers, conditional_mse, unbiased_design
from airpfl.flsim import local_loss, run_training, synth_clustered_tasks
from airpfl.harness import (
    DESK_N_VALUES,
    DESK_P_VALUES,
    desk_scale_config,
    nmse_sweep,
    verify_elimination,
)
from airpfl.powopt import assemble_ratio_problem, solve_projected_ascent
from airpfl.seeding import derive_seed, rng_from_seed
from airpfl.sysmodel import make_config, place_geometry
from full_channel import aligned, channel_set
from power_oracle import brute_force_oracle


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {status}{tail}")


def _two_cluster_config(N: int, D: int, noise_var=1e-10, seed=3) -> "SystemConfig":
    return make_config(
        num_devices=8,
        num_clusters=2,
        num_ris_elements=N,
        model_dim=D,
        cluster_of=[0, 0, 0, 0, 1, 1, 1, 1],
        max_power=1.0,
        noise_var=noise_var,
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# 1. statistical interference elimination at scale
# ---------------------------------------------------------------------------

def test_criterion_1_interference_elimination():
    cfg = _two_cluster_config(N=16, D=8)
    start = time.perf_counter()
    report = verify_elimination(cfg, trials=100_000)
    elapsed = time.perf_counter() - start

    own = [r for r in report.rows if r.same_cluster]
    cross = [r for r in report.rows if not r.same_cluster]
    ok = (
        all(r.passed for r in own)
        and all(r.passed for r in cross)
        and all(c.passed for c in report.corrections)
        and elapsed < 60.0
    )
    worst_own = max(abs(r.mean - r.target) / r.stderr for r in own)
    worst_cross = max(abs(r.mean) / r.stderr for r in cross)
    _report(
        1,
        "aligned-phase interference elimination",
        ok,
        f"{len(own)} own pairs, {len(cross)} cross pairs, "
        f"worst own {worst_own:.2f} se, worst cross {worst_cross:.2f} se, "
        f"{elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. unbiased recovery of the cluster-average gradient
# ---------------------------------------------------------------------------

def test_criterion_2_unbiased_aggregation():
    K, M, N, D = 8, 2, 32, 24
    cfg = _two_cluster_config(N=N, D=D, noise_var=1e-8)
    members = [np.flatnonzero(cfg.cluster_of == m) for m in range(M)]
    geometry = place_geometry(cfg, cfg.master_seed)
    beta = large_scale_coefficients(geometry, cfg.pathloss_exponent)

    # Fixed per-device gradients with entries bounded away from zero,
    # so per-entry relative bias is well defined.
    grng = np.random.default_rng(2024)
    grads = 2.0 + 0.5 * grng.standard_normal((K, D))
    assert np.min(np.abs(grads)) > 0.3
    g_true = np.stack([grads[idx].mean(axis=0) for idx in members])

    normalized = normalize_gradient(grads[None])
    sigmas = normalized.std[0]
    means = normalized.mean[0]
    gbar = normalized.values[0]
    design = unbiased_design(
        beta, sigmas[None], cfg.max_power, D, N, cfg.cluster_of
    )
    powers, denoisers = design.powers[0], design.denoisers[0]
    sqrt_p = np.sqrt(powers)
    mean_term = np.array([means[idx].mean() for idx in members])

    total = np.zeros((M, D))
    draws = 100_000
    chunk = 2000
    spot_checked = False
    start = time.perf_counter()
    for begin in range(0, draws, chunk):
        tc = min(chunk, draws - begin)
        rng = rng_from_seed(derive_seed(987, "bias-check", begin))
        hp = (rng.standard_normal((tc, M, N, M)) + 1j * rng.standard_normal((tc, M, N, M))) / np.sqrt(2)
        hd = (rng.standard_normal((tc, M, K, N)) + 1j * rng.standard_normal((tc, M, K, N))) / np.sqrt(2)
        theta = np.empty((tc, M, N))
        for m, idx in enumerate(members):
            summed = hd[:, m, idx, :].sum(axis=1)
            theta[:, m, :] = np.angle(hp[:, m, :, m]) - np.angle(summed)
        phase = np.exp(1j * theta)
        inner = np.einsum("tinm,tin,tikn->timk", np.conj(hp), phase, hd, optimize=True)
        gains = np.einsum("ik,timk->tmk", beta, np.real(inner), optimize=True)
        signal = np.einsum("k,tmk,kd->tmd", sqrt_p, gains, gbar, optimize=True)
        noise = rng.standard_normal((tc, M, D)) * np.sqrt(cfg.noise_var / 2.0)
        est = (signal + noise) / denoisers[None, :, None] + mean_term[None, :, None]
        total += est.sum(axis=0)

        if not spot_checked:
            # The math above must agree with the public kernels, run on
            # trial 0's full channel under the aligned phases.
            ch = channel_set(hp[:1], hd[:1], cfg.cluster_of, aligned)
            gains_ref = all_cascaded_gains(ch, beta, 0)
            received = uplink(
                gains_ref, design.powers, normalized, 0.0, np.zeros((1, M, D))
            )
            ref = estimate_cluster_gradient(
                received, design.denoisers, normalized.mean, cfg.cluster_of
            )[0]
            for m, idx in enumerate(members):
                batch_version = signal[0, m] / denoisers[m] + mean_term[m]
                assert np.allclose(batch_version, ref[m], rtol=1e-9, atol=1e-11)
            spot_checked = True

    elapsed = time.perf_counter() - start
    avg = total / draws
    rel_bias = np.abs(avg - g_true) / np.abs(g_true)
    ok = bool(np.max(rel_bias) < 0.01)
    _report(
        2,
        "unbiased gradient recovery",
        ok,
        f"max per-entry relative bias {np.max(rel_bias):.4%} over {draws} draws, "
        f"{elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. adaptive denoiser closed form vs numeric minimizer
# ---------------------------------------------------------------------------

def _random_mse_instance(rng, live_own=True):
    cluster_of = np.array([0, 0, 0, 1, 1])
    powers = rng.uniform(0.1, 2.0, size=5)
    sigmas = rng.uniform(0.4, 1.8, size=5)
    gains = rng.uniform(-0.6, 0.6, size=5)
    if live_own:
        own = np.flatnonzero(cluster_of == 0)
        gains[own] = rng.uniform(0.3, 1.5, size=own.size)
    noise_var = rng.uniform(0.0, 0.8)
    return powers, gains, sigmas, noise_var, cluster_of


def _cluster0_denoiser(powers, gains, sigmas, noise_var, cluster_of):
    """Cluster 0's adaptive denoiser, one trial; cluster 1's gain row is constant."""
    rows = np.stack([gains, np.ones_like(gains)])[None]
    lam = adaptive_denoisers(
        powers[None], rows, sigmas[None], noise_var, cluster_of, np.full((1, 2), np.inf)
    )
    return float(lam[0, 0])


def _cluster0_mse(powers, lams, gains, sigmas, noise_var, D, cluster_of):
    """Cluster 0's conditional MSE under each denoiser of lams, one trial each."""
    lams = np.atleast_1d(lams)
    S, K = lams.size, powers.size
    rows = np.broadcast_to(np.stack([gains, np.ones_like(gains)]), (S, 2, K))
    mse = conditional_mse(
        np.broadcast_to(powers, (S, K)), np.stack([lams, np.ones(S)], axis=1), rows,
        np.broadcast_to(sigmas, (S, K)), noise_var, D, cluster_of,
    )
    return mse[:, 0]


def _cluster0_sq_error(rng, powers, lam, gains, sigmas, noise_var, D, cluster_of, draws):
    """Cluster 0's squared error per draw (draws,) through the implemented uplink.

    normalize_gradient -> uplink -> estimate_cluster_gradient, with
    denoisers (lam, 1) and cluster 1's gain row constant. Device k's
    gradient is a random mean plus sigmas[k] times a standardized random
    direction, so it reports std sigmas[k], and the expected squared
    error given the gains is conditional_mse.
    """
    K = powers.size
    direction = rng.standard_normal((draws, K, D))
    direction -= direction.mean(axis=2, keepdims=True)
    direction /= direction.std(axis=2, keepdims=True)
    grads = rng.standard_normal((draws, K, 1)) + sigmas[:, None] * direction
    normalized = normalize_gradient(grads)
    rows = np.broadcast_to(np.stack([gains, np.ones_like(gains)]), (draws, 2, K))
    received = uplink(
        rows, np.broadcast_to(powers, (draws, K)), normalized, noise_var,
        rng.standard_normal((draws, 2, D)),
    )
    estimate = estimate_cluster_gradient(
        received, np.broadcast_to([lam, 1.0], (draws, 2)), normalized.mean, cluster_of
    )
    truth = cluster_average(grads, cluster_of, 2)
    return np.sum((estimate[:, 0] - truth[:, 0]) ** 2, axis=1)


def test_criterion_3_denoiser_matches_numeric_minimum():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        powers, gains, sigmas, noise_var, cluster_of = _random_mse_instance(rng)
        lam = _cluster0_denoiser(powers, gains, sigmas, noise_var, cluster_of)

        def f(x):
            return _cluster0_mse(powers, x, gains, sigmas, noise_var, 6, cluster_of)[0]

        grid = np.logspace(-4, 4, 400)
        values = _cluster0_mse(powers, grid, gains, sigmas, noise_var, 6, cluster_of)
        i = int(np.argmin(values))
        assert 0 < i < len(grid) - 1
        res = optimize.minimize_scalar(
            f, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden",
            options={"xtol": 1e-12},
        )
        worst = max(worst, abs(lam - res.x) / abs(res.x))
    form_ok = worst < 1e-6

    # Noise-term adjudication: the error of the implemented uplink must
    # side with the half-variance real-noise constant and reject the
    # full-variance alternative.
    half_ok = True
    full_rejected = True
    for trial in range(5):
        arng = np.random.default_rng(9000 + trial)
        powers, gains, sigmas, _, cluster_of = _random_mse_instance(arng)
        noise_var = 2.0
        lam = _cluster0_denoiser(powers, gains, sigmas, noise_var, cluster_of)
        draws = 200_000
        D = 6
        sq = _cluster0_sq_error(arng, powers, lam, gains, sigmas, noise_var, D, cluster_of, draws)
        mc, se = sq.mean(), sq.std(ddof=1) / np.sqrt(draws)
        closed = _cluster0_mse(powers, lam, gains, sigmas, noise_var, D, cluster_of)[0]
        alt = closed + D * (noise_var - noise_var / 2.0) / lam**2
        half_ok &= abs(mc - closed) <= 3 * se
        full_rejected &= abs(mc - alt) > 3 * se

    ok = form_ok and half_ok and full_rejected
    _report(
        3,
        "closed-form denoiser optimality",
        ok,
        f"worst relative gap to golden-section argmin {worst:.2e}; "
        f"noise constant adjudicated on 5 instances",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. closed-form conditional error vs simulation
# ---------------------------------------------------------------------------

def test_criterion_4_error_formula_matches_simulation():
    rng = np.random.default_rng(404)
    D = 5
    worst_sigma_gap = 0.0
    ok = True
    for trial in range(20):
        powers, gains, sigmas, noise_var, cluster_of = _random_mse_instance(rng)
        lam_star = _cluster0_denoiser(powers, gains, sigmas, noise_var, cluster_of)
        lam = lam_star if trial % 2 == 0 else float(rng.uniform(0.2, 5.0))
        draws = 100_000
        sq = _cluster0_sq_error(rng, powers, lam, gains, sigmas, noise_var, D, cluster_of, draws)
        mc, se = sq.mean(), sq.std(ddof=1) / np.sqrt(draws)
        closed = _cluster0_mse(powers, lam, gains, sigmas, noise_var, D, cluster_of)[0]
        gap = abs(mc - closed) / se
        worst_sigma_gap = max(worst_sigma_gap, gap)
        ok &= gap <= 3.0
    _report(
        4,
        "conditional error closed form",
        ok,
        f"20 instances x {draws} draws, worst gap {worst_sigma_gap:.2f} se",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. power-control solver vs exhaustive grid
# ---------------------------------------------------------------------------

def test_criterion_5_solver_matches_grid_optimum():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    ratios = []
    for _ in range(50):
        cluster_of = np.array([0, 0, 1])
        gains = rng.uniform(-0.5, 0.5, size=(2, 3))
        for m in range(2):
            idx = np.flatnonzero(cluster_of == m)
            gains[m, idx] = rng.uniform(0.3, 1.2, size=idx.size)
        sigmas = rng.uniform(0.5, 1.5, size=3)
        noise_var = float(rng.uniform(0.01, 0.3))
        max_power = rng.uniform(0.5, 2.0, size=3)
        prob = assemble_ratio_problem(gains[None], sigmas[None], noise_var, cluster_of, max_power)
        sol = solve_projected_ascent(prob, [11])
        ref = brute_force_oracle(prob, grid_points=60)
        ratios.append(sol.objective[0] / ref.objective[0])
    elapsed = time.perf_counter() - start
    ok = min(ratios) >= 0.995 and elapsed < 30.0
    _report(
        5,
        "quadratic-transform power control",
        ok,
        f"50 instances, min objective ratio vs 60^3 grid {min(ratios):.5f}, "
        f"{elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. estimation-error sweep trends
# ---------------------------------------------------------------------------

def test_criterion_6_sweep_trends():
    cfg = desk_scale_config()
    schemes = ["unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase"]
    start = time.perf_counter()
    res = nmse_sweep(cfg, schemes, list(DESK_N_VALUES), list(DESK_P_VALUES), trials=500)
    elapsed = time.perf_counter() - start

    # (a) the designed schemes improve strictly with surface size.
    decreasing_ok = True
    for scheme in ("unbiased", "mmse"):
        for p in DESK_P_VALUES:
            cells = [res.cell(n, p, scheme) for n in DESK_N_VALUES]
            for lo, hi in zip(cells[1:], cells[:-1]):
                gap = hi.nmse_mean - lo.nmse_mean
                limit = 3.0 * math.hypot(hi.nmse_stderr, lo.nmse_stderr)
                decreasing_ok &= gap > limit

    # (b) the statistical design decays like a power law at large N.
    p_hi = max(DESK_P_VALUES)
    c128 = res.cell(128, p_hi, "unbiased")
    c256 = res.cell(256, p_hi, "unbiased")
    slope = (math.log(c256.nmse_mean) - math.log(c128.nmse_mean)) / (
        math.log(256) - math.log(128)
    )
    slope_ok = -2.5 <= slope <= -0.5

    # (c) random phases stay flat across N.
    flat_ok = True
    for p in DESK_P_VALUES:
        logs = [math.log(res.cell(n, p, "random-phase").nmse_mean) for n in DESK_N_VALUES]
        flat_ok &= (max(logs) - min(logs)) < 0.2

    # (d) one-bit phase control degrades gracefully.
    quant_ok = True
    worst_quant = 0.0
    for scheme in ("unbiased", "mmse"):
        for p in DESK_P_VALUES:
            for n in DESK_N_VALUES:
                ratio = (
                    res.cell(n, p, f"{scheme}-1bit").nmse_mean
                    / res.cell(n, p, scheme).nmse_mean
                )
                worst_quant = max(worst_quant, ratio)
                quant_ok &= ratio < 10.0

    ok = decreasing_ok and slope_ok and flat_ok and quant_ok and elapsed < 600.0
    _report(
        6,
        "surface-size sweep trends",
        ok,
        f"slope(128->256, P={p_hi}) {slope:.2f}, worst 1-bit ratio "
        f"{worst_quant:.2f}x, {elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. end-to-end personalized training
# ---------------------------------------------------------------------------

def test_criterion_7_personalized_training():
    cfg = _two_cluster_config(N=256, D=32, noise_var=1e-10, seed=11)
    tasks, _ = synth_clustered_tasks(cfg, 50, 0.1, task_seed=cfg.master_seed)
    rounds, eta = 300, 0.08

    hist_ideal = run_training(cfg, tasks, "ideal", rounds=rounds, eta=eta)
    hist_unb = run_training(cfg, tasks, "unbiased", rounds=rounds, eta=eta)

    summed_ideal = hist_ideal.losses.sum(axis=1)
    mono_ok = bool(np.all(np.diff(summed_ideal) <= 1e-9))

    final_ideal = float(summed_ideal[-1])
    final_unb = float(hist_unb.losses[-1].sum())
    ratio = final_unb / final_ideal
    near_ideal_ok = 0.9 <= ratio <= 1.1

    # Single-global-model ablation: same data, one shared model; give
    # the ablation a noiseless channel so only personalization differs.
    cfg_global = cfg.replace(num_clusters=1, cluster_of=np.zeros(8, dtype=int))
    hist_global = run_training(cfg_global, tasks, "ideal", rounds=rounds, eta=eta)
    w_global = hist_global.final_weights[0]
    members = [np.flatnonzero(cfg.cluster_of == m) for m in range(cfg.num_clusters)]
    summed_global = sum(float(local_loss(w_global, tasks)[idx].mean()) for idx in members)
    improvement = 1.0 - final_unb / summed_global
    personalization_ok = improvement > 0.20

    wins = 0
    for s in range(10):
        cfg_s = _two_cluster_config(N=256, D=32, noise_var=1e-10, seed=100 + s)
        data_s, _ = synth_clustered_tasks(cfg_s, 50, 0.1, task_seed=cfg_s.master_seed)
        unb = run_training(cfg_s, data_s, "unbiased", rounds=rounds, eta=eta)
        rnd = run_training(cfg_s, data_s, "random-phase", rounds=rounds, eta=eta)
        if rnd.losses[-1].sum() > unb.losses[-1].sum():
            wins += 1
    baseline_ok = wins >= 9

    ok = mono_ok and near_ideal_ok and personalization_ok and baseline_ok
    _report(
        7,
        "personalized training loop",
        ok,
        f"analog/ideal loss ratio {ratio:.4f}, personalization gain "
        f"{improvement:.1%}, random-phase worse in {wins}/10 paired seeds",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path, capsys):
    system_doc = {
        "num_devices": 6,
        "num_clusters": 2,
        "num_ris_elements": 8,
        "model_dim": 4,
        "cluster_of": [0, 0, 0, 1, 1, 1],
        "max_power": [1.0] * 6,
        "noise_var": 1e-9,
        "master_seed": 3,
    }
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(system_doc))
    sweep_doc = {
        "system": system_doc,
        "schemes": ["unbiased", "mmse"],
        "n_values": [4, 8],
        "p_values": [1.0],
        "trials": 40,
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_doc))
    prob_doc = {
        "A": [[1.0, 0.5], [0.2, 1.0]],
        "b": [[1.0, 0.3], [0.4, 1.2]],
        "c": [0.5, 0.7],
        "bounds": [1.0, 1.0],
    }
    prob_path = tmp_path / "prob.json"
    prob_path.write_text(json.dumps(prob_doc))

    commands = {
        "nmse-sweep": lambda out: [
            "nmse-sweep", "--config", str(sweep_path), "--seed", "5", "--out", out,
        ],
        "verify-elimination": lambda out: [
            "verify-elimination", "--config", str(system_path), "--trials", "4000",
            "--seed", "5", "--out", out,
        ],
        "power-opt": lambda out: [
            "power-opt", "--config", str(prob_path), "--seed", "5", "--out", out,
        ],
        "train": lambda out: [
            "train", "--config", str(system_path), "--scheme", "mmse",
            "--rounds", "10", "--eta", "0.05", "--seed", "5", "--out", out,
        ],
    }

    ok = True
    for name, build in commands.items():
        out_a = tmp_path / f"{name}-a.out"
        out_b = tmp_path / f"{name}-b.out"
        code_a = cli_main(build(str(out_a)))
        text_a = capsys.readouterr().out
        code_b = cli_main(build(str(out_b)))
        text_b = capsys.readouterr().out
        same = (
            code_a == 0
            and code_b == 0
            and text_a == text_b
            and out_a.read_bytes() == out_b.read_bytes()
        )
        ok &= same
    with capsys.disabled():
        _report(8, "deterministic command-line runs", ok, "4 subcommands, 2 runs each")
    assert ok
