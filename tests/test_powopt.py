"""Sum-of-ratios power optimization in the amplitude domain."""

import numpy as np
import pytest

from airpfl.aircomp import normalize_gradient
from airpfl.channel import all_cascaded_gains, large_scale_coefficients, sample_small_scale
from airpfl.control import adaptive_denoisers, conditional_mse
from airpfl.harness import desk_scale_config
from airpfl.powopt import (
    RTOL,
    STARTS,
    RatioProblem,
    assemble_ratio_problem,
    objective,
    solve_projected_ascent,
)
from airpfl.seeding import rng_from_seed
from airpfl.sysmodel import ConfigError, place_geometry
from full_channel import aligned
from power_oracle import brute_force_oracle


def _instance(rng, K=3, M=2, noise_var=None):
    cluster_of = np.array([0, 0, 1])[:K] if K == 3 else np.sort(np.arange(K) % M)
    gains = rng.uniform(-0.5, 0.5, size=(M, K))
    for m in range(M):
        own = np.flatnonzero(cluster_of == m)
        gains[m, own] = rng.uniform(0.3, 1.2, size=own.size)
    sigmas = rng.uniform(0.5, 1.5, size=K)
    if noise_var is None:
        noise_var = rng.uniform(0.01, 0.3)
    max_power = rng.uniform(0.5, 2.0, size=K)
    return gains, sigmas, noise_var, cluster_of, max_power


def _problem(rng):
    """One random 3-device instance as a batch of one trial."""
    gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
    return assemble_ratio_problem(gains[None], sigmas[None], noise_var, cluster_of, max_power)


def _desk_problem(trials, seed):
    """Desk-scale instances from real draws: aligned phases, standardized gradients."""
    cfg = desk_scale_config()
    M, K, N = cfg.num_clusters, cfg.num_devices, cfg.num_ris_elements
    beta = large_scale_coefficients(place_geometry(cfg, seed), cfg.pathloss_exponent)
    rng = rng_from_seed(seed)
    ch = sample_small_scale(rng, trials, M, cfg.cluster_of, N, aligned)
    gains = all_cascaded_gains(ch, beta, 0)
    sigmas = normalize_gradient(rng.standard_normal((trials, K, cfg.model_dim))).std
    return assemble_ratio_problem(gains, sigmas, cfg.noise_var, cfg.cluster_of, cfg.max_power)


def test_assemble_structure():
    rng = np.random.default_rng(2)
    instances = [_instance(rng, noise_var=0.1) for _ in range(2)]
    gains = np.stack([inst[0] for inst in instances])
    sigmas = np.stack([inst[1] for inst in instances])
    _, _, noise_var, cluster_of, max_power = instances[0]
    prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
    assert prob.a_diag.shape == prob.b.shape == (2, 2, 3)
    for t in range(2):
        # Unit-variance symbols: a_m = |m|^2 h^2 and b_m = h sigma on cluster m.
        assert np.allclose(prob.a_diag[t, 0], 4 * gains[t, 0] ** 2)
        assert np.allclose(prob.a_diag[t, 1], 1 * gains[t, 1] ** 2)
        assert np.allclose(prob.b[t, 0, :2], gains[t, 0, :2] * sigmas[t, :2])
        assert np.allclose(prob.b[t, 1, 2], gains[t, 1, 2] * sigmas[t, 2])
        assert prob.b[t, 0, 2] == 0.0  # cross-cluster devices carry no signal term
        assert np.all(prob.b[t, 1, :2] == 0.0)
    assert prob.c[0] == pytest.approx(4 * noise_var / 2)
    assert prob.c[1] == pytest.approx(1 * noise_var / 2)
    assert np.allclose(prob.bounds, np.sqrt(max_power))


def test_problem_rejects_negative_terms():
    ones = np.ones((1, 1, 1))
    with pytest.raises(ValueError):
        RatioProblem(a_diag=-ones, b=ones, c=np.zeros(1), bounds=np.ones(1))
    with pytest.raises(ValueError):
        RatioProblem(a_diag=ones, b=ones, c=np.array([-0.1]), bounds=np.ones(1))
    with pytest.raises(ValueError):
        RatioProblem(a_diag=ones, b=ones, c=np.zeros(1), bounds=np.zeros(1))


@pytest.mark.parametrize("field", ["a_diag", "b", "c", "bounds"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_problem_rejects_non_finite_terms(field, value):
    # A NaN passes every sign check, and an infinite bound or term makes
    # the objective NaN; either would be solved and reported as converged.
    terms = dict(a_diag=np.ones((1, 2, 2)), b=np.ones((1, 2, 2)), c=np.ones(2), bounds=np.ones(2))
    terms[field] = terms[field].copy()
    terms[field].flat[-1] = value
    with pytest.raises(ConfigError, match=f"{field} has a non-finite entry"):
        RatioProblem(**terms)


def test_problem_rejects_bad_shapes():
    ones = np.ones((1, 1, 1))
    with pytest.raises(ValueError, match="shape"):
        RatioProblem(a_diag=np.ones((1, 1)), b=np.ones((1, 1)), c=np.zeros(1), bounds=np.ones(1))
    with pytest.raises(ValueError, match="shape"):
        RatioProblem(a_diag=ones, b=ones, c=np.zeros(2), bounds=np.ones(1))


def test_objective_at_zero_is_zero():
    for c in (0.5, 0.0):
        prob = RatioProblem(
            a_diag=np.array([[[1.0, 2.0]]]),
            b=np.array([[[1.0, 0.0]]]),
            c=np.array([c]),
            bounds=np.ones(2),
        )
        assert objective(prob, np.zeros((1, 2))) == 0.0


def test_objective_equals_recovered_error_reduction():
    # For any transmit amplitudes, each ratio equals the gap between the
    # error floor and the adaptively denoised error, per model
    # coordinate, so the summed error is the summed floor minus D times
    # the objective. Each instance is checked as drawn (trial 0), with
    # cluster 0 anti-aligned (trial 1: infinite denoiser, nothing
    # recovered) and with cluster 1 switched off (trial 2: no signal,
    # infinite fallback).
    rng = np.random.default_rng(7)
    D = 12
    for _ in range(25):
        gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
        q = rng.uniform(0.05, 1.0, size=3) * np.sqrt(max_power)
        gains = np.stack([gains, gains, gains])
        gains[1, 0, cluster_of == 0] *= -1.0
        q = np.stack([q, q, np.where(cluster_of == 1, 0.0, q)])
        sigmas = np.stack([sigmas] * 3)
        prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
        powers = q**2
        lam = adaptive_denoisers(
            powers, gains, sigmas, noise_var, cluster_of, np.full((3, 2), np.inf)
        )
        assert lam[1, 0] == np.inf and lam[2, 1] == np.inf
        mse = conditional_mse(powers, lam, gains, sigmas, noise_var, D, cluster_of)
        floor = sum(
            np.sum(sigmas[0, own] ** 2) * D / own.size**2
            for own in (np.flatnonzero(cluster_of == m) for m in range(2))
        )
        assert mse.sum(axis=1) == pytest.approx(floor - D * objective(prob, q), rel=1e-12)


def test_anti_aligned_cluster_is_scored_zero_and_switched_off():
    # One device per cluster; device 1's own gain is negative, so its
    # adaptive denoiser is infinite whatever its power and it recovers
    # nothing. Its power only interferes with cluster 0, so the solver
    # switches it off instead of crediting (q b_1)^2.
    prob = assemble_ratio_problem(
        np.array([[[1.0, 0.3], [0.4, -0.8]]]), np.ones((1, 2)), 0.1, np.array([0, 1]), np.ones(2)
    )
    assert objective(prob, np.array([[0.0, 1.0]]))[0] == 0.0
    sol = solve_projected_ascent(prob, [1])
    assert sol.q[0, 1] == 0.0
    assert sol.objective[0] == pytest.approx(1.0 / 1.05, rel=1e-12)
    assert brute_force_oracle(prob, grid_points=11).q[0].tolist() == [1.0, 0.0]


def test_solver_stays_feasible_and_deterministic():
    prob = _problem(np.random.default_rng(13))
    a = solve_projected_ascent(prob, [5])
    b = solve_projected_ascent(prob, [5])
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.objective, b.objective)
    assert a.q.shape == (1, 3) and a.objective.shape == (1,)
    assert np.all(a.q >= 0.0)
    assert np.all(a.q <= prob.bounds)
    assert a.objective == pytest.approx(objective(prob, a.q), rel=1e-12)
    # The all-bounds corner is one of the starts, so the returned
    # objective can never fall below it.
    assert a.objective[0] >= objective(prob, prob.bounds[None])[0] - 1e-12


def test_solver_needs_one_seed_per_trial():
    prob = _problem(np.random.default_rng(13))
    with pytest.raises(ValueError, match="one seed per trial"):
        solve_projected_ascent(prob, [1, 2])


def test_solver_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        prob = _problem(rng)
        sol = solve_projected_ascent(prob, [3])
        ref = brute_force_oracle(prob, grid_points=40)
        assert sol.objective[0] >= 0.995 * ref.objective[0]


def test_batched_solve_equals_per_trial_solves():
    prob = _desk_problem(trials=6, seed=3)
    seeds = [11, 12, 13, 14, 15, 16]
    batch = solve_projected_ascent(prob, seeds)
    for t, seed in enumerate(seeds):
        single = RatioProblem(
            a_diag=prob.a_diag[t:t + 1], b=prob.b[t:t + 1], c=prob.c, bounds=prob.bounds
        )
        alone = solve_projected_ascent(single, [seed])
        assert np.array_equal(alone.q[0], batch.q[t])
        assert alone.objective[0] == batch.objective[t]
        assert alone.iterations <= batch.iterations


def _trials(prob, idx):
    """The sub-batch of prob holding trials idx, in that order."""
    return RatioProblem(a_diag=prob.a_diag[idx], b=prob.b[idx], c=prob.c, bounds=prob.bounds)


def test_batch_mixing_fast_and_slow_trials_equals_solo_solves():
    # Rows leave the working arrays as they stop: the fast trial's rows
    # are all gone many cycles before the slow trial's last row stops,
    # and neither trial may notice the other.
    prob = _trials(_desk_problem(trials=12, seed=8), [7, 1])
    seeds = [107, 101]
    batch = solve_projected_ascent(prob, seeds)
    alone = [solve_projected_ascent(_trials(prob, [t]), [seed]) for t, seed in enumerate(seeds)]
    assert alone[0].iterations * 2 < alone[1].iterations == batch.iterations
    assert batch.converged and all(sol.converged for sol in alone)
    for t, sol in enumerate(alone):
        assert np.array_equal(sol.q[0], batch.q[t])
        assert sol.objective[0] == batch.objective[t]


def _plain_ascent(a, b, c, bounds, q, steps=20000):
    """Best objective of the plain quadratic-transform iteration from the starts q (S, K).

    Every start steps until a step raises its objective by at most RTOL
    relative, as the solver's stopping rule reads, with no
    extrapolation, for at most `steps` steps; returns the best
    objective and whether every start stopped.
    """
    def terms(q):
        num, den = np.maximum(q @ b.T, 0.0), q**2 @ a.T + c
        y = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return y, np.divide(num**2, den, out=np.zeros_like(num), where=den > 0).sum(axis=1)

    y, f = terms(q)
    active = np.ones(len(q), dtype=bool)
    for _ in range(steps):
        lin, quad = y @ b, y**2 @ a
        step = np.divide(lin, quad, out=np.where(lin > 0, bounds, 0.0), where=quad > 0)
        y_new, f_new = terms(np.clip(step, 0.0, bounds))
        take = active & (f_new > f)
        active &= f_new - f > RTOL * np.abs(f)
        y, f = np.where(take[:, None], y_new, y), np.where(take, f_new, f)
        if not active.any():
            break
    return f.max(), not active.any()


def test_solver_reaches_the_plain_iteration_optimum():
    # The extrapolated cycles are an acceleration: from the same starts,
    # no trial may end below what the plain iteration reaches.
    prob = _desk_problem(trials=12, seed=8)
    for t in range(12):
        seed = 100 + t
        sol = solve_projected_ascent(_trials(prob, [t]), [seed])
        draws = rng_from_seed(seed).random((STARTS - 1, prob.bounds.size))
        starts = np.vstack([prob.bounds, draws * prob.bounds])
        best, stopped = _plain_ascent(prob.a_diag[t], prob.b[t], prob.c, prob.bounds, starts)
        assert stopped
        assert sol.converged
        assert sol.objective[0] >= best - 1e-12 * abs(best)


def test_solver_reaches_the_plain_iteration_optimum_on_small_instances():
    # Small instances over a wide range of noise levels and budgets,
    # where an extrapolated point sometimes lands below the plain
    # steps: keeping it would end some trials below the plain
    # iteration (by up to 3e-7 relative on these). At low noise the
    # plain iteration creeps, so it runs 200 steps at most; the solver
    # must still reach what it reached.
    rng = np.random.default_rng(0)
    for seed in range(120):
        K = int(rng.integers(3, 9))
        M = 2 if K == 3 else int(rng.integers(2, 4))
        noise_var = float(10 ** rng.uniform(-6, -1))
        gains, sigmas, noise_var, cluster_of, max_power = _instance(rng, K, M, noise_var)
        max_power = max_power * 10 ** rng.uniform(-1, 1)
        prob = assemble_ratio_problem(gains[None], sigmas[None], noise_var, cluster_of, max_power)
        sol = solve_projected_ascent(prob, [seed])
        draws = rng_from_seed(seed).random((STARTS - 1, K))
        starts = np.vstack([prob.bounds, draws * prob.bounds])
        best, _ = _plain_ascent(prob.a_diag[0], prob.b[0], prob.c, prob.bounds, starts, 200)
        assert sol.objective[0] >= best - 1e-12 * abs(best)


def _ratio_sum(a, b, c, q):
    total = 0.0
    for m in range(c.size):
        den = a[m] @ q**2 + c[m]
        if den > 0:
            total += (b[m] @ q) ** 2 / den
    return total


def _one_more_step(a, b, c, bounds, q):
    """Quadratic-transform step written out per cluster and per device."""
    y = np.zeros(c.size)
    for m in range(c.size):
        den = a[m] @ q**2 + c[m]
        if den > 0:
            y[m] = (b[m] @ q) / den
    nxt = np.empty_like(q)
    for k in range(q.size):
        lin = sum(y[m] * b[m, k] for m in range(c.size))
        quad = sum(y[m] ** 2 * a[m, k] for m in range(c.size))
        if quad > 0:
            nxt[k] = min(max(lin / quad, 0.0), bounds[k])
        else:
            nxt[k] = bounds[k] if lin > 0 else 0.0
    return nxt


def test_converged_means_convergence():
    # Desk-scale gains span many orders of magnitude; converged must
    # still mean that one more step gains (almost) nothing.
    prob = _desk_problem(trials=10, seed=5)
    converged = 0
    for t in range(10):
        single = RatioProblem(
            a_diag=prob.a_diag[t:t + 1], b=prob.b[t:t + 1], c=prob.c, bounds=prob.bounds
        )
        sol = solve_projected_ascent(single, [100 + t])
        if not sol.converged:
            continue
        converged += 1
        a, b, q = prob.a_diag[t], prob.b[t], sol.q[0]
        f = _ratio_sum(a, b, prob.c, q)
        assert sol.objective[0] == pytest.approx(f, rel=1e-12)
        f_next = _ratio_sum(a, b, prob.c, _one_more_step(a, b, prob.c, prob.bounds, q))
        assert f_next - f <= 1e-9 * abs(f)
    assert converged >= 9


def test_brute_force_guards_dimension():
    prob = RatioProblem(
        a_diag=np.ones((1, 1, 5)),
        b=np.ones((1, 1, 5)),
        c=np.ones(1),
        bounds=np.ones(5),
    )
    with pytest.raises(ValueError):
        brute_force_oracle(prob)


def test_optimized_powers_do_not_lose_to_statistical_powers():
    # The solver maximizes the summed error reduction, so with the
    # adaptive denoiser its powers should beat or match the
    # statistics-only design on almost every draw.
    from airpfl.control import unbiased_design

    rng = np.random.default_rng(19)
    wins = 0
    trials = 10
    for _ in range(trials):
        gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
        beta = np.abs(gains) + 0.1
        design = unbiased_design(beta, sigmas[None], max_power, 12, 16, cluster_of)
        prob = assemble_ratio_problem(gains[None], sigmas[None], noise_var, cluster_of, max_power)
        sol = solve_projected_ascent(prob, [23])
        base = objective(prob, np.sqrt(design.powers))[0]
        if sol.objective[0] >= base - 1e-12:
            wins += 1
    assert wins >= 9
