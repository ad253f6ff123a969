"""Sum-of-ratios power optimization in the amplitude domain."""

import numpy as np
import pytest

from airpfl.control import conditional_mse, mmse_denoising
from airpfl.powopt import (
    RatioProblem,
    assemble_ratio_problem,
    brute_force_oracle,
    objective,
    objective_gradient,
    solve_projected_ascent,
)


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


def test_assemble_structure():
    rng = np.random.default_rng(2)
    gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
    prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
    assert prob.a_diag.shape == (2, 3)
    assert np.allclose(prob.a_diag[0], 4 * gains[0] ** 2 * sigmas**2)
    assert np.allclose(prob.b[0, :2], gains[0, :2] * sigmas[:2] ** 3)
    assert prob.b[0, 2] == 0.0  # cross-cluster devices carry no signal term
    assert prob.c[0] == pytest.approx(4 * noise_var / 2)
    assert prob.c[1] == pytest.approx(1 * noise_var / 2)
    assert np.allclose(prob.bounds, np.sqrt(max_power))


def test_problem_rejects_negative_terms():
    with pytest.raises(ValueError):
        RatioProblem(
            a_diag=np.array([[-1.0]]), b=np.ones((1, 1)), c=np.zeros(1), bounds=np.ones(1)
        )
    with pytest.raises(ValueError):
        RatioProblem(
            a_diag=np.ones((1, 1)), b=np.ones((1, 1)), c=np.array([-0.1]), bounds=np.ones(1)
        )
    with pytest.raises(ValueError):
        RatioProblem(
            a_diag=np.ones((1, 1)), b=np.ones((1, 1)), c=np.zeros(1), bounds=np.zeros(1)
        )


def test_objective_at_zero_is_zero():
    prob = RatioProblem(
        a_diag=np.array([[1.0, 2.0]]),
        b=np.array([[1.0, 0.0]]),
        c=np.array([0.5]),
        bounds=np.ones(2),
    )
    assert objective(prob, np.zeros(2)) == 0.0
    zero_c = RatioProblem(
        a_diag=np.array([[1.0, 2.0]]),
        b=np.array([[1.0, 0.0]]),
        c=np.array([0.0]),
        bounds=np.ones(2),
    )
    assert objective(zero_c, np.zeros(2)) == 0.0


def test_objective_equals_recovered_error_reduction():
    # For any positive transmit amplitudes, each ratio equals the gap
    # between the error floor and the adaptively denoised error, per
    # model coordinate. The objective is therefore the summed gap.
    rng = np.random.default_rng(7)
    D = 12
    for _ in range(25):
        gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
        prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
        q = rng.uniform(0.05, 1.0, size=3) * prob.bounds
        powers = q**2
        total = 0.0
        for m in range(2):
            own = np.flatnonzero(cluster_of == m)
            lam = mmse_denoising(powers, gains[m], sigmas, noise_var, cluster_of, m)
            mse = conditional_mse(
                powers, lam, gains[m], sigmas, noise_var, D, cluster_of, m
            )
            floor = np.sum(sigmas[own] ** 4) * D / own.size**2
            total += (floor - mse) / D
        assert objective(prob, q) == pytest.approx(total, rel=1e-9)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
        prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
        q = rng.uniform(0.1, 1.0, size=3)
        grad = objective_gradient(prob, q)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (objective(prob, q + e) - objective(prob, q - e)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_solver_stays_feasible_and_deterministic():
    rng = np.random.default_rng(13)
    gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
    prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
    a = solve_projected_ascent(prob, seed=5)
    b = solve_projected_ascent(prob, seed=5)
    assert np.array_equal(a.q, b.q)
    assert a.objective == b.objective
    assert np.all(a.q >= -1e-15)
    assert np.all(a.q <= prob.bounds + 1e-12)
    # The all-bounds corner is one of the starts, so the returned
    # objective can never fall below it.
    assert a.objective >= objective(prob, prob.bounds) - 1e-12


def test_solver_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        gains, sigmas, noise_var, cluster_of, max_power = _instance(rng)
        prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
        sol = solve_projected_ascent(prob, seed=3)
        ref = brute_force_oracle(prob, grid_points=40)
        assert sol.objective >= 0.995 * ref.objective


def test_brute_force_guards_dimension():
    prob = RatioProblem(
        a_diag=np.ones((1, 5)),
        b=np.ones((1, 5)),
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
        prob = assemble_ratio_problem(gains, sigmas, noise_var, cluster_of, max_power)
        sol = solve_projected_ascent(prob, seed=23)
        base = objective(prob, np.sqrt(design.powers[0]))
        if sol.objective >= base - 1e-12:
            wins += 1
    assert wins >= 9
