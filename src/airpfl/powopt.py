"""Sum-MSE power control as a sum of quadratic ratios.

Substituting the adaptive denoiser into each cluster's conditional MSE
leaves, up to a constant, a sum of ratios in q = sqrt(p):

    maximize  sum_m max(q^T b_m, 0)^2 / (q^T diag(a_m) q + c_m)
    subject to 0 <= q_k <= sqrt(P_k),

with a_m[k] = |cluster m|^2 * h_{m,k}^2 * E[x_k^2],
b_m[k] = h_{m,k} * E[x_k g_k] on cluster m's support (0 elsewhere), and
c_m = |cluster m|^2 * noise_var / 2, for T trials at once, the moments
being those of `control.symbol_moments`. Each ratio is the error
reduction, per model coordinate, that the adaptive denoiser recovers
below cluster m's signal-free floor. A cluster whose own signal q^T b_m
is negative gets the infinite denoiser and recovers nothing, so it
scores zero. The problem is non-convex, so the solver runs the
quadratic transform of Shen & Yu (IEEE TSP 2018) from several starts
per trial and keeps the best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import symbol_moments
from .seeding import rng_from_seed
from .sysmodel import ConfigError, membership

STARTS = 8         # the all-bounds corner, then uniform-random feasible points
MAX_ITERS = 2000
RTOL = 1e-12       # a start stops once an iteration raises its objective by at most this


@dataclass(frozen=True)
class RatioProblem:
    """Data of T sum-of-ratios programs in the q = sqrt(p) domain.

    Every entry must be finite, the quadratic terms and constants
    non-negative and the bounds positive (ConfigError otherwise).
    """

    a_diag: np.ndarray  # (T, M, K) non-negative
    b: np.ndarray       # (T, M, K), row m supported on cluster m
    c: np.ndarray       # (M,) non-negative
    bounds: np.ndarray  # (K,) positive, upper box bounds on q

    def __post_init__(self):
        shapes = (self.b.shape, self.a_diag.shape[1:])
        if shapes != (self.a_diag.shape, self.c.shape + self.bounds.shape):
            raise ConfigError("need shapes a_diag, b (T, M, K), c (M,) and bounds (K,)")
        for name in ("a_diag", "b", "c", "bounds"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"ratio problem {name} has a non-finite entry")
        if (self.a_diag < 0).any():
            raise ConfigError("ratio denominators need non-negative quadratic terms")
        if (self.c < 0).any():
            raise ConfigError("ratio denominators need non-negative constants")
        if (self.bounds <= 0).any():
            raise ConfigError("bounds must be positive")


@dataclass(frozen=True)
class AscentResult:
    q: np.ndarray          # (T, K) best amplitudes per trial
    objective: np.ndarray  # (T,)
    converged: bool        # every start of every trial met the stopping rule
    iterations: int


def assemble_ratio_problem(
    gains: np.ndarray,
    sigmas: np.ndarray,
    noise_var: float,
    cluster_of: np.ndarray,
    max_power: np.ndarray,
) -> RatioProblem:
    """Build the T ratio programs from realized (T, M, K) gains and (T, K) stds."""
    gains = np.asarray(gains, dtype=float)
    second, mixed, _ = symbol_moments(sigmas)
    own = membership(cluster_of, gains.shape[1])
    sizes = own.sum(axis=1)
    a_diag = (sizes**2)[:, None] * gains**2 * second[:, None, :]
    b = np.where(own, gains * mixed[:, None, :], 0.0)
    c = sizes**2 * noise_var / 2.0
    return RatioProblem(
        a_diag=a_diag, b=b, c=c, bounds=np.sqrt(np.asarray(max_power, dtype=float))
    )


def _numerators_denominators(prob: RatioProblem, q: np.ndarray):
    """max(b_m . q, 0) and q^T diag(a_m) q + c_m, both (T, S, M), at q (T, S, K) or (S, K)."""
    num = np.maximum(q @ prob.b.transpose(0, 2, 1), 0.0)
    den = q**2 @ prob.a_diag.transpose(0, 2, 1) + prob.c
    return num, den


def _sum_of_ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    terms = np.divide(num**2, den, out=np.zeros_like(num), where=den > 0)
    return terms.sum(axis=-1)


def objective(prob: RatioProblem, q: np.ndarray) -> np.ndarray:
    """Sum over clusters of max(q^T b_m, 0)^2 / (q^T diag(a_m) q + c_m), per trial.

    q is (T, K); returns (T,). At p = q^2 this is the summed floor minus
    the summed conditional MSE under the adaptive denoiser (infinite
    where a cluster's signal vanishes or is anti-aligned), divided by
    the model size.
    """
    q = np.asarray(q, dtype=float)
    return _sum_of_ratios(*_numerators_denominators(prob, q[:, None, :]))[:, 0]


def _transform_step(prob: RatioProblem, q: np.ndarray) -> np.ndarray:
    """Next points (T, S, K) of the quadratic-transform iteration from q (T, S, K).

    With y_m = max(b_m . q, 0) / (q^T diag(a_m) q + c_m) fixed, the
    surrogate sum_m 2 y_m (b_m . p) - y_m^2 (p^T diag(a_m) p + c_m) is
    at most the objective at p (with y_m >= 0, each term is at most
    max(b_m . p, 0)^2 / den_m(p)), equals it at p = q (y_m = 0 matches
    an anti-aligned cluster's score 0) and is separable in p, so its
    box maximizer (closed-form per device) never lowers the objective.
    """
    num, den = _numerators_denominators(prob, q)
    y = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    lin = y @ prob.b
    quad = y**2 @ prob.a_diag
    flat = np.where(lin > 0, prob.bounds, 0.0)  # surrogate linear in q_k
    step = np.divide(lin, quad, out=flat, where=quad > 0)
    return np.clip(step, 0.0, prob.bounds)


def solve_projected_ascent(prob: RatioProblem, seeds) -> AscentResult:
    """Quadratic-transform ascent over the power box, trial t seeded by seeds[t].

    Each trial starts from the all-bounds corner plus STARTS - 1
    uniform-random feasible points drawn from rng_from_seed(seeds[t]).
    A start stops once an iteration raises its objective by at most
    RTOL relative and is then frozen; converged is True when every
    start of every trial stopped within MAX_ITERS iterations. Each
    trial returns its best start. A trial's result does not depend on
    the other trials in the batch.
    """
    T, _, K = prob.a_diag.shape
    if len(seeds) != T:
        raise ValueError(f"need one seed per trial ({T}), got {len(seeds)}")
    q = np.empty((T, STARTS, K))
    for t, seed in enumerate(seeds):
        q[t, 0] = prob.bounds
        q[t, 1:] = rng_from_seed(seed).random((STARTS - 1, K)) * prob.bounds
    f = _sum_of_ratios(*_numerators_denominators(prob, q))
    active = np.ones((T, STARTS), dtype=bool)
    iterations = 0
    while active.any() and iterations < MAX_ITERS:
        iterations += 1
        q_new = _transform_step(prob, q)
        f_new = _sum_of_ratios(*_numerators_denominators(prob, q_new))
        rise = f_new - f
        take = active & (rise > 0)
        active &= rise > RTOL * np.abs(f)
        q = np.where(take[..., None], q_new, q)
        f = np.where(take, f_new, f)
    best = (np.arange(T), np.argmax(f, axis=1))
    return AscentResult(
        q=q[best], objective=f[best], converged=not active.any(), iterations=iterations
    )
