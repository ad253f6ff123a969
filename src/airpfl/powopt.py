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
per trial and keeps the best. Each start advances in cycles of two
transform steps, a squared extrapolation (SQUAREM, Varadhan & Roland,
Scand. J. Statist. 2008) clipped to the box and one stabilizing step,
and keeps the extrapolated point only where it does at least as well as
the two plain steps, so every start still rises monotonically. Starts
leave the working arrays as they stop, so a batch costs what its slow
starts cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import symbol_moments
from .seeding import rng_from_seed
from .sysmodel import ConfigError, membership

STARTS = 8         # the all-bounds corner, then uniform-random feasible points
MAX_ITERS = 2000   # cycles per start, each of three transform steps
RTOL = 1e-12       # a start stops once a plain step raises its objective by at most this


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
    iterations: int        # cycles run by the batch's slowest start, at most MAX_ITERS


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


def _ratios(a_diag: np.ndarray, b: np.ndarray, c: np.ndarray, q: np.ndarray):
    """Weights y (..., M) and objective (...) at amplitudes q (..., K).

    y_m = max(b_m . q, 0) / (q^T diag(a_m) q + c_m), 0 where the
    denominator is 0, and the objective is sum_m y_m max(b_m . q, 0).
    a_diag and b are (..., M, K) and broadcast against q[..., None, :].
    Every sum runs over one row's own entries, so a row's values do not
    depend on the rows beside it.
    """
    q = q[..., None, :]
    num = np.maximum((q * b).sum(axis=-1), 0.0)
    den = (q**2 * a_diag).sum(axis=-1) + c
    y = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return y, (y * num).sum(axis=-1)


def objective(prob: RatioProblem, q: np.ndarray) -> np.ndarray:
    """Sum over clusters of max(q^T b_m, 0)^2 / (q^T diag(a_m) q + c_m), per trial.

    q is (T, K); returns (T,). At p = q^2 this is the summed floor minus
    the summed conditional MSE under the adaptive denoiser (infinite
    where a cluster's signal vanishes or is anti-aligned), divided by
    the model size.
    """
    return _ratios(prob.a_diag, prob.b, prob.c, np.asarray(q, dtype=float))[1]


def _transform_step(a_diag, b, bounds, y):
    """The quadratic-transform step (R, K) from a point whose weights are y (R, M).

    With y_m fixed, the surrogate sum_m 2 y_m (b_m . p) - y_m^2 (p^T
    diag(a_m) p + c_m) is at most the objective at p (with y_m >= 0, each
    term is at most max(b_m . p, 0)^2 / den_m(p)), equals it at the
    point y was taken at (y_m = 0 matches an anti-aligned cluster's
    score 0) and is separable in p, so its box maximizer (closed-form
    per device) never lowers the objective.
    """
    lin = (y[..., None] * b).sum(axis=-2)
    quad = (y[..., None] ** 2 * a_diag).sum(axis=-2)
    flat = np.where(lin > 0, bounds, 0.0)  # surrogate linear in q_k
    step = np.divide(lin, quad, out=flat, where=quad > 0)
    return np.minimum(np.maximum(step, 0.0), bounds)


def solve_projected_ascent(prob: RatioProblem, seeds) -> AscentResult:
    """Quadratic-transform ascent over the power box, trial t seeded by seeds[t].

    Each trial starts from the all-bounds corner plus STARTS - 1
    uniform-random feasible points drawn from rng_from_seed(seeds[t]).
    A cycle from q takes the plain steps q1 = F(q) and q2 = F(q1), then
    the SQUAREM point q + 2 s r + s^2 v clipped to the box, with r =
    q1 - q, v = q2 - 2 q1 + q and s = |r| / |v| held to [1, s_max]
    (s = 1 where |v| is rounding noise against |r|: the point is q2),
    then the stabilizing step F of that point. The cycle ends there if
    that does at least as well as q2, and at q2 otherwise. s_max starts
    at 1 per start and grows fourfold after a capped jump is kept,
    shrinking fourfold (not below 1) after one is not. A start stops
    once either plain step raises its objective by at most RTOL
    relative, at the best of q, q1 and q2, and leaves the working
    arrays; converged is True when every start of every trial stopped
    within MAX_ITERS cycles. Each trial returns its best start, which
    does not depend on the other trials in the batch.
    """
    T, _, K = prob.a_diag.shape
    if len(seeds) != T:
        raise ValueError(f"need one seed per trial ({T}), got {len(seeds)}")
    q = np.empty((T, STARTS, K))
    for t, seed in enumerate(seeds):
        q[t, 0] = prob.bounds
        q[t, 1:] = rng_from_seed(seed).random((STARTS - 1, K)) * prob.bounds
    q = q.reshape(T * STARTS, K)
    a_diag, b = np.repeat(prob.a_diag, STARTS, axis=0), np.repeat(prob.b, STARTS, axis=0)
    bounds, c = prob.bounds, prob.c
    q_out, f_out = q.copy(), np.empty(T * STARTS)
    rows = np.arange(T * STARTS)  # the (trial, start) of each working row
    y, f = _ratios(a_diag, b, c, q)
    s_max = np.ones(T * STARTS)
    cycles = 0
    while rows.size and cycles < MAX_ITERS:
        cycles += 1
        q1 = _transform_step(a_diag, b, bounds, y)
        y1, f1 = _ratios(a_diag, b, c, q1)
        q2 = _transform_step(a_diag, b, bounds, y1)
        y2, f2 = _ratios(a_diag, b, c, q2)
        r, v = q1 - q, q2 - 2.0 * q1 + q
        r_norm, v_norm = np.sqrt((r * r).sum(axis=-1)), np.sqrt((v * v).sum(axis=-1))
        s = np.divide(r_norm, v_norm, out=np.ones_like(r_norm),
                      where=v_norm > np.finfo(float).eps * r_norm)
        s = np.minimum(np.maximum(s, 1.0), s_max)
        jump = np.clip(q + 2.0 * s[:, None] * r + (s**2)[:, None] * v, 0.0, bounds)
        q3 = _transform_step(a_diag, b, bounds, _ratios(a_diag, b, c, jump)[0])
        y3, f3 = _ratios(a_diag, b, c, q3)
        kept = f3 >= f2
        s_max = np.where(s == s_max, np.maximum(np.where(kept, 4.0, 0.25) * s_max, 1.0), s_max)

        done = (f1 - f <= RTOL * np.abs(f)) | (f2 - f1 <= RTOL * np.abs(f1))
        if done.any():
            plain = np.stack([f, f1, f2])[:, done]
            best = (np.argmax(plain, axis=0), np.arange(plain.shape[1]))
            q_out[rows[done]] = np.stack([q, q1, q2])[:, done][best]
            f_out[rows[done]] = plain[best]
        q, y = np.where(kept[:, None], q3, q2), np.where(kept[:, None], y3, y2)
        f = np.maximum(f3, f2)
        if done.any():
            live = ~done
            rows, q, y, f, s_max = rows[live], q[live], y[live], f[live], s_max[live]
            a_diag, b = a_diag[live], b[live]
    q_out[rows], f_out[rows] = q, f
    best = (np.arange(T), np.argmax(f_out.reshape(T, STARTS), axis=1))
    return AscentResult(
        q=q_out.reshape(T, STARTS, K)[best],
        objective=f_out.reshape(T, STARTS)[best],
        converged=not rows.size,
        iterations=cycles,
    )
