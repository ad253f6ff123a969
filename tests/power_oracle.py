"""Exhaustive grid search over the power box, kept as a test oracle.

The simulator's power control (airpfl.powopt) runs a multi-start
quadratic-transform ascent. This helper scores every point of a dense
grid with the same objective instead, which is only affordable for a
handful of devices.
"""

import numpy as np

from airpfl.powopt import AscentResult, RatioProblem, _ratios


def brute_force_oracle(prob: RatioProblem, grid_points: int = 60) -> AscentResult:
    """Exhaustive box-grid search per trial; only viable for K <= 4.

    Evaluates the objective on a uniform grid (endpoints included) of
    grid_points values per device and returns each trial's best grid
    point.
    """
    T, _, K = prob.a_diag.shape
    if K > 4:
        raise ValueError(f"grid search over {K} devices is too large (limit 4)")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points per dimension")
    axes = [np.linspace(0.0, b, grid_points) for b in prob.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    qs = np.stack([g.reshape(-1) for g in mesh], axis=1)  # (grid_points**K, K)
    vals = _ratios(prob.a_diag[:, None], prob.b[:, None], prob.c, qs)[1]  # (T, grid_points**K)
    best = np.argmax(vals, axis=1)
    return AscentResult(
        q=qs[best], objective=vals[np.arange(T), best], converged=True, iterations=qs.shape[0]
    )
