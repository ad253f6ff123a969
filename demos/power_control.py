"""Per-device power control on one realized channel.

Draws a single block-fading realization, configures aligned phases,
and compares two ways of setting transmit powers: the statistics-only
unbiased design and the sum-of-ratios maximizer that sees the realized
gains. Both are scored by the closed-form conditional estimation error
with each cluster's denoiser re-optimized for the chosen powers.
"""

import numpy as np

from airpfl.channel import all_cascaded_gains, large_scale_coefficients, sample_small_scale
from airpfl.control import adaptive_denoisers, conditional_mse, unbiased_design
from airpfl.powopt import assemble_ratio_problem, solve_projected_ascent
from airpfl.ris import configure_aligned
from airpfl.seeding import rng_from_seed
from airpfl.sysmodel import make_config, place_geometry


def total_mse(cfg, powers, gains, sigmas, fallback):
    powers, gains, sigmas = powers[None], gains[None], sigmas[None]
    lams = adaptive_denoisers(
        powers, gains, sigmas, cfg.noise_var, cfg.cluster_of, fallback[None]
    )
    return conditional_mse(
        powers, lams, gains, sigmas, cfg.noise_var, cfg.model_dim, cfg.cluster_of
    ).sum()


def main():
    cfg = make_config(
        num_devices=6,
        num_clusters=2,
        num_ris_elements=64,
        model_dim=16,
        cluster_of=[0, 0, 0, 1, 1, 1],
        max_power=np.full(6, 0.5),
        noise_var=1e-9,
        master_seed=5,
    )
    geom = place_geometry(cfg, cfg.master_seed)
    beta = large_scale_coefficients(geom, cfg.pathloss_exponent)
    M, N = cfg.num_clusters, cfg.num_ris_elements
    def aligned(draw):
        """The draw's one phase configuration: aligned on its own paths and cluster sums."""
        return [configure_aligned(draw)]

    ch = sample_small_scale(rng_from_seed(5), 1, M, cfg.cluster_of, N, aligned)
    gains = all_cascaded_gains(ch, beta)[0, 0, 0]

    rng = np.random.default_rng(5)
    sigmas = rng.uniform(0.5, 1.5, size=cfg.num_devices)

    stat = unbiased_design(
        beta, sigmas[None], cfg.max_power, cfg.model_dim, cfg.num_ris_elements, cfg.cluster_of
    )
    stat_powers, stat_denoisers = stat.powers[0], stat.denoisers[0]
    prob = assemble_ratio_problem(
        gains[None], sigmas[None], cfg.noise_var, cfg.cluster_of, cfg.max_power
    )
    opt_powers = solve_projected_ascent(prob, [5]).q[0] ** 2

    print("per-device transmit power (budget 0.5 each)")
    print(f"{'device':>6} {'statistical':>12} {'optimized':>12}")
    for k in range(cfg.num_devices):
        print(f"{k:>6} {stat_powers[k]:>12.4f} {opt_powers[k]:>12.4f}")

    mse_stat = total_mse(cfg, stat_powers, gains, sigmas, stat_denoisers)
    mse_opt = total_mse(cfg, opt_powers, gains, sigmas, stat_denoisers)
    print(f"\nsummed conditional MSE, statistical powers: {mse_stat:.6e}")
    print(f"summed conditional MSE, optimized powers:   {mse_opt:.6e}")
    print(f"reduction: {1.0 - mse_opt / mse_stat:.1%}")


if __name__ == "__main__":
    main()
