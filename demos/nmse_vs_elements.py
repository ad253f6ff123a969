"""Estimation error against surface size for each aggregation scheme.

Sweeps the number of reflecting elements at a fixed power budget and
prints the Monte Carlo NMSE of the recovered cluster gradients. The
designed schemes ride down a power law as the surface grows, the
adaptive denoiser tracks or beats the statistical one, one-bit phase
quantization costs a modest constant factor, and random phases stay
flat no matter how many elements are added.

The sweep draws every surface size from one nested surface per trial
(size n is its first n elements), so the octave slope printed last
compares paired, nested surfaces rather than independent draws.
"""

import math

from airpfl.harness import desk_scale_config, nmse_sweep

SCHEMES = ["unbiased", "mmse", "mmse-1bit", "random-phase"]
N_VALUES = [16, 32, 64, 128, 256]
P_MAX = 10.0
TRIALS = 300


def main():
    cfg = desk_scale_config(master_seed=7)
    res = nmse_sweep(cfg, SCHEMES, N_VALUES, [P_MAX], trials=TRIALS)

    header = "".join(f"{s:>14}" for s in SCHEMES)
    print(f"NMSE vs surface size (P_max = {P_MAX}, {TRIALS} trials)\n")
    print(f"{'N':>5}{header}")
    for n in N_VALUES:
        cells = [res.cell(n, P_MAX, s).nmse_mean for s in SCHEMES]
        print(f"{n:>5}" + "".join(f"{v:>14.3e}" for v in cells))

    for scheme in ("unbiased", "mmse"):
        lo = res.cell(N_VALUES[-2], P_MAX, scheme).nmse_mean
        hi = res.cell(N_VALUES[-1], P_MAX, scheme).nmse_mean
        slope = (math.log(hi) - math.log(lo)) / (
            math.log(N_VALUES[-1]) - math.log(N_VALUES[-2])
        )
        print(f"\n{scheme}: log-log slope over the last octave = {slope:.2f}")


if __name__ == "__main__":
    main()
