"""Machine-speed calibration.

On a shared host the same code runs faster or slower by up to 40% from
one ten-second stretch to the next, and interpreter-bound and
numpy-bound code move together. Process CPU time moves with wall time,
so it does not help. The benchmark therefore times a small fixed kernel
next to every timed call and reports each call's time scaled to the
speed the kernel has on the reference machine:

    scaled = wall * CALIBRATION_REF_S / kernel_seconds_now

The kernel mixes what the program spends its time on: an interpreter
loop, normal draws from a numpy Generator and a complex contraction.
It is fixed; a change to the program cannot change its speed except by
changing the machine's.
"""

from __future__ import annotations

import time

import numpy as np

# About the median kernel time on the reference machine (reference.json).
CALIBRATION_REF_S = 0.001

# Set-up probes are fresh processes, and their time moves with the
# host's process start and import speed, which the kernel above does not
# follow. They are scaled instead by a fresh process that times a fixed
# set of imports (`setup_probe.py --calibrate`); this is about its
# median time on the reference machine.
IMPORTS_REF_S = 0.15

REPEATS = 3  # the fastest of these is the kernel's time


def _kernel(rng: np.random.Generator) -> None:
    total = 0
    for i in range(2_000):
        total += i * i
    z = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
    np.einsum("ij,kj->ik", z.conj(), z[:4]).real.sum()


def kernel_seconds() -> float:
    """Seconds the calibration kernel takes now (fastest of REPEATS)."""
    rng = np.random.default_rng(0)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel(rng)
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, before: float, after: float, ref: float = CALIBRATION_REF_S) -> float:
    """`seconds` at reference speed, given calibration times before and after."""
    return seconds * ref / (0.5 * (before + after))
