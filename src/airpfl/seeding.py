"""Counter-based seed derivation so every random draw is reproducible.

All randomness in the package flows from a master seed through
``derive_seed(master, *path)``, where the path of ints and strings
names the purpose ("geometry", "round-channel", round index, ...).
Independent purposes get independent streams and nothing relies on
global RNG state.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"cannot use {type(part).__name__} in a seed path")


def derive_seed(master_seed: int, *path) -> int:
    """Deterministically derive a 64-bit child seed from a master seed.

    Path elements may be ints or strings; anything else raises
    TypeError. The same (master_seed, path) always yields the same
    child seed.
    """
    parts = [_encode(master_seed)] + [_encode(p) for p in path]
    ss = np.random.SeedSequence(parts)
    return int(ss.generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived seed."""
    return np.random.default_rng(int(seed) & _MASK64)
