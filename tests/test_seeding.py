"""Seed-derivation contract: stable, collision-resistant, typed."""

import numpy as np
import pytest

from airpfl.seeding import derive_seed, rng_from_seed


def test_same_path_same_seed():
    a = derive_seed(7, "round-channel", 3)
    b = derive_seed(7, "round-channel", 3)
    assert a == b


def test_different_paths_differ():
    seen = {
        derive_seed(7, "round-channel", 3),
        derive_seed(7, "round-channel", 4),
        derive_seed(7, "round-noise", 3),
        derive_seed(8, "round-channel", 3),
        derive_seed(7, "round-channel"),
        derive_seed(7),
    }
    assert len(seen) == 6


def test_string_and_int_parts_do_not_collide():
    assert derive_seed(0, "3") != derive_seed(0, 3)


def test_order_matters():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_result_fits_in_uint64():
    for trial in range(50):
        s = derive_seed(123, "stream", trial)
        assert 0 <= s < 2**64


def test_unsupported_part_type_raises():
    for part in (object(), 0.1):
        with pytest.raises(TypeError):
            derive_seed(1, part)


def test_rng_from_seed_reproducible():
    x = rng_from_seed(99).standard_normal(8)
    y = rng_from_seed(99).standard_normal(8)
    assert np.array_equal(x, y)


def test_rng_streams_independent_enough():
    # Two sibling streams should not produce identical output.
    x = rng_from_seed(derive_seed(4, "a")).standard_normal(8)
    y = rng_from_seed(derive_seed(4, "b")).standard_normal(8)
    assert not np.allclose(x, y)
