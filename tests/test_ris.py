"""Phase alignment, baselines, and phase quantization."""

import numpy as np
import pytest

from airpfl.channel import all_cascaded_gains
from airpfl.ris import baseline_phases, configure_aligned, corrupt_phases
from airpfl.seeding import rng_from_seed
from full_channel import channel_set, draw_full

TWO_PI = 2.0 * np.pi


def _single_link(hp_value, hd_value):
    """One trial, one surface, one element, one device, one antenna."""
    full = np.array([[[[hp_value]]]], dtype=complex), np.array([[[[hd_value]]]], dtype=complex)
    return channel_set(*full, [0], np.zeros((1, 1, 1)))


def test_single_element_alignment_is_exact():
    # One element: the aligned phase rotates the device link onto the
    # backhaul link, so the cascaded gain is the product of moduli.
    hp = 2.0 * np.exp(1j * 0.7)
    hd = 3.0 * np.exp(1j * 2.1)
    ch = _single_link(hp, hd)
    theta = configure_aligned(ch)
    assert theta.shape == (1, 1, 1)
    assert theta[0, 0, 0] == pytest.approx(np.mod(0.7 - 2.1, TWO_PI), abs=1e-12)
    gain = all_cascaded_gains(ch, np.ones((1, 1)), theta)[0, 0, 0]
    assert gain == pytest.approx(6.0, rel=1e-12)


def test_alignment_with_vanishing_sum_falls_back_to_backhaul_angle():
    ch = _single_link(np.exp(1j * 1.3), 0.0)
    theta = configure_aligned(ch)
    assert theta[0, 0, 0] == pytest.approx(1.3, abs=1e-12)


def test_phases_land_in_canonical_interval():
    T, M, K, N = 4, 3, 6, 10
    cluster_of = np.repeat(np.arange(3), 2)
    hp, hd = draw_full(np.random.default_rng(3), T, M, K, N)
    ch = channel_set(hp, hd, cluster_of, np.zeros((T, M, N)))
    theta = configure_aligned(ch)
    assert theta.shape == (T, M, N)
    assert np.all(theta >= 0.0)
    assert np.all(theta < TWO_PI)
    # Each element rotates its cluster's summed device channel onto the
    # surface-to-PS link: the own-cluster reflected terms are real and
    # non-negative element by element.
    for m in range(M):
        summed = hd[:, m, cluster_of == m, :].sum(axis=1)
        reflected = np.conj(hp[:, m, :, m]) * np.exp(1j * theta[:, m]) * summed
        assert np.allclose(reflected.imag, 0.0, atol=1e-12)
        assert np.all(reflected.real >= 0.0)


def test_own_cluster_mean_gain_matches_closed_form():
    # As drawn from unit-modulus-free fading, the aligned own-surface
    # contribution averages to pi * N / (4 * sqrt(cluster size)) per
    # unit beta. N = 16 and size 4 give exactly 2*pi.
    rng = np.random.default_rng(11)
    M, K, N = 1, 4, 16
    cluster_of = np.zeros(K, dtype=int)
    beta = np.ones((M, K))
    draws = 3000
    acc = np.zeros(K)
    acc_sq = np.zeros(K)
    for _ in range(draws):
        hp, hd = draw_full(rng, 1, M, K, N)
        ch = channel_set(hp, hd, cluster_of, np.zeros((1, M, N)))
        theta = configure_aligned(ch)
        g = all_cascaded_gains(ch, beta, theta)[0, 0]
        acc += g
        acc_sq += g**2
    mean = acc / draws
    stderr = np.sqrt((acc_sq / draws - mean**2) / (draws - 1))
    target = np.pi * N / (4.0 * np.sqrt(K))
    assert target == pytest.approx(6.283185307179586, rel=1e-15)
    assert np.all(np.abs(mean - target) <= 3.0 * stderr)


def test_random_baseline_deterministic_and_in_range():
    a = baseline_phases(rng_from_seed(9), 3, 2, 5)
    b = baseline_phases(rng_from_seed(9), 3, 2, 5)
    c = baseline_phases(rng_from_seed(10), 3, 2, 5)
    assert a.shape == (3, 2, 5)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert np.all(a >= 0.0) and np.all(a < TWO_PI)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_one_bit_rounding_examples():
    phases = np.array([[0.4 * np.pi, 0.6 * np.pi, 1.5 * np.pi, 1.6 * np.pi]])
    out = corrupt_phases(phases, bits=1)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert out[0, 1] == pytest.approx(np.pi, rel=1e-15)
    assert out[0, 2] == pytest.approx(np.pi, rel=1e-15)
    # 1.6*pi is nearer to 2*pi, which wraps back to 0.
    assert out[0, 3] == pytest.approx(0.0, abs=1e-15)


def test_tie_rounds_to_lower_level():
    out = corrupt_phases(np.array([[0.5 * np.pi]]), bits=1)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_two_bit_example():
    out = corrupt_phases(np.array([[0.3 * np.pi]]), bits=2)
    assert out[0, 0] == pytest.approx(0.5 * np.pi, rel=1e-15)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_quantization_error_bounded(bits):
    rng = np.random.default_rng(100 + bits)
    phases = rng.uniform(0, TWO_PI, size=(3, 64))
    out = corrupt_phases(phases, bits)
    step = TWO_PI / 2**bits
    # Outputs sit on the grid.
    idx = out / step
    assert np.allclose(idx, np.round(idx), atol=1e-9)
    assert np.all(out >= 0.0) and np.all(out < TWO_PI)
    # Circular distance to the original never exceeds half a step.
    delta = np.abs(out - phases)
    circ = np.minimum(delta, TWO_PI - delta)
    assert np.all(circ <= step / 2 + 1e-12)


def test_bits_must_be_positive():
    with pytest.raises(ValueError):
        corrupt_phases(np.zeros((1, 4)), 0)
