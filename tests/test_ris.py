"""Phase alignment, baselines, and phase quantization."""

import numpy as np
import pytest

from airpfl.channel import all_cascaded_gains, sample_small_scale
from airpfl.ris import baseline_phases, configure_aligned, corrupt_phases
from airpfl.seeding import rng_from_seed
from full_channel import channel_set, draw_full

TWO_PI = 2.0 * np.pi


def _phasors(theta):
    return np.exp(-1j * np.asarray(theta, dtype=float))


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
    phasors = configure_aligned(ch)
    assert phasors.shape == (1, 1, 1)
    assert abs(phasors[0, 0, 0] - _phasors(0.7 - 2.1)) <= 1e-12
    gain = all_cascaded_gains(ch, np.ones((1, 1)), phasors)[0, 0, 0]
    assert gain == pytest.approx(6.0, rel=1e-12)


def test_alignment_with_vanishing_sum_falls_back_to_backhaul_angle():
    ch = _single_link(np.exp(1j * 1.3), 0.0)
    phasors = configure_aligned(ch)
    assert abs(phasors[0, 0, 0] - _phasors(1.3)) <= 1e-12
    # A blocked surface-to-PS path leaves the cluster-sum angle alone,
    # and with both paths gone the phasor is that of angle 0.
    assert abs(configure_aligned(_single_link(0.0, np.exp(1j * 0.4)))[0, 0, 0]
               - _phasors(-0.4)) <= 1e-12
    assert configure_aligned(_single_link(0.0, 0.0))[0, 0, 0] == 1.0


def test_phases_land_in_canonical_interval():
    T, M, K, N = 4, 3, 6, 10
    cluster_of = np.repeat(np.arange(3), 2)
    hp, hd = draw_full(np.random.default_rng(3), T, M, K, N)
    ch = channel_set(hp, hd, cluster_of, np.zeros((T, M, N)))
    phasors = configure_aligned(ch)
    assert phasors.shape == (T, M, N)
    assert np.allclose(np.abs(phasors), 1.0, rtol=0, atol=1e-15)
    # Each element rotates its cluster's summed device channel onto the
    # surface-to-PS link: the own-cluster reflected terms are real and
    # non-negative element by element.
    for m in range(M):
        summed = hd[:, m, cluster_of == m, :].sum(axis=1)
        reflected = np.conj(hp[:, m, :, m]) * np.conj(phasors[:, m]) * summed
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
        g = all_cascaded_gains(ch, beta, configure_aligned(ch))[0, 0]
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
    # The phasors of the uniform angles on [0, 2*pi) the generator draws.
    angles = rng_from_seed(9).uniform(0.0, TWO_PI, size=(3, 2, 5))
    assert np.all(angles >= 0.0) and np.all(angles < TWO_PI)
    assert np.array_equal(a, _phasors(angles))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_one_bit_rounding_examples():
    phases = np.array([[0.4 * np.pi, 0.6 * np.pi, 1.5 * np.pi, 1.6 * np.pi]])
    out = corrupt_phases(_phasors(phases), bits=1)
    assert out[0, 0] == _phasors(0.0)
    assert out[0, 1] == _phasors(np.pi)
    assert out[0, 2] == _phasors(np.pi)
    # 1.6*pi is nearer to 2*pi, which wraps back to 0.
    assert out[0, 3] == _phasors(0.0)


def test_tie_rounds_to_lower_level():
    out = corrupt_phases(_phasors([[0.5 * np.pi]]), bits=1)
    assert out[0, 0] == _phasors(0.0)


def test_two_bit_example():
    out = corrupt_phases(_phasors([[0.3 * np.pi]]), bits=2)
    assert out[0, 0] == _phasors(0.5 * np.pi)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_quantization_error_bounded(bits):
    rng = np.random.default_rng(100 + bits)
    phases = rng.uniform(0, TWO_PI, size=(3, 64))
    out = corrupt_phases(_phasors(phases), bits)
    step = TWO_PI / 2**bits
    # Outputs are exact entries of the table of roots of unity.
    table = _phasors(np.arange(2**bits) * step)
    assert np.all(np.isin(out, table))
    # The angular distance to the original never exceeds half a step.
    circ = np.abs(np.angle(out * np.conj(_phasors(phases))))
    assert np.all(circ <= step / 2 + 1e-12)


def test_quantization_reads_the_same_levels_on_a_grid_finer_than_the_input():
    # With more levels than phasors the levels are evaluated directly,
    # not read from the table: the values are the same table entries.
    phasors = _phasors(np.random.default_rng(7).uniform(0, TWO_PI, size=(2, 40)))
    for bits in (5, 6, 7):  # 32 and 64 levels from the table, 128 evaluated directly
        whole = corrupt_phases(phasors, bits)
        assert np.array_equal(corrupt_phases(phasors[:, :1], bits), whole[:, :1])
    assert np.array_equal(corrupt_phases(phasors[:1, :4], 52),
                          corrupt_phases(phasors, 52)[:1, :4])


def test_aligned_phasors_match_the_angle_formula():
    # Oracle: e^{-j (angle(h_ps[m, n, m]) - angle(s_m[n]))} element by element.
    ch = sample_small_scale(rng_from_seed(12), 30, 3, [0, 0, 1, 2, 2, 2], 16)
    theta = np.empty((30, 3, 16))
    for m in range(3):
        theta[:, m] = np.angle(ch.ris_to_ps[:, m, :, m]) - np.angle(ch.cluster_sums[:, m])
    assert np.max(np.abs(configure_aligned(ch) - _phasors(theta))) <= 1e-14


def test_bits_must_be_positive():
    with pytest.raises(ValueError):
        corrupt_phases(np.ones((1, 4), dtype=complex), 0)


def test_quantization_rejects_real_angles():
    with pytest.raises(ValueError, match="phasors"):
        corrupt_phases(np.zeros((1, 4)), 1)
