"""Phase alignment, baselines, and phase quantization."""

import numpy as np
import pytest

from airpfl.channel import all_cascaded_gains, sample_small_scale
from airpfl.ris import baseline_phases, configure_aligned, corrupt_phases
from airpfl.seeding import rng_from_seed
from full_channel import aligned, channel_set, draw_full

TWO_PI = 2.0 * np.pi


def _phasors(theta):
    return np.exp(-1j * np.asarray(theta, dtype=float))


def _single_link(hp_value, hd_value):
    """One trial, one surface, one element, one device, one antenna."""
    full = np.array([[[[hp_value]]]], dtype=complex), np.array([[[[hd_value]]]], dtype=complex)
    return channel_set(*full, [0], aligned)


def test_single_element_alignment_is_exact():
    # One element: the aligned phase rotates the device link onto the
    # backhaul link, so the cascaded gain is the product of moduli.
    hp = 2.0 * np.exp(1j * 0.7)
    hd = 3.0 * np.exp(1j * 2.1)
    ch = _single_link(hp, hd)
    phasors = configure_aligned(ch)
    assert phasors.shape == (1, 1, 1)
    assert abs(phasors[0, 0, 0] - _phasors(0.7 - 2.1)) <= 1e-12
    gain = all_cascaded_gains(ch, np.ones((1, 1)))[0, 0, 0, 0, 0]
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


def test_a_tiny_cluster_sum_keeps_its_own_phasor():
    # Only an exactly zero sum is replaced: a sum of modulus 1e-300 still
    # sets the element's angle, as a sum of modulus 3 does.
    phasor = configure_aligned(_single_link(np.exp(1j * 0.7), 1e-300 * np.exp(1j * 2.1)))
    assert abs(phasor[0, 0, 0] - _phasors(0.7 - 2.1)) <= 1e-12


def test_phases_land_in_canonical_interval():
    T, M, K, N = 4, 3, 6, 10
    cluster_of = np.repeat(np.arange(3), 2)
    hp, hd = draw_full(np.random.default_rng(3), T, M, K, N)
    ch = channel_set(hp, hd, cluster_of, aligned)
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
        ch = channel_set(hp, hd, cluster_of, aligned)
        g = all_cascaded_gains(ch, beta)[0, 0, 0, 0]
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
    ch = sample_small_scale(rng_from_seed(12), 30, 3, [0, 0, 1, 2, 2, 2], 16, aligned)
    theta = np.empty((30, 3, 16))
    for m in range(3):
        theta[:, m] = np.angle(ch.own_paths[:, m]) - np.angle(ch.cluster_sums[:, m])
    assert np.max(np.abs(configure_aligned(ch) - _phasors(theta))) <= 1e-14


@pytest.mark.parametrize("bits", [0, True, np.True_, 1.0], ids=["zero", "bool", "np-bool", "float"])
def test_bits_must_be_positive(bits):
    # Bools are not bit counts, as for every integer parameter of the package.
    with pytest.raises(ValueError, match="positive integer"):
        corrupt_phases(np.ones((1, 4), dtype=complex), bits)


def test_quantization_rejects_real_angles():
    with pytest.raises(ValueError, match="phasors"):
        corrupt_phases(np.zeros((1, 4)), 1)


# ---------------------------------------------------------------------------
# the kernels equal their plain formulas byte for byte on edge inputs
# ---------------------------------------------------------------------------

class _Paths:
    """The two path arrays configure_aligned reads, as a draw holds them."""

    def __init__(self, own_paths, cluster_sums):
        self.own_paths, self.cluster_sums = own_paths, cluster_sums


def _aligned_formula(draw):
    """configure_aligned with every fix-up applied unconditionally."""
    summed = np.where(draw.cluster_sums == 0, 1.0, draw.cluster_sums)
    phasors = np.conj(draw.own_paths) * summed
    mag = np.abs(phasors)
    blocked = mag == 0.0
    phasors[blocked] = summed[blocked]
    mag[blocked] = np.abs(summed[blocked])
    np.divide(phasors.real, mag, out=phasors.real)
    np.divide(phasors.imag, mag, out=phasors.imag)
    return phasors


@pytest.mark.parametrize("case", ["generic", "zero-sums", "zero-paths", "both", "underflow"])
def test_aligned_phasors_equal_the_formula_with_every_fixup(case):
    # The fix-ups run only where an entry needs them; the bytes are those
    # of applying them everywhere.
    rng = np.random.default_rng(41)
    parts = rng.standard_normal((4, 4, 3, 16))
    own, sums = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    if case in ("zero-sums", "both"):
        sums[:, 1, ::3] = 0.0
    if case in ("zero-paths", "both"):
        own[:, :, 2::4] = 0.0
    if case == "underflow":  # the product of the two underflows to 0
        own[0, 0, :5] *= 1e-200
        sums[0, 0, :5] *= 1e-200
    draw = _Paths(own, sums)
    assert configure_aligned(draw).tobytes() == _aligned_formula(draw).tobytes()


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 52])
def test_quantized_phasors_equal_the_mod_formula(bits):
    # Ties between levels, angles 0, -0 and pi, and the rest of the
    # circle, both ways round: the levels come out as np.mod reads them.
    levels = 2**bits
    step = TWO_PI / levels
    ties = (np.unique(np.r_[-levels:-levels + 4, -4:4, levels - 4:levels]) + 0.5) * step
    theta = np.concatenate([ties, [0.0, -0.0, np.pi, -np.pi],
                            np.random.default_rng(bits).uniform(-TWO_PI, TWO_PI, 64)])
    # The axes and diagonals have exact angles: ties at 1 and 2 bits.
    exact = np.array([1, 1j, -1, -1j, 1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    phasors = np.concatenate([exact, np.exp(1j * theta)])[None]
    unrounded = np.angle(phasors) / -step - 0.5
    assert bits > 2 or np.any(unrounded == np.round(unrounded))
    index = np.ceil(unrounded)
    if levels > index.size:
        expected = np.exp(-1j * (np.mod(index, levels) * step))
    else:
        expected = np.exp(-1j * (np.arange(levels) * step))[np.mod(index.astype(np.int64), levels)]
    assert corrupt_phases(phasors, bits).tobytes() == expected.tobytes()


class _FixedAngles:
    """A generator stand-in whose uniform draw returns the given angles."""

    def __init__(self, angles):
        self.angles = angles

    def uniform(self, low, high, size):
        return self.angles.reshape(size)


def test_random_phasors_equal_the_complex_product_formula():
    # Angle 0 included: -1j * 0 has the imaginary part -0.
    angles = np.concatenate([[0.0, np.pi, 1e-300],
                             np.random.default_rng(3).uniform(0.0, TWO_PI, 21)])
    phasors = baseline_phases(_FixedAngles(angles), 2, 3, 4)
    assert phasors.tobytes() == np.exp(-1j * angles.reshape(2, 3, 4)).tobytes()
