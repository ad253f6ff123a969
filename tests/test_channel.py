"""Fading statistics, path loss, and cascaded-gain reductions."""

from statistics import NormalDist

import numpy as np
import pytest

from airpfl.channel import (
    MIN_DEVICE_RIS_DISTANCE,
    ChannelSet,
    PartialDraw,
    all_cascaded_gains,
    cascaded_components,
    foreign_factor,
    large_scale_coefficients,
    sample_small_scale,
)
from airpfl.ris import baseline_phases, configure_aligned, corrupt_phases
from airpfl.seeding import derive_seed, rng_from_seed
from airpfl.sysmodel import ConfigError, Geometry, make_config, place_geometry
from full_channel import aligned, aligned_phases, channel_set, draw_full, reflected, summed_terms

# (100 * 200)^(-2.2/2), evaluated with mpmath at 40 digits and rounded
# to the nearest double.
BETA_100_200 = 1.8572356214689176e-05


def _config(K=4, M=2, N=8, D=4, seed=0):
    return make_config(
        num_devices=K,
        num_clusters=M,
        num_ris_elements=N,
        model_dim=D,
        cluster_of=np.sort(np.arange(K) % M),
        max_power=1.0,
        noise_var=1e-9,
        master_seed=seed,
    )


def test_pathloss_frozen_value():
    geom = Geometry(
        ps_position=np.zeros(2),
        ris_positions=np.array([[200.0, 0.0]]),
        device_positions=np.array([[100.0, 0.0]]),
    )
    beta = large_scale_coefficients(geom, 2.2)
    assert beta.shape == (1, 1)
    assert beta[0, 0] == pytest.approx(BETA_100_200, rel=1e-14)


def test_pathloss_monotone_in_distance():
    # Device 0 sits 50 m from the surface, device 1 sits 80 m away.
    geom = Geometry(
        ps_position=np.zeros(2),
        ris_positions=np.array([[200.0, 0.0]]),
        device_positions=np.array([[150.0, 0.0], [120.0, 0.0]]),
    )
    beta = large_scale_coefficients(geom, 2.2)
    assert beta[0, 0] > beta[0, 1] > 0


def test_pathloss_distance_clamp():
    # A device sitting on top of its surface must not blow up the gain.
    geom = Geometry(
        ps_position=np.zeros(2),
        ris_positions=np.array([[200.0, 0.0]]),
        device_positions=np.array([[200.0, 0.0], [200.3, 0.0]]),
    )
    beta = large_scale_coefficients(geom, 2.2)
    clamped = (MIN_DEVICE_RIS_DISTANCE * 200.0) ** -1.1
    assert beta[0, 0] == pytest.approx(clamped, rel=1e-14)
    assert beta[0, 1] == pytest.approx(clamped, rel=1e-14)
    assert np.all(np.isfinite(beta))


CLUSTERS_5 = np.array([0, 0, 1, 1, 1])


def test_small_scale_shapes():
    ch = sample_small_scale(rng_from_seed(42), 3, 2, CLUSTERS_5, 7, aligned)
    assert ch.own_paths.shape == (3, 2, 7)
    assert ch.cluster_sums.shape == (3, 2, 7)
    assert ch.summed_terms.shape == (1, 1, 3, 2, 2)
    assert ch.drawn_terms.shape == (1, 3, 2, 2, 5)
    assert np.array_equal(ch.cluster_of, CLUSTERS_5)
    assert ch.own_paths.shape[0] == 3
    assert ch.num_surfaces == 2
    assert ch.own_paths.shape[-1] == 7
    # The byte counters of the benchmark read the two materialized path arrays.
    assert ch.ris_to_ps is ch.own_paths and ch.device_to_ris is ch.cluster_sums


@pytest.mark.parametrize("cluster_of", [[0, 2], [-1, 0], [[0, 1]]], ids=["too-high", "negative", "2-D"])
def test_small_scale_rejects_bad_clusters(cluster_of):
    with pytest.raises(ValueError):
        sample_small_scale(rng_from_seed(1), 1, 2, cluster_of, 4, aligned)


def test_small_scale_deterministic_in_round_seed():
    cluster_of = [0, 0, 1, 1]
    a = sample_small_scale(rng_from_seed(9), 1, 2, cluster_of, 8, aligned)
    b = sample_small_scale(rng_from_seed(9), 1, 2, cluster_of, 8, aligned)
    for field in ("own_paths", "cluster_sums", "summed_terms", "drawn_terms"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = sample_small_scale(rng_from_seed(10), 1, 2, cluster_of, 8, aligned)
    assert not np.allclose(a.cluster_sums, c.cluster_sums)


def _aligned_and_random(rng):
    """Aligned phasors, their 1-bit quantization and random phasors drawn from rng."""

    def phases(draw):
        align = configure_aligned(draw)
        random = np.exp(-1j * rng.uniform(0, 2 * np.pi, align.shape))
        return [align, corrupt_phases(align, 1), random]

    return phases


def _stacked(paths):
    """Real and imaginary parts stacked along the element axis: (..., N, C) -> (..., 2N, C)."""
    return np.concatenate((paths.real, paths.imag), axis=-2)


def _documented_draw(seed, T, M, cluster_of, sizes, design):
    """The documented draw, step by step, and the summed and drawn terms of each size.

    design(rng) is the phases argument, given the generator it may draw
    from. Returns the generator, the own paths and cluster sums as (real,
    imaginary) parts, and the (B, J, T, M, M) summed and (B, T, M, M, K)
    drawn terms of the B sizes, built per surface from the drawn normals
    and the factor kernel.
    """
    K, N = len(cluster_of), sizes[-1]
    counts = np.bincount(cluster_of, minlength=M)
    rng = rng_from_seed(seed)
    scale = 1 / np.sqrt(2)
    own = (rng.standard_normal((T, M, N)) * scale, rng.standard_normal((T, M, N)) * scale)
    sum_scale = np.sqrt(counts / 2.0)[:, None]
    sums = (rng.standard_normal((T, M, N)) * sum_scale, rng.standard_normal((T, M, N)) * sum_scale)
    own_paths, cluster_sums = own[0] + 1j * own[1], sums[0] + 1j * sums[1]
    configs = design(rng)(PartialDraw(own_paths, cluster_sums))
    J = len(configs)
    u = rng.standard_normal((len(sizes), T, M, M, K))
    for i in np.unique(cluster_of):
        mine = u[:, :, i][..., cluster_of == i]
        u[:, :, i, :, cluster_of == i] = np.moveaxis(mine - mine.mean(axis=-1, keepdims=True), -1, 0)
    blocks = []
    for lo, hi in zip((0,) + sizes, sizes):
        k = min(2 * (hi - lo), 1 + J)
        rows = min(2 * (hi - lo) - k, M - 1)
        z = rng.standard_normal((T, M, M - 1, k))
        upper = rng.standard_normal((T, M, rows * (M - 1) - rows * (rows + 1) // 2))
        chi2 = rng.chisquare(2 * (hi - lo) - k - np.arange(rows), size=(T, M, rows))
        blocks.append((lo, hi, k, rows, z, upper, chi2))

    terms, summed, drawn = [], np.zeros((J, T, M, M)), np.zeros((T, M, M, K))
    for b, (lo, hi, k, rows, z, upper, chi2) in enumerate(blocks):
        for i in range(M):
            others = [m for m in range(M) if m != i]
            cols = [own_paths[:, i, lo:hi]] + [np.conj(p[:, i, lo:hi]) * cluster_sums[:, i, lo:hi]
                                              for p in configs]
            stack = _stacked(np.stack(cols, axis=-1))  # (T, 2n, 1 + J)
            factor = foreign_factor(stack)  # (T, 1 + J, k)
            summed[:, :, i, i] += np.einsum("tnj,tn->jt", stack[..., 1:], stack[..., 0])
            bartlett = np.zeros((T, rows, M - 1))
            entry = 0
            for r in range(rows):
                bartlett[:, r, r] = np.sqrt(chi2[:, i, r])
                for c in range(r + 1, M - 1):
                    bartlett[:, r, c] = upper[:, i, entry]
                    entry += 1
            virtual = np.zeros((T, k + rows, M))
            virtual[:, :k, i] = np.sqrt(2) * factor[:, 0]
            for a, m in enumerate(others):
                summed[:, :, i, m] += (factor[:, 1:] @ z[:, i, a, :, None])[..., 0].T
                virtual[:, :k, m] = z[:, i, a] / np.sqrt(2)
                virtual[:, k:, m] = bartlett[:, :, a] / np.sqrt(2)
            drawn_factor = foreign_factor(virtual)
            drawn[:, i] += drawn_factor @ u[b, :, i, : drawn_factor.shape[-1]]
        terms.append((summed.copy(), drawn.copy()))
    return rng, own, sums, tuple(np.stack(t) for t in zip(*terms))


def _assert_bits(got, parts):
    assert np.array_equal(got.real.view(np.uint64), parts[0].view(np.uint64))
    assert np.array_equal(got.imag.view(np.uint64), parts[1].view(np.uint64))


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(np.max(np.abs(ref), initial=0.0), 1.0)


def _only_aligned(rng):
    return aligned


def _aligned_twice(rng):
    return lambda draw: aligned(draw) * 2


def test_small_scale_draw_order_is_documented_order():
    # Own-path real then imaginary parts times 1/sqrt(2), then the
    # cluster sums' real then imaginary parts times sqrt(|C_i| / 2),
    # then what the phases draw, the centred residual normals, each
    # block's projection and Bartlett normals and the chi-square
    # diagonals. The paths are compared bit for bit and the terms to
    # rounding, against a per-surface construction, so the draw stream
    # cannot move unnoticed. The third shape is one sweep chunk; in the
    # fourth, 2N < M, so there is no complement and only the first 2N
    # normals of each pair enter its drawn term; the fifth has unequal
    # clusters and singletons; in the sixth, one configuration is listed
    # twice; in the last, k = 2 and the Bartlett factor has 2 rows
    # against M - 1 = 4 columns.
    for T, M, cluster_of, N, design in [
        (1, 2, np.arange(3) % 2, 5, _only_aligned),
        (3, 2, np.arange(3) % 2, 5, _aligned_and_random),
        (100, 4, np.arange(20) % 4, 16, _aligned_and_random),
        (2, 4, np.arange(5) % 4, 1, _aligned_and_random),
        (4, 4, np.array([0, 1, 2, 2, 2, 3, 3]), 3, _aligned_and_random),
        (3, 3, np.arange(6) % 3, 2, _aligned_twice),
        (3, 5, np.arange(7) % 5, 2, _only_aligned),
    ]:
        rng_kernel = rng_from_seed(21)
        ch = sample_small_scale(rng_kernel, T, M, cluster_of, N, design(rng_kernel))
        rng, own, sums, (summed, drawn) = _documented_draw(21, T, M, cluster_of, (N,), design)
        _assert_bits(ch.own_paths, own)
        _assert_bits(ch.cluster_sums, sums)
        _assert_close(ch.summed_terms, summed)
        _assert_close(ch.drawn_terms, drawn)
        # Nothing else was drawn.
        assert rng_kernel.random() == rng.random()


class _RecordingGenerator:
    """A generator that records every block of normal and chi-square draws it is asked for.

    It offers standard_normal, chisquare and uniform only, so a draw
    that asks for anything else fails.
    """

    def __init__(self, seed):
        self._rng = rng_from_seed(seed)
        self.requests = []

    def standard_normal(self, size):
        self.requests.append(("normal", np.prod(size, dtype=int)))
        return self._rng.standard_normal(size)

    def chisquare(self, df, size):
        self.requests.append(("chi2", np.prod(size, dtype=int)))
        return self._rng.chisquare(df, size)

    def uniform(self, low, high, size):
        self.requests.append(("uniform", np.prod(size, dtype=int)))
        return self._rng.uniform(low, high, size)


@pytest.mark.parametrize("T, M, K, sizes", [(100, 4, 20, (64,)), (3, 4, 9, (16, 32, 64, 128, 256)),
                                            (2, 3, 5, (1,))])
def test_draw_requests_exactly_the_documented_normals(T, M, K, sizes):
    # Per trial: 2N M for the own paths, 2N M for the cluster sums, what
    # the phases draw, M^2 K per nested size for the residuals, then per
    # size b and surface k_b (M - 1) projection and q_b Bartlett normals,
    # and r_b chi-square draws, k_b = min(2 n_b, 1 + J), r_b =
    # min(2 n_b - k_b, M - 1) and q_b = r_b (M - 1) - r_b (r_b + 1) / 2
    # (n_b the block length); nothing per device path or foreign antenna
    # column. Desk verify (N = 64, J = 1) draws 1 392 per trial, 12 of
    # them chi-square, against 2 880 with every surface-to-PS path.
    N, B = sizes[-1], len(sizes)
    blocks = [hi - lo for lo, hi in zip((0,) + sizes, sizes)]
    for design, J in ((_only_aligned, 1), (_aligned_and_random, 3)):
        rng = _RecordingGenerator(3)
        sample_small_scale(rng, T, M, np.arange(K) % M, sizes, design(rng))
        k = [min(2 * n, 1 + J) for n in blocks]
        r = [min(2 * n - kb, M - 1) for n, kb in zip(blocks, k)]
        expected = [("normal", 2 * T * M * N)] * 2
        expected += [("uniform", T * M * N)] if J == 3 else []
        expected += [("normal", B * T * M * M * K)]
        for kb, rb in zip(k, r):
            expected += [("normal", T * M * (M - 1) * kb),
                         ("normal", T * M * (rb * (M - 1) - rb * (rb + 1) // 2)),
                         ("chi2", T * M * rb)]
        assert rng.requests == expected
        if (T, M, K, sizes, J) == (100, 4, 20, (64,), 1):
            assert sum(n for kind, n in rng.requests) == T * 1392
            assert sum(n for kind, n in rng.requests if kind == "chi2") == T * 12


def _aligned_and_baseline(rng):
    """Aligned phasors and ris.baseline_phases drawn from rng, which may be one generator per trial."""
    return lambda draw: [configure_aligned(draw), baseline_phases(rng, *draw.own_paths.shape)]


def test_per_trial_generators_each_make_a_one_trial_draw():
    # Given one generator per trial, each generator is asked for exactly
    # the blocks a one-trial draw from it asks for, in the same order,
    # and trial t is that one-trial draw bit for bit.
    T, M, K, sizes = 3, 4, 9, (4, 16, 64)
    cluster_of = np.arange(K) % M
    gens = [_RecordingGenerator(seed) for seed in range(T)]
    ch = sample_small_scale(gens, T, M, cluster_of, sizes, _aligned_and_baseline(gens))
    for t, gen in enumerate(gens):
        solo_gen = _RecordingGenerator(t)
        solo = sample_small_scale(solo_gen, 1, M, cluster_of, sizes,
                                  _aligned_and_baseline(solo_gen))
        assert gen.requests == solo_gen.requests
        assert np.array_equal(ch.own_paths[t], solo.own_paths[0])
        assert np.array_equal(ch.cluster_sums[t], solo.cluster_sums[0])
        assert np.array_equal(ch.summed_terms[:, :, t], solo.summed_terms[:, :, 0])
        assert np.array_equal(ch.drawn_terms[:, t], solo.drawn_terms[:, 0])


def test_per_trial_generators_must_match_the_trial_count():
    gens = [rng_from_seed(seed) for seed in range(2)]
    with pytest.raises(ValueError, match="2 generators given for 3 trials"):
        sample_small_scale(gens, 3, 2, [0, 0, 1, 1], 8, aligned)
    with pytest.raises(ValueError, match="2 generators given for 3 trials"):
        baseline_phases(tuple(gens), 3, 2, 8)


def test_nested_draw_is_documented_order_and_prefixes_are_views():
    # Sizes 1 < 3 < 7 in one draw: own paths and sums at the largest
    # size, then the residual normals of every size, then each block's
    # foreign-antenna statistics; slot b of both term stacks is the
    # running sum of the increments of blocks 1 to b, the terms of the
    # surface of the first n_b elements.
    T, M, K, sizes = 3, 4, 6, (1, 3, 7)
    cluster_of = np.arange(K) % M
    rng_kernel = rng_from_seed(8)
    ch = sample_small_scale(rng_kernel, T, M, cluster_of, sizes, _aligned_and_random(rng_kernel))
    rng, own, sums, (summed, drawn) = _documented_draw(8, T, M, cluster_of, sizes,
                                                       _aligned_and_random)
    assert rng_kernel.random() == rng.random()
    assert ch.own_paths.shape == ch.cluster_sums.shape == (T, M, 7)
    _assert_bits(ch.own_paths, own)
    _assert_bits(ch.cluster_sums, sums)
    assert ch.summed_terms.shape == (3, 3, T, M, M)
    assert ch.drawn_terms.shape == (3, T, M, M, K)
    _assert_close(ch.summed_terms, summed)
    _assert_close(ch.drawn_terms, drawn)


def test_own_residuals_are_centred_and_vanish_for_a_singleton():
    # A singleton cluster's device is its cluster sum, so its residual is
    # exactly 0; a larger cluster's residuals sum to 0 over its devices,
    # at every nested size. Foreign entries are not centred.
    cluster_of = np.array([1, 0, 1, 1, 2, 2])  # sizes 1, 3, 2
    ch = sample_small_scale(rng_from_seed(4), 5, 3, cluster_of, (2, 6), aligned)
    for drawn in ch.drawn_terms:
        assert np.all(drawn[:, 0, :, 1] == 0.0)
        for i in (1, 2):
            own = drawn[:, i][..., cluster_of == i]
            assert np.abs(own.sum(axis=-1)).max() <= 1e-12 * np.abs(own).max()
            assert np.all(own != 0.0)
        assert np.abs(drawn[:, 0][..., cluster_of != 0].sum(axis=-1)).min() > 1e-6
    # The singleton's own term is the cluster-sum term alone, at every size.
    comp = cascaded_components(ch, np.ones((3, 6)))[:, 0]
    assert np.array_equal(comp[:, :, 0, :, 1], ch.summed_terms[:, 0, :, 0])


@pytest.mark.parametrize("sizes", [(3, 1), (2, 2), (0, 4), ()],
                         ids=["decreasing", "repeated", "zero", "empty"])
def test_small_scale_rejects_bad_nested_sizes(sizes):
    with pytest.raises(ValueError):
        sample_small_scale(rng_from_seed(1), 1, 2, [0, 1, 1], sizes, aligned)


@pytest.mark.parametrize("sizes", [7.9, True, np.float64(8.0), [4.5, 8], [True, 8]],
                         ids=["float", "bool", "np-float", "float-in-list", "bool-in-list"])
def test_small_scale_rejects_non_integer_sizes(sizes):
    # A size that is not an integer is refused, not rounded to one.
    with pytest.raises(ConfigError, match="surface size must be an integer"):
        sample_small_scale(rng_from_seed(1), 1, 2, [0, 1, 1], sizes, aligned)


def test_small_scale_accepts_numpy_integer_sizes():
    ref = sample_small_scale(rng_from_seed(1), 2, 2, [0, 1, 1], (2, 4), aligned)
    for sizes in ((np.int64(2), np.int64(4)), np.array([2, 4], dtype=np.int32)):
        ch = sample_small_scale(rng_from_seed(1), 2, 2, [0, 1, 1], sizes, aligned)
        assert np.array_equal(ch.drawn_terms, ref.drawn_terms)
        assert np.array_equal(ch.summed_terms, ref.summed_terms)
    one = sample_small_scale(rng_from_seed(1), 2, 2, [0, 1, 1], np.int64(4), aligned)
    assert one.own_paths.shape[-1] == 4 and one.drawn_terms.shape[0] == 1


def test_nested_foreign_blocks_compose_the_prefix_gram():
    # Sum over blocks of F_b F_b^T is Re(H_:n^H H_:n) / 2 for every
    # prefix n. With M = 4 antennas the first block (one element, two
    # real rows) and the second (two elements) have 2 * size <= M, so
    # their factors are rank deficient or square.
    T, M, sizes = 5, 4, (1, 3, 4, 9)
    hp, _ = draw_full(np.random.default_rng(12), T, M, 1, sizes[-1])
    total = 0.0
    for lo, hi in zip((0,) + sizes, sizes):
        factor = foreign_factor(_stacked(hp[:, :, lo:hi]))
        assert factor.shape[-1] == min(2 * (hi - lo), M)
        total = total + factor @ factor.swapaxes(-1, -2)
        head = hp[:, :, :hi]
        gram = (head.conj().swapaxes(-1, -2) @ head).real / 2
        assert np.abs(total - gram).max() <= 1e-12 * np.abs(gram).max()


def test_small_scale_moments():
    # Entries are circularly symmetric with unit second moment, so
    # E|h| = sqrt(pi)/2 (folded-Gaussian mean scaled by 1/sqrt(2)); a
    # cluster sum has second moment |C_i|, so it is checked divided by
    # sqrt(|C_i|). Clusters of sizes 3 and 1.
    ch = sample_small_scale(rng_from_seed(1), 2000, 2, [0, 0, 0, 1], 250, aligned)
    sums = ch.cluster_sums / np.sqrt([3.0, 1.0])[:, None]
    for h in (ch.own_paths.ravel(), sums.ravel()):  # one million entries
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
        assert abs(np.mean(np.abs(h)) - 0.8862269254527579) < 0.005
        assert abs(np.mean(h.real)) < 0.005
        assert abs(np.mean(h.imag)) < 0.005


# ---------------------------------------------------------------------------
# the foreign-term factor
# ---------------------------------------------------------------------------

def _gram(hp, phases):
    """Re(W^H W) / 2 for W = diag(e^{-j phases}) H, per (trial, surface)."""
    w = np.exp(-1j * phases)[..., None] * hp
    return np.einsum("tinm,tinl->timl", np.conj(w), w).real / 2


def _factor_error(hp):
    # The factor must reproduce the Gram matrix under any phases: the
    # phases cancel in W^H W.
    phases = np.random.default_rng(4).uniform(0, 2 * np.pi, size=hp.shape[:3])
    factor = foreign_factor(_stacked(hp))
    gram = _gram(hp, phases)
    product = np.matmul(factor, factor.swapaxes(-1, -2))
    return factor, np.max(np.abs(product - gram)) / np.max(np.abs(gram))


def test_foreign_factor_on_a_rank_deficient_gram():
    # N = 1 element and M = 4 antennas: the 4 x 4 Gram matrix has rank
    # at most 2, so a plain Cholesky fails; only 2 normals are used.
    hp, _ = draw_full(np.random.default_rng(1), 3, 4, 1, 1)
    gram = _gram(hp, np.zeros(hp.shape[:3]))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    factor, err = _factor_error(hp)
    assert factor.shape == (3, 4, 4, 2)
    assert err < 1e-12
    assert np.all(np.triu(factor[..., :2, :], 1) == 0.0)
    assert np.all(np.diagonal(factor, axis1=-2, axis2=-1) >= 0.0)


def test_foreign_factor_with_a_zero_antenna_column():
    hp, _ = draw_full(np.random.default_rng(2), 3, 3, 1, 6)
    hp[:, :, :, 1] = 0.0
    factor, err = _factor_error(hp)
    assert factor.shape == (3, 3, 3, 3)
    assert err < 1e-12
    assert np.all(factor[..., 1, :] == 0.0)
    assert np.all(np.diagonal(factor, axis1=-2, axis2=-1) >= 0.0)


def test_foreign_factor_falls_back_to_qr_for_the_singular_matrix_alone():
    # One trial with a zero antenna column makes its Gram matrix
    # singular, so that matrix alone takes the QR route and the others
    # keep their Cholesky factors; every trial's factor still
    # reproduces its Gram matrix.
    hp, _ = draw_full(np.random.default_rng(4), 3, 2, 1, 5)
    hp[0, 1, :, 0] = 0.0
    factor, err = _factor_error(hp)
    assert factor.shape == (3, 2, 2, 2)
    assert err < 1e-12
    assert np.all(factor[0, 1, 0] == 0.0)


def test_foreign_factor_is_chosen_per_matrix():
    # A singular Gram matrix takes the QR route alone: every matrix's
    # factor is bit for bit its factor alone, beside a singular one or
    # not, and the definite ones keep their Cholesky factors.
    stacked = np.random.default_rng(6).standard_normal((3, 2, 10, 4))
    clean = foreign_factor(stacked)
    stacked[1, 0, :, 2] = 0.0
    mixed = foreign_factor(stacked)
    for t, i in np.ndindex(3, 2):
        assert np.array_equal(mixed[t, i], foreign_factor(stacked[t, i][None, None])[0, 0])
        if (t, i) != (1, 0):
            assert np.array_equal(mixed[t, i], clean[t, i])
    assert np.all(mixed[1, 0, 2] == 0.0)
    gram = stacked[1, 0].T @ stacked[1, 0] / 2
    assert np.allclose(mixed[1, 0] @ mixed[1, 0].T, gram, rtol=0, atol=1e-12 * np.abs(gram).max())


def test_foreign_factor_is_the_cholesky_factor_when_definite():
    hp, _ = draw_full(np.random.default_rng(3), 4, 3, 1, 5)
    factor, err = _factor_error(hp)
    assert err < 1e-12
    chol = np.linalg.cholesky(_gram(hp, np.zeros(hp.shape[:3])))
    assert np.allclose(factor, chol, rtol=1e-12, atol=1e-14)


def test_unequal_clusters_give_finite_gains():
    cluster_of = np.array([0, 1, 1, 1, 1, 1, 1, 1])  # sizes 1 and 7
    ch = sample_small_scale(rng_from_seed(8), 5, 2, cluster_of, 6, aligned)
    beta = np.random.default_rng(8).uniform(0.1, 1.0, size=(2, 8))
    gains = all_cascaded_gains(ch, beta)[0, 0]
    assert gains.shape == (5, 2, 8)
    assert np.all(np.isfinite(gains))
    for t in range(5):
        for m in range(2):
            for k in range(8):
                ref = _cascaded_gain(ch, beta, 0, 0, t, m, k)
                assert gains[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# gain kernels
# ---------------------------------------------------------------------------

def _cascaded_gain(ch, beta, size, config, t, m, k):
    """Scalar reference: real cascaded device-k-to-antenna-m gain of trial t."""
    own = ch.cluster_of[k]
    total = 0.0
    for i in range(ch.num_surfaces):
        term = ch.drawn_terms[size, t, i, m, k]
        if i == own:
            share = np.count_nonzero(ch.cluster_of == own)
            term += ch.summed_terms[size, config, t, i, m] / share
        total += beta[i, k] * term
    return total


def _random_phasors(seed, shape):
    """A phases argument: one configuration of phasors of uniform random angles."""
    phasors = np.exp(-1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, size=shape))
    return lambda draw: [phasors]


def test_cascaded_gain_matches_direct_sum():
    # Own-surface components against an element-by-element sum over the
    # full surface-to-PS paths and the cluster sum, shared by the
    # cluster's devices, plus each device's drawn residual; the foreign
    # ones are the drawn terms, attenuated.
    cluster_of = np.array([0, 1, 1])
    hp, hd = draw_full(np.random.default_rng(7), 2, 2, 3, 5)
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.5, 2.0, size=(2, 3))
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2, 5))
    ch = channel_set(hp, hd, cluster_of, lambda draw: [np.exp(-1j * phases)])
    comp = cascaded_components(ch, beta)[0, 0]
    assert comp.shape == (2, 2, 2, 3)
    for t in range(2):
        for i in range(2):
            for m in range(2):
                for k in range(3):
                    if i != cluster_of[k]:
                        assert comp[t, i, m, k] == beta[i, k] * ch.drawn_terms[0, t, i, m, k]
                        continue
                    acc = 0.0 + 0.0j
                    for n in range(5):
                        acc += (
                            np.conj(hp[t, i, n, m])
                            * np.exp(1j * phases[t, i, n])
                            * ch.cluster_sums[t, i, n]
                        )
                    share = np.count_nonzero(cluster_of == i)
                    ref = beta[i, k] * (acc.real / share + ch.drawn_terms[0, t, i, m, k])
                    assert comp[t, i, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_all_cascaded_gains_matches_scalar_loop():
    ch = sample_small_scale(rng_from_seed(13), 3, 2, [0, 0, 1, 1], 6, _random_phasors(2, (3, 2, 6)))
    beta = np.random.default_rng(2).uniform(0.1, 1.0, size=(2, 4))
    grid = all_cascaded_gains(ch, beta)[0, 0]
    assert grid.shape == (3, 2, 4)
    comp_sum = cascaded_components(ch, beta)[0, 0].sum(axis=1)
    for t in range(3):
        for m in range(2):
            for k in range(4):
                ref = _cascaded_gain(ch, beta, 0, 0, t, m, k)
                assert grid[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)
                assert comp_sum[t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_kernels_reproduce_the_full_channel():
    # On the channel set built from a fully materialized draw, the
    # kernels give the full channel's per-surface terms and gains.
    hp, hd = draw_full(np.random.default_rng(5), 3, 3, 7, 4)
    cluster_of = np.array([0, 0, 1, 1, 1, 2, 2])
    beta = np.random.default_rng(6).uniform(0.1, 1.0, size=(3, 7))
    phases = aligned_phases(hp, hd, cluster_of)
    phasors = np.exp(-1j * phases)
    ch = channel_set(hp, hd, cluster_of, lambda draw: [phasors])
    ref = beta[None, :, None, :] * reflected(hp, hd, phases)
    assert np.allclose(cascaded_components(ch, beta)[0, 0], ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(all_cascaded_gains(ch, beta)[0, 0], ref.sum(axis=1), rtol=1e-12, atol=1e-14)
    assert np.allclose(phasors, configure_aligned(ch), rtol=0, atol=1e-12)


PHASE_KINDS = ("aligned", "aligned-1bit", "random")


def _kind_phasors(kinds, align, rng):
    """Phasors of each kind: aligned, aligned quantized to one bit, or of angles drawn uniformly from rng."""
    table = {
        "aligned": align,
        "aligned-1bit": corrupt_phases(align, 1),
        "random": np.exp(-1j * rng.uniform(0, 2 * np.pi, align.shape)),
    }
    return [table[kind] for kind in kinds]


class _ZeroSumElement:
    """A generator whose second normal block, the sampler's cluster sums, is 0 at one (surface, element)."""

    def __init__(self, rng, surface, element):
        self._rng, self._at, self._blocks = rng, (surface, element), 0

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        self._blocks += 1
        if self._blocks == 2:
            out[:, :, self._at[0], self._at[1]] = 0.0
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _nested_components(name, trials, M, cluster_of, sizes, seed, chunk, kinds, zero_sum):
    """Per-surface terms and cluster-sum terms of each nested size under each phase kind, unit beta.

    On each draw the phasors of every kind are computed at the largest
    size and sliced per size; the sampler serves all kinds from one
    draw, and the full channel reads their angles. With zero_sum =
    (surface, element), that element of the surface's cluster sum is 0:
    the sampler's is set to 0 and the full channel's own devices are
    centred there. Returns one (trials, sizes * M * M * K) array of
    raveled (size, surface, antenna, device) terms per kind, and one
    (trials, kinds * sizes * M * M) array of raveled (kind, size,
    surface, antenna) cluster-sum terms, kept in single precision to
    halve the memory: its rounding, 6e-8 relative, is far below the
    Monte Carlo error of any statistic here.
    """
    K = cluster_of.size
    parts, summed = [[] for _ in kinds], []
    for start in range(0, trials, chunk):
        rng = rng_from_seed(derive_seed(seed, name, start))
        if name == "sampler":
            draws = rng if zero_sum is None else _ZeroSumElement(rng, *zero_sum)
            configs = []

            def phases(draw):
                configs.extend(_kind_phasors(kinds, configure_aligned(draw), rng))
                return configs

            ch = sample_small_scale(draws, chunk, M, cluster_of, sizes, phases)
            comp = cascaded_components(ch, np.ones((M, K)))
            terms = [list(comp[:, j]) for j in range(len(kinds))]
            sums = [list(ch.summed_terms[:, j]) for j in range(len(kinds))]
        else:
            hp, hd = draw_full(rng, chunk, M, K, sizes[-1])
            if zero_sum is not None:
                i, n0 = zero_sum
                own = hd[:, i, cluster_of == i, n0]
                hd[:, i, cluster_of == i, n0] = own - own.mean(axis=1, keepdims=True)
            configs = _kind_phasors(kinds, np.exp(-1j * aligned_phases(hp, hd, cluster_of)), rng)
            cluster = np.stack([hd[:, i, cluster_of == i].sum(axis=1) for i in range(M)], axis=1)
            terms = [[reflected(hp[:, :, :n], hd[..., :n], -np.angle(p[:, :, :n])) for n in sizes]
                     for p in configs]
            sums = [[summed_terms(hp[:, :, :n], cluster[:, :, :n], p[:, :, :n]) for n in sizes]
                    for p in configs]
        for part, kind_terms in zip(parts, terms):
            part.append(np.stack(kind_terms, axis=1).reshape(chunk, -1).astype(np.float32))
        summed.append(np.stack([np.stack(s, axis=1) for s in sums], axis=1)
                      .reshape(chunk, -1).astype(np.float32))
    return [np.concatenate(p) for p in parts], np.concatenate(summed)


def _mean_and_stderr(x):
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])


def _covariance_pairs(cluster_of, sizes, M):
    """Index pairs into one trial's raveled (size, surface, antenna, device) terms.

    Every pair of (size, antenna) terms within one (surface, device),
    which gives the variances, the antenna covariances and the
    cross-size covariances; and every (size, antenna) x (size, antenna)
    pair of two devices of one cluster on their own surface, which gives
    the within-cluster cross-device covariances.
    """
    K = cluster_of.size
    idx = np.arange(len(sizes) * M * M * K).reshape(len(sizes), M, M, K)
    pairs = []
    for i in range(M):
        for k in range(K):
            v = idx[:, i, :, k].ravel()
            a, b = np.triu_indices(v.size)
            pairs.append(np.stack([v[a], v[b]], axis=1))
        own = np.flatnonzero(cluster_of == i)
        for a, k in enumerate(own):
            for l in own[a + 1:]:
                v, w = idx[:, i, :, k].ravel(), idx[:, i, :, l].ravel()
                pairs.append(np.stack(np.meshgrid(v, w, indexing="ij"), axis=-1).reshape(-1, 2))
    return np.concatenate(pairs)


def _cross_configuration_pairs(kinds, sizes, M):
    """Index pairs into one trial's raveled (kind, size, surface, antenna) cluster-sum terms.

    Every pair of two configurations' terms of one (surface, antenna),
    at any two sizes: the cross-configuration covariances, which no
    single configuration's statistics see.
    """
    idx = np.arange(len(kinds) * len(sizes) * M * M).reshape(len(kinds), len(sizes), M * M)
    pairs = [np.stack(np.broadcast_arrays(idx[a][:, None], idx[b][None]), axis=-1).reshape(-1, 2)
             for a in range(len(kinds)) for b in range(a + 1, len(kinds))]
    return np.concatenate(pairs)


def _joint_pairs(cluster_of, sizes, M):
    """Index pairs of (size, surface, antenna) cluster-sum terms and (size, surface, antenna, device) terms.

    Every cluster-sum term with the term of each foreign device on the
    same surface at the same antenna and size: the covariance of their
    squares ties the cluster-sum terms to the Gram matrix the drawn
    terms are drawn from, which no second moment sees.
    """
    K = cluster_of.size
    summed = np.arange(len(sizes) * M * M).reshape(len(sizes), M, M)
    terms = np.arange(len(sizes) * M * M * K).reshape(len(sizes), M, M, K)
    pairs = [np.stack(np.broadcast_arrays(summed[:, i, :, None], terms[:, i][..., cluster_of != i]),
                      axis=-1).reshape(-1, 2) for i in range(M)]
    return np.concatenate(pairs)


def _covariance_and_stderr(x, pairs):
    """Sample covariance of each index pair of x (trials, Q) and its standard error.

    The covariance is the mean of the centred products, and its
    standard error that of the products (ddof=1), both read off Q x Q
    matmuls.
    """
    n = x.shape[0]
    x = x - x.mean(axis=0)
    p, q = pairs.T
    cov = (x.T @ x)[p, q] / n
    x *= x
    fourth = (x.T @ x)[p, q] / n
    return cov, np.sqrt((fourth - cov**2) / (n - 1))


def _exactness_z(trials, M, cluster_of, sizes, seed, chunk, kinds=PHASE_KINDS, zero_sum=None):
    """Two-sample z-scores, sampler against full materialization.

    Per kind: the mean of every (size, surface, antenna, device) term,
    every covariance named by _covariance_pairs and the covariance of
    the squares of every pair named by _joint_pairs; across kinds, every
    covariance named by _cross_configuration_pairs.
    """
    pairs = _covariance_pairs(cluster_of, sizes, M)
    cross = _cross_configuration_pairs(kinds, sizes, M)
    joint = _joint_pairs(cluster_of, sizes, M) + [0, len(sizes) * M * M]
    (x, x_sums), (y, y_sums) = (
        _nested_components(name, trials, M, cluster_of, sizes, seed, chunk, kinds, zero_sum)
        for name in ("sampler", "full"))
    z = []
    for j, (a, b) in enumerate(zip(x, y)):
        for stats in (_mean_and_stderr, lambda v: _covariance_and_stderr(v, pairs)):
            (mx, sx), (my, sy) = (stats(v.astype(np.float64)) for v in (a, b))
            z.append((mx - my) / np.hypot(sx, sy))
        kind = slice(j * len(sizes) * M * M, (j + 1) * len(sizes) * M * M)
        (mx, sx), (my, sy) = (
            _covariance_and_stderr(np.concatenate((sums[:, kind], terms), axis=1)
                                   .astype(np.float64) ** 2, joint)
            for sums, terms in ((x_sums, a), (y_sums, b)))
        z.append((mx - my) / np.hypot(sx, sy))
    (mx, sx), (my, sy) = (_covariance_and_stderr(v.astype(np.float64), cross)
                          for v in (x_sums, y_sums))
    z.append((mx - my) / np.hypot(sx, sy))
    z = np.concatenate(z)
    assert z.size == (len(kinds) * (len(sizes) * M * M * cluster_of.size + len(pairs) + len(joint))
                      + len(cross))
    return z


def _assert_no_rejection(z, family_alpha=1e-4):
    """Bonferroni over the whole family of two-sided z-tests at the family-wise false-alarm rate."""
    z_crit = NormalDist().inv_cdf(1 - family_alpha / (2 * z.size))
    assert np.max(np.abs(z)) <= z_crit


def test_conditional_sampler_matches_full_materialization():
    # Two-sample z-tests at the desk shape with N = 16, between the
    # conditional sampler, serving aligned, 1-bit aligned and random
    # phases from one draw, and full materialization: the mean of every
    # (surface, antenna, device) component, every antenna covariance
    # (variances included) within a (surface, device) pair, and every
    # antenna x antenna covariance between two devices of one cluster on
    # their own surface, which the centring of the own residuals sets,
    # under each phase kind; and the covariance of every (surface,
    # antenna) cluster-sum term under two kinds, which the shared
    # foreign-antenna projections set. Bonferroni over the whole family
    # at a family-wise false-alarm rate of 1e-4.
    trials, M, K, N = 20_000, 4, 20, 16
    _assert_no_rejection(_exactness_z(trials, M, np.repeat(np.arange(M), K // M), (N,), 77, 1000))


def test_nested_prefixes_match_one_materialized_surface():
    # Two-sample z-tests between nested prefixes of one sampler draw and
    # the prefixes of one fully materialized surface, under aligned,
    # 1-bit aligned and random phases computed at the largest size and
    # sliced, with unequal clusters (a singleton, a pair and a triple):
    # the mean of every (size, surface, antenna, device) component, every
    # covariance between two (size, antenna) components of one (surface,
    # device) pair, which ties the sizes' drawn terms together, every
    # such covariance between two devices of one cluster on their own
    # surface, and the covariance of every (surface, antenna) cluster-sum
    # term under two kinds at any two sizes. Bonferroni over the whole
    # family at a family-wise false-alarm rate of 1e-4.
    trials, M, sizes = 20_000, 3, (2, 5)
    _assert_no_rejection(_exactness_z(trials, M, np.array([0, 1, 1, 2, 2, 2]), sizes, 78, 5000))


@pytest.mark.parametrize(
    "sizes, kinds, zero_sum",
    [((1,), PHASE_KINDS, None), ((2,), ("aligned", "random"), None),
     ((2, 5), ("aligned", "aligned"), None), ((1, 4), PHASE_KINDS, (1, 2))],
    ids=["N=1", "N=2", "repeated-configuration", "zero-sum-element"],
)
def test_degenerate_draws_match_full_materialization(sizes, kinds, zero_sum):
    # The z-tests above on the shapes where the draw degenerates, with
    # M = 3 antennas and k = min(2 n, 1 + J) projections per block of n
    # elements. N = 1: k = 2N, so there is no complement and B is wider
    # than tall. N = 2 with two configurations: a complement of one row,
    # fewer than the M - 1 = 2 foreign antennas. One configuration
    # listed twice: B is rank deficient, with complements of one and of
    # two rows. A zero element of a cluster sum: that element's column
    # entries of B vanish except the own path's. Bonferroni over each
    # family at a family-wise false-alarm rate of 1e-4.
    trials, M = 20_000, 3
    z = _exactness_z(trials, M, np.array([0, 1, 1, 2, 2, 2]), sizes, 79, 5000, kinds, zero_sum)
    _assert_no_rejection(z)


def _recorded(seed, T, M, cluster_of, sizes):
    """A draw serving aligned, 1-bit aligned and random phasors, and those phasors."""
    rng = rng_from_seed(seed)
    configs = []

    def phases(draw):
        configs.extend(_aligned_and_random(rng)(draw))
        return configs

    return sample_small_scale(rng, T, M, cluster_of, sizes, phases), configs


def _awkward_channels():
    cluster_of = np.array([0, 1, 1])
    ch, configs = _recorded(5, 6, 2, cluster_of, 4)
    # A trial-axis slice, and Fortran-order copies, whose last axes are
    # not contiguous.
    yield (ChannelSet(ch.own_paths[::2], ch.cluster_sums[::2], ch.summed_terms[:, :, ::2],
                      ch.drawn_terms[:, ::2], cluster_of), [p[::2] for p in configs])
    fields = (ch.own_paths, ch.cluster_sums, ch.summed_terms, ch.drawn_terms)
    yield ChannelSet(*(np.asfortranarray(a) for a in fields), cluster_of), configs
    # One element per surface.
    yield _recorded(6, 2, 2, cluster_of, 1)
    # The surface of the first 2 of 5 elements, built by hand from
    # element-sliced paths, whose element axis is a strided view, and
    # the first slot of the size axis.
    ch, configs = _recorded(7, 3, 2, cluster_of, (2, 5))
    yield (ChannelSet(ch.own_paths[:, :, :2], ch.cluster_sums[:, :, :2], ch.summed_terms[:1],
                      ch.drawn_terms[:1], cluster_of), [p[:, :, :2] for p in configs])
    # Both nested sizes of that draw; the own paths belong to the last.
    yield ch, configs


AWKWARD_IDS = ["trial-slice", "fortran", "N=1", "prefix", "nested"]


@pytest.mark.parametrize("ch, configs", list(_awkward_channels()), ids=AWKWARD_IDS)
def test_gain_kernels_on_awkward_layouts(ch, configs):
    T, M, K = ch.own_paths.shape[0], ch.num_surfaces, ch.cluster_of.size
    B = ch.drawn_terms.shape[0]
    beta = np.random.default_rng(3).uniform(0.1, 1.0, size=(M, K))
    grid = all_cascaded_gains(ch, beta)
    assert grid.shape == (B, len(configs), T, M, K)
    comp_sum = cascaded_components(ch, beta).sum(axis=3)
    for b, j, t, m, k in np.ndindex(grid.shape):
        ref = _cascaded_gain(ch, beta, b, j, t, m, k)
        assert grid[b, j, t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)
        assert comp_sum[b, j, t, m, k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_geometry_to_channel_pipeline():
    cfg = _config(K=6, M=2, N=4)
    geom = place_geometry(cfg, cfg.master_seed)
    beta = large_scale_coefficients(geom, cfg.pathloss_exponent)
    assert beta.shape == (2, 6)
    assert np.all(beta > 0)
    # Own-cluster links are usually shorter, hence stronger on average.
    own = np.array([beta[cfg.cluster_of[k], k] for k in range(6)])
    assert np.all(own > 0)


def _transposed_own_terms(ch, phasors):
    """Reference: real dot products of h_i * phasors and s as interleaved (re, im) pairs, (T, M)."""
    w = np.ascontiguousarray(ch.own_paths * phasors).view(np.float64)
    s = np.ascontiguousarray(ch.cluster_sums).view(np.float64)
    return np.matmul(w[..., None, :], s[..., None])[..., 0, 0]


@pytest.mark.parametrize("ch, configs", list(_awkward_channels()), ids=AWKWARD_IDS)
def test_cluster_sum_terms_match_the_transposed_formula(ch, configs):
    # The own-antenna cluster-sum terms are computed from the own paths:
    # Re{h_i^H diag(conj(phasors)) s_i} for every configuration; the
    # foreign-antenna ones are drawn. The own paths belong to the last size.
    T, M = ch.own_paths.shape[0], ch.num_surfaces
    assert ch.summed_terms.shape[1:] == (len(configs), T, M, M)
    for j, phasors in enumerate(configs):
        got = np.diagonal(ch.summed_terms[-1, j], axis1=-2, axis2=-1)
        ref = _transposed_own_terms(ch, phasors)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(np.isfinite(ch.summed_terms))


def test_gain_kernels_reject_real_angles():
    # Real angles are not phasors: the sampler refuses them as a
    # configuration. The gain kernels return every configuration drawn
    # with the channel and take no phases at all, so a caller passing
    # angles or phasors as a third argument fails loudly rather than
    # getting gains of other phases.
    theta = np.zeros((2, 2, 4))
    with pytest.raises(ValueError, match="phasors"):
        sample_small_scale(rng_from_seed(3), 2, 2, [0, 1, 1], 4, lambda draw: [theta])
    ch = sample_small_scale(rng_from_seed(3), 2, 2, [0, 1, 1], 4, aligned)
    for phases in (theta, np.exp(-1j * theta)):
        for kernel in (all_cascaded_gains, cascaded_components):
            with pytest.raises(TypeError):
                kernel(ch, np.ones((2, 3)), phases)
