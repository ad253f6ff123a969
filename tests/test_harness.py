"""Experiment drivers: sweeps, alignment checks, CSV export."""

import csv
import dataclasses
import warnings

import numpy as np
import pytest

import airpfl.flsim as flsim
from airpfl.aircomp import NormalizedGradient, cluster_average, normalize_gradient
from airpfl.channel import all_cascaded_gains, large_scale_coefficients, sample_small_scale
from airpfl.control import adaptive_denoisers, conditional_mse, unbiased_design
from airpfl.flsim import Scheme, parse_scheme
from airpfl.harness import (
    DESK_N_VALUES,
    DESK_P_VALUES,
    SWEEP_SCHEMES,
    EliminationReport,
    Moments,
    SweepResult,
    desk_scale_config,
    export_csv,
    nmse_sweep,
    verify_elimination,
)
from airpfl.ris import baseline_phases
from airpfl.seeding import derive_seed, rng_from_seed
from airpfl.sysmodel import ConfigError, make_config, membership, place_geometry
from full_channel import aligned
from round_oracle import round_estimates


def _config(K=6, M=2, N=8, D=4, seed=3):
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


def test_desk_scale_config_shape():
    cfg = desk_scale_config()
    assert cfg.num_devices == 20
    assert cfg.num_clusters == 4
    assert membership(cfg.cluster_of, cfg.num_clusters).sum(axis=1).tolist() == [5, 5, 5, 5]
    assert DESK_N_VALUES == (16, 32, 64, 128, 256)
    assert DESK_P_VALUES == (0.1, 10.0)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("ideal", ("ideal", "none", None)),
        ("unbiased", ("unbiased", "aligned", None)),
        ("mmse", ("mmse", "aligned", None)),
        ("mmse+powopt", ("mmse+powopt", "aligned", None)),
        ("random-phase", ("mmse", "random", None)),
        ("unbiased-1bit", ("unbiased", "aligned", 1)),
        ("mmse-3bit", ("mmse", "aligned", 3)),
        ("random-phase-2bit", ("mmse", "random", 2)),
        ("mmse+powopt-1bit", ("mmse+powopt", "aligned", 1)),
        ("mmse-52bit", ("mmse", "aligned", 52)),
    ],
)
def test_scheme_parsing(name, expected):
    assert parse_scheme(name) == Scheme(name, *expected)
    assert parse_scheme(name).key == expected[1:]


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError):
        parse_scheme("waterfilling")


@pytest.mark.parametrize(
    "name",
    ["ideal-1bit", "mmse-0bit", "mmse-01bit", "mmse-bit", "mmse-1", 3, "unbiased-53bit",
     Scheme("mmse", "mmse", "aligned", None)],  # schemes cross every boundary as labels
)
def test_malformed_scheme_rejected(name):
    with pytest.raises(ConfigError):
        parse_scheme(name)


# ---------------------------------------------------------------------------
# batched kernels against independent oracles
# ---------------------------------------------------------------------------

def test_batched_kernels_match_independent_oracles():
    cfg = _config(K=5, M=2, N=6)
    T, noise_var = 4, 1e-3
    ch = sample_small_scale(rng_from_seed(17), T, 2, cfg.cluster_of, 6, aligned)
    rng = np.random.default_rng(17)
    beta = rng.uniform(0.2, 1.5, size=(2, 5))
    gains = all_cascaded_gains(ch, beta)[0, 0]
    sigmas = rng.uniform(0.5, 1.5, size=(T, 5))
    design = unbiased_design(beta, sigmas, cfg.max_power, 4, 6, cfg.cluster_of)
    lam = adaptive_denoisers(
        design.powers, gains, sigmas, noise_var, cfg.cluster_of, design.denoisers
    )
    for t in range(T):
        # Each trial of the batch is the design of that trial alone ...
        single = unbiased_design(beta, sigmas[t:t + 1], cfg.max_power, 4, 6, cfg.cluster_of)
        assert np.array_equal(single.powers[0], design.powers[t])
        assert np.array_equal(single.denoisers[0], design.denoisers[t])
        row = (design.powers[t:t + 1], gains[t:t + 1], sigmas[t:t + 1], noise_var)
        ref = adaptive_denoisers(*row, cfg.cluster_of, design.denoisers[t:t + 1])[0]
        for m in range(2):
            if ref[m] == np.inf:
                assert lam[t, m] == np.inf  # no positive minimizer: discard
                continue
            assert lam[t, m] == pytest.approx(ref[m], rel=1e-12)

        # ... and it minimizes the closed-form conditional error.
        factors = np.array([1.0, 0.99, 1.01])[:, None]
        mse = conditional_mse(
            np.repeat(design.powers[t:t + 1], 3, axis=0), lam[t] * factors,
            np.repeat(gains[t:t + 1], 3, axis=0), np.repeat(sigmas[t:t + 1], 3, axis=0),
            noise_var, 4, cfg.cluster_of,
        )
        finite = np.isfinite(lam[t])
        assert np.all(mse[0, finite] <= mse[1:, finite].min(axis=0))


def _degraded_round(mode):
    """Four trials of one round; trial 1's cluster 0 is in the given degraded mode.

    Returns the config, scheme, (T, M, K) gains, raw (T, K, D)
    gradients, (T, M, D) noise and the per-trial solver seeds.
    """
    cfg = _config(K=4, M=2, N=8, D=4)
    rng = np.random.default_rng(29)
    gains = rng.uniform(0.1, 1.0, size=(4, 2, 4))
    raw = rng.standard_normal((4, 4, 4))
    noise = rng.standard_normal((4, 2, 4))
    own = cfg.cluster_of == 0
    if mode in ("vanished", "switched-off"):
        gains[1, 0, own] = 0.0
    elif mode == "non-positive":
        gains[1, 0, own] *= -1.0
    elif mode == "zero-std":
        raw[1, own] = 3.0
    scheme = parse_scheme("mmse+powopt" if mode == "switched-off" else "mmse")
    return cfg, scheme, gains, raw, noise, [5, 6, 7, 8]


@pytest.mark.parametrize("mode", ["vanished", "non-positive", "zero-std", "switched-off"])
def test_batched_adaptive_lambda_degraded_modes(mode, monkeypatch):
    # Every degraded mode gives a trial the same denoisers, conditional
    # errors, estimates and NMSE alone (T = 1) as inside a batch of four.
    cfg, scheme, gains, raw, noise, seeds = _degraded_round(mode)
    beta = np.ones((2, 4))
    calls, designs = [], []

    def record(*args):
        calls.append((args, adaptive_denoisers(*args)))
        return calls[-1][1]

    def record_design(*args):
        designs.append(unbiased_design(*args))
        return designs[-1]

    monkeypatch.setattr(flsim, "adaptive_denoisers", record)
    monkeypatch.setattr(flsim, "unbiased_design", record_design)

    def run(rows):
        grads = normalize_gradient(raw[rows])
        truth = cluster_average(raw[rows], cfg.cluster_of, 2)
        N = cfg.num_ris_elements
        [(_, _, sent, denoisers, nmse)] = flsim.aggregate_round(
            cfg, beta, [scheme], {N: {scheme.key: gains[rows]}}, grads, noise[rows], truth,
            powopt_seeds={N: seeds[rows]},
        )
        [est] = round_estimates(cfg, [scheme], {scheme.key: gains[rows]}, grads, noise[rows],
                                sent, denoisers)
        (powers, _, sigmas, *_), lam = calls[-1]
        mse = conditional_mse(powers, lam, gains[rows], sigmas, cfg.noise_var, 4, cfg.cluster_of)
        # the statistical denoisers of size N
        return designs[-1].denoisers[0], lam, mse, est, nmse[0]

    statistical, lam, mse, est, nmse = run(slice(None))
    if mode == "vanished":
        assert lam[1, 0] == statistical[1, 0] < np.inf  # the statistical fallback
    else:
        assert lam[1, 0] == np.inf
    assert np.isfinite(lam[1, 1])
    if mode == "zero-std":
        assert statistical[1, 0] == np.inf
    if mode == "switched-off":
        powers = calls[-1][0][0]
        assert np.all(powers[1, cfg.cluster_of == 0] == 0.0)
    for t in range(4):
        _, lam_t, mse_t, est_t, nmse_t = run(slice(t, t + 1))
        assert np.array_equal(lam_t[0], lam[t])
        assert np.array_equal(mse_t[0], mse[t])
        assert np.array_equal(est_t[0], est[t])
        assert nmse_t[0] == nmse[t]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_complete_and_deterministic():
    cfg = _config(seed=5)
    res_a = nmse_sweep(cfg, ["ideal", "unbiased"], [4, 8], [0.5, 2.0], 40)
    res_b = nmse_sweep(cfg, ["ideal", "unbiased"], [4, 8], [0.5, 2.0], 40)
    assert len(res_a.cells) == 8
    for a, b in zip(res_a.cells, res_b.cells):
        assert a == b
    assert res_a.config_digest == res_b.config_digest
    assert res_a.seed == 5
    for c in res_a.cells:
        assert c.nmse_mean >= 0.0
        assert c.nmse_stderr >= 0.0
        assert c.trials == 40


def test_sweep_ideal_scheme_is_exact():
    cfg = _config(seed=2)
    res = nmse_sweep(cfg, ["ideal"], [4], [1.0], 25)
    cell = res.cell(4, 1.0, "ideal")
    assert cell.nmse_mean == 0.0
    assert cell.nmse_stderr == 0.0


def test_sweep_cell_lookup_raises_on_miss():
    cfg = _config(seed=2)
    res = nmse_sweep(cfg, ["ideal"], [4], [1.0], 10)
    with pytest.raises(KeyError):
        res.cell(8, 1.0, "ideal")


@pytest.mark.parametrize(
    "schemes", [["mmse", "mmse"], ["mmse", "mmse-0bit"], ["ideal-1bit"]],
    ids=["repeated", "zero-bits", "ideal-bits"],
)
def test_sweep_rejects_bad_schemes_before_any_trial(schemes, monkeypatch):
    import airpfl.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "place_geometry", no_trials)
    with pytest.raises(ConfigError):
        nmse_sweep(_config(seed=0), schemes, [4], [1.0], 10)


@pytest.mark.parametrize(
    "n_values, p_values, trials",
    [([4, 4], [1.0], 10), ([4], [1.0, 1.0], 10), ([0], [1.0], 10), ([4], [1.0, -1.0], 10),
     ([4], [float("nan")], 10), ([16.7], [1.0], 10), ([16.0], [1.0], 10), (["16"], [1.0], 10),
     ([4], [1.0], 7.5), ([4], [1.0], "16"), ([4], ["0.5"], 10), ([4], [True], 10)],
    ids=["repeated-N", "repeated-P", "zero-N", "negative-P", "nan-P", "fractional-N",
         "float-N", "string-N", "fractional-trials", "string-trials", "string-P", "bool-P"],
)
def test_sweep_rejects_bad_grid_before_any_trial(n_values, p_values, trials, monkeypatch):
    import airpfl.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "place_geometry", no_trials)
    with pytest.raises(ConfigError):
        nmse_sweep(_config(seed=0), ["mmse"], n_values, p_values, trials)


@pytest.mark.parametrize("field", ["schemes", "n_values", "p_values"])
def test_sweep_rejects_empty_lists_before_any_trial(field, monkeypatch):
    # An empty grid axis once ran no cell (schemes) or failed inside the
    # trials with a bare StopIteration (sizes, budgets).
    import airpfl.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "place_geometry", no_trials)
    grid = {"schemes": ["mmse"], "n_values": [4], "p_values": [1.0], field: []}
    with pytest.raises(ConfigError, match=field):
        nmse_sweep(_config(seed=0), grid["schemes"], grid["n_values"], grid["p_values"], 10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_all_zero_std_gradients_estimate_exactly():
    # With one model coordinate every standardized gradient is
    # degenerate: no cluster carries an analog signal and every
    # estimate is the exact mean term.
    cfg = _config(D=1, seed=3)
    res = nmse_sweep(cfg, ["unbiased", "mmse", "mmse+powopt", "random-phase"], [4], [1.0], 20)
    for c in res.cells:
        assert c.nmse_mean == 0.0 and c.nmse_stderr == 0.0


def test_sweep_requires_multiple_trials():
    cfg = _config(seed=0)
    with pytest.raises(ValueError):
        nmse_sweep(cfg, ["unbiased"], [4], [1.0], 1)


def _count_calls(monkeypatch, calls, module, name):
    """Append name to calls on every call of module.name."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweep_draws_once_per_chunk(monkeypatch):
    # 2 nested surface sizes x 3 chunks (100 + 100 + 50 trials): one draw,
    # one alignment and one gain call per chunk serve every size, power
    # budget and phase key.
    calls = []
    for name in ("sample_small_scale", "configure_aligned", "all_cascaded_gains"):
        _count_calls(monkeypatch, calls, flsim, name)
    schemes = ["unbiased", "mmse", "unbiased-1bit", "random-phase"]
    nmse_sweep(_config(seed=5), schemes, [4, 8], [0.5, 2.0, 8.0], 250)
    assert calls.count("sample_small_scale") == 3
    assert calls.count("configure_aligned") == 3
    assert calls.count("all_cascaded_gains") == 3


def test_ideal_only_sweep_draws_no_channel(monkeypatch):
    # Ideal cells are exactly 0, so a grid of them alone draws nothing;
    # the same counter sees the draws of a grid with a channel scheme.
    calls = []
    _count_calls(monkeypatch, calls, flsim, "sample_small_scale")
    res = nmse_sweep(desk_scale_config(1), ["ideal"], [16, 256], [1.0], 500)
    assert calls == []
    assert [(c.nmse_mean, c.nmse_stderr) for c in res.cells] == [(0.0, 0.0)] * 2
    nmse_sweep(desk_scale_config(1), ["ideal", "unbiased"], [16], [1.0], 2)
    assert calls == ["sample_small_scale"]


def test_sweep_designs_once_per_chunk_and_budget(monkeypatch):
    designs = []
    _count_calls(monkeypatch, designs, flsim, "unbiased_design")
    schemes = ["unbiased", "mmse", "unbiased-1bit", "random-phase"]
    nmse_sweep(_config(seed=5), schemes, [4, 8], [0.5, 2.0, 8.0], 250)
    assert len(designs) == 3 * 3  # (chunk, P): every size and scheme shares a budget's design


def test_sweep_shares_signal_moments_per_sent_signal(monkeypatch):
    # A cell forms one set of signal moments per sent signal: schemes that
    # send the design's powers under one phase key share one, and the
    # power-optimized scheme sends its own. Per (N, chunk, P): aligned,
    # aligned-1bit and random, plus mmse+powopt, not one per scheme.
    moments = []
    _count_calls(monkeypatch, moments, flsim, "_signal_moments")
    schemes = ["unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase", "mmse+powopt"]
    nmse_sweep(_config(seed=5), schemes, [4, 8], [0.5, 2.0, 8.0], 250)
    assert len(moments) == 2 * 3 * 3 * 4


def test_sweep_forms_no_d_wide_signal_or_estimate(monkeypatch):
    # The sweep scores every cell from moments: the kernels that build a
    # (T, M, D) signal or estimate are never called. That the moments
    # give the explicit estimates' NMSE is test_flsim's oracle test.
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep formed a D-wide array")

    monkeypatch.setattr(flsim, "uplink", refuse)
    monkeypatch.setattr(flsim, "estimate_cluster_gradient", refuse)
    schemes = ["unbiased", "mmse", "mmse-1bit", "random-phase", "mmse+powopt"]
    res = nmse_sweep(_config(seed=5), schemes, [4, 8], [0.5, 2.0], 40)
    assert len(res.cells) == 2 * 2 * 5
    assert all(0.0 < c.nmse_mean < np.inf for c in res.cells)


def test_every_grid_cell_equals_its_one_cell_round(monkeypatch):
    # The sweep runs each chunk's (N, P) grid as one aggregate_round.
    # Every cell it yields must be, bit for bit, the one-cell round under
    # that cell's config, on the same draws, over several chunks. Trial 0
    # gets an all-zero-std cluster 0 and trial 1 a cluster 1 whose own
    # gains vanish, so power control switches it off: both estimates are
    # then the exact mean term, and so are the estimates that uplink and
    # estimate_cluster_gradient build from the yielded powers and denoisers.
    import airpfl.harness as harness

    monkeypatch.setattr(harness, "CHUNK", 16)  # 40 trials: chunks of 16, 16 and 8
    cfg = _config(seed=5)
    schemes = ["unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase",
               "mmse+powopt-1bit"]
    grid_round = flsim.aggregate_round
    checked = []

    def checking_round(cfg, beta, schemes, gains, grads, noise, g_true, budgets, seeds):
        silent = cfg.cluster_of == 0
        values, std = grads.values.copy(), grads.std.copy()
        values[0, silent], std[0, silent] = 0.0, 0.0
        grads = NormalizedGradient(values, grads.mean, std)
        gains = {n: {key: g.copy() for key, g in by_key.items()} for n, by_key in gains.items()}
        for by_key in gains.values():
            for g in by_key.values():
                g[1, 1, cfg.cluster_of == 1] = 0.0
        mean_term = cluster_average(grads.mean, cfg.cluster_of, cfg.num_clusters)
        powopt = [s.powopt for s in schemes].index(True)
        for n, j, *cell in grid_round(cfg, beta, schemes, gains, grads, noise, g_true,
                                      budgets, seeds):
            cell_cfg = cfg.replace(num_ris_elements=n, max_power=budgets[j])
            [(_, _, *alone)] = grid_round(
                cell_cfg, beta, schemes, {n: gains[n]}, grads, noise, g_true,
                powopt_seeds={n: seeds[n]},
            )
            assert all(np.array_equal(a, b) for a, b in zip(cell, alone))
            estimates = round_estimates(cfg, schemes, gains[n], grads, noise, *cell[:2])
            assert np.all(estimates[:, 0, 0] == mean_term[0, 0])
            assert np.all(estimates[powopt, 1, 1] == mean_term[1, 1])
            checked.append((noise.shape[0], n, float(budgets[j][0])))
            yield n, j, *cell

    monkeypatch.setattr(harness, "aggregate_round", checking_round)
    nmse_sweep(cfg, schemes, [8, 4], [2.0, 0.5], 40)
    assert checked == [(tc, n, p) for tc in (16, 16, 8) for n in (4, 8) for p in (2.0, 0.5)]


def test_desk_sweep_chunk_memory_peak(monkeypatch):
    # One chunk of the desk grid peaks at about 15 MB, during the draw.
    # The grid round itself peaks at about 1.3 MB: it scores every cell
    # from (T, M, K) moments and forms no (T, M, D) signal or estimate.
    # A round that held all ten cells' estimates would add some 10 MB.
    import tracemalloc

    import airpfl.harness as harness

    grid_round = harness.aggregate_round
    rounds = []

    def watched_round(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        yield from grid_round(*args)
        rounds.append(tracemalloc.get_traced_memory()[1] - start)

    cfg = desk_scale_config()
    tracemalloc.start()
    try:
        nmse_sweep(cfg, list(SWEEP_SCHEMES), DESK_N_VALUES, DESK_P_VALUES, harness.CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(harness, "aggregate_round", watched_round)
        nmse_sweep(cfg, list(SWEEP_SCHEMES), DESK_N_VALUES, DESK_P_VALUES, harness.CHUNK)
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert len(rounds) == 1 and rounds[0] < 8e6


def test_sweep_cell_does_not_depend_on_the_other_budgets(monkeypatch):
    # Budgets of one surface size share their draws, yet each cell is
    # bit for bit what it is alone or beside budgets in another order.
    import airpfl.harness as harness

    monkeypatch.setattr(harness, "CHUNK", 16)  # 40 trials: chunks of 16, 16 and 8
    cfg = _config(seed=5)
    schemes = ["unbiased", "mmse", "mmse+powopt-1bit", "random-phase"]

    def stats(p_values):
        res = nmse_sweep(cfg, schemes, [4, 8], p_values, 40)
        return {(c.num_elements, c.p_max, c.scheme): (c.nmse_mean, c.nmse_stderr)
                for c in res.cells}

    together = stats([0.5, 2.0, 8.0])
    alone = stats([2.0])
    reordered = stats([8.0, 0.5])
    assert alone == {key: v for key, v in together.items() if key[1] == 2.0}
    assert reordered == {key: v for key, v in together.items() if key[1] != 2.0}
    # Rows stay N-major, then P in the given order, then scheme.
    assert list(reordered) == [(n, p, s) for n in (4, 8) for p in (8.0, 0.5) for s in schemes]


def test_sweep_cell_does_not_depend_on_the_order_of_surface_sizes(monkeypatch):
    # Draws depend on the sorted sizes, so reordering them moves rows only.
    import airpfl.harness as harness

    monkeypatch.setattr(harness, "CHUNK", 16)  # 40 trials: chunks of 16, 16 and 8
    cfg = _config(seed=5)
    schemes = ["unbiased", "mmse", "mmse+powopt-1bit", "random-phase"]

    def stats(n_values):
        res = nmse_sweep(cfg, schemes, n_values, [0.5, 2.0], 40)
        return {(c.num_elements, c.p_max, c.scheme): (c.nmse_mean, c.nmse_stderr)
                for c in res.cells}

    ascending, shuffled = stats([2, 4, 8]), stats([8, 2, 4])
    assert shuffled == ascending
    assert [key[0] for key in shuffled][:: 2 * len(schemes)] == [8, 2, 4]


def test_sweep_cell_does_not_depend_on_the_order_of_schemes(monkeypatch):
    # One draw serves every phase configuration of the schemes, in a
    # fixed order, so reordering the schemes moves rows only.
    import airpfl.harness as harness

    monkeypatch.setattr(harness, "CHUNK", 16)  # 40 trials: chunks of 16, 16 and 8
    schemes = ["unbiased", "mmse-1bit", "random-phase", "ideal"]

    def stats(order):
        res = nmse_sweep(_config(seed=5), order, [4, 8], [0.5], 40)
        return {(c.num_elements, c.p_max, c.scheme): (c.nmse_mean, c.nmse_stderr)
                for c in res.cells}

    assert stats(schemes) == stats(schemes[::-1])


def test_one_size_sweep_bytes_are_pinned(tmp_path, monkeypatch):
    # With one surface size the nested draw is the one-block draw. The
    # digest pins the CSV bytes, so any change to the arithmetic shows
    # here; a re-pin follows a field-by-field comparison with the old
    # output or, when the draw stream changes, a two-sample z-test of
    # every cell against it, recorded in CHANGES.md.
    import hashlib

    import airpfl.harness as harness

    monkeypatch.setattr(harness, "CHUNK", 16)
    schemes = ["unbiased", "mmse", "mmse+powopt-1bit", "random-phase"]
    res = nmse_sweep(_config(seed=5), schemes, [8], [0.5, 2.0], 40)
    path = tmp_path / "sweep.csv"
    export_csv(res, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a3e43742830b8701513963971f8e8b6313fb9fdc59d756ab3b845a82c34a51cd"
    )


def test_nested_sweep_bytes_are_pinned(tmp_path, monkeypatch):
    # Two nested surface sizes share each chunk's draw, with a quantized,
    # a power-optimized and a random phase key; re-pin as above.
    import hashlib

    import airpfl.harness as harness

    monkeypatch.setattr(harness, "CHUNK", 16)
    schemes = ["unbiased", "mmse-1bit", "mmse+powopt-1bit", "random-phase"]
    res = nmse_sweep(_config(seed=5), schemes, [4, 8], [0.5, 2.0], 40)
    path = tmp_path / "sweep.csv"
    export_csv(res, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cee17bdd2986578f5152b4c01c5924513540e3b47cd3b9c272b80fa3c6a9e9b6"
    )


@pytest.mark.parametrize("phases,digest", [
    ("aligned", "51c405f4155d804f5a87777aa3810f14604b78f9feedeb638a6af899584fdb73"),
    ("random", "1c9294b723946ed0fa7f5a5957519771c90c6637d8edb2438bb613dbe4b570d3"),
])
def test_elimination_bytes_are_pinned(phases, digest, tmp_path):
    # Two chunks of the verifier under the aligned design and the random
    # negative control; re-pin as above.
    import hashlib

    report = verify_elimination(_config(K=6, M=2, N=8, seed=7), trials=200, phases=phases)
    path = tmp_path / "elimination.csv"
    export_csv(report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_moments_merge_is_numerically_sound():
    # Mean 1e8 and unit spread: a one-pass sum of squares cancels
    # catastrophically here, the chunked merge does not.
    data = 1e8 + np.random.default_rng(5).standard_normal((1000, 3))
    moments = Moments()
    for start in range(0, 1000, 128):  # uneven last chunk
        moments.add(data[start:start + 128])
    reference = np.var(data, axis=0, ddof=1)
    assert moments.count == 1000
    assert np.allclose(moments.mean, data.mean(axis=0), rtol=1e-14, atol=0)
    assert np.allclose(moments.variance, reference, rtol=1e-9, atol=0)
    assert np.allclose(moments.stderr, np.sqrt(reference / 1000), rtol=1e-9, atol=0)
    one_pass = ((data**2).sum(axis=0) / 1000 - data.mean(axis=0) ** 2) * 1000 / 999
    assert not np.allclose(one_pass, reference, rtol=1e-9, atol=0)

    scalar = Moments()
    for chunk in (data[:1, 0], data[1:700, 0], data[700:, 0]):
        scalar.add(chunk)
    assert scalar.variance == pytest.approx(reference[0], rel=1e-9)


def test_adaptive_error_never_exceeds_unbiased():
    cfg = _config(K=8, M=2, N=16, D=12, seed=11)
    res = nmse_sweep(cfg, ["unbiased", "mmse"], [8, 16], [0.5, 5.0], 300)
    for n in [8, 16]:
        for p in [0.5, 5.0]:
            u = res.cell(n, p, "unbiased")
            m = res.cell(n, p, "mmse")
            slack = 2 * np.hypot(u.nmse_stderr, m.nmse_stderr)
            assert m.nmse_mean <= u.nmse_mean + slack


def test_stderr_scales_with_trials():
    cfg = _config(K=8, M=2, N=16, D=12, seed=13)
    lo = nmse_sweep(cfg, ["mmse"], [16], [1.0], 400)
    hi = nmse_sweep(cfg, ["mmse"], [16], [1.0], 800)
    ratio = lo.cell(16, 1.0, "mmse").nmse_stderr / hi.cell(16, 1.0, "mmse").nmse_stderr
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.10)


def test_config_digest_tracks_config():
    cfg_a = _config(seed=3)
    cfg_b = _config(seed=4)
    res_a = nmse_sweep(cfg_a, ["ideal"], [4], [1.0], 10)
    res_b = nmse_sweep(cfg_b, ["ideal"], [4], [1.0], 10)
    assert res_a.config_digest != res_b.config_digest


# ---------------------------------------------------------------------------
# alignment verification
# ---------------------------------------------------------------------------

def test_elimination_single_cluster_has_no_cross_pairs():
    cfg = make_config(
        num_devices=3,
        num_clusters=1,
        num_ris_elements=8,
        model_dim=2,
        cluster_of=[0, 0, 0],
        max_power=1.0,
        noise_var=0.0,
        master_seed=1,
    )
    report = verify_elimination(cfg, trials=4000)
    assert len(report.rows) == 3
    assert all(r.same_cluster for r in report.rows)
    # The only drawn terms are the own residuals on the one surface.
    assert [(c.antenna, c.surface) for c in report.corrections] == [(0, 0)] * 3
    assert report.pairs_pass
    assert report.all_pass


def test_elimination_random_phase_control_centers_on_zero():
    cfg = _config(K=6, M=2, N=8, seed=7)
    report = verify_elimination(cfg, trials=4000, phases="random")
    assert all(r.target == 0.0 for r in report.rows)
    assert report.pairs_pass


def test_elimination_argument_validation():
    cfg = _config(seed=0)
    with pytest.raises(ConfigError):
        verify_elimination(cfg, trials=1)
    with pytest.raises(ConfigError):
        verify_elimination(cfg, trials=100.0)
    with pytest.raises(ConfigError):
        verify_elimination(cfg, trials=100, phases="fourier")


def _random_design(ch):
    """Uniform random phases in place of the aligned design."""
    return baseline_phases(np.random.default_rng(0), *ch.own_paths.shape)


def _conjugate_dropped(ch):
    """The aligned design with the conjugate on the surface-to-PS phase dropped."""
    theta = np.mod(-np.angle(ch.own_paths) - np.angle(ch.cluster_sums), 2 * np.pi)
    return np.exp(-1j * theta)


@pytest.mark.parametrize("design", [_random_design, _conjugate_dropped],
                         ids=["random-phases", "conjugate-dropped"])
def test_elimination_rejects_a_broken_alignment(design, monkeypatch):
    # The pair checks test the alignment: a phase design that does not
    # align each surface with its own cluster must fail them.
    cfg = _config(K=6, M=2, N=8, seed=7)
    assert verify_elimination(cfg, trials=200).all_pass
    monkeypatch.setattr(flsim, "configure_aligned", design)
    report = verify_elimination(cfg, trials=200)
    assert not report.pairs_pass and not report.all_pass
    assert not any(r.passed for r in report.rows if r.same_cluster)


def test_elimination_rejects_biased_drawn_terms(monkeypatch):
    # The correction checks test the sampler: drawn terms that are not
    # zero mean must fail them, although the pair checks never read them.
    import airpfl.harness as harness

    def offset(*args):
        ch = sample_small_scale(*args)
        return dataclasses.replace(ch, drawn_terms=ch.drawn_terms + 1.0)

    cfg = _config(K=6, M=2, N=8, seed=7)
    honest = verify_elimination(cfg, trials=500)
    assert honest.all_pass
    monkeypatch.setattr(harness, "_sample_batch", offset)
    report = verify_elimination(cfg, trials=500)
    assert report.pairs_pass
    assert [r.mean for r in report.rows] == [r.mean for r in honest.rows]
    assert not report.corrections_pass and not report.all_pass
    assert not any(c.passed for c in report.corrections)


def test_elimination_singleton_cluster_residual_is_an_exact_pass():
    # A singleton cluster's own residual is exactly 0 in every trial; its
    # check scores z = 0 without a 0/0 division.
    cfg = make_config(
        num_devices=3,
        num_clusters=2,
        num_ris_elements=8,
        model_dim=2,
        cluster_of=[0, 0, 1],
        max_power=1.0,
        noise_var=0.0,
        master_seed=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_elimination(cfg, trials=400)
    residual = [c for c in report.corrections if c.device == 2 and c.surface == 1]
    assert len(residual) == 2
    assert all(c.mean == 0.0 and c.stderr == 0.0 and c.z == 0.0 and c.passed for c in residual)
    assert sum(c.stderr == 0.0 for c in report.corrections) == 2
    assert report.all_pass


def test_holm_decisions_follow_the_adjusted_p_values():
    # Reference: Holm-adjusted p_(j) = max_{i <= j} min(1, (n - i) p_(i))
    # over ascending p, from the standard normal tail; a check passes
    # when its adjusted p exceeds alpha.
    from statistics import NormalDist

    from airpfl.harness import _holm

    z = np.array([0.3, -4.6, 4.4, np.inf, 2.9, -0.0, 4.25, -3.0])
    p = np.array([2.0 * NormalDist().cdf(-abs(v)) for v in z])
    order = np.argsort(p, kind="stable")
    adjusted = np.empty_like(p)
    adjusted[order] = np.maximum.accumulate(
        np.minimum((p.size - np.arange(p.size)) * p[order], 1.0))
    for alpha in (1e-5, 1e-4, 1e-3, 0.05):
        passed, family_p = _holm(z, alpha)
        assert passed.tolist() == (adjusted > alpha).tolist()
        assert family_p == pytest.approx(adjusted.min(), rel=1e-9, abs=1e-300)
    assert _holm(z, 1e-3)[0].tolist() == [True, False, False, False, True, True, False, True]


def test_elimination_false_alarms_are_calibrated(monkeypatch):
    # Holm's rule keeps the family-wise false-alarm rate at alpha. At
    # alpha = 1e-2, 40 runs of correct code fail at most 3 times but with
    # probability about 7e-4 (binomial tail, independent seeds); the
    # unadjusted 3-sigma AND over these 36 checks failed about 9% of runs.
    import airpfl.harness as harness

    monkeypatch.setattr(harness, "VERIFY_ALPHA", 1e-2)
    cfg = _config(K=6, M=2, N=8)
    failed = 0
    for seed in range(40):
        report = verify_elimination(cfg.replace(master_seed=seed), trials=500)
        assert report.alpha == 1e-2
        assert len(report.rows) + len(report.corrections) == 36
        failed += not report.all_pass
    assert failed <= 3


def _full_pair_moments(cfg, trials, seed):
    """Pair moments of the whole effective gain on the verifier's own draws."""
    import airpfl.harness as harness

    geometry = place_geometry(cfg, seed)
    beta = large_scale_coefficients(geometry, cfg.pathloss_exponent)
    pairs = Moments()
    for start in range(0, trials, harness.CHUNK):
        tc = min(harness.CHUNK, trials - start)
        rng = rng_from_seed(derive_seed(seed, "elimination", start))
        ch = sample_small_scale(rng, tc, cfg.num_clusters, cfg.cluster_of, cfg.num_ris_elements,
                                aligned)
        pairs.add(all_cascaded_gains(ch, beta)[0, 0])
    return pairs.mean, pairs.stderr


@pytest.mark.parametrize("shape", [dict(K=6, M=2, N=8), dict(K=8, M=2, N=16)],
                         ids=["small", "criterion-1"])
def test_conditioned_pairs_agree_with_the_full_gain_and_are_tighter(shape):
    # The pair estimate is the conditional expectation of the whole gain
    # given the paths the phases read: on the same draws its means agree
    # with the whole gain's, and its stderr is smaller.
    cfg = _config(**shape)
    report = verify_elimination(cfg, trials=4000)
    mean, stderr = _full_pair_moments(cfg, 4000, 3)
    for r in report.rows:
        full_mean, full_se = mean[r.antenna, r.device], stderr[r.antenna, r.device]
        assert abs(r.mean - full_mean) <= 4.0 * np.hypot(r.stderr, full_se)
        assert r.stderr < full_se
    if shape["N"] == 16:
        assert all(stderr[r.antenna, r.device] >= 2.0 * r.stderr
                   for r in report.rows if r.same_cluster)


def test_elimination_report_shape():
    cfg = _config(K=4, M=2, N=4, seed=9)
    report = verify_elimination(cfg, trials=500)
    assert len(report.rows) == 2 * 4
    assert [(c.antenna, c.surface, c.device) for c in report.corrections] == [
        (m, i, k) for m in range(2) for i in range(2) for k in range(4)
    ]
    assert report.csv_header() == [
        "m", "k", "same_cluster", "mean", "stderr", "target", "pass", "z",
    ]
    assert report.alpha == 1e-3
    assert report.trials == 500
    assert report.num_elements == 4


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_sweep_csv_roundtrip_is_exact(tmp_path):
    cfg = _config(seed=21)
    res = nmse_sweep(cfg, ["unbiased", "ideal"], [4, 8], [0.7], 30)
    path = tmp_path / "sweep.csv"
    export_csv(res, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.cells)
    for row, cell in zip(rows, res.cells):
        assert int(row["N"]) == cell.num_elements
        assert float(row["P_max"]) == cell.p_max
        assert row["scheme"] == cell.scheme
        assert int(row["trials"]) == cell.trials
        assert float(row["nmse_mean"]) == cell.nmse_mean
        assert float(row["nmse_stderr"]) == cell.nmse_stderr
        assert int(row["seed"]) == res.seed


def test_elimination_csv_booleans(tmp_path):
    cfg = _config(K=4, M=2, N=4, seed=2)
    report = verify_elimination(cfg, trials=400)
    path = tmp_path / "elim.csv"
    export_csv(report, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["same_cluster"] for row in rows} <= {"True", "False"}
    assert {row["pass"] for row in rows} <= {"True", "False"}
    for row, rec in zip(rows, report.rows):
        assert float(row["mean"]) == rec.mean
        assert float(row["target"]) == rec.target


def test_empty_result_writes_header_only(tmp_path):
    res = SweepResult(cells=[], seed=0, config_digest="abc")
    path = tmp_path / "empty.csv"
    export_csv(res, str(path))
    text = path.read_text()
    assert text == "N,P_max,scheme,trials,nmse_mean,nmse_stderr,seed\n"


def test_export_error_mentions_path(tmp_path):
    res = SweepResult(cells=[], seed=0, config_digest="abc")
    bad = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        export_csv(res, str(bad))


class _Row:
    def __init__(self, *values):
        self.values = values

    def csv_header(self):
        return [f"c{i}" for i in range(len(self.values))]

    def csv_rows(self):
        return [self.values]


def test_csv_cells_format_the_same_for_python_and_numpy_scalars(tmp_path):
    # Python scalars take an exact-type fast path; numpy scalars and
    # subclasses the general one. Both write the same bytes.
    python = (0.1, 1 / 3, 1e-300, -0.0, float("inf"), 7, -3, True, False, "mmse")
    numpy = (np.float64(0.1), np.float64(1 / 3), np.float64(1e-300), np.float64(-0.0),
             np.float64(np.inf), np.int64(7), np.int32(-3), np.bool_(True), np.bool_(False),
             np.str_("mmse"))
    paths = [tmp_path / "python.csv", tmp_path / "numpy.csv"]
    for values, path in zip((python, numpy), paths):
        export_csv(_Row(*values), str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().splitlines()[1] == (
        "0.10000000000000001,0.33333333333333331,1e-300,-0,inf,7,-3,"
        "True,False,mmse"
    )
