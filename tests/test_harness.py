"""Experiment drivers: sweeps, alignment checks, CSV export."""

import csv

import numpy as np
import pytest

from airpfl.channel import all_cascaded_gains, sample_small_scale
from airpfl.control import adaptive_denoisers, conditional_mse, mmse_denoising, unbiased_design
from airpfl.flsim import Scheme, parse_scheme
from airpfl.harness import (
    DESK_N_VALUES,
    DESK_P_VALUES,
    EliminationReport,
    SweepResult,
    desk_scale_config,
    export_csv,
    nmse_sweep,
    verify_elimination,
)
from airpfl.ris import configure_aligned
from airpfl.seeding import rng_from_seed
from airpfl.sysmodel import ConfigError, make_config


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
    assert all(idx.size == 5 for idx in cfg.clusters())
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
    ],
)
def test_scheme_parsing(name, expected):
    assert parse_scheme(name) == Scheme(name, *expected)


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError):
        parse_scheme("waterfilling")


@pytest.mark.parametrize(
    "name", ["ideal-1bit", "mmse-0bit", "mmse-01bit", "mmse-bit", "mmse-1", 3]
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
    ch = sample_small_scale(rng_from_seed(17), T, 2, 5, 6)
    rng = np.random.default_rng(17)
    beta = rng.uniform(0.2, 1.5, size=(2, 5))
    gains = all_cascaded_gains(ch, beta, configure_aligned(ch, cfg.cluster_of))
    sigmas = rng.uniform(0.5, 1.5, size=(T, 5))
    design = unbiased_design(beta, sigmas, cfg.max_power, 4, 6, cfg.cluster_of)
    lam = adaptive_denoisers(
        design.powers, gains, sigmas, noise_var, cfg.cluster_of, design.denoisers
    )
    for t in range(T):
        # Each trial of the batch is the design of that trial alone.
        single = unbiased_design(beta, sigmas[t:t + 1], cfg.max_power, 4, 6, cfg.cluster_of)
        assert np.array_equal(single.powers[0], design.powers[t])
        assert np.array_equal(single.denoisers[0], design.denoisers[t])
        for m in range(2):
            args = (design.powers[t], gains[t, m], sigmas[t], noise_var, cfg.cluster_of, m)
            ref = mmse_denoising(*args)
            if ref <= 0:
                assert lam[t, m] == np.inf  # no positive minimizer: discard
                continue
            assert lam[t, m] == pytest.approx(ref, rel=1e-12)

            # ... and it minimizes the closed-form conditional error.
            def mse(x):
                return conditional_mse(
                    design.powers[t], x, gains[t, m], sigmas[t], noise_var, 4, cfg.cluster_of, m
                )
            assert mse(lam[t, m]) <= min(mse(lam[t, m] * 0.99), mse(lam[t, m] * 1.01))


def test_batched_adaptive_lambda_degraded_modes():
    cluster_of = np.array([0, 1])
    gains = np.array([[[0.0, 0.4], [0.5, 0.6]], [[-0.7, 0.4], [0.5, 0.6]]])
    powers = np.ones((2, 2))
    sigmas = np.ones((2, 2))
    fallback = np.array([[3.0, 4.0], [3.0, 4.0]])
    lam = adaptive_denoisers(powers, gains, sigmas, 0.1, cluster_of, fallback)
    assert lam[0, 0] == 3.0          # vanished own signal, fallback
    assert lam[1, 0] == np.inf       # negative minimizer, discard
    assert np.isfinite(lam[:, 1]).all()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_complete_and_deterministic():
    cfg = _config()
    res_a = nmse_sweep(cfg, ["ideal", "unbiased"], [4, 8], [0.5, 2.0], 40, seed=5)
    res_b = nmse_sweep(cfg, ["ideal", "unbiased"], [4, 8], [0.5, 2.0], 40, seed=5)
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
    cfg = _config()
    res = nmse_sweep(cfg, ["ideal"], [4], [1.0], 25, seed=2)
    cell = res.cell(4, 1.0, "ideal")
    assert cell.nmse_mean == 0.0
    assert cell.nmse_stderr == 0.0


def test_sweep_cell_lookup_raises_on_miss():
    cfg = _config()
    res = nmse_sweep(cfg, ["ideal"], [4], [1.0], 10, seed=2)
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

    monkeypatch.setattr(harness, "_sweep_cell", no_trials)
    with pytest.raises(ConfigError):
        nmse_sweep(_config(), schemes, [4], [1.0], 10, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_all_zero_std_gradients_estimate_exactly():
    # With one model coordinate every standardized gradient is
    # degenerate: no cluster carries an analog signal and every
    # estimate is the exact mean term.
    cfg = _config(D=1)
    res = nmse_sweep(
        cfg, ["unbiased", "mmse", "mmse+powopt", "random-phase"], [4], [1.0], 20, seed=3
    )
    for c in res.cells:
        assert c.nmse_mean == 0.0 and c.nmse_stderr == 0.0


def test_sweep_requires_multiple_trials():
    cfg = _config()
    with pytest.raises(ValueError):
        nmse_sweep(cfg, ["unbiased"], [4], [1.0], 1, seed=0)


def test_adaptive_error_never_exceeds_unbiased():
    cfg = _config(K=8, M=2, N=16, D=12, seed=11)
    res = nmse_sweep(cfg, ["unbiased", "mmse"], [8, 16], [0.5, 5.0], 300, seed=11)
    for n in [8, 16]:
        for p in [0.5, 5.0]:
            u = res.cell(n, p, "unbiased")
            m = res.cell(n, p, "mmse")
            slack = 2 * np.hypot(u.nmse_stderr, m.nmse_stderr)
            assert m.nmse_mean <= u.nmse_mean + slack


def test_stderr_scales_with_trials():
    cfg = _config(K=8, M=2, N=16, D=12, seed=13)
    lo = nmse_sweep(cfg, ["mmse"], [16], [1.0], 400, seed=13)
    hi = nmse_sweep(cfg, ["mmse"], [16], [1.0], 800, seed=13)
    ratio = lo.cell(16, 1.0, "mmse").nmse_stderr / hi.cell(16, 1.0, "mmse").nmse_stderr
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.10)


def test_config_digest_tracks_config():
    cfg_a = _config(seed=3)
    cfg_b = _config(seed=4)
    res_a = nmse_sweep(cfg_a, ["ideal"], [4], [1.0], 10, seed=1)
    res_b = nmse_sweep(cfg_b, ["ideal"], [4], [1.0], 10, seed=1)
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
    report = verify_elimination(cfg, trials=4000, seed=1)
    assert len(report.rows) == 3
    assert all(r.same_cluster for r in report.rows)
    assert report.corrections == []
    assert report.pairs_pass
    assert report.all_pass


def test_elimination_random_phase_control_centers_on_zero():
    cfg = _config(K=6, M=2, N=8)
    report = verify_elimination(cfg, trials=4000, seed=7, phases="random")
    assert all(r.target == 0.0 for r in report.rows)
    assert report.pairs_pass


def test_elimination_argument_validation():
    cfg = _config()
    with pytest.raises(ValueError):
        verify_elimination(cfg, trials=1, seed=0)
    with pytest.raises(ValueError):
        verify_elimination(cfg, trials=100, seed=0, phases="fourier")


def test_elimination_report_shape():
    cfg = _config(K=4, M=2, N=4)
    report = verify_elimination(cfg, trials=500, seed=9)
    assert len(report.rows) == 2 * 4
    own_rows = [r for r in report.rows if r.same_cluster]
    assert len(report.corrections) == len(own_rows) * (2 - 1)
    assert report.csv_header() == [
        "m", "k", "same_cluster", "mean", "stderr", "target", "pass",
    ]
    assert report.trials == 500
    assert report.num_elements == 4


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_sweep_csv_roundtrip_is_exact(tmp_path):
    cfg = _config()
    res = nmse_sweep(cfg, ["unbiased", "ideal"], [4, 8], [0.7], 30, seed=21)
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
    cfg = _config(K=4, M=2, N=4)
    report = verify_elimination(cfg, trials=400, seed=2)
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
