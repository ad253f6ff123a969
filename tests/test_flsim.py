"""Synthetic clustered tasks and the federated training loop."""

import numpy as np
import pytest

import airpfl.flsim as flsim
from airpfl.control import unbiased_design
from airpfl.flsim import (
    DeviceDataset,
    local_gradient,
    local_loss,
    run_training,
    sgd_step,
    synth_clustered_tasks,
)
from airpfl.sysmodel import ConfigError, make_config, place_geometry


def _config(K=6, M=2, N=32, D=8, noise_var=1e-9, seed=2):
    return make_config(
        num_devices=K,
        num_clusters=M,
        num_ris_elements=N,
        model_dim=D,
        cluster_of=np.sort(np.arange(K) % M),
        max_power=1.0,
        noise_var=noise_var,
        master_seed=seed,
    )


def test_gradient_bias_only_examples():
    # Model dimension one means a single bias coordinate.
    ds = DeviceDataset(features=np.zeros((1, 0)), targets=np.array([0.0]), owner=0)
    assert np.allclose(local_gradient(np.zeros(1), ds), [0.0])
    ds2 = DeviceDataset(features=np.zeros((1, 0)), targets=np.array([2.0]), owner=0)
    assert np.allclose(local_gradient(np.zeros(1), ds2), [-2.0])


def test_gradient_single_feature_example():
    ds = DeviceDataset(features=np.array([[1.0]]), targets=np.array([2.0]), owner=0)
    grad = local_gradient(np.zeros(2), ds)
    assert np.allclose(grad, [-2.0, -2.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    ds = DeviceDataset(
        features=rng.standard_normal((20, 4)), targets=rng.standard_normal(20), owner=0
    )
    w = rng.standard_normal(5)
    grad = local_gradient(w, ds)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (local_loss(w + e, ds) - local_loss(w - e, ds)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_training_losses_are_member_averages(monkeypatch):
    # Unequal clusters of 3 and 2 devices; each cluster's recorded loss is
    # the mean local loss of its devices under its updated model, with
    # one local_loss call per device and round through the module.
    cfg = _config(K=5)
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=5)
    calls = []

    def counted(weights, ds):
        calls.append(ds.owner)
        return local_loss(weights, ds)

    monkeypatch.setattr(flsim, "local_loss", counted)
    hist = run_training(cfg, geom, datasets, "unbiased", rounds=2)
    assert calls == list(range(5)) * 2
    for m, w in enumerate(hist.final_weights):
        members = np.flatnonzero(cfg.cluster_of == m)
        expected = np.mean([local_loss(w, datasets[k]) for k in members])
        assert hist.losses[-1, m] == pytest.approx(expected, rel=1e-12)


def test_sgd_step():
    w = np.array([1.0, -2.0])
    g = np.array([0.5, 0.5])
    assert np.allclose(sgd_step(w, g, 0.1), [0.95, -2.05])


def test_synth_tasks_shapes_and_determinism():
    cfg = _config()
    ds_a, truth_a = synth_clustered_tasks(cfg, 12, 0.1, task_seed=4)
    ds_b, truth_b = synth_clustered_tasks(cfg, 12, 0.1, task_seed=4)
    ds_c, _ = synth_clustered_tasks(cfg, 12, 0.1, task_seed=5)
    assert truth_a.shape == (2, 8)
    assert np.array_equal(truth_a, truth_b)
    assert len(ds_a) == 6
    for k, d in enumerate(ds_a):
        assert d.owner == k
        assert d.features.shape == (12, 7)
        assert d.targets.shape == (12,)
        assert np.array_equal(d.features, ds_b[k].features)
    assert not np.allclose(ds_a[0].targets, ds_c[0].targets)


def test_synth_tasks_noiseless_labels_follow_truth():
    cfg = _config()
    datasets, truth = synth_clustered_tasks(cfg, 9, 0.0, task_seed=8)
    for k, d in enumerate(datasets):
        m = int(cfg.cluster_of[k])
        xa = np.concatenate([d.features, np.ones((9, 1))], axis=1)
        assert np.allclose(d.targets, xa @ truth[m], atol=1e-12)


def test_synth_tasks_validate_arguments():
    cfg = _config()
    with pytest.raises(ValueError):
        synth_clustered_tasks(cfg, 0, 0.1, 0)
    with pytest.raises(ValueError):
        synth_clustered_tasks(cfg, 5, -0.1, 0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_ideal_training_converges_monotonically():
    cfg = _config()
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 40, 0.05, task_seed=cfg.master_seed)
    hist = run_training(cfg, geom, datasets, "ideal", rounds=150, eta=0.05)
    summed = hist.losses.sum(axis=1)
    assert np.all(np.diff(summed) <= 1e-9)
    assert summed[-1] < 0.05 * summed[0]
    assert np.all(hist.nmse == 0.0)
    assert hist.final_weights.shape == (2, 8)


def test_training_is_deterministic():
    cfg = _config()
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 20, 0.1, task_seed=cfg.master_seed)
    a = run_training(cfg, geom, datasets, "unbiased", rounds=12, eta=0.05)
    b = run_training(cfg, geom, datasets, "unbiased", rounds=12, eta=0.05)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.nmse, b.nmse)
    assert np.array_equal(a.final_weights, b.final_weights)


@pytest.mark.parametrize(
    "scheme", ["unbiased", "mmse", "mmse+powopt", "random-phase", "unbiased-1bit"]
)
def test_every_scheme_runs_and_records_nmse(scheme):
    cfg = _config(K=4, M=2, N=16, D=6)
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 15, 0.1, task_seed=cfg.master_seed)
    hist = run_training(cfg, geom, datasets, scheme, rounds=6, eta=0.04)
    assert hist.losses.shape == (6, 2)
    assert hist.nmse.shape == (6,)
    assert np.all(np.isfinite(hist.losses))
    assert np.all(hist.nmse >= 0.0)
    assert hist.scheme == scheme


def test_constant_gradient_cluster_transmits_mean_exactly():
    # Bias-only tasks with constant targets make every local gradient a
    # single repeated value, so the reported std is zero, the analog
    # signal is dropped, and aggregation reduces to the exact mean.
    cfg = make_config(
        num_devices=2,
        num_clusters=1,
        num_ris_elements=4,
        model_dim=1,
        cluster_of=[0, 0],
        max_power=1.0,
        noise_var=1e-6,
        master_seed=9,
    )
    geom = place_geometry(cfg, 9)
    datasets = [
        DeviceDataset(features=np.zeros((5, 0)), targets=np.full(5, 3.0), owner=0),
        DeviceDataset(features=np.zeros((5, 0)), targets=np.full(5, 3.0), owner=1),
    ]
    hist = run_training(cfg, geom, datasets, "unbiased", rounds=150, eta=0.1)
    assert np.allclose(hist.nmse, 0.0, atol=1e-24)
    assert hist.final_weights[0, 0] == pytest.approx(3.0, rel=1e-4)


def test_cluster_switched_off_by_power_control_estimates_its_mean_term():
    # Cluster 1's own gains are zero, so the optimized powers switch its
    # devices off and its aligned signal vanishes. Its estimate must be
    # the mean term the solver scored it by, not the interference scaled
    # by the statistical denoiser.
    cfg = _config()
    T, M, K, D = 2, cfg.num_clusters, cfg.num_devices, cfg.model_dim
    rng = np.random.default_rng(4)
    gains = rng.uniform(0.1, 1.0, size=(T, M, K))
    gains[:, 1, cfg.cluster_of == 1] = 0.0
    grads = flsim.normalize_gradient(rng.standard_normal((T, K, D)))
    noise = rng.standard_normal((T, M, D))
    scheme = flsim.parse_scheme("mmse+powopt")
    design = unbiased_design(
        np.ones((M, K)), grads.std, cfg.max_power, D, cfg.num_ris_elements, cfg.cluster_of
    )
    est = flsim.aggregate_round(cfg, scheme, design, gains, grads, noise, [1, 2])
    mean_term = flsim.cluster_average(grads.mean, cfg.cluster_of, M)
    assert np.array_equal(est[:, 1], np.repeat(mean_term[:, 1, None], D, axis=1))
    assert np.all(np.isfinite(est))


def test_quantized_training_snaps_every_round_to_the_grid(monkeypatch):
    # "-{b}bit" quantizes each round's phases with corrupt_phases, as
    # the sweep does: every phase that reaches the gains sits on the
    # 2**b grid, and the run differs from the unquantized one.
    cfg = _config(K=4, M=2, N=16, D=6)
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 15, 0.1, task_seed=cfg.master_seed)
    seen = []
    draw = flsim.sample_small_scale

    def record(rng, trials, num_clusters, cluster_of, num_elements, phases):
        def recorded(partial):
            seen.append(phases(partial))
            return seen[-1]

        return draw(rng, trials, num_clusters, cluster_of, num_elements, recorded)

    monkeypatch.setattr(flsim, "sample_small_scale", record)
    hist = run_training(cfg, geom, datasets, "random-phase-2bit", rounds=5, eta=0.04)
    assert len(seen) == 5
    for configs in seen:
        assert len(configs) == 1
        assert np.all(np.isin(configs[0], np.exp(-1j * (np.arange(4) * (np.pi / 2)))))
    plain = run_training(cfg, geom, datasets, "random-phase", rounds=5, eta=0.04)
    assert hist.scheme == "random-phase-2bit"
    assert not np.array_equal(hist.nmse, plain.nmse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_training_all_zero_std_gradients_estimate_exactly():
    # Bias-only model: every local gradient is one number, so every
    # standardized gradient is degenerate and each cluster estimate is
    # the exact mean, on every channel scheme.
    cfg = _config(D=1)
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=cfg.master_seed)
    ideal = run_training(cfg, geom, datasets, "ideal", rounds=5)
    for scheme in ("unbiased", "mmse", "mmse+powopt", "random-phase"):
        hist = run_training(cfg, geom, datasets, scheme, rounds=5)
        assert np.all(hist.nmse == 0.0)
        assert np.array_equal(hist.losses, ideal.losses)


def test_training_rejects_bad_arguments():
    cfg = _config()
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=0)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_training(cfg, geom, datasets, "analog", rounds=3)
    with pytest.raises(ValueError):
        run_training(cfg, geom, datasets, "ideal-1bit", rounds=3)
    with pytest.raises(ValueError):
        run_training(cfg, geom, datasets, "ideal", rounds=0)
    with pytest.raises(ValueError):
        run_training(cfg, geom, datasets[:-1], "ideal", rounds=3)
    with pytest.raises(ValueError):
        run_training(cfg, geom, datasets, "ideal", rounds=3, eta=[0.1, 0.1])
    for eta in ([0.1, 0.0, 0.1], [0.1, 0.1, np.nan], -0.05):
        with pytest.raises(ConfigError, match="learning rate"):
            run_training(cfg, geom, datasets, "ideal", rounds=3, eta=eta)


def test_training_divergence_raises():
    cfg = _config()
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 30, 0.05, task_seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            run_training(cfg, geom, datasets, "ideal", rounds=400, eta=5.0)


def test_history_csv_rows():
    cfg = _config()
    geom = place_geometry(cfg, cfg.master_seed)
    datasets, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=0)
    hist = run_training(cfg, geom, datasets, "ideal", rounds=4, eta=0.05)
    rows = hist.csv_rows()
    assert len(rows) == 4 * 2
    assert hist.csv_header() == ["round", "cluster", "loss", "nmse", "scheme", "seed"]
    assert rows[0][0] == 0 and rows[0][1] == 0
    assert rows[-1][0] == 3 and rows[-1][1] == 1
