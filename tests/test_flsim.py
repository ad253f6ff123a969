"""Synthetic clustered tasks and the federated training loop."""

import re

import numpy as np
import pytest

import airpfl.flsim as flsim
from airpfl.control import unbiased_design
from airpfl.flsim import (
    DeviceTasks,
    local_gradient,
    local_loss,
    run_training,
    synth_clustered_tasks,
)
from airpfl.harness import export_csv
from airpfl.sysmodel import ConfigError, make_config


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


def _one_device(features, targets):
    """One device's task, the bias column of ones appended to its features."""
    features = np.asarray(features, dtype=float)
    bias = np.ones((features.shape[0], 1))
    return DeviceTasks(
        features=np.concatenate([features, bias], axis=1)[None], targets=np.asarray(targets)[None]
    )


def test_gradient_bias_only_examples():
    # Model dimension one means a single bias coordinate.
    ds = _one_device(np.zeros((1, 0)), [0.0])
    assert np.allclose(local_gradient(np.zeros(1), ds)[0], [0.0])
    ds2 = _one_device(np.zeros((1, 0)), [2.0])
    assert np.allclose(local_gradient(np.zeros(1), ds2)[0], [-2.0])


def test_gradient_single_feature_example():
    ds = _one_device([[1.0]], [2.0])
    grad = local_gradient(np.zeros(2), ds)[0]
    assert np.allclose(grad, [-2.0, -2.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    ds = _one_device(rng.standard_normal((20, 4)), rng.standard_normal(20))
    w = rng.standard_normal(5)
    grad = local_gradient(w, ds)[0]
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (local_loss(w + e, ds)[0] - local_loss(w - e, ds)[0]) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def _per_device_reference(weights, tasks):
    """Gradients and losses device by device, the way a per-device loop computes them."""
    grads, losses = [], []
    for k in range(tasks.targets.shape[0]):
        xa, y = tasks.features[k], tasks.targets[k]
        residual = xa @ weights[k] - y
        grads.append(xa.T @ residual / y.shape[0])
        losses.append(float(0.5 * np.mean(residual**2)))
    return np.stack(grads), np.array(losses)


@pytest.mark.parametrize("K, n, D", [(8, 50, 64), (6, 12, 8), (5, 5, 1), (3, 1, 2)])
def test_batched_kernels_match_per_device_loops(K, n, D):
    # The stacked contractions are the per-device products bit for bit,
    # for one model per device and for one model broadcast to every device.
    cfg = _config(K=K, D=D)
    tasks, _ = synth_clustered_tasks(cfg, n, 0.1, task_seed=7)
    weights = np.random.default_rng(K + n + D).standard_normal((K, D))
    grads, losses = _per_device_reference(weights, tasks)
    assert np.array_equal(local_gradient(weights, tasks), grads)
    assert np.array_equal(local_loss(weights, tasks), losses)
    shared = np.broadcast_to(weights[0], (K, D))
    grads, losses = _per_device_reference(shared, tasks)
    assert np.array_equal(local_gradient(weights[0], tasks), grads)
    assert np.array_equal(local_loss(weights[0], tasks), losses)


def test_training_losses_are_member_averages(monkeypatch):
    # Unequal clusters of 3 and 2 devices; each cluster's recorded loss is
    # the mean local loss of its devices under its updated model, with
    # one local_loss call per round, on every device's model, through the module.
    cfg = _config(K=5)
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=5)
    calls = []

    def counted(weights, tasks):
        calls.append(weights.shape)
        return local_loss(weights, tasks)

    monkeypatch.setattr(flsim, "local_loss", counted)
    hist = run_training(cfg, tasks, "unbiased", rounds=2)
    assert calls == [(5, 8)] * 2
    for m, w in enumerate(hist.final_weights):
        members = np.flatnonzero(cfg.cluster_of == m)
        expected = np.mean(local_loss(w, tasks)[members])
        assert hist.losses[-1, m] == pytest.approx(expected, rel=1e-12)


def test_synth_tasks_shapes_and_determinism():
    cfg = _config()
    ds_a, truth_a = synth_clustered_tasks(cfg, 12, 0.1, task_seed=4)
    ds_b, truth_b = synth_clustered_tasks(cfg, 12, 0.1, task_seed=4)
    ds_c, _ = synth_clustered_tasks(cfg, 12, 0.1, task_seed=5)
    assert truth_a.shape == (2, 8)
    assert np.array_equal(truth_a, truth_b)
    assert ds_a.features.shape == (6, 12, 8)
    assert ds_a.targets.shape == (6, 12)
    assert np.all(ds_a.features[..., -1] == 1.0)
    assert np.array_equal(ds_a.features, ds_b.features)
    assert np.array_equal(ds_a.targets, ds_b.targets)
    assert not np.allclose(ds_a.targets[0], ds_c.targets[0])


def test_synth_tasks_noiseless_labels_follow_truth():
    cfg = _config()
    tasks, truth = synth_clustered_tasks(cfg, 9, 0.0, task_seed=8)
    for k in range(cfg.num_devices):
        m = int(cfg.cluster_of[k])
        assert np.allclose(tasks.targets[k], tasks.features[k] @ truth[m], atol=1e-12)


def test_synth_tasks_validate_arguments():
    cfg = _config()
    with pytest.raises(ValueError):
        synth_clustered_tasks(cfg, 0, 0.1, 0)
    with pytest.raises(ValueError):
        synth_clustered_tasks(cfg, 5, -0.1, 0)
    # -1 would alias 2**64 - 1 and 1.0 would open another stream than 1.
    for seed in (True, 1.0, -1, 2**64):
        with pytest.raises(ConfigError, match="task_seed"):
            synth_clustered_tasks(cfg, 5, 0.1, seed)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_ideal_training_converges_monotonically():
    cfg = _config()
    tasks, _ = synth_clustered_tasks(cfg, 40, 0.05, task_seed=cfg.master_seed)
    hist = run_training(cfg, tasks, "ideal", rounds=150, eta=0.05)
    summed = hist.losses.sum(axis=1)
    assert np.all(np.diff(summed) <= 1e-9)
    assert summed[-1] < 0.05 * summed[0]
    assert np.all(hist.nmse == 0.0)
    assert hist.final_weights.shape == (2, 8)


def test_training_is_deterministic():
    cfg = _config()
    tasks, _ = synth_clustered_tasks(cfg, 20, 0.1, task_seed=cfg.master_seed)
    a = run_training(cfg, tasks, "unbiased", rounds=12, eta=0.05)
    b = run_training(cfg, tasks, "unbiased", rounds=12, eta=0.05)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.nmse, b.nmse)
    assert np.array_equal(a.final_weights, b.final_weights)


def test_training_bytes_are_pinned(tmp_path):
    # The digests pin each scheme's CSV bytes, tasks and channel draws
    # included, so any change to the arithmetic of a round shows here; a
    # re-pin follows a field-by-field comparison with the old output,
    # recorded in CHANGES.md.
    import hashlib

    cfg = _config(K=5, N=16, D=6)
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=5)
    pinned = {
        "ideal": "55ecf102066a0fa8a4a3b016a59202ce9dd15a3a2e413daae1e16ead2acdf179",
        "unbiased": "5bd147821883361f4ee44725c90b8a9c1965119b55a9fdb60e6dc010bec03700",
        "mmse": "e580bdc5a4203fe92f8a0139e3f8b92f72d65bc7c141c836ccc3c32e542e44d7",
        "mmse+powopt": "806ed31b72957730d45e493af3a860a780f235b8ec1eb94be374f4654532bb31",
        "random-phase": "3dee705b952fb4c9f5a9b4632cf089521851bc60eecfb3ecf3f8b86400f2476b",
        "mmse-1bit": "005abbeab70dcb21aecf9d895ed34fdf94a1af299777935845c43db38d670d80",
    }
    digests = {}
    for scheme in pinned:
        path = tmp_path / f"{scheme}.csv"
        export_csv(run_training(cfg, tasks, scheme, rounds=3, eta=0.05), str(path))
        digests[scheme] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == pinned


@pytest.mark.parametrize(
    "scheme", ["unbiased", "mmse", "mmse+powopt", "random-phase", "unbiased-1bit"]
)
def test_every_scheme_runs_and_records_nmse(scheme):
    cfg = _config(K=4, M=2, N=16, D=6)
    tasks, _ = synth_clustered_tasks(cfg, 15, 0.1, task_seed=cfg.master_seed)
    hist = run_training(cfg, tasks, scheme, rounds=6, eta=0.04)
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
    tasks = DeviceTasks(features=np.ones((2, 5, 1)), targets=np.full((2, 5), 3.0))
    hist = run_training(cfg, tasks, "unbiased", rounds=150, eta=0.1)
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
    tasks, _ = synth_clustered_tasks(cfg, 15, 0.1, task_seed=cfg.master_seed)
    seen = []
    draw = flsim.sample_small_scale

    def record(rng, trials, num_clusters, cluster_of, num_elements, phases):
        def recorded(partial):
            seen.append(phases(partial))
            return seen[-1]

        return draw(rng, trials, num_clusters, cluster_of, num_elements, recorded)

    monkeypatch.setattr(flsim, "sample_small_scale", record)
    hist = run_training(cfg, tasks, "random-phase-2bit", rounds=5, eta=0.04)
    assert len(seen) == 5
    for configs in seen:
        assert len(configs) == 1
        assert np.all(np.isin(configs[0], np.exp(-1j * (np.arange(4) * (np.pi / 2)))))
    plain = run_training(cfg, tasks, "random-phase", rounds=5, eta=0.04)
    assert hist.scheme == "random-phase-2bit"
    assert not np.array_equal(hist.nmse, plain.nmse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_training_all_zero_std_gradients_estimate_exactly():
    # Bias-only model: every local gradient is one number, so every
    # standardized gradient is degenerate and each cluster estimate is
    # the exact mean, on every channel scheme.
    cfg = _config(D=1)
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=cfg.master_seed)
    ideal = run_training(cfg, tasks, "ideal", rounds=5)
    for scheme in ("unbiased", "mmse", "mmse+powopt", "random-phase"):
        hist = run_training(cfg, tasks, scheme, rounds=5)
        assert np.all(hist.nmse == 0.0)
        assert np.array_equal(hist.losses, ideal.losses)


def test_training_rejects_bad_arguments():
    cfg = _config()
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=0)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_training(cfg, tasks, "analog", rounds=3)
    with pytest.raises(ValueError):
        run_training(cfg, tasks, "ideal-1bit", rounds=3)
    with pytest.raises(ValueError):
        run_training(cfg, tasks, "ideal", rounds=0)
    with pytest.raises(ValueError):
        run_training(cfg, DeviceTasks(tasks.features[:-1], tasks.targets[:-1]), "ideal", 3)
    with pytest.raises(ValueError):
        run_training(cfg, DeviceTasks(tasks.features[..., 1:], tasks.targets), "ideal", 3)
    with pytest.raises(ValueError):
        run_training(cfg, tasks, "ideal", rounds=3, eta=[0.1, 0.1])
    # Learning rates are numbers, not strings or bools that happen to convert.
    bad = ([0.1, 0.0, 0.1], [0.1, 0.1, np.nan], -0.05, "0.05", True, [0.05, "0.05", 0.05])
    for eta in bad:
        with pytest.raises(ConfigError, match="learning rate"):
            run_training(cfg, tasks, "ideal", rounds=3, eta=eta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scheme", ["ideal", "unbiased", "mmse", "mmse+powopt", "random-phase", "unbiased-1bit"]
)
def test_training_divergence_raises(scheme):
    # Every scheme stops with the same error, naming the round, before a
    # channel kernel reads a non-finite gradient spread or loss, and
    # with warnings as errors: numpy's overflow inside the round is the
    # same divergence, not a RuntimeWarning.
    cfg = _config()
    tasks, _ = synth_clustered_tasks(cfg, 30, 0.05, task_seed=1)
    message = rf"diverged at round \d+ under scheme '{re.escape(scheme)}'"
    with pytest.raises(RuntimeError, match=message):
        run_training(cfg, tasks, scheme, rounds=400, eta=5.0)


@pytest.mark.filterwarnings("error")
def test_training_stops_on_a_non_finite_gradient_spread():
    # Targets near the float64 limit leave the first round's losses
    # finite, while the spread of its gradients overflows: the round
    # stops before the statistical design reads an infinite std.
    cfg = _config(K=4, D=4)
    features = np.broadcast_to([3.0, -3.0, 3.0, 1.0], (4, 5, 4))
    tasks = DeviceTasks(features=features.copy(), targets=np.full((4, 5), 1e154))
    with pytest.raises(RuntimeError, match=r"round 0 .*non-finite gradient spread"):
        run_training(cfg, tasks, "unbiased", rounds=3)


@pytest.mark.filterwarnings("error")
def test_an_out_of_range_deployment_is_not_blamed_on_eta():
    # A deployment so far away that its attenuation is tiny but nonzero
    # overflows the first round's design while the weights are still
    # zero: no update has been applied, so the error names the data or
    # the deployment, not the learning rate.
    cfg = make_config(num_devices=4, num_clusters=2, num_ris_elements=8, model_dim=4,
                      cluster_of=[0, 0, 1, 1], max_power=1.0, noise_var=1e-9, master_seed=1,
                      ps_ris_distance=1e70, device_disk_radius=1e70, pathloss_exponent=4)
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=0)
    with pytest.raises(RuntimeError, match=r"round 0 .*before any update") as info:
        run_training(cfg, tasks, "unbiased", rounds=3)
    assert "eta" not in str(info.value)


def test_history_csv_rows():
    cfg = _config()
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=0)
    hist = run_training(cfg, tasks, "ideal", rounds=4, eta=0.05)
    rows = hist.csv_rows()
    assert len(rows) == 4 * 2
    assert hist.csv_header() == ["round", "cluster", "loss", "nmse", "scheme", "seed"]
    assert rows[0][0] == 0 and rows[0][1] == 0
    assert rows[-1][0] == 3 and rows[-1][1] == 1
