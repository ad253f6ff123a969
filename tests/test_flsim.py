"""Synthetic clustered tasks and the federated training loop."""

import itertools
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
from airpfl.channel import large_scale_coefficients
from airpfl.harness import desk_scale_config, export_csv
from airpfl.seeding import derive_seed, rng_from_seed
from airpfl.sysmodel import ConfigError, make_config, place_geometry
from round_oracle import estimation_nmse, round_estimates


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
        "unbiased": "3de2ff4412bcaa7f518332953d4217c3beb7d3a63bcd31e3a4206257a6e6493a",
        "mmse": "215ebb70e3616929eedd16fa95c94dd8a2a0e8cf93d793f8e8cf044ce3689f84",
        "mmse+powopt": "b26349e2b1b17d4ad680e7b79116f1bb665dc9ad508ab5449ac39f9bde23c74d",
        "random-phase": "44994f884b8c744152b87a77d154c9f790c79754c758aaa3f41f1227fd5991a3",
        "mmse-1bit": "1e4cc77f070aa491ab2a845aa20d2935da8bf1f936db59285aae409b820a3107",
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
    T, M, K, D, N = 2, cfg.num_clusters, cfg.num_devices, cfg.model_dim, cfg.num_ris_elements
    rng = np.random.default_rng(4)
    gains = rng.uniform(0.1, 1.0, size=(T, M, K))
    gains[:, 1, cfg.cluster_of == 1] = 0.0
    raw = rng.standard_normal((T, K, D))
    grads = flsim.normalize_gradient(raw)
    noise = flsim.receiver_noise(cfg.noise_var, rng.standard_normal((T, M, D)))
    scheme = flsim.parse_scheme("mmse+powopt")
    beta = np.ones((M, K))
    truth = flsim.cluster_average(raw, cfg.cluster_of, M)
    powers, lam, _ = (a[0, 0] for a in flsim.aggregate_round(
        cfg, beta, [scheme], {N: {scheme.key: gains}}, grads, noise, truth,
        powopt_seeds={N: [1, 2]},
    ))
    [est] = round_estimates(cfg, [scheme], {scheme.key: gains}, grads, noise, powers, lam)
    mean_term = flsim.cluster_average(grads.mean, cfg.cluster_of, M)
    assert np.array_equal(est[:, 1], np.repeat(mean_term[:, 1, None], D, axis=1))
    assert np.all(np.isfinite(est))
    # Without solver seeds for every size, the round refuses the scheme
    # before any design or solve.
    for seeds, unseeded in ((None, [N]), ({N + 1: [1, 2]}, [N])):
        with pytest.raises(ValueError, match=re.escape(f"['mmse+powopt'] optimize powers, but "
                                                       f"surface sizes {unseeded}")):
            flsim.aggregate_round(cfg, beta, [scheme], {N: {scheme.key: gains}}, grads, noise,
                                  truth, powopt_seeds=seeds)


@pytest.mark.parametrize("T", [1, 16])
def test_one_multi_scheme_round_equals_one_round_per_scheme(T):
    # Schemes of one phase key share one set of signal moments, yet each
    # row's powers, denoisers and NMSE are bit for bit the round of its
    # scheme alone. Trial 0's cluster 0 reports zero std throughout.
    cfg = _config(N=16)
    M, K, D = cfg.num_clusters, cfg.num_devices, cfg.model_dim
    schemes = [flsim.parse_scheme(s) for s in
               ["unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase", "mmse+powopt"]]
    rng = np.random.default_rng(17)
    beta = rng.uniform(0.1, 1.0, size=(M, K))
    gains = flsim.draw_gains(rng, rng, T, cfg.cluster_of, beta, [16], [s.key for s in schemes])[16]
    raw = rng.standard_normal((T, K, D))
    raw[0, cfg.cluster_of == 0] = 2.5
    grads = flsim.normalize_gradient(raw)
    noise = flsim.receiver_noise(cfg.noise_var, rng.standard_normal((T, M, D)))
    seeds = [derive_seed(3, "powopt", t) for t in range(T)]
    design = unbiased_design(beta, grads.std, cfg.max_power, D, 16, cfg.cluster_of)
    assert design.denoisers[0, 0] == np.inf

    g_true = flsim.cluster_average(raw, cfg.cluster_of, M)
    powers, lam, nmse = (a[0, 0] for a in flsim.aggregate_round(
        cfg, beta, schemes, {16: gains}, grads, noise, g_true, powopt_seeds={16: seeds}))
    assert (powers.shape, lam.shape, nmse.shape) == ((6, T, K), (6, T, M), (6, T))
    together = round_estimates(cfg, schemes, gains, grads, noise, powers, lam)
    np.testing.assert_allclose(nmse, estimation_nmse(together, g_true), rtol=0, atol=1e-12)
    for s, scheme in enumerate(schemes):
        alone = flsim.aggregate_round(
            cfg, beta, [scheme], {16: {scheme.key: gains[scheme.key]}}, grads, noise, g_true,
            powopt_seeds={16: seeds},
        )
        for got, want in zip(alone, (powers, lam, nmse)):
            assert np.array_equal(got[0, 0, 0], want[s]), scheme.name
        assert np.all(together[s, 0, 0] == g_true[0, 0]), scheme.name  # the exact mean term


@pytest.mark.parametrize("noise_var, D", [(1e-9, 8), (10.0, 8), (1e-9, 3)])
def test_moment_nmse_equals_the_direct_error_of_explicit_estimates(noise_var, D):
    # aggregate_round scores every scheme from second moments. Estimates
    # built from the powers and denoisers it returns, through uplink and
    # estimate_cluster_gradient, scored directly, must give the same NMSE
    # within 1e-12 in every cell. Degraded modes: trial 0's cluster 0
    # reports zero std; trial 1's cluster 1 loses its own gains, so power
    # control switches it off; trial 2's cluster 0 has negative own gains,
    # a non-positive minimizer. With D = 3 there are more devices (6) than
    # coordinates, and the Gram matrix is singular.
    cfg = _config(noise_var=noise_var, D=D)
    M, K = cfg.num_clusters, cfg.num_devices
    names = ["unbiased", "mmse", "unbiased-1bit", "mmse-1bit", "random-phase", "mmse+powopt-1bit"]
    schemes = [flsim.parse_scheme(s) for s in names]
    T, sizes, budgets = 12, [8, 16], [np.full(K, 0.5), np.full(K, 2.0)]
    rng = np.random.default_rng(29)
    beta = rng.uniform(0.1, 1.0, size=(M, K))
    gains = flsim.draw_gains(rng, rng, T, cfg.cluster_of, beta, sizes, [s.key for s in schemes])
    for by_key in gains.values():
        for g in by_key.values():
            g[1, 1, cfg.cluster_of == 1] = 0.0
            g[2, 0, cfg.cluster_of == 0] = -np.abs(g[2, 0, cfg.cluster_of == 0])
    raw = rng.standard_normal((T, K, D))
    raw[0, cfg.cluster_of == 0] = 2.5
    grads = flsim.normalize_gradient(raw)
    noise = flsim.receiver_noise(cfg.noise_var, rng.standard_normal((T, M, D)))
    g_true = flsim.cluster_average(raw, cfg.cluster_of, M)
    seeds = {n: [derive_seed(4, "powopt", n, t) for t in range(T)] for n in sizes}
    grid = flsim.aggregate_round(cfg, beta, schemes, gains, grads, noise, g_true, budgets, seeds)
    assert all(a.shape[:3] == (2, 2, len(schemes)) for a in grid)
    for (i, n), j in itertools.product(enumerate(gains), range(2)):
        powers, lam, nmse = (a[i, j] for a in grid)
        assert np.all(lam[:, 0, 0] == np.inf)
        assert lam[-1, 1, 1] == np.inf and np.all(powers[-1, 1, cfg.cluster_of == 1] == 0.0)
        assert np.all(lam[[1, 3], 2, 0] == np.inf)
        explicit = round_estimates(cfg, schemes, gains[n], grads, noise, powers, lam)
        np.testing.assert_allclose(nmse, estimation_nmse(explicit, g_true), rtol=0, atol=1e-12)


def test_exact_one_device_cluster_scores_zero_and_never_below():
    # Cluster 0 is one device and there is no noise: the MMSE denoiser
    # undoes its gain, so its estimate is its gradient and the moments
    # cancel to rounding, which the per-cluster clamp keeps from going
    # negative. Cluster 1 sends a constant 2.5, exactly its mean term.
    cfg = make_config(num_devices=3, num_clusters=2, num_ris_elements=8, model_dim=64,
                      cluster_of=[0, 1, 1], max_power=1.0, noise_var=0.0, master_seed=1)
    T = 200
    rng = np.random.default_rng(31)
    gains = rng.uniform(1e-3, 1.0, size=(T, 2, 3))
    raw = np.full((T, 3, 64), 2.5)
    raw[:, 0] = rng.normal(rng.uniform(-2, 2, size=(T, 1)), rng.uniform(0.1, 3, size=(T, 1)),
                           size=(T, 64))
    g_true = flsim.cluster_average(raw, cfg.cluster_of, 2)
    scheme = flsim.parse_scheme("mmse")
    *_, nmse = flsim.aggregate_round(
        cfg, np.ones((2, 3)), [scheme], {8: {scheme.key: gains}}, flsim.normalize_gradient(raw),
        np.zeros((T, 2, 64)), g_true)
    assert np.all(nmse >= 0.0) and np.all(nmse <= 1e-12)


@pytest.mark.parametrize("c", [1e-140, 1e-40, 1e-12, 1e-8, 1e10, 1e150])
def test_every_scheme_nmse_is_unchanged_by_the_channel_scale(c):
    # The uplink is homogeneous: gains and beta times c with noise_var
    # times c**2 is the same round in other units, so every scheme's
    # mean NMSE stays put up to rounding and the solver's tolerance.
    cfg = desk_scale_config(1)
    M, K, D, N = cfg.num_clusters, cfg.num_devices, cfg.model_dim, cfg.num_ris_elements
    T = 20
    beta = large_scale_coefficients(place_geometry(cfg, 1), cfg.pathloss_exponent)
    schemes = [flsim.parse_scheme(s) for s in
               ["unbiased", "mmse", "mmse+powopt", "random-phase", "mmse-1bit"]]
    rng = np.random.default_rng(5)
    gains = flsim.draw_gains(rng, rng, T, cfg.cluster_of, beta, [N], [s.key for s in schemes])[N]
    raw = rng.standard_normal((T, K, D))
    grads = flsim.normalize_gradient(raw)
    normals = rng.standard_normal((T, M, D))
    seeds = [derive_seed(1, "powopt", t) for t in range(T)]
    truth = flsim.cluster_average(raw, cfg.cluster_of, M)

    def mean_nmse(scale):
        scaled = {key: g * scale for key, g in gains.items()}
        noise_var = cfg.noise_var * scale**2
        *_, nmse = flsim.aggregate_round(
            cfg.replace(noise_var=noise_var), beta * scale, schemes, {N: scaled}, grads,
            flsim.receiver_noise(noise_var, normals), truth, powopt_seeds={N: seeds},
        )
        return nmse[0, 0].mean(axis=1)

    np.testing.assert_allclose(mean_nmse(c), mean_nmse(1.0), rtol=1e-9, atol=0)


@pytest.mark.parametrize("phases", ["Random", "randon", "ideal", ""])
def test_unknown_phase_kind_is_refused(phases):
    # Only "aligned" and "random" name a phase design; any other kind, a
    # typo or a different case included, is refused rather than served
    # some design under its own key.
    rng = np.random.default_rng(4)
    beta = rng.uniform(0.1, 1.0, size=(2, 4))
    keys = [("aligned", None), (phases, 1)]
    with pytest.raises(ValueError, match=f"got {phases!r}"):
        flsim.draw_gains(rng, rng, 3, [0, 0, 1, 1], beta, [4], keys)
    with pytest.raises(ValueError, match=f"got {phases!r}"):
        flsim.phase_configurations(None, keys[1:], rng)


SWEEP_KEYS = [("aligned", None), ("aligned", 1), ("random", None)]


@pytest.mark.parametrize("shared", [True, False], ids=["phases-from-rng", "own-phase-rngs"])
def test_per_trial_generators_give_each_trial_its_solo_draw(shared):
    # T per-trial generators give T one-trial draws bit for bit, over
    # several nested blocks and the sweep's three phase keys, whether
    # the random phases come from the trial's channel generator (as in
    # the sweep) or from a generator of their own (as in training).
    T, M, K, sizes = 4, 3, 7, [4, 16, 64]
    cluster_of = np.arange(K) % M
    beta = np.random.default_rng(3).uniform(0.1, 1.0, size=(M, K))

    def streams(t):
        rng = rng_from_seed(derive_seed(9, "channel", t))
        return rng, rng if shared else rng_from_seed(derive_seed(9, "phases", t))

    rngs, phase_rngs = zip(*(streams(t) for t in range(T)))
    batch = flsim.draw_gains(list(rngs), list(phase_rngs), T, cluster_of, beta, sizes, SWEEP_KEYS)
    for t in range(T):
        solo = flsim.draw_gains(*streams(t), 1, cluster_of, beta, sizes, SWEEP_KEYS)
        for n in sizes:
            for key in SWEEP_KEYS:
                assert np.array_equal(batch[n][key][t], solo[n][key][0]), (t, n, key)


def test_per_trial_generators_must_match_the_trial_count():
    beta = np.ones((2, 4))
    rngs = [rng_from_seed(t) for t in range(3)]
    with pytest.raises(ValueError, match="generators given for"):
        flsim.draw_gains(rngs[:2], None, 3, [0, 0, 1, 1], beta, [8], [("aligned", None)])
    with pytest.raises(ValueError, match="generators given for"):
        flsim.draw_gains(rngs, rngs[:2], 3, [0, 0, 1, 1], beta, [8], [("random", None)])


def _count_draws(monkeypatch):
    calls = []
    draw = flsim.sample_small_scale

    def counted(*args):
        calls.append(args[1])
        return draw(*args)

    monkeypatch.setattr(flsim, "sample_small_scale", counted)
    return calls


@pytest.mark.parametrize("scheme", ["mmse", "random-phase", "mmse+powopt", "unbiased-1bit"])
def test_training_bytes_do_not_depend_on_the_chunk_size(scheme, monkeypatch):
    # A chunk of rounds is one draw with a generator per round, which
    # gives each round its one-round draw: rounds 1, 7 or CHUNK at a
    # time give the same run, one draw per chunk, and a shorter run is a
    # prefix of a longer one.
    cfg = _config(K=4, N=8, D=4)
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=3)
    rounds = 6 if scheme == "mmse+powopt" else 16
    calls = _count_draws(monkeypatch)
    runs = {}
    for chunk in (1, 7, flsim.CHUNK):
        monkeypatch.setattr(flsim, "CHUNK", chunk)
        calls.clear()
        runs[chunk] = run_training(cfg, tasks, scheme, rounds=rounds, eta=0.05)
        assert len(calls) == -(-rounds // chunk)
        assert calls == [min(chunk, rounds - start) for start in range(0, rounds, chunk)]
    short = run_training(cfg, tasks, scheme, rounds=rounds - 3, eta=0.05)
    ref = runs[1]
    for hist in list(runs.values()) + [short]:
        n = hist.nmse.size
        assert np.array_equal(hist.losses, ref.losses[:n])
        assert np.array_equal(hist.nmse, ref.nmse[:n])
    assert np.array_equal(runs[7].final_weights, ref.final_weights)


def test_an_overflowing_draw_stops_its_own_round(monkeypatch):
    # Round 5's channel stream returns normals near the float64 limit, so
    # its draw overflows. The chunk holding it is drawn again round by
    # round, and the run stops at round 5, whatever the chunk size.
    cfg = _config(K=4, N=8, D=4)
    tasks, _ = synth_clustered_tasks(cfg, 10, 0.1, task_seed=3)
    poisoned = derive_seed(cfg.master_seed, "round-channel", 5)

    class Overflowing:
        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, size):
            return np.full(size, 1e300)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    def streams(seed):
        rng = rng_from_seed(seed)
        return Overflowing(rng) if seed == poisoned else rng

    monkeypatch.setattr(flsim, "rng_from_seed", streams)
    for chunk in (1, 7, flsim.CHUNK):
        monkeypatch.setattr(flsim, "CHUNK", chunk)
        with pytest.raises(RuntimeError, match=r"diverged at round 5 .*aggregated gradient"):
            run_training(cfg, tasks, "mmse", rounds=12, eta=0.05)


def test_quantized_training_snaps_every_round_to_the_grid(monkeypatch):
    # "-{b}bit" quantizes each round's phases with corrupt_phases, as
    # the sweep does: every phase that reaches the gains sits on the
    # 2**b grid, and the run differs from the unquantized one. The five
    # rounds are one chunk, so one draw serves them, round t in row t.
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
    assert len(seen) == 1
    (configs,) = seen
    assert len(configs) == 1 and configs[0].shape == (5, 2, 16)
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
