"""Configuration validation, cluster membership and deployment geometry."""

import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from airpfl.aircomp import cluster_average
from airpfl.channel import large_scale_coefficients, sample_small_scale
from airpfl.control import adaptive_denoisers, conditional_mse, unbiased_design
from airpfl.harness import desk_scale_config
from airpfl.powopt import assemble_ratio_problem
from airpfl.seeding import rng_from_seed
from airpfl.sysmodel import (
    ConfigError,
    config_from_json,
    make_config,
    membership,
    place_geometry,
)
from full_channel import aligned


def small_config(**overrides):
    base = dict(
        num_devices=6,
        num_clusters=2,
        num_ris_elements=8,
        model_dim=4,
        cluster_of=[0, 0, 0, 1, 1, 1],
        max_power=1.0,
        noise_var=1e-8,
        master_seed=3,
    )
    base.update(overrides)
    return make_config(**base)


def test_scalar_power_broadcasts():
    cfg = small_config(max_power=2.5)
    assert cfg.max_power.shape == (6,)
    assert np.all(cfg.max_power == 2.5)


def test_clusters_partition_devices():
    cfg = small_config()
    own = membership(cfg.cluster_of, cfg.num_clusters)
    assert [np.flatnonzero(row).tolist() for row in own] == [[0, 1, 2], [3, 4, 5]]
    assert own.sum(axis=0).tolist() == [1] * 6


def test_membership_standalone():
    own = membership([1, 0, 1], 2)
    assert own.dtype == bool
    assert own.tolist() == [[False, True, False], [True, False, True]]
    # A cluster without devices (an all-False row) is an error.
    with pytest.raises(ConfigError, match="empty cluster: cluster 1"):
        membership(np.array([0, 2]), 3)


# [1, 1, 2] also leaves cluster 0 empty: a label out of range is reported before an empty cluster.
@pytest.mark.parametrize(
    "labels", [[0, 2], [0, -1], [[0, 1]], [0.0, 1.0], [True, False], [1, 1, 2]]
)
def test_membership_rejects_malformed_labels(labels):
    with pytest.raises(ConfigError, match="lie in"):
        membership(labels, 2)


def _label_consumers():
    """Every kernel that takes cluster labels, as a function of the labels (K=3, M=2)."""
    T, M, K, N, D = 2, 2, 3, 4, 3
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.5, 1.0, (M, K))
    sigmas = rng.uniform(0.5, 1.5, (T, K))
    powers = rng.uniform(0.1, 1.0, (T, K))
    gains = rng.standard_normal((T, M, K))
    lam = np.ones((T, M))
    x = rng.standard_normal((T, K, D))
    return {
        "sample_small_scale": lambda c: sample_small_scale(rng_from_seed(1), T, M, c, N, aligned),
        "unbiased_design": lambda c: unbiased_design(beta, sigmas, np.ones(K), D, N, c),
        "conditional_mse": lambda c: conditional_mse(powers, lam, gains, sigmas, 1e-3, D, c),
        "adaptive_denoisers": lambda c: adaptive_denoisers(powers, gains, sigmas, 1e-3, c, lam),
        "assemble_ratio_problem": lambda c: assemble_ratio_problem(
            gains, sigmas, 1e-3, c, np.ones(K)
        ),
        "cluster_average": lambda c: cluster_average(x, c, M),
    }


@pytest.mark.parametrize("kernel", sorted(_label_consumers()))
def test_kernels_reject_out_of_range_labels(kernel):
    call = _label_consumers()[kernel]
    call(np.array([0, 1, 1]))  # well-formed labels run
    for labels in ([0, 1, 2], [0, -1, 1], [0, 0, 0]):  # the last leaves cluster 1 empty
        with pytest.raises(ValueError):
            call(np.array(labels))


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_devices", 0),
        ("num_clusters", -1),
        ("num_ris_elements", 0),
        ("model_dim", 0),
    ],
)
def test_nonpositive_dimensions_rejected(field, value):
    with pytest.raises(ConfigError):
        small_config(**{field: value})


def test_cluster_of_wrong_length_rejected():
    with pytest.raises(ConfigError, match="one entry per device"):
        small_config(cluster_of=[0, 0, 1])


def test_cluster_label_out_of_range_rejected():
    with pytest.raises(ConfigError, match="lie in"):
        small_config(cluster_of=[0, 0, 0, 1, 1, 2])


def test_empty_cluster_reported_before_cluster_count():
    # Both problems are present here; the empty cluster must win.
    with pytest.raises(ConfigError, match="empty cluster"):
        make_config(
            num_devices=2,
            num_clusters=2,
            num_ris_elements=4,
            model_dim=2,
            cluster_of=[0, 0],
            max_power=1.0,
            noise_var=0.0,
        )


def test_more_clusters_than_devices_rejected():
    with pytest.raises(ConfigError, match="num_clusters must be <"):
        make_config(
            num_devices=2,
            num_clusters=2,
            num_ris_elements=4,
            model_dim=2,
            cluster_of=[0, 1],
            max_power=1.0,
            noise_var=0.0,
        )


def test_bad_power_rejected():
    with pytest.raises(ConfigError):
        small_config(max_power=[1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ConfigError):
        small_config(max_power=np.inf)
    with pytest.raises(ConfigError, match="max_power must have shape"):
        small_config(max_power=[1.0] * 5)


def test_negative_noise_rejected():
    with pytest.raises(ConfigError, match="noise_var"):
        small_config(noise_var=-1e-9)


def test_zero_noise_allowed():
    assert small_config(noise_var=0.0).noise_var == 0.0


@pytest.mark.parametrize(
    "field",
    ["pathloss_exponent", "ps_ris_distance", "device_disk_radius"],
)
def test_nonpositive_scale_parameters_rejected(field):
    with pytest.raises(ConfigError, match=field):
        small_config(**{field: 0.0})


def test_master_seed_range_checked():
    with pytest.raises(ConfigError, match="master_seed"):
        small_config(master_seed=-1)
    with pytest.raises(ConfigError, match="master_seed"):
        small_config(master_seed=2**64)


def test_json_roundtrip_preserves_everything():
    cfg = small_config(max_power=[1, 2, 3, 4, 5, 6], noise_var=1e-9)
    back = config_from_json(cfg.to_json())
    assert back == cfg


def test_json_missing_field_raises():
    doc = json.loads(small_config().to_json())
    del doc["cluster_of"]
    with pytest.raises(ConfigError, match="cluster_of"):
        config_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"config"'])
def test_json_that_is_not_an_object_raises(text):
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_json(text)


def test_json_defaults_fill_in():
    doc = {
        "num_devices": 3,
        "num_clusters": 1,
        "num_ris_elements": 4,
        "model_dim": 2,
        "cluster_of": [0, 0, 0],
        "max_power": [1.0, 1.0, 1.0],
        "noise_var": 0.0,
    }
    cfg = config_from_json(json.dumps(doc))
    assert cfg.pathloss_exponent == 2.2
    assert cfg.ps_ris_distance == 200.0
    assert cfg.device_disk_radius == 300.0
    assert cfg.master_seed == 0


def test_desk_config_json_bytes_are_pinned():
    text = desk_scale_config().to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "b403c21b342357504377a86e6bb4acb93be6bece5f2346072e481398fce4a057"


def test_json_tolerates_extra_keys():
    doc = json.loads(small_config().to_json())
    doc["comment"] = "ignored"
    assert config_from_json(json.dumps(doc)) == small_config()


def test_replace_revalidates():
    cfg = small_config()
    for changes in ({"noise_var": -1.0}, {"master_seed": -5}, {"num_ris_elements": 0},
                    {"max_power": np.full(6, -1.0)}):
        with pytest.raises(ConfigError):
            cfg.replace(**changes)
    assert cfg.replace(noise_var=2e-8).noise_var == 2e-8
    assert cfg.replace(cluster_of=[0, 0, 0, 1, 1, 1]) == cfg
    assert cfg.replace(noise_var=2e-8) != cfg
    assert cfg.replace(max_power=np.arange(1.0, 7.0)) != cfg
    assert cfg != cfg.to_json()
    with pytest.raises(ConfigError, match="cluster_of entry"):
        cfg.replace(cluster_of=[0, 0, 0, 1, 1, True])


def test_config_arrays_are_read_only_copies():
    # A validated config cannot be edited into an invalid one in place,
    # and building it leaves the caller's arrays writeable.
    labels, budgets = np.array([0, 0, 0, 1, 1, 1]), np.full(6, 2.0)
    mine = small_config(cluster_of=labels, max_power=budgets)
    for cfg in (mine, desk_scale_config()):
        with pytest.raises(ValueError, match="read-only"):
            cfg.max_power[0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            cfg.cluster_of[0] = cfg.num_clusters
        assert np.all(cfg.max_power > 0)
    changed = mine.replace(max_power=3.0)
    assert np.all(changed.max_power == 3.0) and not changed.max_power.flags.writeable
    labels[0], budgets[0] = 1, 5.0
    assert labels.flags.writeable and budgets.flags.writeable


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_geometry_is_deterministic():
    cfg = small_config()
    a = place_geometry(cfg, 11)
    b = place_geometry(cfg, 11)
    assert np.array_equal(a.device_positions, b.device_positions)
    c = place_geometry(cfg, 12)
    assert not np.allclose(a.device_positions, c.device_positions)


def test_placed_geometry_is_read_only():
    # A validated deployment cannot be moved in place; it still serves
    # the large-scale coefficients.
    cfg = desk_scale_config()
    geom = place_geometry(cfg, 1)
    for array in (geom.ps_position, geom.ris_positions, geom.device_positions):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 1.0
    beta = large_scale_coefficients(geom, cfg.pathloss_exponent)
    assert beta.shape == (cfg.num_clusters, cfg.num_devices) and np.all(beta > 0)


def test_ps_sits_at_origin():
    geom = place_geometry(small_config(), 0)
    assert np.array_equal(geom.ps_position, np.zeros(2))


def test_surfaces_on_circle_at_even_bearings():
    cfg = make_config(
        num_devices=8,
        num_clusters=4,
        num_ris_elements=4,
        model_dim=2,
        cluster_of=[0, 0, 1, 1, 2, 2, 3, 3],
        max_power=1.0,
        noise_var=0.0,
    )
    geom = place_geometry(cfg, 0)
    radii = np.linalg.norm(geom.ris_positions, axis=1)
    assert np.allclose(radii, 200.0)
    angles = np.arctan2(geom.ris_positions[:, 1], geom.ris_positions[:, 0])
    expected = 2 * np.pi * (np.arange(4) + 1) / 4
    # Compare on the circle to avoid a 0 vs 2*pi wrap mismatch.
    assert np.allclose(np.cos(angles), np.cos(expected), atol=1e-12)
    assert np.allclose(np.sin(angles), np.sin(expected), atol=1e-12)


def test_single_surface_goes_on_positive_x_axis():
    cfg = make_config(
        num_devices=2,
        num_clusters=1,
        num_ris_elements=4,
        model_dim=2,
        cluster_of=[0, 0],
        max_power=1.0,
        noise_var=0.0,
    )
    geom = place_geometry(cfg, 5)
    assert np.allclose(geom.ris_positions[0], [200.0, 0.0], atol=1e-10)


def test_devices_stay_inside_own_disk():
    cfg = small_config(device_disk_radius=120.0)
    geom = place_geometry(cfg, 21)
    anchors = geom.ris_positions[cfg.cluster_of]
    dist = np.linalg.norm(geom.device_positions - anchors, axis=1)
    assert np.all(dist <= 120.0 + 1e-9)


def test_radial_placement_is_area_uniform():
    # With r = R*sqrt(u) the squared normalized radius is Uniform(0,1).
    K = 10000
    cfg = make_config(
        num_devices=K,
        num_clusters=1,
        num_ris_elements=1,
        model_dim=1,
        cluster_of=np.zeros(K, dtype=int),
        max_power=1.0,
        noise_var=0.0,
    )
    geom = place_geometry(cfg, 17)
    r = np.linalg.norm(geom.device_positions - geom.ris_positions[0], axis=1)
    u = (r / cfg.device_disk_radius) ** 2
    ks = stats.kstest(u, "uniform").statistic
    assert ks < 0.02
