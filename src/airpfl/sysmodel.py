"""System configuration and network geometry.

A deployment has one parameter server (PS) with one antenna per device
cluster, one reflecting surface per cluster, and K single-antenna
devices partitioned into M clusters. The PS sits at the origin,
surface m sits on a circle of radius ``ps_ris_distance`` at bearing
2*pi*(m+1)/M, and the devices of cluster m are drawn uniformly by area
from a disk of radius ``device_disk_radius`` centered on surface m.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed, rng_from_seed


class ConfigError(ValueError):
    """Raised when a system configuration violates an invariant."""


def as_integer(name, value) -> int:
    """value as an int; ConfigError unless it is an integer (bools and integral floats are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_number(name, value) -> float:
    """value as a float; ConfigError unless it is a real number (bools and strings are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_seed(name, value) -> int:
    """value as a seed; ConfigError unless it is an integer in [0, 2**64)."""
    seed = as_integer(name, value)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def as_array(name, value, convert) -> np.ndarray:
    """value as an array of convert(entry) (as_integer or as_number) for every entry."""
    array = np.array(value, dtype=object)
    return np.array([convert(f"{name} entry", v) for v in array.ravel()]).reshape(array.shape)


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Static description of one simulated deployment.

    cluster_of maps each device index to its cluster (0-based), and
    max_power holds the per-device transmit power budget in watts.
    """

    num_devices: int
    num_clusters: int
    num_ris_elements: int
    model_dim: int
    cluster_of: np.ndarray
    max_power: np.ndarray
    noise_var: float
    pathloss_exponent: float
    ps_ris_distance: float
    device_disk_radius: float
    master_seed: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemConfig):
            return NotImplemented
        for field in dataclasses.fields(self):
            a = getattr(self, field.name)
            b = getattr(other, field.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    def replace(self, **changes) -> "SystemConfig":
        """A copy with the given fields changed, built and validated by make_config."""
        fields = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        return make_config(**{**fields, **changes})

    def to_json(self) -> str:
        """Every field in declaration order; arrays as lists of Python scalars."""
        values = ((field.name, getattr(self, field.name)) for field in dataclasses.fields(self))
        doc = {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}
        return json.dumps(doc, indent=2)


def membership(cluster_of, num_clusters: int) -> np.ndarray:
    """(M, K) boolean matrix: entry [m, k] is True when device k belongs to cluster m.

    Row m masks cluster m's devices and its row sum is the cluster size;
    every per-cluster sum in the package is a contraction with it. A
    cluster may be empty (an all-False row). cluster_of must be a 1-D
    integer array with labels in [0, num_clusters); anything else raises
    ConfigError, so no device is silently dropped or wrapped around.
    """
    labels = np.asarray(cluster_of)
    if (labels.ndim != 1 or labels.dtype.kind not in "iu"
            or labels.min(initial=0) < 0 or labels.max(initial=0) >= num_clusters):
        raise ConfigError(
            f"cluster_of must be a 1-D integer array whose entries lie in [0, {num_clusters})"
        )
    return labels == np.arange(num_clusters)[:, None]


def make_config(
    num_devices: int,
    num_clusters: int,
    num_ris_elements: int,
    model_dim: int,
    cluster_of,
    max_power,
    noise_var: float,
    pathloss_exponent: float = 2.2,
    ps_ris_distance: float = 200.0,
    device_disk_radius: float = 300.0,
    master_seed: int = 0,
) -> SystemConfig:
    """Build and validate a SystemConfig; scalar max_power broadcasts.

    Counts, cluster labels and the seed must be integers and the other
    fields numbers (bools and strings are neither); nothing is rounded.
    Then every structural invariant is checked, and the first violation
    raises ConfigError.
    """
    num_devices = as_integer("num_devices", num_devices)
    power = as_array("max_power", max_power, as_number)
    if power.ndim == 0 and num_devices > 0:
        power = np.full(num_devices, float(power))
    cfg = SystemConfig(
        num_devices=num_devices,
        num_clusters=as_integer("num_clusters", num_clusters),
        num_ris_elements=as_integer("num_ris_elements", num_ris_elements),
        model_dim=as_integer("model_dim", model_dim),
        cluster_of=as_array("cluster_of", cluster_of, as_integer),
        max_power=power,
        noise_var=as_number("noise_var", noise_var),
        pathloss_exponent=as_number("pathloss_exponent", pathloss_exponent),
        ps_ris_distance=as_number("ps_ris_distance", ps_ris_distance),
        device_disk_radius=as_number("device_disk_radius", device_disk_radius),
        master_seed=as_seed("master_seed", master_seed),
    )
    for name in ("num_devices", "num_clusters", "num_ris_elements", "model_dim"):
        value = getattr(cfg, name)
        if value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    K, M = cfg.num_devices, cfg.num_clusters
    if cfg.cluster_of.shape != (K,):
        raise ConfigError(
            f"cluster_of must have one entry per device ({K}), got shape {cfg.cluster_of.shape}"
        )
    sizes = membership(cfg.cluster_of, M).sum(axis=1)
    if (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0])
        raise ConfigError(f"empty cluster: cluster {empty} has no devices (cluster_of)")
    if not M < K:
        raise ConfigError(f"num_clusters must be < num_devices (M={M}, K={K})")
    if cfg.max_power.shape != (K,):
        raise ConfigError(f"max_power must have shape ({K},), got {cfg.max_power.shape}")
    if not np.all(np.isfinite(cfg.max_power)) or (cfg.max_power <= 0).any():
        raise ConfigError("max_power entries must be positive and finite")
    if not np.isfinite(cfg.noise_var) or cfg.noise_var < 0:
        raise ConfigError(f"noise_var must be >= 0, got {cfg.noise_var!r}")
    if not np.isfinite(cfg.pathloss_exponent) or cfg.pathloss_exponent <= 0:
        raise ConfigError(f"pathloss_exponent must be > 0, got {cfg.pathloss_exponent!r}")
    if not np.isfinite(cfg.ps_ris_distance) or cfg.ps_ris_distance <= 0:
        raise ConfigError(f"ps_ris_distance must be > 0, got {cfg.ps_ris_distance!r}")
    if not np.isfinite(cfg.device_disk_radius) or cfg.device_disk_radius <= 0:
        raise ConfigError(f"device_disk_radius must be > 0, got {cfg.device_disk_radius!r}")
    return cfg


def config_from_json(text: str) -> SystemConfig:
    """make_config of a JSON object; its parameters without a default are required.

    Keys that are not parameters of make_config are ignored.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ConfigError(f"a system config must be a JSON object, got {doc!r}")
    params = inspect.signature(make_config).parameters
    missing = [name for name, p in params.items() if p.default is p.empty and name not in doc]
    if missing:
        raise ConfigError(f"config missing fields: {', '.join(missing)}")
    return make_config(**{name: doc[name] for name in params if name in doc})


@dataclass(frozen=True)
class Geometry:
    """Planar positions of the PS, the surfaces, and the devices."""

    ps_position: np.ndarray       # (2,)
    ris_positions: np.ndarray     # (M, 2)
    device_positions: np.ndarray  # (K, 2)


def place_geometry(cfg: SystemConfig, seed: int) -> Geometry:
    """Sample a deployment layout, deterministic in (cfg, seed).

    Surface m goes to bearing 2*pi*(m+1)/M on the PS-centered circle.
    Device k is drawn uniformly by area from the disk around its own
    cluster's surface (radius r = R*sqrt(u) with u uniform).
    """
    M, K, R = cfg.num_clusters, cfg.num_devices, cfg.device_disk_radius
    angles = 2.0 * np.pi * (np.arange(M) + 1) / M
    ris = cfg.ps_ris_distance * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = rng_from_seed(derive_seed(seed, "geometry"))
    u = rng.random(K)
    v = rng.random(K)
    r = R * np.sqrt(u)
    phi = 2.0 * np.pi * v
    offsets = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    devices = ris[cfg.cluster_of] + offsets
    return Geometry(
        ps_position=np.zeros(2),
        ris_positions=ris,
        device_positions=devices,
    )
