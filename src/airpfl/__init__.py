"""Simulator for surface-assisted over-the-air personalized federated learning.

Clustered devices train per-cluster models; analog uplink
superposition aggregates their standardized gradients, with one
reflecting surface and one PS antenna per cluster. The package covers
geometry and channel sampling, aligned phase design, power control and
denoising, gradient-descent training, and reproducible experiment
drivers. Import names from their modules (airpfl.sysmodel,
airpfl.flsim, ...).
"""

# The set-up names that perfbench/setup_probe.py imports from the root.
from .flsim import synth_clustered_tasks
from .sysmodel import config_from_json, place_geometry

__version__ = "0.1.0"
