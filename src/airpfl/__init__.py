"""Simulator for surface-assisted over-the-air personalized federated learning.

Clustered devices train per-cluster models; analog uplink
superposition aggregates their standardized gradients, with one
reflecting surface and one PS antenna per cluster. The package covers
geometry and channel sampling, aligned phase design, power control and
denoising, gradient-descent training, and reproducible experiment
drivers.
"""

from .aircomp import (
    NormalizedGradient,
    cluster_average,
    estimate_cluster_gradient,
    normalize_gradient,
    uplink,
)
from .channel import (
    ChannelSet,
    PartialDraw,
    all_cascaded_gains,
    cascaded_components,
    large_scale_coefficients,
    sample_small_scale,
)
from .control import (
    AggregationDesign,
    adaptive_denoisers,
    conditional_mse,
    unbiased_design,
)
from .flsim import (
    DeviceTasks,
    Scheme,
    TrainingHistory,
    aggregate_round,
    estimation_nmse,
    local_gradient,
    local_loss,
    parse_scheme,
    run_training,
    synth_clustered_tasks,
)
from .harness import (
    EliminationReport,
    SweepResult,
    desk_scale_config,
    export_csv,
    nmse_sweep,
    verify_elimination,
)
from .powopt import (
    AscentResult,
    RatioProblem,
    assemble_ratio_problem,
    objective,
    solve_projected_ascent,
)
from .ris import baseline_phases, configure_aligned, corrupt_phases
from .seeding import derive_seed, rng_from_seed
from .sysmodel import (
    ConfigError,
    Geometry,
    SystemConfig,
    config_from_json,
    make_config,
    membership,
    place_geometry,
    validate_config,
)

__version__ = "0.1.0"
