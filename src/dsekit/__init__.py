"""Robust dynamic state estimation for synchronous generators.

Core pieces: a cubature Kalman filter and its Huber-robustified variant, a
fourth-order two-axis generator model, a seeded heavy-tailed noise
laboratory, fault scenario simulation, accuracy indicators, and a CLI
harness that reproduces the noise-by-outlier experiment matrix.
"""

from . import errors
from .config import (
    build_scenario,
    default_config,
    load_config,
    noise_preset,
    with_noise_preset,
    with_outliers,
    with_seed,
)
from .evaluation import (
    MetricsReport,
    epsilon1,
    epsilon2,
    improvement_report,
    report_from_run,
)
from .filters import (
    CKF,
    RCKF,
    FilterState,
    HuberConfig,
    ProcessModel,
    cholesky_lower,
    ckf_update,
    cubature_points,
    huber_reweight,
    iter_batch,
    rckf_update,
    run_filter,
    time_predict,
)
from .harness import (
    ExperimentMatrix,
    TimingReport,
    bench_filters,
    run_experiment,
    summarize,
    write_matrix_csv,
    write_summary_csv,
)
from .machine import (
    DEFAULT_PARAMS,
    DIVIDE_BY_SPEED,
    POWER_EQUALS_TORQUE,
    MachineInputs,
    MachineParams,
    MachineState,
    MeasurementSigmas,
    as_process_model,
    electrical_power,
    measurement_covariance,
    observe_points,
    power_partials,
    power_variance,
    state_derivative,
    stator_currents,
)
from .noise import (
    CAUCHY,
    GAUSSIAN_BIASED,
    GAUSSIAN_WHITE,
    LAPLACE,
    NoiseSpec,
    OutlierSpec,
    SeededStream,
    cauchy_from_uniform,
    corrupt,
    draw_cauchy,
    draw_gaussian,
    draw_laplace,
    inject_outliers,
    laplace_from_uniform,
)
from .scenario import (
    FaultSpec,
    InitSpec,
    InputProfile,
    RunRecord,
    ScenarioConfig,
    Schedule,
    batch_filters,
    build_fault_profile,
    equilibrium,
    filter_series,
    initial_filter_state,
    run_scenario,
    simulate_truth,
    steady_state_init,
    synthesize_measurements,
    time_grid,
)

__version__ = "0.1.0"
