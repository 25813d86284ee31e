"""Reservoir computing with multiple-trajectory training for basin prediction.

The package trains echo-state readouts over collections of disjoint
trajectories of multistable dynamical systems and evaluates how well the
closed-loop forecasts recover basins of attraction, including basins never
seen in training.
"""

from .classify import (
    CORRECT,
    SPURIOUS,
    UNRESOLVED,
    WRONG,
    BasinMetrics,
    BasinOutcome,
    ConvergenceCriteria,
    classify_chaotic,
    classify_fixed_point,
    kl_divergence,
    make_outcome,
    nearest_magnet_baseline,
    score,
)
from .errors import (
    DegenerateCloudError,
    DimensionMismatchError,
    InvalidWindowError,
    NonFiniteError,
    RcbasinError,
    SamplingExhaustedError,
    SchemaMismatchError,
    SingularSpectrumError,
    SingularSystemError,
    StepSizeUnderflowError,
    TooShortError,
    ZeroRangeError,
)
from .experiment import (
    BasinMap,
    ExperimentConfig,
    default_config,
    generate_training_set,
    load_basin_map,
    make_grid,
    persist,
    render_basin_map,
    run_basin_experiment,
    run_sweep,
)
from .reservoir import (
    Reservoir,
    ReservoirSpec,
    build_reservoir,
    drive_open_loop,
    load_reservoir,
    run_closed_loop,
    save_reservoir,
    synchronize,
)
from .systems import (
    AttractorDescriptor,
    SystemDef,
    duffing,
    integrate_adaptive,
    integrate_rk4,
    magnetic_pendulum,
    make_system,
    multi_well,
    multistable_lorenz,
)
from .timeseries import (
    Standardizer,
    TimeSeries,
    add_training_noise,
    component_rms,
    fit_standardizer,
    read_csv,
    write_csv,
)
from .training import (
    NormalAccumulator,
    Readout,
    TrainConfig,
    load_model,
    save_model,
    solve_readout,
    train,
)

__version__ = "0.1.0"
