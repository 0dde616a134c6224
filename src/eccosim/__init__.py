"""Co-simulation with power bonds: energy-residual error estimation and
adaptive macro step control, plus the quarter-car benchmark harness."""

from .control import (
    ConstantStep,
    OutputExtrapolationIndicator,
    PIConfig,
    PIController,
    ResidualEnergyIndicator,
    StepPolicy,
    ecco_indicator,
    pc_indicator,
    pi_step_size,
    predict_outputs,
)
from .bench import NoOnsetInRange, stability_scan, step_size_sweep
from .energy import BondLedger, CompensatedSum
from .master import RunRecord, SimulatorFailure, run_cosimulation
from .model import (
    DanglingPort,
    DuplicateConnection,
    NonAntisymmetricBond,
    PowerBond,
    PowerPort,
    SimulatorSlot,
    Wiring,
    apply_connections,
    validate_graph,
)
from .quartercar import (
    LINEAR_PARAMS,
    NONLINEAR_PARAMS,
    ROAD_HEIGHT,
    QuarterCarParams,
    build_reticulation,
    preset_params,
    spring_damper_force,
)
from .reference import (
    ErrorSummary,
    ReferenceTrajectory,
    TimeRangeMismatch,
    reference_solve,
    summarize,
)

__version__ = "0.1.0"
