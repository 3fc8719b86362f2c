"""Closed-loop simulation toolkit for prescribed-time sliding-mode control.

Subpackages by responsibility:

* mathcore   - signed fractional powers, convergence deadlines, trace norms
* plant      - reduced nanobeam dynamics, closed-form beam reduction, disturbances
* observer   - prescribed-finite-time disturbance observer
* controller - terminal SMC (plain and saturated) and the SMC baseline
* estimator  - joint state/parameter extended Kalman filter
* tuner      - particle swarm optimizer over design gains
* harness    - scenario runs, comparison reports, CSV traces
* config     - keyed text configuration files
* cli        - the `presto` command
"""

from .mathcore import (
    ExponentPair,
    TimeBoundInputs,
    Trace,
    check_exponent_pair,
    l2_norm,
    linf_norm,
    prescribed_time_bound,
    settling_time,
    sgn,
    signed_pow,
)
from .plant import (
    BeamParams,
    DisturbanceSpec,
    DisturbanceTerm,
    PlantParams,
    disturbance_value,
    galerkin_coefficients,
    plant_derivative,
)
from .observer import ObserverGains, ObserverState, disturbance_estimate, observer_advance, observer_init
from .controller import (
    SatBounds,
    SmcGains,
    TsmcGains,
    saturate,
    saturated_tsmc_control,
    sliding_stack_n2,
    smc_control,
    tsmc_control,
)
from .estimator import EkfConfig, EkfState, ekf_init, ekf_predict, ekf_update
from .tuner import PsoConfig, PsoResult, pso_run
from .harness import (
    DivergenceError,
    RunReport,
    Scenario,
    compare_controllers,
    export_trace,
    run_scenario,
)
from .config import ConfigError, load_compare_entries, load_pso_job, load_scenario

__version__ = "0.1.0"
