"""Closed-loop simulation toolkit for prescribed-time sliding-mode control.

Modules by responsibility:

* mathcore   - signed fractional powers, convergence deadlines, trace norms
* plant      - reduced nanobeam dynamics, closed-form beam reduction, disturbances
* observer   - prescribed-finite-time disturbance observer
* controller - terminal SMC (plain and saturated) and the SMC baseline
* estimator  - joint state/parameter extended Kalman filter
* tuner      - particle swarm optimizer over design gains
* harness    - scenario runs, comparison reports, CSV traces
* config     - keyed text configuration files
* cli        - the `presto` command

The package exports the entry points, the types they take, return or
raise, and one type per config section.  The stage functions the loops
inline (`plant_derivative`, `observer_advance`, `tsmc_control`, ...) are
the tested reference and import from their modules; the adaptive loop
calls `ekf_predict` and `ekf_update` once per EKF cycle.
"""

from .mathcore import ExponentPair, Trace
from .plant import (BeamParams, DisturbanceSpec, DisturbanceTerm, PlantParams,
                    galerkin_coefficients)
from .observer import ObserverGains
from .controller import SatBounds, SmcGains, TsmcGains
from .estimator import EkfConfig
from .tuner import PsoConfig, PsoResult, pso_run
from .harness import (DivergenceError, RunReport, Scenario, compare_controllers, export_trace,
                      run_scenario)
from .config import ConfigError, load_compare_entries, load_pso_job, load_scenario

__all__ = [
    # entry points
    "load_scenario", "load_compare_entries", "load_pso_job", "run_scenario",
    "compare_controllers", "export_trace", "pso_run", "galerkin_coefficients",
    # what they take, return or raise
    "ConfigError", "Scenario", "Trace", "RunReport", "DivergenceError", "PsoResult",
    # one type per config section
    "ExponentPair", "BeamParams", "PlantParams", "DisturbanceSpec", "DisturbanceTerm",
    "ObserverGains", "TsmcGains", "SatBounds", "SmcGains", "EkfConfig", "PsoConfig",
]

__version__ = "0.1.0"
