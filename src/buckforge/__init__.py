"""Buck converter modeling, PI loop design, and switched-mode simulation."""

__version__ = "0.1.0"

from .averaging import (
    OperatingPoint,
    PlantDerivation,
    SmallSignalModel,
    averaged_model,
    continuous_conduction,
    derive_plant,
    duty_to_output_tf,
    equilibrium,
    line_to_output_tf,
    small_signal_model,
    solve_duty,
)
from .converter import (
    ConverterParams,
    ParameterError,
    StateSpaceModel,
    load_params,
    mode_off_model,
    mode_on_model,
    params_from_dict,
    validate_params,
)
from .lti import (
    MarginReport,
    TransferFunction,
    bode_sweep,
    close_unity_loop,
    dc_gain,
    evaluate,
    poles,
    series,
    stability_margins,
)
from .pi_design import (
    PIGains,
    TuningError,
    compensated_loop,
    design_report,
    pi_tf,
    tune_kp_for_pm,
)
from .switched_sim import (
    SimConfig,
    SwitchedTrajectory,
    cycle_average,
    pwm_equivalent_gains,
    regulation_report,
    simulate_closed_loop,
    simulate_open_loop,
)
from .timedomain import (
    NotSettledError,
    StepMetrics,
    Trajectory,
    step_metrics,
    step_response,
)
