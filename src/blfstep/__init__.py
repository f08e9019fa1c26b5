"""Constrained adaptive backstepping simulator.

Closed-loop simulation of strict-feedback plants under a barrier-guarded
adaptive backstepping controller with an RBF approximator, a
composite-uncertainty observer, and Nussbaum gain search for the unknown
input coefficient.
"""

from .approximator import RbfNetwork
from .barrier import (
    BarrierViolation,
    blf_value,
    damped_inverse,
    log_bound_gap,
    nussbaum,
    q_value,
)
from .cli import (
    config_to_dict,
    emit_csv,
    emit_report,
    load_config_file,
    main,
    paper_sec6_path,
    parse_config,
)
from .controller import (
    BacksteppingCascade,
    ConstraintConfig,
    GainConfig,
    lyapunov_decay_rates,
)
from .observer import (
    dhat_rate_final,
    dhat_rate_inner,
    estimate,
    initial_dhat,
)
from .plant import Monomial, PlantSpec
from .signals import (
    ConfigError,
    Constant,
    ExpDecay,
    SignalSum,
    Sinusoid,
    TimeSignal,
    signal_from_dict,
    signal_to_dict,
)
from .simengine import (
    ClosedLoop,
    InfeasibleInitialCondition,
    NonFiniteState,
    RunConfig,
    RunMetrics,
    SimResult,
    rk4_step,
    run,
)

__version__ = "0.1.0"
