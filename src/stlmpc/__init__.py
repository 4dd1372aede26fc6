"""STL fragment monitoring and QP-based model predictive control."""

from .parser import ParseError, parse, pretty_print
from .scheduling import Schedule, ScheduleInfeasibleError, compute_schedule, k1_at
from .semantics import (
    RobustnessReadout,
    Signal,
    SignalTooShortError,
    domain_of_influence,
    eval_bool,
    eval_dasr,
    eval_dsasr,
    eval_sr,
    prd,
    robustness_degree_axis,
)
from .stl import (
    AllTime,
    Always,
    And,
    EmptyWindowError,
    Eventually,
    Formula,
    FragmentError,
    Not,
    OneTime,
    Or,
    Pred,
    PredicateTable,
    SamplingGrid,
    TrueNode,
    Until,
    collect_event_ops,
    continuous_length,
    discrete_length,
    omega,
    to_pnf,
    unwrap,
    validate_windows,
)
from .qp_builder import (
    ControlConfig,
    QpProblem,
    QpSolution,
    SparseRows,
    StackedDynamics,
    VariableLayout,
    add_slack_relaxation,
    build_E_always,
    build_E_eventually,
    build_E_until,
    build_problem,
    build_sr_baseline,
    CompiledRun,
    compile_run,
    stack_dynamics,
)
from .qp_solver import SolverError, solve
from .mpc import ControlError, LtiSystem, NoiseModel, RunConfig, Trace, run, snr_db

__version__ = "0.1.0"
