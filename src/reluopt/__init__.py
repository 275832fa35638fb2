"""Global optimization of piecewise-linear objectives represented by
feed-forward ReLU networks: branch-and-bound over partial activation states
with LP-relaxation bounding, plus reference baselines."""

from .attacks import fgsm, pgd, ray_witness
from .bounds import (
    BoundsMap,
    phases,
    propagate_interval,
    propagate_symbolic,
    tighten_lp,
)
from .errors import (
    DimensionMismatch,
    EmptyDomain,
    InconsistentState,
    NoUndetermined,
    NumericalFailure,
    ParseError,
    ReluOptError,
    SchemaError,
    Timeout,
    TooLarge,
    UnboundedNode,
)
from .geometry import Hyperrectangle, linf_epigraph
from .lp import (
    LinearProgram,
    LPResult,
    LPStatus,
    build_relaxed_lp,
    check_relu_consistency,
    solve_lp,
    split_assignment,
)
from .lpformat import MilpModel, write_lp_text
from .model import (
    Activation,
    Layer,
    Network,
    NodeId,
    activation_pattern,
    evaluate,
    forward_trace,
    gradient,
    load_nnet,
    write_nnet,
)
from .problems import Direction, Objective, OptimizationProblem, Relation, Row
from .search import (
    RegionOutcome,
    RegionStatus,
    SearchConfig,
    SearchResult,
    SearchStats,
    Status,
    optimize,
    optimum_for_region,
    root_relaxation,
    split,
)
from .state import fingerprint, phase_state
from .baselines import (
    BisectionConfig,
    Decision,
    bisection_optimize,
    brute_force_optimize,
    export_milp,
    milp_to_lp,
    verify_decision,
)

__version__ = "0.1.0"
