"""Global optimization of piecewise-linear objectives represented by
feed-forward ReLU networks: branch-and-bound over partial activation states
with LP-relaxation bounding, plus reference baselines."""

from .attacks import fgsm, pgd
from .bounds import BoundsMap, fixed_by_bounds, propagate_interval, tighten_lp
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
    LPRow,
    LPStatus,
    build_relaxed_lp,
    check_relu_consistency,
    solve_lp,
    split_assignment,
)
from .lpformat import MilpModel, MilpRow, MilpVar, parse_lp_text, write_lp_text
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
    NodeOrder,
    RegionOutcome,
    RegionStatus,
    SearchConfig,
    SearchResult,
    SearchStats,
    SplitStrategy,
    Status,
    optimize,
    optimum_for_region,
    split,
)
from .state import PartialActivationState, root_state
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
