"""fdprop: an event-driven finite-domain constraint propagation engine.

Domains are integer intervals with optional bit-vector holes; constraint
propagators are suspended agents woken by instantiation, bound-update,
and inner-exclusion events; search is trail-based depth-first labeling.
"""

from .alldistinct import Strategy, post_alldistinct, outof_reducer
from .domain import (
    DomainDelta,
    DomainError,
    DeltaKind,
    FiniteDomain,
    exclude_value,
    intersect_range,
    is_subset_of,
    make_interval,
    make_set,
)
from .linear import (
    BinaryLinear,
    CapacityError,
    ConsistencyLevel,
    Diseq,
    NaryLinear,
    ceil_div,
    post_binary,
    post_diseq,
    post_nary,
)
from .model import (
    ALL_SOLUTIONS,
    FIRST_SOLUTION,
    Distinct,
    Model,
    ModelError,
    SolveResult,
    SolverConfig,
    VarDecl,
    build,
    fixpoint_violations,
    format_model,
    parse_model,
    solve_model,
)
from .oracle import (
    CapExceeded,
    GroundModel,
    check_arc_consistent,
    check_interval_consistent,
    check_weak_arc_consistent,
    enumerate_solutions,
)
from .runtime import Agent, Event, Rule, Runtime
from .search import SearchStats, label
from .store import (
    BOUND,
    DOM,
    GENERATED,
    INS,
    InvariantError,
    Store,
    Variable,
)

__version__ = "0.1.0"
