"""Subgraph complementation toolkit.

Decide whether flipping the edges inside some vertex set S turns a graph
into a member of a target class (K_t-free and friends), enumerate the
split-partition structures behind the polynomial solver, and generate the
SAT reduction instances showing where the problem turns hard.
"""

import types as _types

from .errors import (
    CapMismatch,
    GadgetTooLarge,
    InvalidArgs,
    InvalidPattern,
    InvalidSeed,
    InvalidT,
    KindMismatch,
    LengthMismatch,
    MalformedG6,
    NonUniformClause,
    NotSatisfying,
    NullGraph,
    ParseError,
    PatternTooSmall,
    RecognizerMismatch,
    RepeatedVariable,
    SubcompError,
    TooManyVariables,
    WidthTooSmall,
    WrongWidth,
)
from .gadgets import (
    GadgetInstance,
    Role,
    assignment_from_solution,
    c8_gadget,
    certificate_json,
    cycle_inductive,
    expected_size,
    k15_gadget,
    p7_gadget,
    p8_gadget,
    path_inductive,
    solution_from_assignment,
    star_inductive,
)
from .graphs import (
    Graph,
    PatternSpec,
    VertexSet,
    complement,
    cross_product,
    degeneracy,
    disjoint_union,
    g6_decode,
    g6_encode,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    induced,
    is_module,
    is_pattern_free,
    make_pattern,
    no_instance,
    subgraph_complement,
)
from .sat import (
    Assignment,
    CnfFormula,
    brute_sat,
    check_threshold,
    emit_dimacs,
    lift,
    parse_dimacs,
)
from .solvers import (
    SolveReport,
    brute_solve,
    solve_complement_class,
    solve_kt_free,
)
from .split import (
    RamseyBound,
    SplitPartition,
    enumerate_split_partitions,
    find_split_partition,
    is_split_partition,
    ramsey_bound,
)

# every name imported above is public; the submodules bound as attributes are not
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)

__version__ = "0.1.0"
