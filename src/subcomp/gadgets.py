"""Hardness-gadget generators with certificate mappings.

Two families. The inductive constructions wrap a source graph G' so that a
solution for a smaller forbidden pattern on G' exists iff one for the next
pattern up exists on the output (star: K_{1,t} to K_{1,t+1}; path: P_t to
P_{t+2}; cycle: P_t-free source to C_{t+2}-free target). The SAT gadgets
turn an exact 4-SAT formula into a graph whose subgraph complementations to
a fixed pattern-free class encode threshold-2 satisfiability.

Vertex layout is deterministic and block-major, so instances are bit-exact
fixtures: variable vertices first, hanging sets in (variable, chain) order,
clause sets last. Inside a complemented path or cycle block, slots follow
the walk order of the underlying pattern before complementing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import GadgetTooLarge, InvalidT, KindMismatch, NotSatisfying, WrongWidth
from .graphs import (
    MAX_JSON_VERTICES,
    Graph,
    PatternSpec,
    VertexSet,
    complement,
    make_pattern,
)
from .values import Frozen
from .sat import Assignment, CnfFormula, check_threshold

STAR_INDUCTIVE = "StarInductive"
PATH_INDUCTIVE = "PathInductive"
CYCLE_INDUCTIVE = "CycleInductive"
K15 = "K15"
P7 = "P7"
P8 = "P8"
C8 = "C8"

_KINDS = (STAR_INDUCTIVE, PATH_INDUCTIVE, CYCLE_INDUCTIVE, K15, P7, P8, C8)
_SAT_KINDS = (K15, P7, P8, C8)


class Role(NamedTuple):
    name: str
    index: tuple


class GadgetInstance(Frozen):
    """A generated gadget graph plus per-vertex roles and build parameters."""

    __slots__ = ("graph", "kind", "roles", "params")

    def __init__(self, graph: Graph, kind: str, roles: Iterable[Role], params: dict):
        if kind not in _KINDS:
            raise ValueError(f"unknown gadget kind {kind!r}")
        roles = tuple(roles)
        if len(roles) != graph.n:
            raise ValueError("exactly one role per vertex required")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "params", dict(params))

    def vertices_with_role(self, name: str, *prefix) -> list[int]:
        """Vertices whose role matches the name and leading index entries."""
        out = []
        for v, role in enumerate(self.roles):
            if role.name == name and role.index[: len(prefix)] == prefix:
                out.append(v)
        return out

    def _key(self) -> tuple:
        return (self.graph, self.kind, self.roles, tuple(sorted(self.params.items())))

    def __repr__(self) -> str:
        return f"GadgetInstance({self.kind}, n={self.graph.n})"


def _span(start: int, k: int) -> int:
    """Mask of the k vertices start, start + 1, ..., start + k - 1."""
    return ((1 << k) - 1) << start


class _Builder:
    """Adjacency rows built block by block: every block of a gadget sits on
    a contiguous vertex range, and vertex groups are joined as masks."""

    def __init__(self, n: int):
        self.n = n
        self.rows = [0] * n

    def add(self, mask: int, row: int):
        """OR row into the row of every vertex of mask."""
        rows = self.rows
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1] |= row
            mask ^= low

    def join(self, a: int, b: int):
        """Make every vertex of mask a adjacent to every vertex of mask b;
        the two masks are disjoint."""
        self.add(a, b)
        self.add(b, a)

    def block(self, start: int, pattern: Graph):
        """Lay a pattern graph onto the range from start, slot i playing
        pattern vertex i."""
        rows = self.rows
        for i, row in enumerate(pattern.rows):
            rows[start + i] |= row << start

    def clique(self, start: int, k: int):
        full = _span(start, k)
        rows = self.rows
        for v in range(start, start + k):
            rows[v] |= full ^ (1 << v)

    def finish(self) -> Graph:
        # every edge was set in both rows and never on a vertex itself
        return Graph._unchecked(self.n, tuple(self.rows))


def _roles(name: str, prefix: tuple, k: int) -> list[Role]:
    """Roles of a k-vertex block: the prefix followed by the slot."""
    return [Role._make((name, (*prefix, j))) for j in range(k)]


def _checked_size(kind: str, params: dict) -> int:
    """The closed-form vertex count of a gadget, computed before anything
    is built. A count above MAX_JSON_VERTICES, the largest graph g6_decode
    reads back, is refused."""
    n = _SIZE_FORMULAS[kind](params)
    if n > MAX_JSON_VERTICES:
        raise GadgetTooLarge(
            f"{kind} gadget would have {n} vertices; at most {MAX_JSON_VERTICES} are built")
    return n


def _inductive(gprime: Graph, t: int, kind: str) -> GadgetInstance:
    block_size = t + 2
    np = gprime.n
    params = {"t": t, "source": gprime}
    b = _Builder(_checked_size(kind, params))
    b.rows[:np] = gprime.rows
    roles = [Role("source", (u,)) for u in range(np)]
    if not np:
        # no block is laid, and the block pattern alone may be too large
        return GadgetInstance(b.finish(), kind, roles, params)

    if kind == STAR_INDUCTIVE:
        inner = make_pattern(PatternSpec.complete(block_size))
    elif kind == PATH_INDUCTIVE:
        inner = complement(make_pattern(PatternSpec.path(block_size)))
    else:
        inner = complement(make_pattern(PatternSpec.cycle(block_size)))

    blocks = _span(np, np * block_size)
    for u in range(np):
        start = np + u * block_size
        b.block(start, inner)
        own = _span(start, block_size)
        # the star's last slot is the special vertex the source stays clear of
        b.join(1 << u, _span(start, block_size - 1) if kind == STAR_INDUCTIVE else own)
        if kind == CYCLE_INDUCTIVE:
            b.add(own, blocks ^ own)
        roles += _roles("block", (u,), block_size)
    graph = b.finish()
    return GadgetInstance(graph, kind, roles, params)


def star_inductive(gprime: Graph, t: int) -> GadgetInstance:
    """Construction lifting K_{1,t}-free hardness to K_{1,t+1}-free.

    Each source vertex u gains a private K_{t+2} block; u is adjacent to all
    of it except the block's special last vertex.
    """
    if t < 2:
        raise InvalidT(f"star construction needs t >= 2, got {t}")
    return _inductive(gprime, t, STAR_INDUCTIVE)


def path_inductive(gprime: Graph, t: int) -> GadgetInstance:
    """Construction lifting P_t-free hardness to P_{t+2}-free: a private
    complemented-path block per source vertex, fully joined to its owner."""
    if t < 3:
        raise InvalidT(f"path construction needs t >= 3, got {t}")
    return _inductive(gprime, t, PATH_INDUCTIVE)


def cycle_inductive(gprime: Graph, t: int) -> GadgetInstance:
    """Construction lifting P_t-free hardness to C_{t+2}-free: complemented
    cycle blocks, mutually fully joined across different source vertices."""
    if t < 4:
        raise InvalidT(f"cycle construction needs t >= 4, got {t}")
    return _inductive(gprime, t, CYCLE_INDUCTIVE)


def _require_exact_4sat(phi: CnfFormula):
    if phi.k != 4:
        raise WrongWidth(f"gadget needs exact 4-SAT, got width {phi.k}")


def _lit(i: int, side: int) -> int:
    """Index of a literal vertex in the K15, P7 and P8 layouts, which put
    the 2n literal vertices first."""
    return 2 * (i - 1) + side


def _literal_vertex(lit: int) -> tuple[int, int]:
    """(variable, side) of a literal vertex; side 0 is the positive one."""
    return abs(lit), 0 if lit > 0 else 1


def k15_gadget(phi: CnfFormula, add_dummy_clause: bool = False) -> GadgetInstance:
    """Construction reducing 4-SAT at threshold 2 to complementation into
    K_{1,5}-free graphs; 22 vertices per variable, 5 per clause.

    add_dummy_clause appends one clause over four fresh variables before
    building (a device some arguments about the reverse direction rely on).
    """
    _require_exact_4sat(phi)
    if add_dummy_clause:
        fresh = [phi.n + 1, phi.n + 2, phi.n + 3, phi.n + 4]
        phi = CnfFormula(phi.n + 4, list(phi.clauses) + [fresh])
    n, m = phi.n, phi.m
    b = _Builder(_checked_size(K15, {"phi": phi}))
    roles = [Role("literal", (i, side)) for i in range(1, n + 1) for side in (0, 1)]

    for i in range(1, n + 1):
        hang = 2 * n + (i - 1) * 20  # four 5-cliques, chain s = 1..4
        b.join(1 << _lit(i, 0), 1 << _lit(i, 1))
        for s in (1, 2, 3, 4):
            b.clique(hang + (s - 1) * 5, 5)
            roles += _roles("hanging", (i, s), 5)
        b.join(_span(_lit(i, 0), 2), _span(hang, 5))
        b.join(_span(hang, 5), _span(hang + 5, 15))

    for i in range(1, m + 1):
        verts = _span(22 * n + (i - 1) * 5, 5)
        roles += _roles("clause", (i,), 5)
        for litval in phi.clauses[i - 1]:
            b.join(1 << _lit(*_literal_vertex(litval)), verts)
    b.clique(22 * n, 5 * m)

    graph = b.finish()
    params = {"phi": phi, "dummy_clause_added": add_dummy_clause}
    return GadgetInstance(graph, K15, roles, params)


def _p_gadget(phi: CnfFormula, block_size: int) -> GadgetInstance:
    """Shared core of the two path-pattern gadgets; block_size 7 or 8."""
    _require_exact_4sat(phi)
    kind = P8 if block_size == 8 else P7
    total = _checked_size(kind, {"phi": phi})
    n, m = phi.n, phi.m
    per_var = 2 + 6 * block_size
    extra_blocks = 1 if block_size == 8 else 0  # the per-clause single block
    blocks_per_clause = 3 + extra_blocks
    b = _Builder(total)
    roles = [Role("literal", (i, side)) for i in range(1, n + 1) for side in (0, 1)]
    pbar = complement(make_pattern(PatternSpec.path(block_size)))

    chains = 6 * block_size  # a variable's six hanging chains, side-major
    for i in range(1, n + 1):
        for side in (0, 1):
            prev = 1 << _lit(i, side)
            for s in (1, 2, 3):
                start = 2 * n + ((i - 1) * 6 + side * 3 + (s - 1)) * block_size
                verts = _span(start, block_size)
                b.block(start, pbar)
                b.join(prev, verts)
                roles += _roles("hanging", (i, side, s), block_size)
                prev = verts

    # hanging sets (all of a variable's group but its two literal vertices)
    # see everything outside their own group
    full = _span(0, total)
    lits = _span(0, 2 * n)
    hanging = _span(2 * n, chains * n)
    for i in range(1, n + 1):
        own = _span(2 * n + (i - 1) * chains, chains)
        pair = _span(_lit(i, 0), 2)
        b.add(own, full ^ own ^ pair)
        b.add(pair, hanging ^ own)
    clause_verts = full ^ lits ^ hanging
    b.add(clause_verts, hanging)

    pairs = [(1, 2), (2, 3), (3, 4)]
    for i in range(1, m + 1):
        clits = [1 << _lit(*_literal_vertex(l)) for l in phi.clauses[i - 1]]
        outside = lits & ~(clits[0] | clits[1] | clits[2] | clits[3])
        start = per_var * n + (i - 1) * blocks_per_clause * block_size
        group = _span(start, blocks_per_clause * block_size)
        b.add(group, clause_verts ^ group)  # clause groups are joined
        if extra_blocks:
            b.block(start, pbar)
            b.join(outside | clits[0], _span(start, block_size))
            roles += _roles("clause_single", (i, 1), block_size)
            start += block_size
        for s, t_ in pairs:
            b.block(start, pbar)
            b.join(outside | clits[s - 1] | clits[t_ - 1], _span(start, block_size))
            roles += _roles("clause_pair", (i, s, t_), block_size)
            start += block_size

    graph = b.finish()
    return GadgetInstance(graph, kind, roles, {"phi": phi})


def p7_gadget(phi: CnfFormula) -> GadgetInstance:
    """Construction reducing 4-SAT at threshold 2 to complementation into
    P_7-free graphs; 44 vertices per variable, 21 per clause."""
    return _p_gadget(phi, 7)


def p8_gadget(phi: CnfFormula) -> GadgetInstance:
    """P_8-free variant: complemented-path blocks of 8 and one extra clause
    block tied to the clause's first literal; 50 per variable, 32 per clause."""
    return _p_gadget(phi, 8)


def c8_gadget(phi: CnfFormula) -> GadgetInstance:
    """Construction reducing 4-SAT at threshold 2 to complementation into
    C_8-free graphs; 8 vertices per variable, 48 per clause.

    Each variable owns a complemented 8-cycle whose even walk positions form
    the positive clique and odd positions the negative one.
    """
    _require_exact_4sat(phi)
    n, m = phi.n, phi.m
    b = _Builder(_checked_size(C8, {"phi": phi}))
    roles = []
    cbar = complement(make_pattern(PatternSpec.cycle(8)))

    for i in range(1, n + 1):
        b.block((i - 1) * 8, cbar)
        # side 0 (positive) holds the even walk positions
        roles += [Role("literal_set", (i, pos % 2, pos // 2)) for pos in range(8)]

    def literal_set(litval):
        var, side = _literal_vertex(litval)
        return 0x55 << ((var - 1) * 8 + side)  # walk positions side, side + 2, ...

    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    clause_verts = _span(8 * n, 48 * m)
    for i in range(1, m + 1):
        lits = phi.clauses[i - 1]
        start = 8 * n + (i - 1) * 48
        group = _span(start, 48)
        b.add(group, clause_verts ^ group)  # clause groups are joined
        for s, t_ in pairs:
            b.block(start, cbar)
            b.join(literal_set(lits[s - 1]) | literal_set(lits[t_ - 1]), _span(start, 8))
            roles += _roles("clause_pair", (i, s, t_), 8)
            start += 8

    graph = b.finish()
    return GadgetInstance(graph, C8, roles, {"phi": phi})


def _literal_role(inst: GadgetInstance) -> str:
    """Role of the vertices standing for literals: one vertex per literal,
    or for C8 a four-vertex clique per literal."""
    if inst.kind not in _SAT_KINDS:
        raise KindMismatch(f"{inst.kind} instances carry no assignment mapping")
    return "literal_set" if inst.kind == C8 else "literal"


def solution_from_assignment(inst: GadgetInstance, a: Assignment) -> VertexSet:
    """The certificate the hardness proofs pick for a threshold-2 assignment:
    one literal vertex per variable, or the whole true-side clique for C8."""
    role = _literal_role(inst)
    phi: CnfFormula = inst.params["phi"]
    if not check_threshold(phi, a, 2):
        raise NotSatisfying("assignment misses the two-true-literals threshold")
    members = []
    for i in range(1, phi.n + 1):
        members.extend(inst.vertices_with_role(role, i, 0 if a[i] else 1))
    return VertexSet.from_members(members, inst.graph.n)


def assignment_from_solution(inst: GadgetInstance, s: VertexSet) -> Assignment:
    """Read an assignment straight off a vertex set: a variable is true when
    all of its positive literal vertices are in s. No validity check here,
    callers verify the set downstream."""
    role = _literal_role(inst)
    phi: CnfFormula = inst.params["phi"]
    return Assignment(
        all(v in s for v in inst.vertices_with_role(role, i, 0))
        for i in range(1, phi.n + 1)
    )


_SIZE_FORMULAS = {
    STAR_INDUCTIVE: lambda p: p["source"].n * (p["t"] + 3),
    PATH_INDUCTIVE: lambda p: p["source"].n * (p["t"] + 3),
    CYCLE_INDUCTIVE: lambda p: p["source"].n * (p["t"] + 3),
    K15: lambda p: 22 * p["phi"].n + 5 * p["phi"].m,
    P7: lambda p: 44 * p["phi"].n + 21 * p["phi"].m,
    P8: lambda p: 50 * p["phi"].n + 32 * p["phi"].m,
    C8: lambda p: 8 * p["phi"].n + 48 * p["phi"].m,
}


def expected_size(inst: GadgetInstance) -> int:
    return _SIZE_FORMULAS[inst.kind](inst.params)


def certificate_json(inst: GadgetInstance) -> dict:
    """Sidecar description of an instance: kind, parameters, roles, and the
    closed-form size check."""
    params: dict = {}
    if "t" in inst.params:
        params["t"] = inst.params["t"]
        src = inst.params["source"]
        params["source"] = {"n": src.n, "edges": [list(e) for e in src.edges()]}
    if "phi" in inst.params:
        phi = inst.params["phi"]
        params["phi"] = {
            "n": phi.n,
            "m": phi.m,
            "k": phi.k,
            "clauses": [list(c) for c in phi.clauses],
        }
    if "dummy_clause_added" in inst.params:
        params["dummy_clause_added"] = inst.params["dummy_clause_added"]
    expected = expected_size(inst)
    return {
        "kind": inst.kind,
        "params": params,
        "roles": [
            {"vertex": v, "role": r.name, "indices": list(r.index)}
            for v, r in enumerate(inst.roles)
        ],
        "size_formula_check": {
            "expected": expected,
            "actual": inst.graph.n,
            "ok": expected == inst.graph.n,
        },
    }
