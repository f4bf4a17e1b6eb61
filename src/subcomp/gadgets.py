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

from .errors import InvalidT, KindMismatch, NotSatisfying, WrongWidth
from .graphs import (
    Graph,
    PatternSpec,
    VertexSet,
    _checked_labels,
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

    def __repr__(self) -> str:
        return f"GadgetInstance({self.kind}, n={self.graph.n})"


class _Builder:
    def __init__(self, n: int):
        self.n = n
        self.rows = [0] * n

    def edge(self, u: int, v: int):
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def all_adj(self, a: Iterable[int], b: Iterable[int]):
        """Make every vertex of a adjacent to every vertex of b; the two
        sets are disjoint."""
        a, b = list(a), list(b)
        ma = mb = 0
        for u in a:
            ma |= 1 << u
        for v in b:
            mb |= 1 << v
        rows = self.rows
        for u in a:
            rows[u] |= mb
        for v in b:
            rows[v] |= ma

    def clique(self, verts: Iterable[int]):
        verts = list(verts)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                self.edge(u, v)

    def join_all(self, groups: list[list[int]]):
        """Make every two of the vertex groups fully adjacent."""
        for i, a in enumerate(groups):
            for other in groups[i + 1 :]:
                self.all_adj(a, other)

    def block(self, verts: list[int], pattern: Graph):
        """Lay a pattern graph onto verts, slot i playing pattern vertex i."""
        for u, v in pattern.edges():
            self.edge(verts[u], verts[v])

    def finish(self, labels) -> Graph:
        # every edge was set in both rows and never on a vertex itself
        return Graph._unchecked(self.n, tuple(self.rows), _checked_labels(labels, self.n))


def _labels_from_roles(roles: list[Role]) -> tuple[str, ...]:
    return tuple(
        f"{r.name}:{','.join(str(x) for x in r.index)}" for r in roles
    )


def _inductive(gprime: Graph, t: int, kind: str) -> GadgetInstance:
    block_size = t + 2
    np = gprime.n
    n = np * (t + 3)
    b = _Builder(n)
    roles = [Role("source", (u,)) for u in range(np)]
    for u, v in gprime.edges():
        b.edge(u, v)

    def block_verts(u):
        start = np + u * block_size
        return list(range(start, start + block_size))

    if kind == STAR_INDUCTIVE:
        inner = make_pattern(PatternSpec.complete(block_size))
    elif kind == PATH_INDUCTIVE:
        inner = complement(make_pattern(PatternSpec.path(block_size)))
    else:
        inner = complement(make_pattern(PatternSpec.cycle(block_size)))

    for u in range(np):
        verts = block_verts(u)
        b.block(verts, inner)
        if kind == STAR_INDUCTIVE:
            # the last slot is the special vertex the source stays clear of
            b.all_adj([u], verts[:-1])
        else:
            b.all_adj([u], verts)
        roles.extend(Role("block", (u, slot)) for slot in range(block_size))
    if kind == CYCLE_INDUCTIVE:
        b.join_all([block_verts(u) for u in range(np)])
    graph = b.finish(_labels_from_roles(roles))
    return GadgetInstance(graph, kind, roles, {"t": t, "source": gprime})


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
    total = 22 * n + 5 * m
    b = _Builder(total)
    roles: list[Optional[Role]] = [None] * total

    def hang(i, s, slot):
        return 2 * n + ((i - 1) * 4 + (s - 1)) * 5 + slot

    def clause(i, slot):
        return 22 * n + (i - 1) * 5 + slot

    for i in range(1, n + 1):
        u, up = _lit(i, 0), _lit(i, 1)
        roles[u] = Role("literal", (i, 0))
        roles[up] = Role("literal", (i, 1))
        b.edge(u, up)
        hangs = {s: [hang(i, s, j) for j in range(5)] for s in (1, 2, 3, 4)}
        for s, verts in hangs.items():
            b.clique(verts)
            for j, v in enumerate(verts):
                roles[v] = Role("hanging", (i, s, j))
        b.all_adj([u, up], hangs[1])
        for s in (2, 3, 4):
            b.all_adj(hangs[1], hangs[s])

    all_clause_verts = []
    for i in range(1, m + 1):
        verts = [clause(i, j) for j in range(5)]
        for j, v in enumerate(verts):
            roles[v] = Role("clause", (i, j))
        all_clause_verts.extend(verts)
        for litval in phi.clauses[i - 1]:
            var, side = _literal_vertex(litval)
            b.all_adj([_lit(var, side)], verts)
    b.clique(all_clause_verts)

    graph = b.finish(_labels_from_roles(roles))
    params = {"phi": phi, "dummy_clause_added": add_dummy_clause}
    return GadgetInstance(graph, K15, roles, params)


def _p_gadget(phi: CnfFormula, block_size: int) -> GadgetInstance:
    """Shared core of the two path-pattern gadgets; block_size 7 or 8."""
    _require_exact_4sat(phi)
    n, m = phi.n, phi.m
    per_var = 2 + 6 * block_size
    extra_blocks = 1 if block_size == 8 else 0  # the per-clause single block
    blocks_per_clause = 3 + extra_blocks
    total = per_var * n + blocks_per_clause * block_size * m
    b = _Builder(total)
    roles: list[Optional[Role]] = [None] * total
    pbar = complement(make_pattern(PatternSpec.path(block_size)))

    def hang(i, side, s, slot):
        return 2 * n + ((i - 1) * 6 + side * 3 + (s - 1)) * block_size + slot

    def clause_block(i, blk, slot):
        return per_var * n + ((i - 1) * blocks_per_clause + blk) * block_size + slot

    group = {}  # variable -> all vertices of its literal pair and six chains
    for i in range(1, n + 1):
        u, up = _lit(i, 0), _lit(i, 1)
        roles[u] = Role("literal", (i, 0))
        roles[up] = Role("literal", (i, 1))
        members = [u, up]
        for side in (0, 1):
            prev = [_lit(i, side)]
            for s in (1, 2, 3):
                verts = [hang(i, side, s, j) for j in range(block_size)]
                b.block(verts, pbar)
                b.all_adj(prev, verts)
                for j, v in enumerate(verts):
                    roles[v] = Role("hanging", (i, side, s, j))
                members.extend(verts)
                prev = verts
        group[i] = members

    # hanging sets (all of a group but its two literal vertices) see
    # everything outside their own variable's group
    for members in group.values():
        inside = set(members)
        b.all_adj(members[2:], [v for v in range(total) if v not in inside])

    pairs = [(1, 2), (2, 3), (3, 4)]
    clause_members = []
    for i in range(1, m + 1):
        lits = phi.clauses[i - 1]
        in_clause = {_literal_vertex(l) for l in lits}
        outside_lits = [
            _lit(var, side)
            for var in range(1, n + 1)
            for side in (0, 1)
            if (var, side) not in in_clause
        ]
        members = []
        blk = 0
        if extra_blocks:
            verts = [clause_block(i, 0, j) for j in range(block_size)]
            b.block(verts, pbar)
            var, side = _literal_vertex(lits[0])
            b.all_adj([_lit(var, side)], verts)
            b.all_adj(outside_lits, verts)
            for j, v in enumerate(verts):
                roles[v] = Role("clause_single", (i, 1, j))
            members.extend(verts)
            blk = 1
        for s, t_ in pairs:
            verts = [clause_block(i, blk, j) for j in range(block_size)]
            b.block(verts, pbar)
            for pos in (s, t_):
                var, side = _literal_vertex(lits[pos - 1])
                b.all_adj([_lit(var, side)], verts)
            b.all_adj(outside_lits, verts)
            for j, v in enumerate(verts):
                roles[v] = Role("clause_pair", (i, s, t_, j))
            members.extend(verts)
            blk += 1
        clause_members.append(members)
    b.join_all(clause_members)

    graph = b.finish(_labels_from_roles(roles))
    kind = P8 if block_size == 8 else P7
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
    total = 8 * n + 48 * m
    b = _Builder(total)
    roles: list[Optional[Role]] = [None] * total
    cbar = complement(make_pattern(PatternSpec.cycle(8)))

    def var_vertex(i, pos):
        return (i - 1) * 8 + pos

    def clause_block(i, blk, slot):
        return 8 * n + ((i - 1) * 6 + blk) * 8 + slot

    for i in range(1, n + 1):
        verts = [var_vertex(i, pos) for pos in range(8)]
        b.block(verts, cbar)
        for pos, v in enumerate(verts):
            # side 0 (positive) holds the even walk positions
            roles[v] = Role("literal_set", (i, pos % 2, pos // 2))

    def literal_set(litval):
        var, side = _literal_vertex(litval)
        return [var_vertex(var, 2 * member + side) for member in range(4)]

    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    clause_members = []
    for i in range(1, m + 1):
        lits = phi.clauses[i - 1]
        members = []
        for blk, (s, t_) in enumerate(pairs):
            verts = [clause_block(i, blk, j) for j in range(8)]
            b.block(verts, cbar)
            b.all_adj(literal_set(lits[s - 1]), verts)
            b.all_adj(literal_set(lits[t_ - 1]), verts)
            for j, v in enumerate(verts):
                roles[v] = Role("clause_pair", (i, s, t_, j))
            members.extend(verts)
        clause_members.append(members)
    b.join_all(clause_members)

    graph = b.finish(_labels_from_roles(roles))
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
