"""(p, q)-split partitions and their enumeration.

A (p, q)-split partition of G is a bipartition (P, Q) of V(G) where G[P] has
no clique on p+1 vertices and G[Q] has no independent set on q+1 vertices.
Any two such partitions of the same graph differ on fewer than R(p+1, q+1)
vertices per side, which is what keeps the enumeration polynomial for fixed
p and q.

region_q_sides works on a vertex mask of a host graph, given the rows of
the host and of its complement; the public functions run the same searches
on every vertex. The exchanges with a seed partition grow one vertex at a
time and stop as soon as a side gains a forbidden clique, rather than
validating each candidate.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .errors import InvalidArgs, InvalidSeed
from .graphs import Graph, VertexSet, complement
from .values import Frozen


class RamseyBound(Frozen):
    """Value of (an upper bound on) the Ramsey number R(p, q), with a flag
    saying whether the value is known to be exact."""

    __slots__ = ("p", "q", "value", "exact")

    def __init__(self, p: int, q: int, value: int, exact: bool):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "upper bound"
        return f"RamseyBound(R({self.p}, {self.q}) <= {self.value}, {tag})"


_RAMSEY_EXACT = {
    (3, 3): 6,
    (3, 4): 9,
    (3, 5): 14,
    (4, 4): 18,
}


def ramsey_bound(p: int, q: int) -> RamseyBound:
    """R(p, q) when it is known exactly, else the binomial upper bound
    C(p+q-2, p-1)."""
    if p < 1 or q < 1:
        raise InvalidArgs(f"Ramsey arguments must be positive, got ({p}, {q})")
    if p == 1 or q == 1:
        return RamseyBound(p, q, 1, True)
    if p == 2:
        return RamseyBound(p, q, q, True)
    if q == 2:
        return RamseyBound(p, q, p, True)
    key = (p, q) if p <= q else (q, p)
    if key in _RAMSEY_EXACT:
        return RamseyBound(p, q, _RAMSEY_EXACT[key], True)
    return RamseyBound(p, q, comb(p + q - 2, p - 1), False)


def _least_clique(rows, within: int, size: int) -> Optional[int]:
    """First clique of the given size inside the mask `within` in ascending
    vertex order, as a bitmask, or None. size=0 finds the empty clique."""
    if size == 0:
        return 0
    if size == 1:
        return (within & -within) or None

    def grow(chosen: int, count: int, cand: int) -> Optional[int]:
        if count == size:
            return chosen
        if count + cand.bit_count() < size:
            return None
        while cand:
            vbit = cand & -cand
            cand ^= vbit
            got = grow(chosen | vbit, count + 1, cand & rows[vbit.bit_length() - 1])
            if got is not None:
                return got
        return None

    return grow(0, 0, within)


class SplitPartition(Frozen):
    """A concrete (p, q)-split partition of some graph."""

    __slots__ = ("p", "q", "P", "Q")

    def __init__(self, p: int, q: int, P: VertexSet, Q: VertexSet):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "P": list(self.P.members()),
            "Q": list(self.Q.members()),
        }

    def __repr__(self) -> str:
        return f"SplitPartition(p={self.p}, q={self.q}, P={set(self.P.members()) or '{}'}, Q={set(self.Q.members()) or '{}'})"


def is_split_partition(
    g: Graph, p: int, q: int, pbits: int, qbits: int, co_rows: Optional[tuple] = None
) -> bool:
    """Check the two sides directly: no K_{p+1} in P, no (q+1)-independent
    set in Q. co_rows, the rows of complement(g), saves rebuilding the
    complement when the caller checks many candidates on one graph."""
    full = (1 << g.n) - 1
    if (pbits | qbits) != full or (pbits & qbits):
        return False
    if _least_clique(g.rows, pbits, p + 1) is not None:
        return False
    if co_rows is None:
        co_rows = complement(g).rows
    return _least_clique(co_rows, qbits, q + 1) is None


def _clique_through(rows, within: int, size: int, through: int) -> bool:
    """Whether the mask `within` holds a clique of the given size (>= 1)
    with a vertex in `through`: one search through each such vertex, which
    then leaves `within` since every clique through it has been tried."""
    while through:
        vbit = through & -through
        through ^= vbit
        if _least_clique(rows, within & rows[vbit.bit_length() - 1], size - 1) is not None:
            return True
        within &= ~vbit
    return False


def _grow(rows, base: int, cand: int, size: int) -> list[int]:
    """Every base | Y with Y ⊆ cand that gains no clique on size+1 vertices
    (base has none), by a depth-first search that adds the vertices of Y in
    ascending order and tests only the cliques through the new vertex. The
    property is hereditary, so pruning a set prunes every superset."""
    out = [base]
    stack = [(base, cand)]
    while stack:
        got, cand = stack.pop()
        while cand:
            vbit = cand & -cand
            cand ^= vbit
            if _least_clique(rows, got & rows[vbit.bit_length() - 1], size) is None:
                out.append(got | vbit)
                stack.append((got | vbit, cand))
    return out


def _seed_q(rows, co_rows, region: int, p: int, q: int) -> Optional[int]:
    """Q side of the first (p, q)-split partition of the subgraph induced on
    the mask `region`, or None when it has none.

    Branching on cliques: while the tentative P side still holds a K_{p+1},
    one of its vertices must move to Q; branch over the p+1 choices, lowest
    vertex first. The Q side is pruned as soon as it gains a
    (q+1)-independent set. The depth-first search runs on an explicit stack,
    so a deep branch (up to n levels) cannot exhaust the interpreter's
    recursion limit.
    """
    seen = set()
    stack = [0]
    while stack:
        qbits = stack.pop()
        if qbits in seen:
            continue
        seen.add(qbits)
        if _least_clique(co_rows, qbits, q + 1) is not None:
            continue
        clique = _least_clique(rows, region & ~qbits, p + 1)
        if clique is None:
            return qbits
        branches = []
        while clique:
            vbit = clique & -clique
            clique ^= vbit
            branches.append(qbits | vbit)
        stack.extend(reversed(branches))  # lowest vertex is popped first
    return None


def _exchanges(rows, co_rows, p: int, q: int, pbits: int, qbits: int, forced: int) -> list[int]:
    """Q sides of every (p, q)-split partition of the subgraph induced on
    pbits | qbits that keeps the mask `forced` on the P side, sorted by P
    side, grown from the valid partition (pbits, qbits).

    Another partition (P', Q') moves X = P ∩ Q' to Q and Y = Q ∩ P' to P.
    X must hold no independent (q+1)-set, and (P \\ X) ∪ Y no K_{p+1}; both
    are hereditary, so X and Y grow by pruned depth-first search, and the
    Ramsey bound keeps each below R(p+1, q+1). The one remaining test, Q'
    free of independent (q+1)-sets, can only fail through a vertex of X.
    Y always holds the forced part of Q, and a forced vertex never joins X.
    Distinct (X, Y) give distinct P sides.
    """
    region = pbits | qbits
    must = qbits & forced
    keep = qbits & ~forced
    sides = []
    for x in _grow(co_rows, 0, pbits & ~forced, q):
        rest = (pbits & ~x) | must
        if _clique_through(rows, rest, p + 1, must):
            continue
        # with every vertex of keep staying on Q, Q' is largest; if that is free, all are
        loose = x and _clique_through(co_rows, keep | x, q + 1, x)
        for pb in _grow(rows, rest, keep, p):
            if not (loose and _clique_through(co_rows, region & ~pb, q + 1, x)):
                sides.append(pb)
    sides.sort()
    return [region ^ pb for pb in sides]


def region_q_sides(rows, co_rows, region: int, p: int, q: int, forced: int) -> list[int]:
    """Q sides of every (p, q)-split partition of the host's subgraph induced
    on the mask `region` with Q disjoint from `forced`, as host masks sorted
    by P side; empty when there is none. rows and co_rows are the host's
    adjacency rows and those of its complement."""
    qbits = _seed_q(rows, co_rows, region, p, q)
    if qbits is None:
        return []
    return _exchanges(rows, co_rows, p, q, region & ~qbits, qbits, forced)


def find_split_partition(g: Graph, p: int, q: int) -> Optional[SplitPartition]:
    """One (p, q)-split partition of g, or None when the graph has none: the
    clique-branching search of _seed_q over every vertex."""
    if p < 1 or q < 1:
        raise InvalidArgs(f"split parameters must be positive, got ({p}, {q})")
    full = (1 << g.n) - 1
    qbits = _seed_q(g.rows, complement(g).rows, full, p, q)
    if qbits is None:
        return None
    return SplitPartition(p, q, VertexSet(full & ~qbits, g.n), VertexSet(qbits, g.n))


def enumerate_split_partitions(
    g: Graph, p: int, q: int, seed: SplitPartition, forced_p: int = 0
) -> list[SplitPartition]:
    """All (p, q)-split partitions of g with Q disjoint from the bitmask
    forced_p, grown from one seed partition and sorted by P side.

    Any other partition differs from the seed by bounded exchanges X ⊆ P
    and Y ⊆ Q, below R(p+1, q+1) vertices each. They are grown vertex by
    vertex and pruned as soon as X gains an independent (q+1)-set or the new
    P side a K_{p+1}, so no candidate is validated from scratch (see
    _exchanges).
    """
    if p < 1 or q < 1:
        raise InvalidArgs(f"split parameters must be positive, got ({p}, {q})")
    if seed.P.cap != g.n or seed.Q.cap != g.n:
        raise InvalidSeed("seed partition does not index this graph")
    co_rows = complement(g).rows
    if not is_split_partition(g, p, q, seed.P.bits, seed.Q.bits, co_rows):
        raise InvalidSeed("seed is not a valid split partition of this graph")
    full = (1 << g.n) - 1
    return [
        SplitPartition(p, q, VertexSet(full ^ qb, g.n), VertexSet(qb, g.n))
        for qb in _exchanges(g.rows, co_rows, p, q, seed.P.bits, seed.Q.bits, forced_p)
    ]
