"""(p, q)-split partitions and their enumeration.

A (p, q)-split partition of G is a bipartition (P, Q) of V(G) where G[P] has
no clique on p+1 vertices and G[Q] has no independent set on q+1 vertices.
Any two such partitions of the same graph differ on fewer than R(p+1, q+1)
vertices per side, so a graph has polynomially many for fixed p and q.

region_q_sides works on a vertex mask of a host graph, given the rows of
the host and of its complement; the public functions run the same searches
on every vertex. After one seed partition is found, the enumeration places
the vertices one at a time and drops a branch as soon as a side gains a
forbidden clique. Every node of that search is a split partition of the
vertices placed so far, so for fixed p and q it visits polynomially many.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .errors import InvalidArgs, InvalidSeed
from .graphs import Graph, VertexSet, complement
from .matcher import least_clique
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


class SplitPartition(Frozen):
    """A concrete (p, q)-split partition of some graph."""

    __slots__ = ("p", "q", "P", "Q")

    def __init__(self, p: int, q: int, P: VertexSet, Q: VertexSet):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    def __repr__(self) -> str:
        return f"SplitPartition(p={self.p}, q={self.q}, P={set(self.P.members()) or '{}'}, Q={set(self.Q.members()) or '{}'})"


def is_split_partition(g: Graph, p: int, q: int, pbits: int, qbits: int) -> bool:
    """Check the two sides directly: no K_{p+1} in P, no (q+1)-independent
    set in Q."""
    if p < 1 or q < 1:
        raise InvalidArgs(f"split parameters must be positive, got ({p}, {q})")
    full = (1 << g.n) - 1
    if (pbits | qbits) != full or (pbits & qbits):
        return False
    if least_clique(g.rows, pbits, p + 1) is not None:
        return False
    return least_clique(complement(g).rows, qbits, q + 1) is None


def _seed_q(rows, co_rows, region: int, p: int, q: int, forced: int = 0) -> Optional[int]:
    """Q side of the first (p, q)-split partition of the subgraph induced on
    the mask `region` whose Q side misses the mask `forced`, or None when it
    has none.

    Branching on cliques: while the tentative P side still holds a K_{p+1},
    one of its vertices outside `forced` must move to Q; branch over those
    choices, lowest vertex first, so a clique wholly in `forced` ends its
    branch. The Q side is pruned as soon as it gains a
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
        if least_clique(co_rows, qbits, q + 1) is not None:
            continue
        clique = least_clique(rows, region & ~qbits, p + 1)
        if clique is None:
            return qbits
        clique &= ~forced
        branches = []
        while clique:
            vbit = clique & -clique
            clique ^= vbit
            branches.append(qbits | vbit)
        stack.extend(reversed(branches))  # lowest vertex is popped first
    return None


def region_q_sides(rows, co_rows, region: int, p: int, q: int, forced: int) -> list[int]:
    """Q sides of every (p, q)-split partition of the host's subgraph induced
    on the mask `region` with Q disjoint from `forced`, as host masks sorted
    by P side; empty when there is none. rows and co_rows are the host's
    adjacency rows and those of its complement.

    After the seed check, one depth-first search on an explicit stack places
    the region's vertices from the highest down. A vertex may join Q unless
    it is forced or closes an independent (q+1)-set there, and P unless it
    closes a K_{p+1}; both properties are hereditary, so a dead branch never
    revives. Q is tried first and only the P alternative is pushed, so the Q
    sides come out in ascending order of their P sides. The seed check keeps
    a region with no partition from paying for every partition of a part of
    it."""
    if _seed_q(rows, co_rows, region, p, q, forced) is None:
        return []
    sides = []
    stack = [(0, 0, region)]
    while stack:
        pbits, qbits, rest = stack.pop()
        while rest:
            v = rest.bit_length() - 1
            vbit = 1 << v
            rest ^= vbit
            to_p = least_clique(rows, pbits & rows[v], p) is None
            if not vbit & forced and least_clique(co_rows, qbits & co_rows[v], q) is None:
                if to_p:
                    stack.append((pbits | vbit, qbits, rest))
                qbits |= vbit
            elif to_p:
                pbits |= vbit
            else:
                break
        else:
            sides.append(qbits)
    return sides


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
    forced_p, sorted by P side (the search of region_q_sides over every
    vertex). The seed must be a valid partition of g; the result does not
    depend on which one is given."""
    if p < 1 or q < 1:
        raise InvalidArgs(f"split parameters must be positive, got ({p}, {q})")
    if seed.P.cap != g.n or seed.Q.cap != g.n:
        raise InvalidSeed("seed partition does not index this graph")
    if not is_split_partition(g, p, q, seed.P.bits, seed.Q.bits):
        raise InvalidSeed("seed is not a valid split partition of this graph")
    full = (1 << g.n) - 1
    return [
        SplitPartition(p, q, VertexSet(full ^ qb, g.n), VertexSet(qb, g.n))
        for qb in region_q_sides(g.rows, complement(g).rows, full, p, q, forced_p)
    ]
