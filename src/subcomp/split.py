"""(p, q)-split partitions and their enumeration.

A (p, q)-split partition of G is a bipartition (P, Q) of V(G) where G[P] has
no clique on p+1 vertices and G[Q] has no independent set on q+1 vertices.
Any two such partitions of the same graph differ on fewer than R(p+1, q+1)
vertices per side, which is what keeps the enumeration polynomial for fixed
p and q.
"""

from __future__ import annotations

import itertools
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


def find_split_partition(g: Graph, p: int, q: int) -> Optional[SplitPartition]:
    """One (p, q)-split partition of g, or None when the graph has none.

    Branching on cliques: while the tentative P side still holds a K_{p+1},
    one of its vertices must move to Q; branch over the p+1 choices, lowest
    vertex first. The Q side is pruned as soon as it gains a
    (q+1)-independent set. The depth-first search runs on an explicit stack,
    so a deep branch (up to n levels) cannot exhaust the interpreter's
    recursion limit.
    """
    if p < 1 or q < 1:
        raise InvalidArgs(f"split parameters must be positive, got ({p}, {q})")
    rows = g.rows
    co_rows = complement(g).rows
    full = (1 << g.n) - 1
    seen = set()
    stack = [0]
    while stack:
        qbits = stack.pop()
        if qbits in seen:
            continue
        seen.add(qbits)
        if _least_clique(co_rows, qbits, q + 1) is not None:
            continue
        clique = _least_clique(rows, full & ~qbits, p + 1)
        if clique is None:
            return SplitPartition(
                p, q, VertexSet(full & ~qbits, g.n), VertexSet(qbits, g.n)
            )
        branches = []
        while clique:
            vbit = clique & -clique
            clique ^= vbit
            branches.append(qbits | vbit)
        stack.extend(reversed(branches))  # lowest vertex is popped first
    return None


def enumerate_split_partitions(
    g: Graph, p: int, q: int, seed: SplitPartition, forced_p: int = 0
) -> list[SplitPartition]:
    """All (p, q)-split partitions of g with Q disjoint from the bitmask
    forced_p, grown from one seed partition.

    Any other partition (P', Q') satisfies |P ∩ Q'| and |Q ∩ P'| below
    R(p+1, q+1), so sweeping bounded exchanges X ⊆ P, Y ⊆ Q and validating
    each candidate finds every partition. A forced vertex never joins X, and
    every Y holds the forced part of the seed's Q side; when that part alone
    reaches the bound, no partition qualifies. Results are deduplicated by
    the P-side bitmask and returned sorted by it.
    """
    if p < 1 or q < 1:
        raise InvalidArgs(f"split parameters must be positive, got ({p}, {q})")
    if seed.P.cap != g.n or seed.Q.cap != g.n:
        raise InvalidSeed("seed partition does not index this graph")
    co_rows = complement(g).rows
    if not is_split_partition(g, p, q, seed.P.bits, seed.Q.bits, co_rows):
        raise InvalidSeed("seed is not a valid split partition of this graph")
    bound = ramsey_bound(p + 1, q + 1).value
    must = seed.Q.bits & forced_p
    y_room = bound - 1 - must.bit_count()
    if y_room < 0:
        return []
    pmem = VertexSet(seed.P.bits & ~forced_p, g.n).members()
    qmem = VertexSet(seed.Q.bits & ~forced_p, g.n).members()
    found: dict[int, int] = {}
    for xs in range(min(bound - 1, len(pmem)) + 1):
        for x_combo in itertools.combinations(pmem, xs):
            xm = sum(1 << v for v in x_combo)
            for ys in range(min(y_room, len(qmem)) + 1):
                for y_combo in itertools.combinations(qmem, ys):
                    ym = must | sum(1 << v for v in y_combo)
                    pb = (seed.P.bits ^ xm) | ym
                    if pb in found:
                        continue
                    qb = (seed.Q.bits ^ ym) | xm
                    if is_split_partition(g, p, q, pb, qb, co_rows):
                        found[pb] = qb
    return [
        SplitPartition(p, q, VertexSet(pb, g.n), VertexSet(qb, g.n))
        for pb, qb in sorted(found.items())
    ]
