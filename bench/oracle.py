"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports subcomp. Graphs are (n, rows) with rows[v] the
neighbour bitmask of v, as in the graph6 files the corpus writes.

The exhaustive oracle decides "is there an S such that G with the edges
inside S flipped has no induced H" by a depth-first search over vertex
membership in S. (G xor S)[T] depends only on S & T, so each |H|-subset T
of the vertices forbids a fixed list of values of S & T; the search checks
a constraint as soon as the highest vertex of T is decided.
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"(co-)?(?:K1,(\d+)|([KPCE])(\d+))\Z")


def pattern_edges(token: str) -> tuple[int, list[tuple[int, int]]]:
    """(k, edges) of a pattern token such as K3, P5, C4, E3, K1,3, co-C6."""
    m = _TOKEN.match(token)
    if m is None:
        raise ValueError(f"unknown pattern token {token!r}")
    co, leaves, kind, size = m.groups()
    if leaves is not None:
        k = int(leaves) + 1
        edges = [(0, i) for i in range(1, k)]
    else:
        k = int(size)
        if kind == "K":
            edges = list(itertools.combinations(range(k), 2))
        elif kind == "E":
            edges = []
        elif kind == "P":
            edges = [(i, i + 1) for i in range(k - 1)]
        else:
            edges = [(i, (i + 1) % k) for i in range(k)]
    if co:
        present = {frozenset(e) for e in edges}
        edges = [e for e in itertools.combinations(range(k), 2) if frozenset(e) not in present]
    return k, edges


class Pattern:
    """All labelled copies of H on positions 0..k-1, as pair bitmasks."""

    def __init__(self, token: str):
        k, edges = pattern_edges(token)
        self.token = token
        self.k = k
        self.pair_bit = {}
        for i, j in itertools.combinations(range(k), 2):
            self.pair_bit[i, j] = 1 << len(self.pair_bit)
        copies = set()
        for perm in itertools.permutations(range(k)):
            mask = 0
            for u, v in edges:
                a, b = sorted((perm[u], perm[v]))
                mask |= self.pair_bit[a, b]
            copies.add(mask)
        self.copies = frozenset(copies)
        # pairs flipped when the members of position subset a are complemented
        self.flip = [
            sum(bit for (i, j), bit in self.pair_bit.items() if (a >> i) & 1 and (a >> j) & 1)
            for a in range(1 << k)
        ]

    def pair_mask(self, rows, verts) -> int:
        mask = 0
        for (i, j), bit in self.pair_bit.items():
            if (rows[verts[i]] >> verts[j]) & 1:
                mask |= bit
        return mask


def flipped(rows, s_bits: int) -> list[int]:
    return [(row ^ (s_bits & ~(1 << v))) if (s_bits >> v) & 1 else row for v, row in enumerate(rows)]


def is_free(rows, h: Pattern) -> bool:
    """True iff the graph has no induced copy of h, by trying every k-subset."""
    for verts in itertools.combinations(range(len(rows)), h.k):
        if h.pair_mask(rows, verts) in h.copies:
            return False
    return True


def solvable(rows, h: Pattern) -> bool:
    """True iff some S makes the graph h-free after flipping the pairs inside S."""
    n = len(rows)
    k = h.k
    if k > n:
        return True
    # by_top[d]: (vertex mask of T, forbidden values of S & T) for T with max vertex d
    by_top = [[] for _ in range(n)]
    for verts in itertools.combinations(range(n), k):
        base = h.pair_mask(rows, verts)
        bad = set()
        for a in range(1 << k):
            if base ^ h.flip[a] in h.copies:
                bad.add(sum(1 << verts[i] for i in range(k) if (a >> i) & 1))
        if bad:
            by_top[verts[-1]].append((sum(1 << v for v in verts), bad))
    stack = [(0, 0)]  # (next vertex to decide, S so far)
    while stack:
        d, s = stack.pop()
        if d == n:
            return True
        for s2 in (s, s | (1 << d)):
            if all((s2 & tm) not in bad for tm, bad in by_top[d]):
                stack.append((d + 1, s2))
    return False
