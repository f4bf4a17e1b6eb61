"""Induced-subgraph search for one pattern graph, prepared once.

A Pattern holds what the search needs from the pattern alone: the degree
filters a host vertex must pass to play each pattern vertex, and
symmetry-breaking constraints from the pattern's automorphisms. The search
is a depth-first walk over bitmask domains on an explicit stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import PatternTooSmall
from .values import Frozen

if TYPE_CHECKING:
    from .graphs import Graph


# Work the automorphism searches of one Pattern may spend, in descents times
# pattern order. Patterns too large for one search to finish within it keep
# only the constraints their twins give.
_ORBIT_WORK = 1 << 16


def _selectors(rows, later) -> tuple[bytes, ...]:
    """Per pattern vertex j, one byte for each later vertex k: bit 0 says
    that j and k are adjacent, bit 1 that k is in later[j]."""
    n = len(rows)
    return tuple(
        bytes(((rows[j] >> k) & 1) | ((later[j] >> k) & 1) << 1 for k in range(j + 1, n))
        for j in range(n)
    )


def _search(steps, later, rows, doms, budget=-1):
    """Depth-first search for an induced embedding into the host graph with
    adjacency bitrows `rows`: pattern vertices in index order, lowest host
    vertex first, on an explicit stack. doms[j] is pattern vertex j's
    starting domain. Placing j on host vertex x narrows each later domain to
    x's neighbours or non-neighbours, as steps[j] says, and the domain of
    each vertex in later[j] (when later is not empty) to host vertices
    above x.

    Returns (mapping or None, budget left). Each descent spends one unit of
    budget; 0 left means the search stopped unfinished."""
    hn = len(doms)
    gfull = (1 << len(rows)) - 1
    mapping = [0] * hn
    cands = [0] * hn
    stack = [None] * hn  # stack[j]: domains of j+1.. before j is placed
    cands[0] = doms[0]
    stack[0] = doms[1:]
    j = 0
    while True:
        cand = cands[j]
        if not cand:
            if not j:
                return None, budget
            j -= 1
            continue
        xbit = cand & -cand
        cands[j] = cand ^ xbit
        x = xbit.bit_length() - 1
        mapping[j] = x
        if j + 1 == hn:
            return tuple(mapping), budget
        grow = rows[x]
        gnon = gfull ^ grow ^ xbit
        if later and later[j]:
            above = -(xbit << 1)
            masks = (gnon, grow, gnon & above, grow & above)
        else:
            masks = (gnon, grow, gnon, grow)
        nxt = []
        for d, s in zip(stack[j], steps[j]):
            d &= masks[s]
            if not d:
                break
            nxt.append(d)
        else:
            budget -= 1
            if not budget:
                return None, 0
            j += 1
            cands[j] = nxt[0]
            stack[j] = nxt[1:]


def _orbit_constraints(rows, need_of) -> tuple[int, ...]:
    """Symmetry-breaking constraints (Grochow and Kellis, RECOMB 2007) for
    the pattern with adjacency bitrows `rows`, along the pointwise
    stabiliser chain in search order: later[i] is the mask of the vertices
    w > i that some automorphism fixing 0..i-1 sends i to. Embeddings that
    put i below every such w, for every i, are one per induced copy.

    Each bit comes from an automorphism actually found: a twin swap (u and w
    with N(u) - w = N(w) - u) or a search of the pattern into itself. When
    the work cap stops the searches, the constraints found so far are kept;
    the one embedding per copy that the full set admits satisfies any
    subset of it."""
    n = len(rows)
    full = (1 << n) - 1
    groups: dict[int, int] = {}
    for v, row in enumerate(rows):
        for key in (row, row | 1 << v):
            groups[key] = groups.get(key, 0) | 1 << v
    twins = [groups[row] | groups[row | 1 << v] for v, row in enumerate(rows)]
    classes: dict[int, int] = {}
    for v, c in enumerate(need_of):
        classes[c] = classes.get(c, 0) | 1 << v
    alike = [classes[c] for c in need_of]
    budget = _ORBIT_WORK // n
    # a search that finds an automorphism descends n - 1 times
    steps = _selectors(rows, (0,) * n) if budget >= n else None
    later = [0] * n
    for i in range(n - 1):
        below = (1 << i) - 1
        keep = full ^ below
        orbit = twins[i] & keep
        cand = alike[i] & keep & ~orbit
        gens = []
        while cand and steps:
            wbit = cand & -cand
            cand ^= wbit
            if rows[wbit.bit_length() - 1] & below != rows[i] & below:
                continue
            doms = [1 << k for k in range(i)] + [wbit] + alike[i + 1:]
            sigma, budget = _search(steps, (), rows, doms, budget)
            if not budget:
                later[i] = orbit ^ (1 << i)
                return tuple(later)
            if sigma is not None:
                gens.append(sigma)
                orbit = _closure(orbit, gens, twins, keep)
                cand &= ~orbit
        later[i] = orbit ^ (1 << i)
    return tuple(later)


def _closure(orbit: int, gens, twins, keep: int) -> int:
    """Orbit mask closed under the generators and the twin swaps within keep."""
    todo = orbit
    while todo:
        xbit = todo & -todo
        todo ^= xbit
        x = xbit.bit_length() - 1
        new = twins[x] & keep
        for sigma in gens:
            new |= 1 << sigma[x]
        new &= ~orbit
        orbit |= new
        todo |= new
    return orbit


class Pattern(Frozen):
    """A pattern graph prepared once for any number of induced searches.

    It holds what a search needs from the pattern alone: the distinct
    (degree, non-degree) pairs a host vertex must reach to play a pattern
    vertex, and the orbit constraints from the pattern's automorphisms,
    under which a freeness test reaches each induced copy through one
    embedding. The constraints and the search's selector table take
    O(h^2) bits, so the first search that needs them builds them; a pattern
    larger than every host it meets never pays for them. Equality compares
    the graph alone; the rest derives from it.
    """

    __slots__ = ("graph", "_needs", "_need_of", "_later", "_steps")

    def __init__(self, h: Graph):
        if h.n < 1:
            raise PatternTooSmall("pattern must have at least one vertex")
        per_vertex = [(row.bit_count(), h.n - 1 - row.bit_count()) for row in h.rows]
        needs = tuple(dict.fromkeys(per_vertex))
        object.__setattr__(self, "graph", h)
        object.__setattr__(self, "_needs", needs)
        object.__setattr__(self, "_need_of", tuple(needs.index(p) for p in per_vertex))
        object.__setattr__(self, "_later", None)
        object.__setattr__(self, "_steps", None)

    def _key(self) -> tuple:
        return (self.graph,)

    def _constraints(self) -> tuple[int, ...]:
        if self._later is None:
            later = _orbit_constraints(self.graph.rows, self._need_of)
            object.__setattr__(self, "_later", later)
            object.__setattr__(self, "_steps", _selectors(self.graph.rows, later))
        return self._later

    @property
    def vertex_transitive(self) -> bool:
        """The orbit found for vertex 0 is every vertex (a capped search may
        miss it on a large pattern)."""
        return self._constraints()[0] == (1 << self.graph.n) - 2

    def embed(self, rows, once: bool = False) -> Optional[tuple[int, ...]]:
        """An induced embedding of the pattern into the host graph with
        adjacency bitrows `rows`, or None.

        By default the lexicographically least one. With once, only
        embeddings that satisfy the orbit constraints count: one per induced
        copy (at least one where the work cap cut the constraints short),
        which is all a decision or a witness needs."""
        hn, gn = self.graph.n, len(rows)
        if hn > gn:
            return None
        gdeg = [row.bit_count() for row in rows]
        need_masks = []
        for deg, non in self._needs:
            hi = gn - 1 - non
            m = 0
            for v, d in enumerate(gdeg):
                if deg <= d <= hi:
                    m |= 1 << v
            if not m:
                return None
            need_masks.append(m)
        later = self._constraints()
        doms = [need_masks[i] for i in self._need_of]
        return _search(self._steps, later if once else (), rows, doms)[0]
