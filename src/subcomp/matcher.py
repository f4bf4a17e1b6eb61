"""Induced-subgraph search for one pattern graph, prepared once.

A Pattern holds what the search needs from the pattern alone: the degree
filters a host vertex must pass to play each pattern vertex,
symmetry-breaking constraints from the pattern's automorphisms, whether the
pattern is prime, the plan for peeling its universal and isolated vertices,
and the order a decision places its vertices in at each host density.
`prepared` shares one Pattern among all callers with equal pattern graphs.
The search is a depth-first walk over bitmask domains on an explicit
stack. `modules_avoiding` splits a host into modules, which a decision for
a prime pattern can skip. `least_clique` is the one clique search the split
core, the K_t solver and a peeled decision share; `greedy_colourable` is
the bound a peeled decision tries before it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import log
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from .errors import PatternTooSmall
from .values import Frozen

if TYPE_CHECKING:
    from .graphs import Graph


# Largest pattern order a decision plans a search order for. The plan runs
# one greedy pass per orbit of the pattern's vertices, each quadratic in the
# order: about 10 ms for a 32-vertex path. Larger patterns keep index order.
_PLAN_ORDER = 32

# Work the automorphism searches of one Pattern may spend, in descents times
# pattern order. Patterns too large for one search to finish within it keep
# only the constraints their twins give.
_ORBIT_WORK = 1 << 16

# Largest pattern order a decision peels. The clique search that closes a
# peel recurses once per vertex of what is left, at most the pattern's
# order; larger patterns keep the plain search on its explicit stack.
_PEEL_ORDER = 400


def _selectors(rows, later) -> tuple[bytes, ...]:
    """Per pattern vertex j, one byte for each later vertex k: bit 0 says
    that j and k are adjacent, bit 1 that k is in later[j]."""
    n = len(rows)
    return tuple(
        bytes(((rows[j] >> k) & 1) | ((later[j] >> k) & 1) << 1 for k in range(j + 1, n))
        for j in range(n)
    )


def _search(steps, later, rows, doms, budget=-1, after=None):
    """Depth-first search for an induced embedding into the host graph with
    adjacency bitrows `rows`: pattern vertices in index order, lowest host
    vertex first, on an explicit stack. doms[j] is pattern vertex j's
    starting domain. Placing j on host vertex x narrows each later domain to
    x's neighbours or non-neighbours, as steps[j] says, and the domain of
    each vertex in later[j] (when later is not empty) to host vertices
    ranked after x: the mask after[x] when a rank table is given, else the
    vertices above x.

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
            above = -(xbit << 1) if after is None else after[x]
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


def least_clique(rows, within: int, size: int) -> Optional[int]:
    """The lexicographically least clique of the given size inside the mask
    `within`, in ascending vertex order, as a bitmask, or None. size=0 finds
    the empty clique. A pair is the lowest vertex with a higher neighbour in
    the mask and its lowest such neighbour; larger cliques grow through
    _least_clique_from, one recursion level per clique vertex."""
    if size == 0:
        return 0
    if size == 1:
        return (within & -within) or None
    if size == 2:
        while within:
            vbit = within & -within
            within ^= vbit
            nbrs = within & rows[vbit.bit_length() - 1]
            if nbrs:
                return vbit | (nbrs & -nbrs)
        return None
    return _least_clique_from(rows, 0, size, within)


def _least_clique_from(rows, chosen: int, need: int, cand: int) -> Optional[int]:
    """chosen plus the least `need` (>= 1) vertices of cand that form a
    clique, or None; every vertex of cand is adjacent to all of chosen."""
    if cand.bit_count() < need:
        return None
    if need == 1:
        return chosen | (cand & -cand)
    while cand:
        vbit = cand & -cand
        cand ^= vbit
        got = _least_clique_from(rows, chosen | vbit, need - 1, cand & rows[vbit.bit_length() - 1])
        if got is not None:
            return got
    return None


def greedy_colourable(rows, within: int, classes: int) -> bool:
    """True when a greedy colouring of the host's induced subgraph on the
    mask within, lowest vertex first, uses at most `classes` colours; then
    within holds no clique of order classes + 1 (Tomita and Seki, DMTCS
    2003). Each class is built whole before the next: the lowest uncoloured
    vertex, then the lowest one seeing none of the class, and so on."""
    for _ in range(classes):
        cand = within
        while cand:
            vbit = cand & -cand
            within ^= vbit
            cand &= ~(rows[vbit.bit_length() - 1] | vbit)
    return classes >= 0 and not within


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        xbit = mask & -mask
        mask ^= xbit
        out.append(xbit.bit_length() - 1)
    return out


def _rank_after(rows, within: int) -> list[int]:
    """after[x]: the mask of the members of within ranked after x, by
    ascending degree inside within, ties by index (0 outside within)."""
    after = [0] * len(rows)
    tail = 0
    for _, v in sorted((((rows[v] & within).bit_count(), v) for v in _members(within)), reverse=True):
        after[v] = tail
        tail |= 1 << v
    return after


def _twin_classes(rows) -> list[int]:
    """twins[v]: the mask of v and every w with N(v) - w == N(w) - v.

    False twins have equal rows and true twins equal closed rows, so each
    class is a run of equal keys in sorted order. Sorting compares the rows
    themselves; a dict would hash them, and ints that differ only in bits a
    multiple of 61 apart share a hash."""
    twins = [1 << v for v in range(len(rows))]
    for closed in (0, 1):
        keyed = sorted((row | closed << v, v) for v, row in enumerate(rows))
        for _, run in groupby(keyed, key=itemgetter(0)):
            run = [v for _, v in run]
            if len(run) > 1:
                mask = sum(1 << v for v in run)
                for v in run:
                    twins[v] |= mask
    return twins


def modules_avoiding(rows, part: int, v: int) -> list[int]:
    """The maximal modules of the host's induced subgraph on `part` that
    avoid v, a member of part: a partition of part - v, as masks.

    A module is a vertex set that every vertex outside it sees all of or
    none of. This is the partition step of Ehrenfeucht, Gabow, McConnell and
    Sullivan (J. Algorithms 1994), driven by split events: v splits part - v
    into its neighbours and the rest, and whenever a part splits, the
    vertices of each piece refine the parts inside the others. A task with
    r refiners and a region of b vertices goes vertex by vertex when
    2^r <= 2b: r refiners cut the region into at most 2^r parts, and each
    refiner visits the parts it meets. Otherwise it groups each part of the
    region on its rows cut to the refiners, in b row operations and a
    sort."""
    near = rows[v] & part
    parts = [m for m in (near, part ^ near ^ 1 << v) if m]
    if len(parts) < 2:
        return parts
    owner = [0] * len(rows)
    for x in _members(parts[1]):
        owner[x] = 1
    todo = [(parts[0], parts[1]), (parts[1], parts[0])]

    def split(i, pieces):
        """Part i becomes its largest piece; the rest get new indices."""
        whole = parts[i]
        pieces.sort(key=int.bit_count)
        parts[i] = pieces.pop()
        for piece in pieces:
            for x in _members(piece):
                owner[x] = len(parts)
            parts.append(piece)
        for piece in pieces + [parts[i]]:
            todo.append((whole ^ piece, piece))

    while todo:
        refiners, region = todo.pop()
        if not region & (region - 1):
            continue
        if refiners.bit_count() <= region.bit_count().bit_length():
            for y in _members(refiners):
                seen = rows[y] & region
                if not seen or seen == region:
                    continue
                while seen:
                    i = owner[(seen & -seen).bit_length() - 1]
                    p = parts[i]
                    seen &= ~p
                    inside = p & rows[y]
                    if inside != p:
                        split(i, [inside, p ^ inside])
        else:
            rest = region
            while rest:
                i = owner[(rest & -rest).bit_length() - 1]
                p = parts[i]
                rest ^= p
                if not p & (p - 1):
                    continue
                keyed = sorted((rows[x] & refiners, x) for x in _members(p))
                if keyed[0][0] != keyed[-1][0]:
                    split(i, [sum(1 << x for _, x in run)
                              for _, run in groupby(keyed, key=itemgetter(0))])
    return parts


def _is_prime(rows, twins) -> bool:
    """At least three vertices and no module but the singletons and the
    whole graph.

    Twins form a module of two. Otherwise a module that avoids vertex 0
    shows as a part of modules_avoiding(.., 0) with two or more vertices. A
    module M that holds 0 must hold every vertex z that tells some s in M
    from 0 (z adjacent to exactly one of them), so M - 0 is closed under the
    arcs s -> z of that relation; a proper closed set exists just when the
    relation is not strongly connected on the other vertices."""
    n = len(rows)
    if n < 3 or any(t & (t - 1) for t in twins):
        return False
    full = (1 << n) - 1
    if any(m & (m - 1) for m in modules_avoiding(rows, full, 0)):
        return False
    tells = [(row ^ rows[0]) & ~(1 | 1 << s) for s, row in enumerate(rows)]
    told = [(row ^ (full if rows[0] >> z & 1 else 0)) & ~(1 | 1 << z)
            for z, row in enumerate(rows)]
    return all(_reach(arcs, 2) == full ^ 1 for arcs in (tells, told))


def _reach(arcs, start: int) -> int:
    """The mask of vertices reachable from the mask start along arcs."""
    seen = todo = start
    while todo:
        xbit = todo & -todo
        todo ^= xbit
        new = arcs[xbit.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen


def _alike(need_of) -> list[int]:
    """alike[v]: the mask of the pattern vertices in v's (degree,
    non-degree) class, the only vertices an automorphism can send v to."""
    classes: dict[int, int] = {}
    for v, c in enumerate(need_of):
        classes[c] = classes.get(c, 0) | 1 << v
    return [classes[c] for c in need_of]


def _orbit_constraints(rows, need_of, twins) -> tuple[int, ...]:
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
    alike = _alike(need_of)
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


def _automorphisms(rows, need_of) -> Optional[list[tuple[int, ...]]]:
    """Every automorphism of the pattern with adjacency bitrows `rows`, as
    the tuple of vertex images, or None when listing them would take more
    than _ORBIT_WORK in descents times pattern order."""
    n = len(rows)
    budget = _ORBIT_WORK // n
    full = (1 << n) - 1
    steps = _selectors(rows, (0,) * n)
    found = []
    stack = [((), _alike(need_of))]  # (images so far, domains of the rest)
    while stack:
        images, doms = stack.pop()
        if not doms:
            found.append(images)
            continue
        cand = doms[0]
        while cand:
            xbit = cand & -cand
            cand ^= xbit
            row = rows[xbit.bit_length() - 1]
            masks = (full ^ row ^ xbit, row)
            nxt = [d & masks[s] for d, s in zip(doms[1:], steps[len(images)])]
            if all(nxt):
                budget -= 1
                if budget < 0:
                    return None
                stack.append((images + (xbit.bit_length() - 1,), nxt))
    return found


def _search_order(rows, auts, p: float) -> tuple[int, ...]:
    """The order in which a decision places the pattern's vertices, for a
    host of edge density p, chosen greedily as in RI (Bonnici et al., BMC
    Bioinformatics 2013) and VF3 (Carletti et al., IEEE TPAMI 2018).

    Each step appends the vertex that leaves the fewest expected partial
    embeddings in G(n, p) that meet the orbit constraints. Their log is
    e log p + f log(1 - p) - sum_j log |orb_j & placed|, for e edges and f
    non-edges among the placed vertices, where orb_j is the orbit of the
    j-th placed vertex under the automorphisms (auts) that fix every vertex
    placed before it: the constraints keep the one placement of each orbit
    that puts j lowest. The factor n(n-1)... is the same for every
    candidate, and ties go to the lowest index.

    Every vertex ties at the first step. Taking the lowest index there
    would walk a path from its end at low density, which leaves 1.2 to 1.8
    times the partial embeddings of a start in its middle. So the greedy
    runs from one vertex of each orbit, and the run with the least sequence
    of step costs wins."""
    n = len(rows)
    on, off = log(p), log(1 - p)

    def greedy(first):
        """(rounded cost of each step, order) of the run from first."""
        order = []
        placed = 0
        fixing = auts  # the automorphisms that fix every placed vertex
        orbits = []  # each orb_j of more than one vertex, as a mask
        steps = []
        pick = first
        for k in range(1, n + 1):
            orbit = 0
            for sigma in fixing:
                orbit |= 1 << sigma[pick]
            if orbit & (orbit - 1):
                orbits.append(orbit)
            fixing = [sigma for sigma in fixing if sigma[pick] == pick]
            order.append(pick)
            placed |= 1 << pick
            if k == n:
                return steps, order
            best = pick = None
            for v in range(n):
                if placed >> v & 1:
                    continue
                e = (rows[v] & placed).bit_count()
                cost = e * on + (k - e) * off
                for orbit in orbits:
                    if orbit >> v & 1:
                        m = (orbit & placed).bit_count()
                        cost -= log((m + 1) / m)
                cost = round(cost, 9)
                if best is None or cost < best:
                    best, pick = cost, v
            steps.append(best)

    starts = [v for v in range(n) if min(sigma[v] for sigma in auts) == v]
    return tuple(min(map(greedy, starts))[1])


def _listed(h: Graph, order) -> Graph:
    """The subgraph of h induced by the vertices in order, vertex i of it
    being order[i]."""
    from .graphs import Graph

    rows = h.rows
    return Graph._unchecked(len(order), tuple(
        sum(1 << j for j, w in enumerate(order) if rows[u] >> w & 1) for u in order))


def _peel_plan(h: Graph):
    """How to peel the pattern h down to a base case, or None when h has
    neither a universal nor an isolated vertex, or is too large to peel.

    The plan is (sides, kind, rest). sides[i] is True when the i-th peeled
    vertex sees every vertex left at its step, False when it sees none. The
    vertices left after the last step form a clique of order rest
    (kind "clique"), an independent set of order rest ("coclique"), or the
    Pattern rest, which has neither kind of vertex ("pattern")."""
    if h.n > _PEEL_ORDER:
        return None
    rows = h.rows
    left = (1 << h.n) - 1
    sides = []
    while True:
        k = left.bit_count()
        deg = {v: (rows[v] & left).bit_count() for v in _members(left)}
        if all(d == k - 1 for d in deg.values()):
            return tuple(sides), "clique", k
        if not any(deg.values()):
            return tuple(sides), "coclique", k
        c = next((v for v, d in deg.items() if d in (0, k - 1)), None)
        if c is None:
            break
        sides.append(deg[c] > 0)
        left ^= 1 << c
    if not sides:
        return None
    return tuple(sides), "pattern", prepared(_listed(h, _members(left)))


class Pattern(Frozen):
    """A pattern graph prepared once for any number of induced searches.

    It holds what a search needs from the pattern alone: the distinct
    (degree, non-degree) pairs a host vertex must reach to play a pattern
    vertex, and the orbit constraints from the pattern's automorphisms,
    under which a freeness test reaches each induced copy through one
    embedding. The constraints and the search's selector table take
    O(h^2) bits, so the first search that needs them builds them; a pattern
    larger than every host it meets never pays for them. The twin classes,
    the prime flag, the peel plan, the automorphisms and the search orders
    of decisions are also built on first use. Equality compares the graph
    alone; the rest derives from it.
    """

    __slots__ = ("graph", "_needs", "_need_of", "_later", "_steps", "_twins", "_prime",
                 "_peel", "_auts", "_plans")

    def __init__(self, h: Graph):
        if h.n < 1:
            raise PatternTooSmall("pattern must have at least one vertex")
        per_vertex = [(row.bit_count(), h.n - 1 - row.bit_count()) for row in h.rows]
        needs = tuple(dict.fromkeys(per_vertex))
        object.__setattr__(self, "graph", h)
        object.__setattr__(self, "_needs", needs)
        object.__setattr__(self, "_need_of", tuple(needs.index(p) for p in per_vertex))
        for name in ("_later", "_steps", "_twins", "_prime", "_peel", "_auts", "_plans"):
            object.__setattr__(self, name, None)

    def _key(self) -> tuple:
        return (self.graph,)

    def _twin_masks(self) -> list[int]:
        if self._twins is None:
            object.__setattr__(self, "_twins", _twin_classes(self.graph.rows))
        return self._twins

    def _constraints(self) -> tuple[int, ...]:
        if self._later is None:
            rows = self.graph.rows
            later = _orbit_constraints(rows, self._need_of, self._twin_masks())
            object.__setattr__(self, "_later", later)
            object.__setattr__(self, "_steps", _selectors(rows, later))
        return self._later

    @property
    def prime(self) -> bool:
        """At least three vertices, and no module other than the singletons
        and the whole pattern. An induced copy of a prime pattern meets each
        module of its host in at most one vertex, or lies inside it."""
        if self._prime is None:
            object.__setattr__(self, "_prime", _is_prime(self.graph.rows, self._twin_masks()))
        return self._prime

    @property
    def peel(self):
        """The plan for peeling universal and isolated vertices, or None
        (see _peel_plan)."""
        if self._peel is None:
            object.__setattr__(self, "_peel", _peel_plan(self.graph) or ())
        return self._peel or None

    def _plan(self, degrees: int, gn: int) -> "Pattern":
        """The pattern relabelled into the search order of a decision on gn
        host vertices whose degrees sum to `degrees` (see _search_order),
        or the pattern itself when that order is the index order.

        The density is rounded to a tenth and kept within [0.05, 0.95], so
        a pattern builds at most eleven plans. Patterns under four vertices
        or over _PLAN_ORDER, and those whose automorphisms the work cap cuts
        short, keep index order. A plan's own orbit constraints keep one
        embedding per copy, so it decides as the pattern does."""
        if self._plans is None:
            n = self.graph.n
            auts = _automorphisms(self.graph.rows, self._need_of) if 4 <= n <= _PLAN_ORDER else None
            object.__setattr__(self, "_auts", auts)
            object.__setattr__(self, "_plans", {})
        if self._auts is None:
            return self
        pairs = gn * (gn - 1)
        tenths = (20 * degrees + pairs) // (2 * pairs)
        plan = self._plans.get(tenths)
        if plan is None:
            order = _search_order(self.graph.rows, self._auts, min(max(tenths, 0.5), 9.5) / 10)
            plan = self if order == tuple(range(self.graph.n)) else prepared(_listed(self.graph, order))
            self._plans[tenths] = plan
        return plan

    def embed(self, rows, *, within: Optional[int] = None) -> Optional[tuple[int, ...]]:
        """An induced embedding of the pattern into the host graph with
        adjacency bitrows `rows`, or None; with within, into the host's
        induced subgraph on that mask.

        Only embeddings that satisfy the orbit constraints count, one per
        induced copy (at least one where the work cap cut the constraints
        short), which is all a decision or a witness needs; the search
        returns the lexicographically least of them."""
        doms = self._domains(rows, (1 << len(rows)) - 1 if within is None else within)
        return None if doms is None else _search(self._steps, self._later, rows, doms)[0]

    def _occurs_within(self, rows, within: int) -> bool:
        """Does the host's induced subgraph on the mask within hold a copy?

        The pattern's vertices are placed in the plan's order for the mask's
        density. The orbit constraints keep one embedding per copy under any
        total order of the host's vertices, not only under index order. This
        decision ranks the mask's vertices by ascending degree inside it, so
        a copy is reached from its lowest-ranked vertices and a vertex of
        high degree, which branches most, has few vertices left after it
        (Chiba and Nishizeki, SIAM J. Comput. 1985)."""
        classes = _degree_classes(rows, within, self.graph.n)
        if classes is None:
            return False
        by_degree, degrees = classes
        plan = self._plan(degrees, len(by_degree))
        doms = plan._need_domains(by_degree)
        if doms is None:
            return False
        return _search(plan._steps, plan._later, rows, doms, after=_rank_after(rows, within))[0] is not None

    def _domains(self, rows, within: int):
        """Each pattern vertex's starting domain for a search inside the mask
        within, or None when one is empty: the members whose degree and
        non-degree inside the mask are at least the vertex's own."""
        classes = _degree_classes(rows, within, self.graph.n)
        return None if classes is None else self._need_domains(classes[0])

    def _need_domains(self, by_degree):
        """_domains from the mask's members bucketed by degree."""
        gn = len(by_degree)
        need_masks = []
        for deg, non in self._needs:
            m = 0
            for part in by_degree[deg:gn - non]:
                m |= part
            if not m:
                return None
            need_masks.append(m)
        self._constraints()  # builds _later and _steps on first use
        return [need_masks[i] for i in self._need_of]


def _degree_classes(rows, within: int, hn: int):
    """(by_degree, degrees) for the host's induced subgraph on the mask
    within: by_degree[d] is the mask of its members of degree d, degrees
    the sum of their degrees. None when the mask has fewer than hn
    members."""
    gn = within.bit_count()
    if hn > gn:
        return None
    by_degree = [0] * gn
    degrees = 0
    # a mask of the first gn vertices, such as a whole host, is a range
    for v in range(gn) if within >> gn == 0 else _members(within):
        d = (rows[v] & within).bit_count()
        by_degree[d] |= 1 << v
        degrees += d
    return by_degree, degrees


@lru_cache(maxsize=128)
def prepared(h: Graph) -> Pattern:
    """The Pattern of h, shared by every caller that passes an equal graph,
    so its constraints, peel plan and search orders are built once. The
    cache keeps the 128 patterns used last."""
    return Pattern(h)
