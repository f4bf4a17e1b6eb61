"""Induced-subgraph search for one pattern graph, prepared once.

A Pattern holds what the search needs from the pattern alone: the degree
filters a host vertex must pass to play each pattern vertex,
symmetry-breaking constraints from the pattern's automorphisms, whether the
pattern is prime, the plan for peeling its universal and isolated vertices,
and the order a decision places its vertices in, read off the constraints.
`prepared` shares one Pattern among all callers with equal pattern graphs.
`Pattern.embed` finds the least embedding with a kernel compiled for the
pattern (see _kernel), on the host complemented on any vertex mask without
building that graph. The budgeted searches of the pattern's automorphisms
and a decision's ranked search are a depth-first walk over bitmask domains
on an explicit stack (_search). `Pattern.occurs` decides whether a host
holds a copy: it peels, bounds a clique or independent set left at the end
by a greedy colouring and searches it with `Pattern.embed`, and splits the
host into modules (`modules_avoiding`) for a prime rest. Both solvers
search G ⊕ S through `Pattern.embed`: for K_t its least embedding is the
clique `least_clique`, the split core's clique search, finds on the
flipped rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from .errors import PatternTooSmall
from .values import Frozen

if TYPE_CHECKING:
    from .graphs import Graph


# Work the automorphism searches of one Pattern may spend, in descents times
# pattern order. Patterns too large for one search to finish within it keep
# only the constraints their twins give.
_ORBIT_WORK = 1 << 16

# Largest pattern order `Pattern.embed` compiles a kernel for (see _kernel).
# A kernel nests one loop per pattern vertex but the last, and CPython
# before 3.13 compiles at most 20 nested blocks (3.13: 21). Larger
# patterns search a flipped copy of the host with _search.
_KERNEL_ORDER = 20


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


def _kernel(steps, needs):
    """Compile the least-embedding search of one pattern into a function
    kernel(rows, flip, within). It returns the embedding that _search finds
    from Pattern._domains on the host with bitrows `rows` complemented on
    the mask flip, without building that host.

    Pattern vertex k gets one loop over its domain, lowest host vertex
    first, nested in the loop of vertex k - 1. The domain is computed when
    the search reaches k: within, cut to each earlier vertex j's neighbours
    or non-neighbours as steps[j] says, and to the vertices above j's when
    k is in later[j]. A placed vertex's row is flipped in place when the
    vertex is in flip, and the vertex must pass its degree filter, needs[k]
    = (deg, non), inside within. Placements are tried in _search's order,
    and only those that cannot extend to an embedding are skipped, so the
    kernel returns the same least embedding. The last vertex takes the
    lowest member of its domain. The source holds generated names and
    integers only."""
    hn = len(needs)
    last = hn - 1
    # z{j}, the non-neighbours of j inside within, is built only when used
    apart = [any(not s & 1 for s in steps[j]) for j in range(hn)]
    out = ["def kernel(rows, flip, within):",
           "    nw = within.bit_count()",
           f"    if nw < {hn}:",
           "        return None"]
    out += [f"    u{non} = nw - {non}" for non in sorted({non for _, non in needs[:last] if non})]
    out.append("    d0 = within")

    def domain(k):
        terms = []
        for j in range(k):
            s = steps[j][k - j - 1]
            terms.append(f"a{j}" if s & 1 else f"z{j}")
            # k above i above j, for an i between them, puts k above j
            if s & 2 and not any(steps[j][i - j - 1] & steps[i][k - i - 1] & 2
                                 for i in range(j + 1, k)):
                terms.append(f"-(b{j} << 1)")
        return " & ".join(terms)

    for k in range(last):
        pad = "    " * (k + 1)
        deg, non = needs[k]
        out += [f"{pad}while d{k}:",
                f"{pad}    b{k} = d{k} & -d{k}",
                f"{pad}    d{k} ^= b{k}",
                f"{pad}    a{k} = rows[b{k}.bit_length() - 1]",
                f"{pad}    if flip & b{k}:",
                f"{pad}        a{k} ^= flip ^ b{k}",
                f"{pad}    a{k} &= within"]
        if deg or non:
            test = (f"{deg} <= " if deg else "") + f"a{k}.bit_count()" + (f" < u{non}" if non else "")
            out += [f"{pad}    if not {test}:",
                    f"{pad}        continue"]
        if apart[k]:
            out.append(f"{pad}    z{k} = within ^ a{k} ^ b{k}")
        out.append(f"{pad}    d{k + 1} = {domain(k + 1)}")
    pad = "    " * hn
    xs = "".join(f"b{k}.bit_length() - 1, " for k in range(last))
    out += [f"{pad}if d{last}:",
            f"{pad}    return ({xs}(d{last} & -d{last}).bit_length() - 1,)"]
    out.append("    return None")
    namespace = {}
    exec(compile("\n".join(out), "<pattern kernel>", "exec"), namespace)
    return namespace["kernel"]


def least_clique(rows, within: int, size: int) -> Optional[int]:
    """The lexicographically least clique of the given size inside the mask
    `within`, in ascending vertex order, as a bitmask, or None. size=0 finds
    the empty clique. It is the lowest member v whose higher neighbours in
    the mask hold a (size - 1)-clique, plus the least such clique, found one
    recursion level per clique vertex; the only bound is the candidate count
    (Carraghan and Pardalos, Oper. Res. Lett. 1990)."""
    if size == 0:
        return 0
    if within.bit_count() < size:
        return None
    if size == 1:
        return within & -within
    while within:
        vbit = within & -within
        within ^= vbit
        got = least_clique(rows, within & rows[vbit.bit_length() - 1], size - 1)
        if got is not None:
            return vbit | got
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


def _listed(h: Graph, order) -> Graph:
    """The subgraph of h induced by the vertices in order, vertex i of it
    being order[i]."""
    from .graphs import Graph

    rows = h.rows
    return Graph._unchecked(len(order), tuple(
        sum(1 << j for j, w in enumerate(order) if rows[u] >> w & 1) for u in order))


def _peel_plan(h: Graph):
    """How to peel the pattern h down to a base case: (sides, kind, left).

    sides[i] is True when the i-th peeled vertex sees every vertex left at
    its step, False when it sees none. The vertices in the list left, those
    left after the last step, form a clique (kind "clique"), an independent
    set ("coclique"), or a graph with neither a universal nor an isolated
    vertex ("pattern")."""
    rows = h.rows
    left = (1 << h.n) - 1
    sides = []
    while True:
        k = left.bit_count()
        deg = {v: (rows[v] & left).bit_count() for v in _members(left)}
        if all(d == k - 1 for d in deg.values()):
            return tuple(sides), "clique", _members(left)
        if not any(deg.values()):
            return tuple(sides), "coclique", _members(left)
        c = next((v for v, d in deg.items() if d in (0, k - 1)), None)
        if c is None:
            return tuple(sides), "pattern", _members(left)
        sides.append(deg[c] > 0)
        left ^= 1 << c


class Pattern(Frozen):
    """A pattern graph prepared once for any number of induced searches.

    It holds what a search needs from the pattern alone: the distinct
    (degree, non-degree) pairs a host vertex must reach to play a pattern
    vertex, and the orbit constraints from the pattern's automorphisms,
    under which a freeness test reaches each induced copy through one
    embedding. The constraints and the search's selector table take
    O(h^2) bits, so the first search that needs them builds them; a pattern
    larger than every host it meets never pays for them. The embedding
    kernel, the twin classes, the prime flag, the peel plan and the
    decision plan are also built on first use. Equality compares the graph
    alone; the rest derives from it.
    """

    __slots__ = ("graph", "_needs", "_need_of", "_later", "_steps", "_twins", "_prime",
                 "_peel", "_planned", "_embed")

    def __init__(self, h: Graph):
        if h.n < 1:
            raise PatternTooSmall("pattern must have at least one vertex")
        per_vertex = [(row.bit_count(), h.n - 1 - row.bit_count()) for row in h.rows]
        needs = tuple(dict.fromkeys(per_vertex))
        object.__setattr__(self, "graph", h)
        object.__setattr__(self, "_needs", needs)
        object.__setattr__(self, "_need_of", tuple(needs.index(p) for p in per_vertex))
        for name in ("_later", "_steps", "_twins", "_prime", "_peel", "_planned", "_embed"):
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
        """The plan for peeling universal and isolated vertices, as (sides,
        kind, rest): rest is the Pattern of the vertices left, the pattern
        itself when none is peeled (see _peel_plan)."""
        if self._peel is None:
            sides, kind, left = _peel_plan(self.graph)
            rest = prepared(_listed(self.graph, left)) if sides else self
            object.__setattr__(self, "_peel", (sides, kind, rest))
        return self._peel

    def _plan(self) -> "Pattern":
        """The pattern relabelled into the order a decision places its
        vertices in, or the pattern itself when that order is index order.

        The order walks i = 0..n-1: it appends i unless i is already placed,
        then the lowest member of later[i] not yet placed. So the second
        vertex of each orbit constraint comes one level after its first, and
        the constraint cuts the search as early as it can. The plan is built
        on first use; its own orbit constraints keep one embedding per copy,
        so it decides as the pattern does."""
        if self._planned is None:
            order = []
            placed = 0
            for i, orbit in enumerate(self._constraints()):
                if not placed >> i & 1:
                    order.append(i)
                    placed |= 1 << i
                rest = orbit & ~placed
                if rest:
                    wbit = rest & -rest
                    order.append(wbit.bit_length() - 1)
                    placed |= wbit
            plan = self if order == list(range(self.graph.n)) else prepared(_listed(self.graph, order))
            object.__setattr__(self, "_planned", plan)
        return self._planned

    def embed(self, rows, *, within: Optional[int] = None,
              flip: int = 0) -> Optional[tuple[int, ...]]:
        """An induced embedding of the pattern into the host graph with
        adjacency bitrows `rows`, complemented on the vertex mask flip, or
        None; with within, into that graph's induced subgraph on the mask.

        Only embeddings that satisfy the orbit constraints count, one per
        induced copy (at least one where the work cap cut the constraints
        short), which is all a decision or a witness needs; the search
        returns the lexicographically least of them. A pattern of at most
        _KERNEL_ORDER vertices runs its compiled kernel, built by the first
        call; a larger one searches a flipped copy of the rows."""
        if within is None:
            within = (1 << len(rows)) - 1
        if self.graph.n > _KERNEL_ORDER:
            if flip:
                rows = [row ^ flip ^ 1 << v if flip >> v & 1 else row for v, row in enumerate(rows)]
            doms = self._domains(rows, within)
            return None if doms is None else _search(self._steps, self._later, rows, doms)[0]
        if self._embed is None:
            self._constraints()  # builds _steps on first use
            needs = tuple(self._needs[i] for i in self._need_of)
            object.__setattr__(self, "_embed", _kernel(self._steps, needs))
        return self._embed(rows, flip, within)

    def occurs(self, rows) -> bool:
        """Does the host graph with adjacency bitrows `rows` hold an induced
        copy of the pattern? Decision only, so each copy is reached through
        one embedding.

        A pattern with a universal vertex c is peeled: the host holds a copy
        iff, for some vertex v, its induced subgraph on N(v) holds a copy of
        h - c (v plays c). For an isolated c the same holds with the
        non-neighbours of v. Peeling repeats on h - c inside that mask, on
        an explicit stack, and the rest (see peel) is searched inside each
        mask left at the end. A clique or an independent set is its least
        embedding, unless a greedy colouring with one class fewer than its
        order covers the mask, on the rows or on the complement's rows. Any
        other rest is decided on modular quotients (_occurs_in_quotients).
        Host vertices whose first-level masks plus themselves are equal are
        twins (true twins for a universal c, false for an isolated one).
        Swapping two is an automorphism of the host that maps one mask onto
        the other, so only the first of them popped is decided."""
        sides, kind, rest = self.peel
        n = len(rows)
        if n < self.graph.n:
            return False
        full = (1 << n) - 1
        # the rows the colouring bound of a clique or independent set runs on
        bound = [full ^ row ^ 1 << v for v, row in enumerate(rows)] if kind == "coclique" else rows
        stack = [(0, full, 0)]
        seen = set()
        while stack:
            depth, mask, vbit = stack.pop()
            if depth == 1:
                key = mask | vbit
                if key in seen:
                    continue
                seen.add(key)
            if depth == len(sides):
                if kind == "pattern":
                    found = rest._occurs_in_quotients(rows, mask)
                else:
                    found = (not greedy_colourable(bound, mask, rest.graph.n - 1)
                             and rest.embed(rows, within=mask) is not None)
                if found:
                    return True
                continue
            need = self.graph.n - 1 - depth
            near = sides[depth]
            walk = mask
            while walk:
                vbit = walk & -walk
                walk ^= vbit
                row = rows[vbit.bit_length() - 1]
                inner = mask & row if near else mask & ~(row | vbit)
                if inner.bit_count() >= need:
                    stack.append((depth + 1, inner, vbit))
        return False

    def _occurs_in_quotients(self, rows, within: int) -> bool:
        """Does the host's induced subgraph on the mask within hold a copy?

        A prime pattern is decided on modular quotients, on an explicit
        stack. A copy meets each module of its host in at most one vertex or
        lies inside it; so with v the lowest vertex of a part of the host,
        the part holds a copy iff one of its maximal modules avoiding v
        does, or the quotient does: v plus the lowest vertex of each such
        module. Each mask is searched with _occurs_within."""
        if not self.prime:
            return self._occurs_within(rows, within)
        hn = self.graph.n
        stack = [within] if within.bit_count() >= hn else []
        while stack:
            part = stack.pop()
            # degrees and non-degrees inside a subset never exceed those
            # inside the part, so a part that fails the degree filters
            # holds no copy
            if self._domains(rows, part) is None:
                continue
            v = (part & -part).bit_length() - 1
            quotient = 1 << v
            for module in modules_avoiding(rows, part, v):
                quotient |= module & -module
                if module.bit_count() >= hn:
                    stack.append(module)
            if self._occurs_within(rows, quotient):
                return True
        return False

    def _occurs_within(self, rows, within: int) -> bool:
        """Does the host's induced subgraph on the mask within hold a copy?

        The pattern's vertices are placed in the plan's order (see _plan).
        The orbit constraints keep one embedding per copy under any total
        order of the host's vertices, not only under index order. This
        decision ranks the mask's vertices by ascending degree inside it, so
        a copy is reached from its lowest-ranked vertices and a vertex of
        high degree, which branches most, has few vertices left after it
        (Chiba and Nishizeki, SIAM J. Comput. 1985)."""
        by_degree = _degree_classes(rows, within, self.graph.n)
        if by_degree is None:
            return False
        plan = self._plan()
        doms = plan._need_domains(by_degree)
        if doms is None:
            return False
        return _search(plan._steps, plan._later, rows, doms, after=_rank_after(rows, within))[0] is not None

    def _domains(self, rows, within: int):
        """Each pattern vertex's starting domain for a search inside the mask
        within, or None when one is empty: the members whose degree and
        non-degree inside the mask are at least the vertex's own."""
        by_degree = _degree_classes(rows, within, self.graph.n)
        return None if by_degree is None else self._need_domains(by_degree)

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
    """by_degree for the host's induced subgraph on the mask within:
    by_degree[d] is the mask of its members of degree d. None when the mask
    has fewer than hn members."""
    gn = within.bit_count()
    if hn > gn:
        return None
    by_degree = [0] * gn
    # a mask of the first gn vertices, such as a whole host, is a range
    for v in range(gn) if within >> gn == 0 else _members(within):
        by_degree[(rows[v] & within).bit_count()] |= 1 << v
    return by_degree


@lru_cache(maxsize=128)
def prepared(h: Graph) -> Pattern:
    """The Pattern of h, shared by every caller that passes an equal graph,
    so its constraints, peel plan and decision plan are built once. The
    cache keeps the 128 patterns used last."""
    return Pattern(h)
