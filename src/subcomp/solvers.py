"""Exact solvers for subgraph complementation to a pattern-free target.

Given G and a forbidden pattern H, find S ⊆ V(G) so that complementing the
induced subgraph on S leaves no induced copy of H. brute_solve sweeps every
subset in a fixed order and works for any H; each copy it finds rejects
whole blocks of later subsets without a search. solve_kt_free exploits the
structure of complete patterns: around the two smallest vertices of a
solution, each of the four neighborhood regions must admit a split
partition whose Q side is the solution restricted to that region, with
split parameters fixed per region. It keeps every K_t it finds the same
way, so one copy prunes later pairs before their split work and cuts whole
branches of the recombination (see solve_kt_free). Both solvers search
G ⊕ S with Pattern.embed's compiled kernel on g's own rows, flipped on S
as the search goes, so no flipped graph is built for a search.
"""

from __future__ import annotations

import time
from math import comb
from typing import Callable, Optional

from .errors import InvalidT, RecognizerMismatch
from .graphs import (
    Graph,
    PatternSpec,
    VertexSet,
    complement,
    is_pattern_free,
    make_pattern,
    subgraph_complement,
)
from .matcher import Pattern, prepared
from .split import region_q_sides
from .values import Frozen

# bench/spans.py traces layers by rebinding names in this module, so these
# stay importable here although the solver no longer calls them
from .graphs import induced  # noqa: F401
from .split import enumerate_split_partitions, find_split_partition  # noqa: F401

DEFAULT_SUBSET_CAP = 1 << 26

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"


class SolveReport(Frozen):
    """Outcome of one solver run.

    status is Yes, No, or Unknown; solution is present exactly when status
    is Yes; verified records that the reported solution was re-checked
    against the target class before being returned.
    """

    __slots__ = ("status", "solution", "stats", "verified")

    def __init__(
        self,
        status: str,
        solution: Optional[VertexSet],
        stats: dict,
        verified: bool,
    ):
        if status not in (YES, NO, UNKNOWN):
            raise ValueError(f"unknown status {status!r}")
        if (solution is not None) != (status == YES):
            raise ValueError("solution must be present exactly when status is Yes")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "stats", dict(stats))
        object.__setattr__(self, "verified", verified)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "solution": None if self.solution is None else list(self.solution.members()),
            "stats": dict(self.stats),
            "verified": self.verified,
        }

    def _key(self) -> tuple:
        return (self.status, self.solution, tuple(sorted(self.stats.items())), self.verified)

    def __repr__(self) -> str:
        if self.status == YES:
            return f"SolveReport(Yes, S={set(self.solution.members()) or '{}'})"
        return f"SolveReport({self.status})"


def _report(status, solution, start, examined, calls, pairs=0, pruned=0) -> SolveReport:
    """A solver's report; the stats keys and their order are part of the
    solve-report JSON."""
    stats = {
        "subsets_examined": examined,
        "pairs_examined": pairs,
        "pairs_pruned": pruned,
        "recognizer_calls": calls,
        "elapsed": time.perf_counter() - start,
    }
    return SolveReport(status, solution, stats, solution is not None)


WINDOW = 12  # low vertices whose 2^WINDOW value combinations share one bitmap
_LOW_MASKS: dict = {}


def _low_masks(width: int):
    """(ones, by_count) over the low parts x < 2^width, as 2^width-bit masks
    with bit x standing for x: ones[v] holds the x with bit v set and
    by_count[j] the x with j bits set. Built by doubling and cached."""
    got = _LOW_MASKS.get(width)
    if got is None:
        ones, by_count, span = [], [1], 1
        for _ in range(width):
            # one more low bit: old parts keep their place, parts with it set move up by span
            ones = [m | m << span for m in ones] + [((1 << span) - 1) << span]
            by_count = [a | b << span for a, b in zip(by_count + [0], [0] + by_count)]
            span <<= 1
        got = _LOW_MASKS[width] = (ones, by_count)
    return got


def brute_solve(g: Graph, h: Graph | Pattern, cap: int = DEFAULT_SUBSET_CAP) -> SolveReport:
    """Sweep subsets by increasing size, and by mask value within a size
    (colex order; Knuth, TAOCP 4A, 7.2.1.3), until one complements g into
    an h-free graph. The first hit is therefore a minimum-size solution.

    G ⊕ S induces on a vertex set W exactly G[W] ⊕ (S ∩ W), so a copy of h
    found on W for S is still there for every S' with S' ∩ W = S ∩ W. Each
    copy found is kept as a witness (W, S ∩ W); a subset that matches a
    witness is rejected without a search, and every other subset gets a full
    search of g ⊕ S, which Pattern.embed runs on g's rows without building
    g ⊕ S. A Yes therefore always comes from a search that found no copy.

    Rejected subsets are counted in blocks, not one by one. For each size
    k, a depth-first search decides the vertices at or above WINDOW from
    the top, keeping as a bitmask the witnesses that agree with the decided
    bits; a witness that lies wholly in them rejects the whole subtree. A
    node with every high bit decided, c of them ones, holds the low parts
    with k - c bits, and each witness rejects a precomputed bitmap of them.
    A node with one vertex left to choose below p holds p subsets, and each
    witness rejects a vertex mask of them. The free subsets of either leaf
    get searched in order, so order, searches and counts equal those of a
    one-by-one sweep.

    h may be a Pattern; a Graph gets the one Pattern that every caller with
    an equal graph shares. Stops with Unknown after examining `cap`
    subsets, rejected ones included.
    """
    start = time.perf_counter()
    pattern = h if isinstance(h, Pattern) else prepared(h)
    if pattern.graph.n == 1:
        # only the null graph avoids an induced single vertex
        if g.n == 0:
            return _report(YES, VertexSet.empty(0), start, 0, 0)
        return _report(NO, None, start, 0, 0)
    examined = 0
    searches = 0
    n, rows = g.n, g.rows
    cap = max(cap, 0)
    low = min(WINDOW, n)
    ones, by_count = _low_masks(low)
    # a witness is (W, S ∩ W, the low parts it rejects given the high bits);
    # one with W inside the window agrees with every high prefix, so it only
    # adds to base, the union of what such witnesses reject in either leaf kind
    witnesses = []  # the others, in the order found; witness i is bit i below
    base = [0, 0]
    forbid = ([0] * n, [0] * n)  # forbid[b][v]: witnesses that reject s_v = b
    covers = [0] * (n + 1)  # covers[p]: witnesses with W inside the bits >= p

    def rejected(witness, block, one_left):
        """The part of a leaf block that matches a witness which agrees with
        the leaf's decided bits."""
        w, sw, bitmap = witness
        if not one_left:
            return bitmap
        below = sw & block
        if not below:
            return block & ~w
        return 0 if below & (below - 1) else below

    def record(mask):
        """Search g ⊕ mask; keep the copy found as a witness, None if none."""
        nonlocal searches
        searches += 1
        copy = pattern.embed(rows, flip=mask)
        if copy is None:
            return None
        w = 0
        bitmap = (1 << (1 << low)) - 1
        for v in copy:
            w |= 1 << v
            if v < low:
                bitmap &= ones[v] if (mask >> v) & 1 else ~ones[v]
        witness = (w, mask & w, bitmap)
        if not w >> low:
            base[0] |= bitmap
            base[1] |= rejected(witness, -1, True)  # block -1: for every p
            return witness
        bit = 1 << len(witnesses)
        for v in copy:
            if v >= low:
                forbid[1 - ((mask >> v) & 1)][v] |= bit
        for p in range(low, min(copy) + 1):
            covers[p] |= bit
        witnesses.append(witness)
        return witness

    for k in range(n + 1):
        # (p, prefix, ones left below p, agreeing witnesses, witnesses known then)
        stack = [(n, 0, k, (1 << len(witnesses)) - 1, len(witnesses))]
        while stack:
            p, prefix, need, alive, known = stack.pop()
            for i in range(known, len(witnesses)):
                w, sw, _ = witnesses[i]
                if not ((prefix ^ sw) & w) >> p:
                    alive |= 1 << i
            if alive & covers[p]:
                # a witness inside the decided bits rejects the whole subtree
                examined += comb(p, need)
            elif p > low and need != 1:
                # children in mask order: no more high ones, then next one at q
                top = len(witnesses)
                for q in range(p - 1, low - 1, -1):
                    if 0 < need <= q + 1:
                        stack.append((q, prefix | 1 << q, need - 1, alive & ~forbid[1][q], top))
                    alive &= ~forbid[0][q]
                if need <= low:
                    stack.append((low, prefix, need, alive, top))
                continue
            else:
                # a leaf block: bit x stands for prefix | x with every high
                # bit decided, or for prefix | 1 << x with one vertex x < p left
                one_left = p > low
                block = (1 << p) - 1 if one_left else by_count[need]
                free = block & ~base[one_left]
                while alive:
                    i = (alive & -alive).bit_length() - 1
                    alive &= alive - 1
                    free &= ~rejected(witnesses[i], block, one_left)
                while free:
                    x = (free & -free).bit_length() - 1
                    index = examined + (block & ((1 << x) - 1)).bit_count() + 1
                    if index > cap:
                        break
                    mask = prefix | (1 << x if one_left else x)
                    witness = record(mask)
                    if witness is None:
                        examined = index
                        return _report(YES, VertexSet(mask, n), start, examined, searches)
                    free &= ~rejected(witness, block, one_left)
                examined += block.bit_count()
            if examined > cap:
                return _report(UNKNOWN, None, start, cap, searches)
    return _report(NO, None, start, examined, searches)


def _region_masks(g: Graph, u: int, v: int) -> tuple[int, int, int, int]:
    """Masks of the four regions around the pair u, v: common neighborhood,
    common non-neighborhood, and each side's exclusive neighborhood. The
    four masks plus {u, v} partition the vertices."""
    nu, nv = g.rows[u], g.rows[v]
    ub, vb = 1 << u, 1 << v
    full = (1 << g.n) - 1
    a = nu & nv & ~ub & ~vb
    b = full & ~(nu | ub) & ~(nv | vb)
    c = nu & ~(nv | vb) & ~ub
    d = nv & ~(nu | ub) & ~vb
    return a, b, c, d


def _region_lists(g: Graph, u: int, v: int, params, co_rows) -> Optional[list]:
    """(region mask, Q sides as whole-graph masks) for each region around
    the pair, or None when some region admits no split partition. Every
    vertex of a region below v stays on its P side."""
    below_v = (1 << v) - 1
    lists = []
    for mask, (p, q) in zip(_region_masks(g, u, v), params):
        qmasks = region_q_sides(g.rows, co_rows, mask, p, q, mask & below_v)
        if not qmasks:
            return None
        lists.append((mask, qmasks))
    return lists


def _rule_out_pairs(dead: list, w: int, sw: int) -> None:
    """Set in dead[u], a bitmask over v, every pair u < v that the witness
    (w, sw) rules out: w ⊆ {0..v} and w ∩ {u, v} = sw, so that each
    candidate of the pair, with S ∩ {0..v} = {u, v}, agrees with it on w.
    Such a v is above max(w) unless it is max(w) and in sw."""
    top = w.bit_length() - 1
    above = ((1 << len(dead)) - 1) >> (top + 1) << (top + 1)
    count = sw.bit_count()
    if count == 0:
        for u in range(len(dead)):
            if not (w >> u) & 1:
                dead[u] |= above & -(2 << u)
    elif count == 1:
        dead[sw.bit_length() - 1] |= above
        if sw >> top:
            for u in range(top):
                if not (w >> u) & 1:
                    dead[u] |= sw
    elif count == 2 and sw >> top:
        dead[(sw & -sw).bit_length() - 1] |= 1 << top


def _vertex_mask(vertices) -> int:
    """The mask of the vertices of an embedding."""
    w = 0
    for x in vertices:
        w |= 1 << x
    return w


def _first_inside(w: int, decided: list) -> int:
    """The first level i >= 1 whose decided vertices hold all of w."""
    i = 1
    while w & ~decided[i]:
        i += 1
    return i


def solve_kt_free(
    g: Graph,
    t: int,
    recognizer: Optional[Callable[[Graph], bool]] = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> SolveReport:
    """Decide whether some subset complements g into a K_t-free graph.

    Take a solution S with at least two members and let u < v be its two
    smallest. In G' = G ⊕ S a vertex outside S keeps its adjacency to u and
    v, and a vertex inside S has both flipped. K_t-freeness of G' therefore
    splits each region around the pair into its part outside S (P side) and
    its part inside S (Q side) as a (p, q)-split partition, with (t-2, t-1)
    on the common neighbours, (t-1, t-2) on the common non-neighbours and
    (t-2, t-2) on each exclusive neighbourhood. Parameters are clamped at 1,
    which only admits more partitions. Every vertex below v other than u
    lies outside S, so the enumeration keeps it on the P side, and each S is
    examined from its own pair only. Solutions smaller than two members only
    exist when g is already K_t-free, which step 0 handles.

    Every K_t found is kept as a witness (W, S ∩ W): G ⊕ S induces
    G[W] ⊕ (S ∩ W) on W, so the copy is still there for every S' that
    agrees with S on W. The witnesses rule candidates out in three places.
    A pair is first decided on {0..v}, where every candidate has
    S ∩ {0..v} = {u, v}: it is pruned, before any split work, when a
    witness lies there and agrees, or when one search of that induced
    subgraph finds a copy. The first test is one bit of a table that each
    witness marks when it is recorded (_rule_out_pairs). The region
    partitions are then recombined depth first, one region at a time, in
    the order of a product over the four lists; a branch is cut when a
    witness lies inside {0..v} and the regions decided so far and agrees
    with them. A candidate that survives gets one K_t search of G ⊕ S, and
    a copy found there cuts the rest of the smallest branch that decides it.
    Both searches run the K_t Pattern's kernel on g's rows (the probe with
    flip {u, v}, which toggles only the edge uv); for K_t the least
    embedding is the lexicographically least clique, so each witness is
    the one matcher.least_clique would find on the flipped rows.

    The recognizer decides membership in the target class (default: K_t-free,
    which that search decides). The region argument holds for any subclass
    of the K_t-free graphs, so a custom recognizer is only asked about
    candidates the search found K_t-free, and about g itself at step 0; G ⊕ S
    is built as a Graph only for such a question.

    Stops with Unknown after examining `cap` candidate sets. A cut branch
    counts every candidate in it, so within a pair the count is the one a
    sweep of every candidate would reach.
    """
    if t < 1:
        raise InvalidT(f"clique order must be positive, got {t}")
    # an n-vertex graph holds no K_t above t = n, so every larger t answers
    # as max(n + 1, 2) does, and the pattern stays small
    t = min(t, max(g.n + 1, 2))
    kt = prepared(make_pattern(PatternSpec.complete(t)))
    start = time.perf_counter()
    calls = 1  # step 0
    if recognizer(g) if recognizer is not None else is_pattern_free(g, kt):
        return _report(YES, VertexSet.empty(g.n), start, 0, calls)
    if t == 1:
        # K_1-free means null; complementing never removes vertices
        return _report(NO, None, start, 0, calls)
    pairs = 0
    pruned = 0
    examined = 0

    n, rows = g.n, g.rows
    co_rows = complement(g).rows
    cap = max(cap, 0)
    witnesses = []  # (W, S ∩ W) as masks, one per K_t found
    dead = [0] * n  # dead[u]: the v whose pair (u, v) some witness rules out
    lo, hi = max(t - 2, 1), t - 1
    # in _region_masks order: common, neither, u only, v only
    params = ((lo, hi), (hi, lo), (lo, lo), (lo, lo))
    for u in range(n):
        for v in range(u + 1, n):
            pairs += 1
            uv = (1 << u) | (1 << v)
            low = (1 << (v + 1)) - 1  # every candidate has S ∩ low = uv
            lists = None
            # a witness inside low that agrees with uv there rules the pair out
            if not (dead[u] >> v) & 1:
                # flipping {u, v} toggles only the edge uv
                copy = kt.embed(rows, within=low, flip=uv)
                if copy is None:
                    lists = _region_lists(g, u, v, params, co_rows)
                else:
                    w = _vertex_mask(copy)
                    witnesses.append((w, uv & w))
                    _rule_out_pairs(dead, w, uv & w)
            if lists is None:
                pruned += 1
                continue
            # decided[i]: the vertices known once i regions are chosen;
            # cuts[i]: the agreeing witnesses that decided[i] holds first
            decided = [low]
            for region, _ in lists:
                decided.append(decided[-1] | region)
            cuts = [[] for _ in range(5)]
            for w, sw in witnesses:
                if not (uv ^ sw) & w & low:
                    cuts[_first_inside(w, decided)].append((w, sw))
            sizes = [len(qs) for _, qs in lists]
            weight = [sizes[1] * sizes[2] * sizes[3], sizes[2] * sizes[3], sizes[3], 1]
            chosen = [uv, 0, 0, 0]  # chosen[i]: S ∩ decided[i]
            index = [-1] * 4
            i = 0
            while i >= 0:
                index[i] += 1
                if index[i] == sizes[i]:
                    index[i] = -1
                    i -= 1
                    continue
                s = chosen[i] | lists[i][1][index[i]]
                for w, sw in cuts[i + 1]:
                    if not (s ^ sw) & w:
                        examined += weight[i]
                        break
                else:
                    if i < 3:
                        chosen[i + 1] = s
                        i += 1
                        continue
                    if examined >= cap:
                        return _report(UNKNOWN, None, start, examined, calls, pairs, pruned)
                    examined += 1
                    copy = kt.embed(rows, flip=s)
                    if copy is None:
                        calls += 1
                        found = VertexSet(s, n)
                        if recognizer is None or recognizer(subgraph_complement(g, found)):
                            return _report(YES, found, start, examined, calls, pairs, pruned)
                        continue
                    calls += recognizer is None  # that search is the default recognizer
                    w = _vertex_mask(copy)
                    level = _first_inside(w, decided)
                    cuts[level].append((w, s & w))
                    witnesses.append((w, s & w))
                    _rule_out_pairs(dead, w, s & w)
                    # every later candidate that keeps choices 0..level-1 is cut
                    for j in range(level, 4):
                        examined += (sizes[j] - 1 - index[j]) * weight[j]
                        index[j] = -1
                    i = level - 1
                if examined > cap:
                    return _report(UNKNOWN, None, start, cap, calls, pairs, pruned)
    return _report(NO, None, start, examined, calls, pairs, pruned)


def solve_complement_class(
    g: Graph,
    base_solve: Callable[[Graph], SolveReport],
    bar_recognizer: Optional[Callable[[Graph], bool]] = None,
) -> SolveReport:
    """Solve for g against a complement-closed target by handing complement(g)
    to a solver for the complement class: the same subset works for both.

    The returned solution is passed through unchanged. When bar_recognizer
    (membership in the class complementing g should land in) is supplied,
    a Yes answer is re-verified against it directly.
    """
    inner = base_solve(complement(g))
    if inner.status != YES:
        return inner
    verified = inner.verified
    if bar_recognizer is not None:
        if not bar_recognizer(subgraph_complement(g, inner.solution)):
            raise RecognizerMismatch(
                "solution from the complement side fails the target recognizer"
            )
        verified = True
    return SolveReport(YES, inner.solution, inner.stats, verified)
