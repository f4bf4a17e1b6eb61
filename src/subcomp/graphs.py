"""Graph representation and core operations.

Graphs are immutable, undirected, simple, and dense: adjacency is a tuple of
int bitrows, one per vertex, so neighborhood algebra (intersections, region
masks, complementing) is plain integer arithmetic. Vertex indices are stable;
everything downstream (split partitions, solvers, gadget layouts) relies on
that.
"""

from __future__ import annotations

import binascii
import json
from typing import Iterable, Iterator, Optional

from .errors import (
    CapMismatch,
    InvalidPattern,
    MalformedG6,
    NullGraph,
    PatternTooSmall,
)
from .matcher import (
    Pattern,
    _twin_classes,
    greedy_colourable,
    least_clique,
    modules_avoiding,
    prepared,
)
from .values import Frozen


class Graph(Frozen):
    """Undirected simple graph on vertices 0..n-1 with bitrow adjacency.

    rows[v] has bit u set iff uv is an edge; rows are symmetric and
    irreflexive.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            m = row
            while m:
                ubit = m & -m
                m ^= ubit
                u = ubit.bit_length() - 1
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    # Internal constructor for operations that guarantee the invariants.
    @classmethod
    def _unchecked(cls, n: int, rows: tuple) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            above = self.rows[u] >> (u + 1)
            v = u + 1
            while above:
                if above & 1:
                    out.append((u, v))
                above >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


class VertexSet(Frozen):
    """Subset of the vertices of an n-vertex graph, as a bitmask plus its cap."""

    __slots__ = ("bits", "cap")

    def __init__(self, bits: int, cap: int):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        if bits < 0 or bits >> cap:
            raise ValueError(f"bitmask {bits:#x} has bits at or above cap {cap}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "cap", cap)

    @classmethod
    def from_members(cls, members: Iterable[int], cap: int) -> "VertexSet":
        bits = 0
        for v in members:
            bits |= 1 << v
        return cls(bits, cap)

    @classmethod
    def empty(cls, cap: int) -> "VertexSet":
        return cls(0, cap)

    def members(self) -> tuple[int, ...]:
        out = []
        m = self.bits
        while m:
            b = m & -m
            m ^= b
            out.append(b.bit_length() - 1)
        return tuple(out)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.cap and bool((self.bits >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __repr__(self) -> str:
        return f"VertexSet({set(self.members()) or '{}'}, cap={self.cap})"


class PatternSpec(Frozen):
    """Recipe for a named pattern graph (complete, empty, path, cycle, star,
    or the complement of another spec)."""

    __slots__ = ("kind", "size", "inner")

    COMPLETE = "complete"
    EMPTY = "empty"
    PATH = "path"
    CYCLE = "cycle"
    STAR = "star"
    COMPLEMENT = "complement"

    def __init__(self, kind: str, size: int = 0, inner: Optional["PatternSpec"] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "inner", inner)

    @classmethod
    def complete(cls, t: int) -> "PatternSpec":
        return cls(cls.COMPLETE, t)

    @classmethod
    def empty(cls, t: int) -> "PatternSpec":
        return cls(cls.EMPTY, t)

    @classmethod
    def path(cls, t: int) -> "PatternSpec":
        return cls(cls.PATH, t)

    @classmethod
    def cycle(cls, t: int) -> "PatternSpec":
        return cls(cls.CYCLE, t)

    @classmethod
    def star(cls, t: int) -> "PatternSpec":
        """K_{1,t}: a center plus t leaves, t+1 vertices in total."""
        return cls(cls.STAR, t)

    @classmethod
    def complement_of(cls, inner: "PatternSpec") -> "PatternSpec":
        return cls(cls.COMPLEMENT, 0, inner)

    def __repr__(self) -> str:
        if self.kind == self.COMPLEMENT:
            return f"PatternSpec.complement_of({self.inner!r})"
        return f"PatternSpec({self.kind!r}, {self.size})"


def make_pattern(spec: PatternSpec) -> Graph:
    """Build the canonical pattern graph for a spec.

    Path and cycle vertices come in walk order 0..t-1; the star center is
    vertex 0. Raises InvalidPattern when size constraints are violated.
    """
    kind = spec.kind
    if kind == PatternSpec.COMPLEMENT:
        if spec.inner is None:
            raise InvalidPattern("complement spec without an inner pattern")
        return complement(make_pattern(spec.inner))
    t = spec.size
    if t < 1:
        raise InvalidPattern(f"pattern size must be at least 1, got {t}")
    if kind == PatternSpec.COMPLETE:
        full = (1 << t) - 1
        return Graph._unchecked(t, tuple((full ^ (1 << v)) for v in range(t)))
    if kind == PatternSpec.EMPTY:
        return Graph._unchecked(t, (0,) * t)
    if kind == PatternSpec.PATH:
        return graph_from_edges(t, [(i, i + 1) for i in range(t - 1)])
    if kind == PatternSpec.CYCLE:
        if t < 3:
            raise InvalidPattern(f"cycles need at least 3 vertices, got {t}")
        edges = [(i, i + 1) for i in range(t - 1)] + [(0, t - 1)]
        return graph_from_edges(t, edges)
    if kind == PatternSpec.STAR:
        return graph_from_edges(t + 1, [(0, leaf) for leaf in range(1, t + 1)])
    raise InvalidPattern(f"unknown pattern kind {kind!r}")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._unchecked(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.rows))
    return Graph._unchecked(g.n, rows)


def subgraph_complement(g: Graph, s: VertexSet) -> Graph:
    """Flip adjacency exactly between pairs of vertices both inside s.

    With |s| <= 1 there is no such pair and the graph comes back unchanged.
    """
    if s.cap != g.n:
        raise CapMismatch(f"set indexes {s.cap} vertices, graph has {g.n}")
    mask = s.bits
    rows = tuple(
        (row ^ (mask & ~(1 << v))) if (mask >> v) & 1 else row
        for v, row in enumerate(g.rows)
    )
    return Graph._unchecked(g.n, rows)


def induced(g: Graph, s: VertexSet) -> Graph:
    """Subgraph induced by s, vertices renumbered by ascending original index."""
    if s.cap != g.n:
        raise CapMismatch(f"set indexes {s.cap} vertices, graph has {g.n}")
    verts = s.members()
    rows = []
    for u in verts:
        row = 0
        grow = g.rows[u]
        for j, w in enumerate(verts):
            if (grow >> w) & 1:
                row |= 1 << j
        rows.append(row)
    return Graph._unchecked(len(verts), tuple(rows))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    rows = list(a.rows) + [row << a.n for row in b.rows]
    return Graph._unchecked(a.n + b.n, tuple(rows))


def cross_product(a: Graph, b: Graph) -> Graph:
    """Cross product: vertex (i, j) maps to index i*b.n + j; (u,u') ~ (v,v')
    iff u = v and u' ~ v', or u' = v' and u ~ v."""
    n = a.n * b.n
    rows = [0] * n
    for i in range(a.n):
        arow = a.rows[i]
        base = i * b.n
        for j in range(b.n):
            row = b.rows[j] << base  # same a-vertex, adjacent b-pair
            m = arow
            while m:  # same b-vertex, adjacent a-pair
                kbit = m & -m
                m ^= kbit
                row |= 1 << ((kbit.bit_length() - 1) * b.n + j)
            rows[base + j] = row
    return Graph._unchecked(n, tuple(rows))


def no_instance(h: Graph) -> Graph:
    """complement(h) x h: admits no subgraph complement to an h-free graph."""
    if h.n < 2:
        raise PatternTooSmall("no-instance construction needs a pattern with >= 2 vertices")
    return cross_product(complement(h), h)


def is_pattern_free(g: Graph, h: Graph | Pattern) -> bool:
    """True iff g contains no induced copy of h.

    h may be a Pattern; a Graph gets the one Pattern that every call with
    an equal graph shares. Decision only, so the search reaches each
    induced copy through one embedding.

    A pattern with a universal vertex c is peeled: g holds a copy iff, for
    some vertex v, g[N(v)] holds a copy of h - c (v plays c). For an
    isolated c the same holds with the non-neighbours of v. Peeling repeats
    on h - c inside that mask, on an explicit stack, and a clique or an
    independent set left at the end is one clique search, on the rows or on
    the complement's rows, unless at least one vertex was peeled and a
    greedy colouring with one class fewer than its order covers the mask.
    Swapping two twins of g is an automorphism, so the first peel tries one
    vertex per twin class.
    """
    pattern = h if isinstance(h, Pattern) else prepared(h)
    rows = g.rows
    full = (1 << g.n) - 1
    plan = pattern.peel
    if plan is None:
        return _free_within(rows, pattern, full)
    sides, kind, rest = plan
    hn = pattern.graph.n
    if g.n < hn:
        return True
    co_rows = None
    stack = [(0, full)]
    while stack:
        depth, mask = stack.pop()
        if depth == len(sides):
            if kind == "pattern":
                found = not _free_within(rows, rest, mask)
            else:
                if kind == "coclique" and co_rows is None:
                    co_rows = [full ^ row ^ 1 << v for v, row in enumerate(rows)]
                side = rows if kind == "clique" else co_rows
                # no bound on a whole host: a K_t check there mostly finds
                # its clique, so the colouring would only cost time
                found = (not (depth and greedy_colourable(side, mask, rest - 1))
                         and least_clique(side, mask, rest) is not None)
            if found:
                return False
            continue
        need = hn - 1 - depth
        near = sides[depth]
        walk = mask if depth else sum(
            1 << v for v, t in enumerate(_twin_classes(rows)) if t & -t == 1 << v)
        while walk:
            vbit = walk & -walk
            walk ^= vbit
            row = rows[vbit.bit_length() - 1]
            inner = mask & row if near else mask & ~(row | vbit)
            if inner.bit_count() >= need:
                stack.append((depth + 1, inner))
    return True


def _free_within(rows, pattern: Pattern, within: int) -> bool:
    """True iff the host's induced subgraph on the mask within holds no
    induced copy of the pattern.

    A prime pattern is decided on modular quotients, on an explicit stack.
    A copy meets each module of its host in at most one vertex or lies
    inside it; so with v the lowest vertex of a part of the host, the part
    holds a copy iff one of its maximal modules avoiding v does, or the
    quotient does: v plus the lowest vertex of each such module. Each mask
    is searched with its vertices ranked by degree inside it.
    """
    if not pattern.prime:
        return not pattern._occurs_within(rows, within)
    hn = pattern.graph.n
    stack = [within] if within.bit_count() >= hn else []
    while stack:
        part = stack.pop()
        # degrees and non-degrees inside a subset never exceed those inside
        # the part, so a part that fails the degree filters holds no copy
        if pattern._domains(rows, part) is None:
            continue
        v = (part & -part).bit_length() - 1
        quotient = 1 << v
        for module in modules_avoiding(rows, part, v):
            quotient |= module & -module
            if module.bit_count() >= hn:
                stack.append(module)
        if pattern._occurs_within(rows, quotient):
            return False
    return True


def degeneracy(g: Graph) -> int:
    """Smallest k such that every subgraph has a vertex of degree <= k,
    by iterated minimum-degree removal."""
    if g.n == 0:
        raise NullGraph("degeneracy undefined on the null graph")
    rows = g.rows
    remaining = (1 << g.n) - 1
    k = 0
    while remaining:
        best_v = -1
        best_d = g.n
        m = remaining
        while m:
            vbit = m & -m
            m ^= vbit
            v = vbit.bit_length() - 1
            d = (rows[v] & remaining).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        if best_d > k:
            k = best_d
        remaining ^= 1 << best_v
    return k


def is_module(g: Graph, s: VertexSet) -> bool:
    """True iff all members of s share the same neighborhood outside s."""
    if s.cap != g.n:
        raise CapMismatch("vertex set must index this graph")
    outside = None
    for v in s.members():
        seen = g.rows[v] & ~s.bits
        if outside is None:
            outside = seen
        elif outside != seen:
            return False
    return True


# graph6 encoding: header-less standard variant. Upper triangle, column-major
# (columns v = 1..n-1, rows u = 0..v-1), packed big-endian into 6-bit groups,
# each group offset by 63.

def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        out = [126, 126]
        for shift in range(30, -1, -6):
            out.append(((n >> shift) & 63) + 63)
        return bytes(out)
    raise ValueError("graph too large for graph6")


# base64 writes each 6-bit group as a letter of its alphabet; graph6 writes
# group i as the byte 63 + i
_G6_BYTES = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64, _G6_BYTES)
_G6_TO_B64 = bytes.maketrans(_G6_BYTES, _B64)
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def g6_encode(g: Graph) -> bytes:
    """The upper triangle as one integer r, column v's bits from offset
    v(v-1)/2, lowest row first. Columns are merged in pairs, level by
    level, so each bit is copied once per level, not once per column. The
    little-endian bytes of r, each bit-reversed, are the bit string packed
    big-endian; zero-padded to whole bytes of three groups, base64 cuts it
    into 6-bit groups."""
    nbits = g.n * (g.n - 1) // 2
    parts = [(row & ((1 << v) - 1), v * (v - 1) // 2) for v, row in enumerate(g.rows)]
    while len(parts) > 1:
        merged = [(lo | hi << (at - lo_at), lo_at)
                  for (lo, lo_at), (hi, at) in zip(parts[::2], parts[1::2])]
        parts = merged + parts[2 * len(merged):]
    r = parts[0][0] if parts else 0
    packed = r.to_bytes(-(-nbits // 24) * 3, "little").translate(_BIT_REVERSED)
    groups = binascii.b2a_base64(packed, newline=False).translate(_B64_TO_G6)
    return _g6_size_bytes(g.n) + groups[: (nbits + 5) // 6]


def _out_of_range(codes: Iterable[int]) -> MalformedG6:
    """The error for the first code outside the graph6 range 63..126."""
    for i, code in enumerate(codes):
        if not 63 <= code <= 126:
            return MalformedG6(f"byte {code:#x} outside graph6 range", i)


def g6_decode(data: bytes) -> Graph:
    """base64 turns the body back into one bit string. Line v of an n-by-n
    grid holds column v's bits, zero-padded, so row u, lowest column first,
    is line u up to the diagonal followed by column u of the grid."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError:
            raise _out_of_range(map(ord, data)) from None
    if not data:
        raise MalformedG6("empty input", 0)
    if data.translate(None, _G6_BYTES):
        raise _out_of_range(data)
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise MalformedG6("truncated 3-byte size word", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
        if n <= 62:
            raise MalformedG6("non-canonical size word", 1)
    else:
        if len(data) < 8:
            raise MalformedG6("truncated 6-byte size word", len(data))
        n = 0
        for i in range(2, 8):
            n = (n << 6) | (data[i] - 63)
        pos = 8
        if n <= 258047:
            raise MalformedG6("non-canonical size word", 2)
    if n > MAX_JSON_VERTICES:
        # the size word's value starts at offset 0, 1 or 2: pos // 4
        raise MalformedG6(f"n is {n}; at most {MAX_JSON_VERTICES} vertices are accepted", pos // 4)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise MalformedG6(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}",
            min(pos + nbytes, len(data)),
        )
    raw = binascii.a2b_base64(data[pos:].translate(_G6_TO_B64) + b"A" * (-nbytes % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b").encode()
    # padding fills less than one 6-bit group, so only the last byte has any
    if b"1" in bits[nbits:]:
        raise MalformedG6("nonzero padding bits", len(data) - 1)
    grid = bytearray(b"0") * (n * n)
    start = 0
    for v in range(1, n):
        grid[v * n : v * n + v] = bits[start : start + v]
        start += v
    return Graph._unchecked(n, tuple([
        int((grid[u * n : u * n + u] + grid[u * n + u :: n])[::-1], 2) for u in range(n)
    ]))


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


# Largest vertex count graph_from_json and g6_decode accept. Both allocate
# from the declared n before any edge is read. A graph6 encoding of a graph
# this size already takes 22 MB, and g6_decode, which holds the bit string
# and an n-by-n grid at once, peaks at about 20 times its input.
MAX_JSON_VERTICES = 1 << 14


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(text: str) -> Graph:
    """Parse the JSON graph form. `n` must be an integer in
    0..MAX_JSON_VERTICES, `edges` a list of distinct integer pairs, and
    `labels`, when present and not null, a list of exactly n strings, which
    is checked and then dropped. Violations raise ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ValueError("graph JSON needs 'n' and 'edges' fields")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise ValueError("'n' must be a nonnegative integer")
    if n > MAX_JSON_VERTICES:
        raise ValueError(f"'n' is {n}; at most {MAX_JSON_VERTICES} vertices are accepted")
    if not isinstance(doc["edges"], list):
        raise ValueError("'edges' must be a list")
    seen = set()
    edges = []
    for item in doc["edges"]:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"edge entry {item!r} is not a pair")
        u, v = item
        if not (_is_int(u) and _is_int(v)):
            raise ValueError(f"edge entry {item!r} is not an integer pair")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"edge {{{u}, {v}}} listed more than once")
        seen.add(key)
        edges.append((u, v))
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == n
        and all(isinstance(x, str) for x in labels)
    ):
        raise ValueError(f"'labels' must be a list of {n} strings, one per vertex")
    return graph_from_edges(n, edges)
