"""Core graph operations: construction, complements, embeddings, encodings."""

import itertools
import random
import sys
import time
import tracemalloc
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcomp.errors import CapMismatch, InvalidPattern, MalformedG6, NullGraph, PatternTooSmall
from subcomp.gadgets import GadgetInstance
from subcomp import matcher
from subcomp.graphs import (
    MAX_JSON_VERTICES,
    Graph,
    Pattern,
    PatternSpec,
    VertexSet,
    complement,
    cross_product,
    degeneracy,
    disjoint_union,
    g6_decode,
    g6_encode,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    induced,
    is_module,
    is_pattern_free,
    make_pattern,
    no_instance,
    subgraph_complement,
)
from subcomp.sat import Assignment, CnfFormula
from subcomp.solvers import SolveReport
from subcomp.split import RamseyBound, SplitPartition
from subcomp.verify import all_graphs, random_graph


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    rows = [0] * n
    i = 0
    for v in range(n):
        for u in range(v):
            if (bits >> i) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, rows)


@st.composite
def graphs_with_subset(draw, max_n=8):
    g = draw(graphs(max_n=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    return g, VertexSet(bits, g.n)


def brute_embeddings(g, h):
    """Every induced embedding of h into g, the stupid way."""
    out = []
    for combo in itertools.combinations(range(g.n), h.n):
        for perm in itertools.permutations(combo):
            if all(
                g.has_edge(perm[i], perm[j]) == h.has_edge(i, j)
                for i in range(h.n)
                for j in range(i + 1, h.n)
            ):
                out.append(perm)
    return out


class TestConstruction:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, [0b10, 0b00])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, [0b1])

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(2, [0b100, 0b000])

    def test_null_graph_is_legal(self):
        g = Graph(0, [])
        assert g.n == 0
        assert g.edges() == []


class TestPatterns:
    def test_path_vertices_in_walk_order(self):
        p4 = make_pattern(PatternSpec.path(4))
        assert p4.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_cycle_closes_the_walk(self):
        c5 = make_pattern(PatternSpec.cycle(5))
        assert c5.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_star_center_is_vertex_zero(self):
        s = make_pattern(PatternSpec.star(5))
        assert s.n == 6
        assert s.degree(0) == 5
        assert all(s.degree(v) == 1 for v in range(1, 6))

    def test_complete_and_empty(self):
        k4 = make_pattern(PatternSpec.complete(4))
        assert k4.edge_count() == 6
        e3 = make_pattern(PatternSpec.empty(3))
        assert e3.edge_count() == 0

    def test_order_counts_vertices(self):
        for spec in (PatternSpec.path(4), PatternSpec.cycle(5), PatternSpec.complete(1),
                     PatternSpec.empty(3), PatternSpec.star(5),
                     PatternSpec.complement_of(PatternSpec.star(2)),
                     PatternSpec.complement_of(PatternSpec.complement_of(PatternSpec.path(6)))):
            assert spec.order == make_pattern(spec).n

    def test_complement_spec_recurses(self):
        p4bar = make_pattern(PatternSpec.complement_of(PatternSpec.path(4)))
        assert p4bar == complement(make_pattern(PatternSpec.path(4)))

    @pytest.mark.parametrize(
        "spec",
        [
            PatternSpec.path(0),
            PatternSpec.complete(-1),
            PatternSpec.cycle(2),
            PatternSpec("triangle-ish", 3),
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(InvalidPattern):
            make_pattern(spec)

    def test_p4_is_self_complementary(self):
        # sanity anchor: P4 and its complement are isomorphic
        p4 = make_pattern(PatternSpec.path(4))
        assert brute_embeddings(complement(p4), p4)

    def test_c5_is_self_complementary(self):
        c5 = make_pattern(PatternSpec.cycle(5))
        assert brute_embeddings(complement(c5), c5)


class TestComplementOps:
    @given(graphs())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs_with_subset())
    def test_subgraph_complement_involution(self, gs):
        g, s = gs
        assert subgraph_complement(subgraph_complement(g, s), s) == g

    @given(graphs())
    def test_full_subset_gives_complement(self, g):
        s = VertexSet((1 << g.n) - 1, g.n)
        assert subgraph_complement(g, s) == complement(g)

    @given(graphs())
    def test_small_subsets_are_identity(self, g):
        assert subgraph_complement(g, VertexSet.empty(g.n)) == g
        for v in range(g.n):
            assert subgraph_complement(g, VertexSet(1 << v, g.n)) == g

    @given(graphs_with_subset())
    def test_commutes_with_complement(self, gs):
        # complementing inside S on G, then taking the complement, matches
        # complementing first and applying the same S
        g, s = gs
        assert subgraph_complement(g, s) == complement(subgraph_complement(complement(g), s))

    def test_cap_mismatch(self):
        g = make_pattern(PatternSpec.path(3))
        with pytest.raises(CapMismatch):
            subgraph_complement(g, VertexSet(0b11, 4))

    def test_flips_exactly_the_inside_pairs(self):
        k4 = make_pattern(PatternSpec.complete(4))
        out = subgraph_complement(k4, VertexSet.from_members([0, 1, 2], 4))
        assert out.edges() == [(0, 3), (1, 3), (2, 3)]


class TestCombinators:
    def test_induced_keeps_ascending_order(self):
        p5 = make_pattern(PatternSpec.path(5))
        sub = induced(p5, VertexSet.from_members([0, 2, 3], 5))
        assert sub.n == 3
        assert sub.edges() == [(1, 2)]

    @given(graphs_with_subset())
    def test_induced_edge_membership(self, gs):
        g, s = gs
        sub = induced(g, s)
        verts = s.members()
        for i, j in itertools.combinations(range(len(verts)), 2):
            assert sub.has_edge(i, j) == g.has_edge(verts[i], verts[j])

    def test_disjoint_union_offsets_second_operand(self):
        k2 = make_pattern(PatternSpec.complete(2))
        p3 = make_pattern(PatternSpec.path(3))
        g = disjoint_union(k2, p3)
        assert g.n == 5
        assert g.edges() == [(0, 1), (2, 3), (3, 4)]

    def test_cross_product_of_edges_is_a_square(self):
        k2 = make_pattern(PatternSpec.complete(2))
        g = cross_product(k2, k2)
        # (0,0)-(0,1)-(1,1)-(1,0)-(0,0) under (i,j) -> 2i + j
        assert g.n == 4
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert is_pattern_free(g, make_pattern(PatternSpec.complete(3)))

    @given(graphs(max_n=5), graphs(max_n=5))
    def test_cross_product_counts(self, a, b):
        g = cross_product(a, b)
        assert g.n == a.n * b.n
        assert g.edge_count() == a.n * b.edge_count() + b.n * a.edge_count()

    def test_no_instance_size(self):
        p3 = make_pattern(PatternSpec.path(3))
        g = no_instance(p3)
        assert g.n == 9

    def test_no_instance_needs_two_vertices(self):
        with pytest.raises(PatternTooSmall):
            no_instance(Graph(1, [0]))


class TestFindInduced:
    """Pattern.embed and is_pattern_free find induced copies."""

    def test_returns_least_embedding(self):
        # P3 in P4: (0,1,2) is the least embedding that puts the first
        # endpoint below the second, the orbit constraint of P3
        p4 = make_pattern(PatternSpec.path(4))
        p3 = make_pattern(PatternSpec.path(3))
        assert Pattern(p3).embed(p4.rows) == (0, 1, 2)

    def test_absent_when_pattern_missing(self):
        c4 = make_pattern(PatternSpec.cycle(4))
        k3 = make_pattern(PatternSpec.complete(3))
        assert Pattern(k3).embed(c4.rows) is None
        assert is_pattern_free(c4, k3)

    def test_pattern_larger_than_host(self):
        host = Graph(2, [0, 0])
        p3 = make_pattern(PatternSpec.path(3))
        assert Pattern(p3).embed(host.rows) is None
        assert is_pattern_free(host, p3)

    def test_rejects_empty_pattern(self):
        with pytest.raises(PatternTooSmall):
            Pattern(Graph(0, []))
        with pytest.raises(PatternTooSmall):
            is_pattern_free(Graph(3, [0, 0, 0]), Graph(0, []))

    def test_induced_means_induced(self):
        # K3 sits in K4 as a subgraph and as an induced subgraph; P3 only as
        # a non-induced one, so the search must reject it
        k4 = make_pattern(PatternSpec.complete(4))
        k3 = make_pattern(PatternSpec.complete(3))
        p3 = make_pattern(PatternSpec.path(3))
        assert Pattern(k3).embed(k4.rows) == (0, 1, 2)
        assert Pattern(p3).embed(k4.rows) is None
        assert not is_pattern_free(k4, k3)
        assert is_pattern_free(k4, p3)

    @given(graphs(max_n=8), graphs(max_n=4).filter(lambda h: h.n >= 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_search(self, g, h):
        pattern = Pattern(h)
        kept = [m for m in brute_embeddings(g, h) if satisfies_constraints(pattern, m)]
        assert pattern.embed(g.rows) == (min(kept) if kept else None)

    @given(graphs(max_n=8), graphs(max_n=5).filter(lambda h: h.n >= 1))
    @settings(max_examples=300, deadline=None)
    def test_prepared_pattern_decides_alike(self, g, h):
        pattern = Pattern(h)
        assert is_pattern_free(g, pattern) == is_pattern_free(g, h)
        assert is_pattern_free(g, h) == (brute_embeddings(g, h) == [])
        # the quotient decision of a prime pattern agrees with the plain search
        assert is_pattern_free(g, h) == (pattern.embed(g.rows) is None)

    def test_vertex_transitive_flag(self):
        # the orbit found for vertex 0 is every vertex exactly when the
        # pattern is vertex-transitive (these are all small enough to search)
        for spec in (PatternSpec.complete(4), PatternSpec.empty(3), PatternSpec.cycle(5),
                     PatternSpec.complement_of(PatternSpec.cycle(6))):
            h = make_pattern(spec)
            assert Pattern(h)._constraints()[0] == (1 << h.n) - 2
        for spec in (PatternSpec.path(4), PatternSpec.star(3)):
            h = make_pattern(spec)
            assert Pattern(h)._constraints()[0] != (1 << h.n) - 2


def _flipped(rows, flip):
    """The rows of the host complemented on the mask flip."""
    return [row ^ flip ^ 1 << v if flip >> v & 1 else row for v, row in enumerate(rows)]


def reference_embed(pattern, rows, within, flip):
    """Pattern.embed the way it worked before kernels: flip the rows, bucket
    the mask by degree, then run the generic search."""
    rows = _flipped(rows, flip)
    doms = pattern._domains(rows, within)
    return None if doms is None else matcher._search(pattern._steps, pattern._later, rows, doms)[0]


_KERNEL_SHAPES = [Pattern(h) for n in range(1, 4) for h in all_graphs(n)] + [
    Pattern(make_pattern(spec)) for spec in (
        PatternSpec.path(4), PatternSpec.cycle(4), PatternSpec.star(3),
        PatternSpec.complement_of(PatternSpec.path(4)), PatternSpec.path(5),
        PatternSpec.cycle(5), PatternSpec.complement_of(PatternSpec.cycle(6)))]


class TestEmbedKernel:
    """Pattern.embed's compiled kernel, on G ⊕ flip inside a mask, against
    the flipped rows searched by _search."""

    def test_every_small_host_flip_and_mask(self):
        # every host with n <= 5, every flip mask, three masks; on n = 5 each
        # (host, flip, mask) meets two of the patterns in turn
        found = 0
        turn = 0
        for n in range(6):
            full = (1 << n) - 1
            masks = sorted({full, full & 0b10110, full & 0b01011})
            for g in all_graphs(n):
                for flip in range(1 << n):
                    for within in masks:
                        if n < 5:
                            shapes = _KERNEL_SHAPES
                        else:
                            shapes = [_KERNEL_SHAPES[turn % len(_KERNEL_SHAPES)],
                                      _KERNEL_SHAPES[(turn + 7) % len(_KERNEL_SHAPES)]]
                            turn += 1
                        for pattern in shapes:
                            want = reference_embed(pattern, g.rows, within, flip)
                            got = pattern.embed(g.rows, within=within, flip=flip)
                            assert got == want, (pattern.graph.rows, g.rows, within, flip)
                            found += want is not None
        assert found

    def test_seeded_hosts(self):
        rng = random.Random(18)
        for n in range(6, 14):
            for _ in range(4):
                g = random_graph(rng, n)
                for within in ((1 << n) - 1, rng.getrandbits(n)):
                    for flip in (0, rng.getrandbits(n), rng.getrandbits(n)):
                        for pattern in _KERNEL_SHAPES:
                            want = reference_embed(pattern, g.rows, within, flip)
                            assert pattern.embed(g.rows, within=within, flip=flip) == want

    def test_order_boundary(self, monkeypatch):
        # patterns of _KERNEL_ORDER vertices compile a kernel, one more
        # vertex keeps _search; both answer alike on 22-vertex hosts, one
        # holding a path of every order and one, two paths of 11, none of
        # order 12 or more
        compiled = []
        kernel = matcher._kernel
        monkeypatch.setattr(matcher, "_kernel", lambda steps, needs: compiled.append(len(needs))
                            or kernel(steps, needs))
        order = matcher._KERNEL_ORDER
        rng = random.Random(order)
        long = make_pattern(PatternSpec.path(22))
        halves = disjoint_union(make_pattern(PatternSpec.path(11)), make_pattern(PatternSpec.path(11)))
        for spec in (PatternSpec.path, PatternSpec.empty):
            for m in (order, order + 1):
                pattern = Pattern(make_pattern(spec(m)))
                for host in (long, halves):
                    for flip in (0, rng.getrandbits(22)):
                        # flipping the rows first makes flip give back the host
                        rows = subgraph_complement(host, VertexSet(flip, 22)).rows
                        want = reference_embed(pattern, rows, (1 << 22) - 1, flip)
                        assert pattern.embed(rows, flip=flip) == want
                        if spec is PatternSpec.path:
                            assert (want is None) == (host is halves)
        assert compiled == [order, order]

    def test_orbit_constraints_bound_the_placements(self):
        # the least embedding meets the orbit constraints anyway, so only
        # the work shows them: E6 in C10 (no copy) places vertices on
        # increasing independent sets, each once, not on all their orders
        class CountingRows(list):
            reads = 0

            def __getitem__(self, v):
                CountingRows.reads += 1
                return list.__getitem__(self, v)

        c10 = make_pattern(PatternSpec.cycle(10))
        e6 = Pattern(make_pattern(PatternSpec.empty(6)))
        assert e6.embed(CountingRows(c10.rows)) is None
        independent = sum(1 for m in range(1, 1 << 10) if m.bit_count() < 6
                          and all(not c10.rows[v] & m for v in range(10) if m >> v & 1))
        assert 0 < CountingRows.reads <= independent

    def test_small_masks_and_one_vertex(self):
        k3 = Pattern(make_pattern(PatternSpec.complete(3)))
        k4 = make_pattern(PatternSpec.complete(4))
        assert k3.embed(k4.rows, within=0b1011) == (0, 1, 3)
        # fewer members in the mask than pattern vertices
        assert k3.embed(k4.rows, within=0b1010) is None
        assert k3.embed(k4.rows, within=0) is None
        k1 = Pattern(Graph(1, [0]))
        assert k1.embed(k4.rows) == (0,)
        assert k1.embed(k4.rows, within=0b1100, flip=0b0110) == (2,)
        assert k1.embed(k4.rows, within=0) is None
        assert k1.embed([]) is None


def _gnp_rows(rng, n, p, edges=()):
    """Rows of G(n, p) drawn from rng, with the given edges added."""
    rows = [0] * n
    for b in range(n):
        for a in range(b):
            if rng.random() < p or (a, b) in edges:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


class TestCliqueEmbedding:
    """The vertices of prepared(K_t).embed(rows, within=..., flip=...) form
    the clique that least_clique finds inside the mask on the explicitly
    flipped rows: solve_kt_free takes its witnesses from the one and its
    digests were pinned on the other."""

    KT = {t: matcher.prepared(make_pattern(PatternSpec.complete(t))) for t in range(2, 6)}

    @staticmethod
    def check(kt, rows, within, flip):
        copy = kt.embed(rows, within=within, flip=flip)
        got = None if copy is None else sum(1 << x for x in copy)
        want = matcher.least_clique(_flipped(rows, flip), within, kt.graph.n)
        assert got == want, (kt.graph.n, rows, within, flip)
        return want is not None

    def test_every_small_host_flip_and_prefix(self):
        found = 0
        for n in range(6):
            for g in all_graphs(n):
                for flip in range(1 << n):
                    for k in range(n + 1):
                        for kt in self.KT.values():
                            found += self.check(kt, g.rows, (1 << k) - 1, flip)
        assert found

    def test_seeded_hosts(self):
        rng = random.Random(19)
        for n in range(10, 15):
            for p in (0.3, 0.5, 0.7):
                rows = _gnp_rows(rng, n, p)
                for _ in range(6):
                    flip = rng.getrandbits(n)
                    for within in ((1 << n) - 1, (1 << rng.randint(2, n)) - 1, rng.getrandbits(n)):
                        for kt in self.KT.values():
                            self.check(kt, rows, within, flip)

    def test_above_kernel_order(self):
        # K21 and K22 search with _search; the host is G(24, 1/2) with a
        # planted K22, given with its rows flipped on a mask so that the
        # search flips them back, and masks that drop a clique vertex
        rng = random.Random(22)
        n = 24
        clique = sorted(rng.sample(range(n), 22))
        host = Graph(n, _gnp_rows(rng, n, 0.5, set(itertools.combinations(clique, 2))))
        full = (1 << n) - 1
        seen = set()
        for t in (21, 22):
            assert t > matcher._KERNEL_ORDER
            kt = matcher.prepared(make_pattern(PatternSpec.complete(t)))
            for flip in (0, rng.getrandbits(n), rng.getrandbits(n)):
                rows = subgraph_complement(host, VertexSet(flip, n)).rows
                for within in (full, full ^ 1 << clique[0], full ^ 1 << clique[0] ^ 1 << clique[1]):
                    seen.add((t, self.check(kt, rows, within, flip)))
        assert seen == {(21, True), (21, False), (22, True), (22, False)}


class TestLeastClique:
    """matcher.least_clique against the first clique that
    itertools.combinations reaches, by brute force."""

    @staticmethod
    def check(g, withins, sizes=None):
        n, rows = g.n, g.rows
        for within in withins:
            members = [v for v in range(n) if (within >> v) & 1]
            for size in sizes or range(n + 2):
                want = next(
                    (sum(1 << v for v in c) for c in itertools.combinations(members, size)
                     if all(rows[a] >> b & 1 for a, b in itertools.combinations(c, 2))),
                    None,
                )
                assert matcher.least_clique(rows, within, size) == want, (rows, within, size)

    def test_every_graph_and_mask_up_to_five(self):
        for n in range(6):
            for g in all_graphs(n):
                self.check(g, range(1 << n))

    def test_six_vertices(self):
        # every graph on six vertices in the whole mask, and every mask on a
        # seeded sample: every mask of every graph is about 17M checks, 40 s
        for g in all_graphs(6):
            self.check(g, [63])
        rng = random.Random(6)
        for _ in range(60):
            self.check(random_graph(rng, 6), range(64))

    def test_seeded_hosts_up_to_ten(self):
        # sparse to dense hosts with n = 6-10 and random masks, where pairs
        # and larger cliques have many candidates to pass over
        rng = random.Random(10)
        for _ in range(300):
            n, p = rng.randint(6, 10), rng.choice((0.3, 0.5, 0.7, 0.9))
            rows = [0] * n
            for b in range(n):
                for a in range(b):
                    if rng.random() < p:
                        rows[a] |= 1 << b
                        rows[b] |= 1 << a
            masks = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(8)] + [(1 << n) - 1]
            self.check(Graph(n, rows), masks, range(6))


def satisfies_constraints(pattern, mapping, rank=None):
    """Does the mapping put every pattern vertex i below each w in its orbit
    constraint mask, by index or, when given, by rank[x]?"""
    key = rank.__getitem__ if rank is not None else int
    return all(
        key(mapping[i]) < key(mapping[w])
        for i, mask in enumerate(pattern._constraints())
        for w in range(pattern.graph.n)
        if (mask >> w) & 1
    )


_NAMED_SHAPES = [
    PatternSpec.star(5),
    PatternSpec.path(7),
    PatternSpec.cycle(8),
    PatternSpec.complement_of(PatternSpec.cycle(6)),
    PatternSpec.complete(4),
]


class TestOrbitConstraints:
    """Pattern._later against the automorphisms, independent of the search."""

    def test_one_automorphism_satisfies_them(self):
        shapes = [g for n in range(1, 6) for g in all_graphs(n)]
        shapes += [make_pattern(spec) for spec in _NAMED_SHAPES]
        for h in shapes:
            pattern = Pattern(h)
            automorphisms = brute_embeddings(h, h)
            assert sum(satisfies_constraints(pattern, m) for m in automorphisms) == 1, h.rows

    def test_within_gives_the_least_embedding_in_the_mask(self):
        # embed(rows, within=m) against every embedding into g[m] that meets
        # the constraints: every graph with n <= 5 and every mask, then
        # seeded graphs with n = 6 and 7
        patterns = [Pattern(make_pattern(spec)) for spec in (
            PatternSpec.path(3), PatternSpec.complement_of(PatternSpec.path(3)),
            PatternSpec.complete(3), PatternSpec.path(4), PatternSpec.cycle(4))]
        rng = random.Random(7)
        hosts = [g for n in range(6) for g in all_graphs(n)]
        hosts += [random_graph(rng, n) for n in (6, 7) for _ in range(12)]
        found = 0
        for g in hosts:
            for pattern in patterns:
                kept = [m for m in brute_embeddings(g, pattern.graph)
                        if satisfies_constraints(pattern, m)]
                for within in range(1 << g.n):
                    inside = [m for m in kept if all(within >> x & 1 for x in m)]
                    want = min(inside) if inside else None
                    assert pattern.embed(g.rows, within=within) == want, (g.rows, within)
                    found += want is not None
        assert found

    @pytest.mark.parametrize("seed", range(3))
    def test_one_embedding_per_copy(self, seed):
        rng = random.Random(seed)
        shuffler = random.Random(-1 - seed)
        shapes = [make_pattern(spec) for spec in _NAMED_SHAPES]
        shapes += [random_graph(rng, rng.randint(1, 5)) for _ in range(8)]
        for h in shapes:
            pattern = Pattern(h)
            order = len(brute_embeddings(h, h))
            for _ in range(6):
                g = random_graph(rng, rng.randint(h.n, 8))
                every = brute_embeddings(g, h)
                kept = [m for m in every if satisfies_constraints(pattern, m)]
                assert len(kept) * order == len(every)
                # and under any other total order of the host's vertices
                rank = list(range(g.n))
                shuffler.shuffle(rank)
                assert sum(satisfies_constraints(pattern, m, rank) for m in every) * order == len(every)
                # the decision search returns the least embedding it keeps
                assert pattern.embed(g.rows) == (min(kept) if kept else None)

    @pytest.mark.parametrize("work", [1, 12, 30, 64, 150])
    def test_capped_constraints_stay_sound(self, monkeypatch, work):
        # a search the cap stops keeps a subset of the full constraints,
        # which still admits at least one embedding per copy
        full = {}
        shapes = [g for n in range(2, 6) for g in all_graphs(n)]
        shapes += [make_pattern(spec) for spec in _NAMED_SHAPES]
        for h in shapes:
            full[h] = Pattern(h)._constraints()
        monkeypatch.setattr(matcher, "_ORBIT_WORK", work)
        for h in shapes:
            later = Pattern(h)._constraints()
            assert all(a & ~b == 0 for a, b in zip(later, full[h]))
        rng = random.Random(work)
        for h in shapes[::7]:
            pattern = Pattern(h)
            g = random_graph(rng, rng.randint(h.n, max(h.n, 7)))
            copies = {}
            for m in brute_embeddings(g, h):
                copies.setdefault(frozenset(m), []).append(m)
            for embeddings in copies.values():
                assert any(satisfies_constraints(pattern, m) for m in embeddings)

    def test_large_patterns_stay_cheap(self):
        # too long for a self-search within the work cap: no constraints,
        # and a decision 1200 levels deep on an explicit stack
        p1200 = Pattern(make_pattern(PatternSpec.path(1200)))
        assert not any(p1200._constraints())
        assert not is_pattern_free(make_pattern(PatternSpec.path(1500)), p1200)
        assert is_pattern_free(make_pattern(PatternSpec.path(1199)), p1200)
        # twins alone settle cliques and stars of any order
        k300 = Pattern(make_pattern(PatternSpec.complete(300)))
        assert k300._constraints()[0] == (1 << 300) - 2
        assert k300._constraints()[1] == (1 << 300) - 4
        star = Pattern(make_pattern(PatternSpec.star(400)))
        assert star._constraints()[:2] == (0, (1 << 401) - 4)


def brute_prime(h):
    """No module but the trivial ones, on at least three vertices, by trying
    every vertex set."""
    return h.n >= 3 and not any(
        is_module(h, VertexSet.from_members(members, h.n))
        for k in range(2, h.n)
        for members in itertools.combinations(range(h.n), k)
    )


def brute_maximal_modules(g, part, v):
    """The inclusion-maximal modules of g[part] that avoid v, by trying
    every vertex set."""
    inside = [x for x in range(g.n) if (part >> x) & 1 and x != v]
    modules = []
    for k in range(1, len(inside) + 1):
        for members in itertools.combinations(inside, k):
            mask = sum(1 << x for x in members)
            if all(len({g.has_edge(z, x) for x in members}) == 1
                   for z in range(g.n) if (part >> z) & 1 and not (mask >> z) & 1):
                modules.append(mask)
    return sorted(m for m in modules if not any(m != o and m & o == m for o in modules))


def substituted(rng, h, depth):
    """A random graph made by substituting graphs for the vertices of a
    skeleton graph, vertex order shuffled: it is full of modules. The
    skeleton or a block is sometimes h itself, so copies of h span several
    modules or lie inside one."""

    def pick(largest):
        return h if rng.random() < 0.15 else random_graph(rng, rng.randint(1, largest))

    skeleton = pick(5)
    blocks = [substituted(rng, h, depth - 1) if depth and rng.random() < 0.4 else pick(3)
              for _ in range(skeleton.n)]
    offsets = list(itertools.accumulate([0] + [b.n for b in blocks]))
    spans = [((1 << b.n) - 1) << off for b, off in zip(blocks, offsets)]
    rows = []
    for i, (block, off) in enumerate(zip(blocks, offsets)):
        outside = sum(spans[j] for j in range(skeleton.n) if skeleton.has_edge(i, j))
        rows += [(row << off) | outside for row in block.rows]
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = [0] * len(rows)
    for u, row in enumerate(rows):
        shuffled[order[u]] = sum(1 << order[w] for w in range(len(rows)) if (row >> w) & 1)
    return Graph(len(rows), shuffled)


_PRIME_SHAPES = [
    PatternSpec.path(4),
    PatternSpec.path(5),
    PatternSpec.cycle(5),
    PatternSpec.complement_of(PatternSpec.path(5)),
    PatternSpec.cycle(8),
    PatternSpec.complement_of(PatternSpec.cycle(6)),
    PatternSpec.path(7),
]
_PRIME_IDS = ["P4", "P5", "C5", "co-P5", "C8", "co-C6", "P7"]


class TestModularQuotient:
    """Twin classes, primality, module partitions and the quotient decision
    against brute force and the plain search."""

    def test_twin_classes_match_definition(self):
        for n in range(1, 7):
            for h in all_graphs(n):
                rows = h.rows
                assert matcher._twin_classes(rows) == [
                    sum(1 << w for w in range(n) if rows[u] & ~(1 << w) == rows[w] & ~(1 << u))
                    for u in range(n)
                ], rows

    def test_prime_matches_module_check(self):
        for n in range(1, 7):
            for h in all_graphs(n):
                assert Pattern(h).prime == brute_prime(h), h.rows
        for spec in _PRIME_SHAPES:
            assert Pattern(make_pattern(spec)).prime
        for spec in (PatternSpec.complete(5), PatternSpec.empty(4), PatternSpec.star(5),
                     PatternSpec.cycle(4), PatternSpec.path(3)):
            assert not Pattern(make_pattern(spec)).prime

    def test_modules_avoiding_are_the_maximal_modules(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 8)) if rng.random() < 0.5 else substituted(
                rng, make_pattern(PatternSpec.path(4)), 0)
            if g.n > 9:
                continue
            part = rng.randint(1, (1 << g.n) - 1)
            v = rng.choice([x for x in range(g.n) if (part >> x) & 1])
            got = matcher.modules_avoiding(g.rows, part, v)
            assert sorted(got) == brute_maximal_modules(g, part, v), (g.rows, part, v)

    @pytest.mark.parametrize("spec", _PRIME_SHAPES, ids=_PRIME_IDS)
    def test_decides_like_plain_search_on_substituted_hosts(self, spec):
        pattern = Pattern(make_pattern(spec))
        rng = random.Random(repr(spec))
        answers = set()
        for _ in range(180):
            g = substituted(rng, pattern.graph, 1)
            free = is_pattern_free(g, pattern)
            assert free == (pattern.embed(g.rows) is None), g.rows
            answers.add(free)
        assert answers == {True, False}

    @pytest.mark.parametrize("spec", [PatternSpec.cycle(8), PatternSpec.path(5)], ids=["C8", "P5"])
    def test_copy_inside_a_module(self, spec):
        # vertex 0 sees every other vertex and vertex 1 none of the rest, so
        # the modules nest; the only copy lies inside them, two levels down
        h = make_pattern(spec)
        rest = disjoint_union(Graph(1, [0]), h)
        universal = (1 << rest.n) - 1
        host = Graph(rest.n + 1, [universal << 1] + [(row << 1) | 1 for row in rest.rows])
        assert not is_pattern_free(host, h)

    def test_nested_modules_need_no_recursion(self):
        # threshold graph: vertex i sees all later vertices when i is odd and
        # none when even, so the modules nest 3,000 deep; it is P4-free
        n = 3000
        odd = sum(1 << i for i in range(1, n, 2))
        rows = [odd & ((1 << v) - 1) for v in range(n)]
        for v in range(1, n, 2):
            rows[v] |= ((1 << n) - 1) ^ ((2 << v) - 1)
        g = Graph._unchecked(n, tuple(rows))  # symmetric by construction
        assert is_pattern_free(g, make_pattern(PatternSpec.path(4)))
        assert not is_pattern_free(g, make_pattern(PatternSpec.star(3)))


def _threshold_from_first(n):
    """Vertex 0 first, then each later vertex sees every earlier one (odd)
    or none (even): the modules nest around vertex 0, so every module that
    avoids it is a singleton and the quotient is the whole host."""
    rows = [0] * n
    for v in range(1, n, 2):
        rows[v] = (1 << v) - 1
        for u in range(v):
            rows[u] |= 1 << v
    return Graph._unchecked(n, tuple(rows))  # symmetric by construction


def _order_table(order, n):
    """after[x]: the mask of the vertices that follow x in order."""
    after = [0] * n
    tail = 0
    for v in reversed(order):
        after[v] = tail
        tail |= 1 << v
    return after


def _prime_shapes_up_to_five():
    """One graph per isomorphism class of prime graphs on at most five
    vertices: P4, P5, C5, the bull and the house."""
    shapes = []
    for atlas in nx.graph_atlas_g()[1:]:
        if atlas.number_of_nodes() > 5:
            break
        h = graph_from_edges(atlas.number_of_nodes(), atlas.edges())
        if Pattern(h).prime:
            shapes.append(h)
    return shapes


class TestRankedDecision:
    """is_pattern_free ranks the vertices of each mask it searches by degree
    inside it; the orbit constraints keep one embedding per copy under that
    order, so it answers as the index-ordered Pattern.embed does."""

    def test_every_small_host(self):
        patterns = [Pattern(h) for h in _prime_shapes_up_to_five()]
        assert len(patterns) == 5
        seen = set()
        for n in range(7):
            for g in all_graphs(n):
                for pattern in patterns:
                    free = is_pattern_free(g, pattern)
                    assert free == (pattern.embed(g.rows) is None), (g.rows, pattern.graph.rows)
                    seen.add(free)
        assert seen == {True, False}

    @pytest.mark.parametrize("spec", [PatternSpec.path(7), PatternSpec.cycle(8)], ids=["P7", "C8"])
    def test_seeded_hosts(self, spec):
        pattern = Pattern(make_pattern(spec))
        rng = random.Random(repr(spec))
        seen = set()
        for n in range(8, 17):
            for p in (0.2, 0.35, 0.5, 0.65):
                g = _gnp(rng, n, p)
                free = is_pattern_free(g, pattern)
                assert free == (pattern.embed(g.rows) is None), g.rows
                seen.add(free)
        assert seen == {True, False}

    @given(graphs(max_n=8), graphs(max_n=5).filter(lambda h: h.n >= 1),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_any_total_order_decides_alike(self, g, h, rnd):
        # the search with a rank table returns an embedding that puts every
        # constrained pair in that order, and finds one exactly when the
        # index-ordered search does
        pattern = Pattern(h)
        order = list(range(g.n))
        rnd.shuffle(order)
        want = pattern.embed(g.rows)
        doms = pattern._domains(g.rows, (1 << g.n) - 1)
        if doms is None:
            assert want is None
            return
        got = matcher._search(pattern._steps, pattern._later, g.rows, doms,
                              after=_order_table(order, g.n))[0]
        assert (got is None) == (want is None)
        if got is not None:
            assert all(g.has_edge(got[i], got[j]) == h.has_edge(i, j)
                       for i, j in itertools.combinations(range(h.n), 2))
            rank = {v: i for i, v in enumerate(order)}
            assert satisfies_constraints(pattern, got, rank)

    def test_rank_puts_low_degree_first(self):
        # a star's leaves (degree 1) come before its centre; ties by index
        star = make_pattern(PatternSpec.star(3))
        assert matcher._rank_after(star.rows, 15) == [0, 0b1100 | 1, 0b1000 | 1, 1]
        assert Pattern(make_pattern(PatternSpec.path(3)))._domains(star.rows, 15) == [0b1110, 1, 0b1110]
        # inside a mask, degrees count only the mask's members
        assert matcher._rank_after(star.rows, 0b0011) == [0b0010, 0, 0, 0]
        assert matcher._rank_after(star.rows, 0b1011) == [0, 0b1001, 0, 0b0001]

    @pytest.mark.parametrize("spec", [PatternSpec.path(4), PatternSpec.path(5)], ids=["P4", "P5"])
    def test_threshold_graph_numbered_from_its_first_vertex(self, spec):
        # every module avoiding the pivot is a singleton, so the quotient is
        # all 300 vertices; index order took about 2 s here, the degree rank
        # starts each try at a low-degree vertex and takes tens of ms
        g = _threshold_from_first(300)
        h = make_pattern(spec)
        start = time.perf_counter()
        assert is_pattern_free(g, h)
        assert time.perf_counter() - start < 0.4
        assert not is_pattern_free(g, make_pattern(PatternSpec.star(3)))


_PLANNED_SPECS = [PatternSpec.path(7), PatternSpec.path(8), PatternSpec.cycle(8),
                  PatternSpec.complement_of(PatternSpec.path(7))]


class TestDecisionPlans:
    """A decision places the pattern's vertices in one order read off its
    orbit constraints; it must answer as the index-ordered search does."""

    @staticmethod
    def answers(hosts, patterns):
        seen = set()
        for g in hosts:
            full = (1 << g.n) - 1
            for pattern in patterns:
                want = pattern.embed(g.rows) is None
                assert (not pattern._occurs_within(g.rows, full)) == want, (g.rows, pattern.graph.rows)
                assert is_pattern_free(g, pattern) == want, (g.rows, pattern.graph.rows)
                seen.add(want)
        assert any(pattern._plan() is not pattern for pattern in patterns)
        return seen

    def test_every_host_up_to_seven_vertices(self):
        # every isomorphism class up to seven vertices, in the atlas's
        # labelling and in a seeded relabelling, against the prime patterns
        # up to five vertices and C4, which is not prime
        patterns = [Pattern(h) for h in _prime_shapes_up_to_five()]
        patterns.append(Pattern(make_pattern(PatternSpec.cycle(4))))
        rng = random.Random(7)
        hosts = []
        for atlas in nx.graph_atlas_g()[1:]:
            n = atlas.number_of_nodes()
            relabel = list(range(n))
            rng.shuffle(relabel)
            hosts.append(graph_from_edges(n, atlas.edges()))
            hosts.append(graph_from_edges(n, [(relabel[u], relabel[v]) for u, v in atlas.edges()]))
        assert self.answers(hosts, patterns) == {True, False}

    @pytest.mark.parametrize("spec", _PLANNED_SPECS, ids=["P7", "P8", "C8", "co-P7"])
    def test_seeded_hosts(self, spec):
        pattern = Pattern(make_pattern(spec))
        rng = random.Random(repr(spec))
        hosts = [_gnp(rng, n, p) for n in range(8, 19) for p in (0.15, 0.5, 0.85) for _ in range(2)]
        assert self.answers(hosts, [pattern]) == {True, False}

    def test_orders_of_the_gadget_patterns(self):
        # each orbit constraint's second vertex comes one level after its
        # first: a path's far end after its first end, a cycle's two
        # neighbours of 0 right after 0
        def plan_is(spec, order):
            pattern = Pattern(make_pattern(spec))
            return pattern._plan().graph == matcher._listed(pattern.graph, order)

        assert plan_is(PatternSpec.path(7), (0, 6, 1, 2, 3, 4, 5))
        assert plan_is(PatternSpec.path(8), (0, 7, 1, 2, 3, 4, 5, 6))
        assert plan_is(PatternSpec.cycle(8), (0, 1, 7, 2, 3, 4, 5, 6))
        assert plan_is(PatternSpec.complement_of(PatternSpec.path(7)), (0, 6, 1, 2, 3, 4, 5))

    def test_plan_is_the_relabelled_pattern(self):
        pattern = Pattern(make_pattern(PatternSpec.path(7)))
        plan = pattern._plan()
        assert plan is matcher.prepared(plan.graph)
        assert plan.graph != pattern.graph
        # patterns whose orbit constraints chain in index order keep it
        for spec in (PatternSpec.complete(4), PatternSpec.star(5)):
            pattern = Pattern(make_pattern(spec))
            assert pattern._plan() is pattern

    def test_one_plan_at_every_density(self, monkeypatch):
        listed = []
        relabel = matcher._listed
        monkeypatch.setattr(matcher, "_listed", lambda *args: listed.append(args) or relabel(*args))
        pattern = Pattern(make_pattern(PatternSpec.path(7)))
        rng = random.Random(5)
        plans = set()
        for _ in range(10):
            for p in (0.2, 0.5, 0.8):
                g = _gnp(rng, 30, p)
                pattern._occurs_within(g.rows, (1 << g.n) - 1)
                plans.add(id(pattern._plan()))
        assert len(listed) == 1 and len(plans) == 1
        assert pattern._plan() is not pattern

    def test_capped_automorphisms_keep_index_order(self, monkeypatch):
        # past the work cap only twin swaps give constraints: none for the
        # gadget patterns, so they keep index order; C4's two twin pairs
        # still reorder it, and every plan is a relabelling of its pattern
        monkeypatch.setattr(matcher, "_ORBIT_WORK", 12)
        # capped plans go to a cache of their own, dropped after the test
        monkeypatch.setattr(matcher, "prepared", lru_cache(maxsize=None)(Pattern))
        rng = random.Random(11)
        for spec in _PLANNED_SPECS + [PatternSpec.cycle(4)]:
            pattern = Pattern(make_pattern(spec))
            seen = set()
            for n in range(8, 19):
                for p in (0.15, 0.5, 0.85):
                    g = _gnp(rng, n, p)
                    full = (1 << g.n) - 1
                    want = pattern.embed(g.rows) is None
                    assert (not pattern._occurs_within(g.rows, full)) == want
                    seen.add(want)
            plan = pattern._plan()
            assert nx.is_isomorphic(nx.Graph(plan.graph.edges()), nx.Graph(pattern.graph.edges()))
            assert (plan is pattern) == (spec in _PLANNED_SPECS)
            assert seen == {True, False}

    def test_one_pattern_per_graph(self, monkeypatch):
        built = []
        init = Pattern.__init__

        def counting(self, h):
            built.append(h)
            init(self, h)

        monkeypatch.setattr(Pattern, "__init__", counting)
        matcher.prepared.cache_clear()
        rng = random.Random(19)
        hosts = [_gnp(rng, 14, 0.5) for _ in range(100)]
        p7 = make_pattern(PatternSpec.path(7))
        for g in hosts:
            is_pattern_free(g, make_pattern(PatternSpec.path(7)))
        # the pattern and its one plan
        assert built == [p7, matcher.prepared(p7)._plan().graph]


def first_fit_colours(rows, within):
    """Colours first-fit gives the host's induced subgraph on within, each
    vertex in index order taking the least colour no earlier neighbour has."""
    colour = {}
    for v in range(len(rows)):
        if within >> v & 1:
            used = {colour[u] for u in colour if rows[v] >> u & 1}
            colour[v] = next(c for c in itertools.count() if c not in used)
    return len(set(colour.values()))


class TestColouringBound:
    """matcher.greedy_colourable against first-fit colouring, and the clique
    bound it gives."""

    @staticmethod
    def check(g, withins):
        rows = g.rows
        for within in withins:
            need = first_fit_colours(rows, within)
            for k in range(-1, g.n + 2):
                covered = matcher.greedy_colourable(rows, within, k)
                assert covered == (0 <= k and need <= k), (rows, within, k)
                if covered:
                    assert matcher.least_clique(rows, within, k + 1) is None

    def test_every_graph_and_mask_up_to_five(self):
        for n in range(6):
            for g in all_graphs(n):
                self.check(g, range(1 << n))

    def test_seeded_graphs(self):
        rng = random.Random(23)
        for n in range(6, 13):
            for p in (0.2, 0.5, 0.8):
                g = _gnp(rng, n, p)
                self.check(g, [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)])

    def test_whole_host_clique_checks_are_bounded(self, monkeypatch):
        # K_t-free hosts missing a few disjoint edges, where a clique search
        # walks the cliques of almost every size: a greedy colouring with
        # t - 1 classes covers them, so no embedding search runs
        def no_search(*args, **kwargs):
            raise AssertionError("the colouring bound should have decided")

        n = 38
        full = (1 << n) - 1
        cocktail = Graph(n, [full ^ 1 << v ^ 1 << (v ^ 1) for v in range(n)])
        near = list(make_pattern(PatternSpec.complete(402)).rows)
        for u, v in ((398, 399), (400, 401)):
            near[u] ^= 1 << v
            near[v] ^= 1 << u
        monkeypatch.setattr(matcher.Pattern, "embed", no_search)
        assert is_pattern_free(cocktail, make_pattern(PatternSpec.complete(20)))
        assert is_pattern_free(complement(cocktail), make_pattern(PatternSpec.empty(20)))
        assert is_pattern_free(Graph(402, near), make_pattern(PatternSpec.complete(401)))

    def test_edge_cases(self):
        rows = make_pattern(PatternSpec.path(3)).rows
        # the empty clique is everywhere; no colour covers a vertex
        assert not matcher.greedy_colourable(rows, 0, -1)
        assert matcher.greedy_colourable(rows, 0, 0)
        assert not matcher.greedy_colourable(rows, 0b001, 0)
        assert matcher.greedy_colourable(rows, 0b101, 1)
        # K1 is a clique closure of order 1: free exactly when the host is empty
        k1 = make_pattern(PatternSpec.complete(1))
        assert Pattern(k1).peel == ((), "clique", Pattern(k1))
        assert is_pattern_free(Graph(0, []), k1)
        assert not is_pattern_free(Graph(1, [0]), k1)
        assert not is_pattern_free(Graph(2, [0, 0]), make_pattern(PatternSpec.empty(2)))
        assert is_pattern_free(Graph(2, [2, 1]), make_pattern(PatternSpec.empty(2)))


def _wheel(rim):
    """The hub 0 joined to the cycle 1..rim."""
    edges = [(0, i) for i in range(1, rim + 1)] + [(i, i % rim + 1) for i in range(1, rim + 1)]
    return graph_from_edges(rim + 1, edges)


def _peelable_shapes():
    """One graph per isomorphism class with at most five vertices and a
    universal or isolated vertex, plus W5."""
    shapes = []
    for atlas in nx.graph_atlas_g()[1:]:
        n = atlas.number_of_nodes()
        if n > 5:
            break
        h = graph_from_edges(n, atlas.edges())
        if any(row.bit_count() in (0, n - 1) for row in h.rows):
            shapes.append(h)
    return shapes + [_wheel(5)]


def _blown_up(rng, h, true_twins):
    """A random graph, or sometimes h, with each vertex replaced by a class
    of one to four twins, vertex order shuffled: true twins (the class is a
    clique) or false twins (an independent set)."""
    base = h if rng.random() < 0.3 else random_graph(rng, rng.randint(2, 6))
    sizes = [rng.randint(1, 4) for _ in range(base.n)]
    owner = [v for v, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(owner)
    n = len(owner)
    rows = [sum(1 << y for y in range(n) if y != x and (
        base.has_edge(owner[x], owner[y]) or (true_twins and owner[x] == owner[y])))
        for x in range(n)]
    return Graph(n, rows)


def _gnp(rng, n, p):
    return graph_from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


class TestPeel:
    """is_pattern_free peels universal and isolated pattern vertices; it
    must answer as the plain orbit-constrained search does."""

    @staticmethod
    def answers(hosts, patterns):
        seen = set()
        for g in hosts:
            for pattern in patterns:
                free = is_pattern_free(g, pattern)
                assert free == (pattern.embed(g.rows) is None), (g.rows, pattern.graph.rows)
                seen.add(free)
        return seen

    def test_shapes(self):
        shapes = _peelable_shapes()
        assert len(shapes) == 38
        assert all(Pattern(h).peel is not None for h in shapes)

    def test_every_small_host(self):
        patterns = [Pattern(h) for h in _peelable_shapes()]
        hosts = [g for n in range(6) for g in all_graphs(n)]
        assert self.answers(hosts, patterns) == {True, False}

    def test_seeded_hosts(self):
        patterns = [Pattern(h) for h in _peelable_shapes()]
        rng = random.Random(13)
        hosts = [_gnp(rng, n, p) for n in range(6, 31) for p in (0.15, 0.5, 0.85)]
        assert self.answers(hosts, patterns) == {True, False}

    def test_substituted_hosts(self):
        # full of modules, so copies of h span several modules or lie
        # inside one
        rng = random.Random(17)
        seen = set()
        for h in _peelable_shapes():
            seen |= self.answers([substituted(rng, h, 1) for _ in range(30)], [Pattern(h)])
        assert seen == {True, False}

    @pytest.mark.parametrize("true_twins", [True, False], ids=["true-twins", "false-twins"])
    def test_twin_heavy_hosts(self, true_twins):
        # the first peel level decides one vertex per twin class; blown-up
        # hosts have classes of up to four twins of either kind
        rng = random.Random(29 + true_twins)
        seen = set()
        for h in _peelable_shapes():
            seen |= self.answers([_blown_up(rng, h, true_twins) for _ in range(20)], [Pattern(h)])
        assert seen == {True, False}

    def test_plans(self):
        def plan(spec):
            return Pattern(make_pattern(spec)).peel

        def pattern(spec):
            return Pattern(make_pattern(spec))

        assert plan(PatternSpec.star(5)) == ((True,), "coclique", pattern(PatternSpec.empty(5)))
        assert plan(PatternSpec.complement_of(PatternSpec.star(5))) == (
            (False,), "clique", pattern(PatternSpec.complete(5)))
        assert plan(PatternSpec.complete(4)) == ((), "clique", pattern(PatternSpec.complete(4)))
        assert plan(PatternSpec.empty(3)) == ((), "coclique", pattern(PatternSpec.empty(3)))
        # a pattern that does not peel is its own rest
        p4 = pattern(PatternSpec.path(4))
        sides, kind, rest = p4.peel
        assert (sides, kind) == ((), "pattern") and rest is p4
        sides, kind, rest = Pattern(_wheel(5)).peel
        assert (sides, kind) == ((True,), "pattern")
        assert rest.graph == make_pattern(PatternSpec.cycle(5)) and rest.prime

    def test_large_patterns_keep_the_explicit_stack(self):
        # large patterns peel too, and their ends search on the explicit stack
        star = make_pattern(PatternSpec.star(1000))
        assert Pattern(star).peel == ((True,), "coclique", Pattern(make_pattern(PatternSpec.empty(1000))))
        assert not is_pattern_free(star, star)
        co_star = make_pattern(PatternSpec.complement_of(PatternSpec.star(1000)))
        assert not is_pattern_free(co_star, co_star)
        k1100 = make_pattern(PatternSpec.complete(1100))
        assert not is_pattern_free(make_pattern(PatternSpec.complete(1200)), k1100)
        assert is_pattern_free(make_pattern(PatternSpec.complete(1099)), k1100)

    def test_peeled_decisions_need_no_recursion(self):
        # every end of a peel is a colouring bound and an embedding search,
        # both loops on explicit stacks, so patterns of any order decide
        # within the interpreter's default limit of 1000 frames
        k401 = make_pattern(PatternSpec.complete(401))
        e401 = make_pattern(PatternSpec.empty(401))
        star = make_pattern(PatternSpec.star(450))
        assert Pattern(star).peel[:2] == ((True,), "coclique")

        def missing_last_pair(g):
            rows = list(g.rows)
            rows[g.n - 2] ^= 1 << (g.n - 1)
            rows[g.n - 1] ^= 1 << (g.n - 2)
            return Graph(g.n, rows)

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert not is_pattern_free(make_pattern(PatternSpec.complete(402)), k401)
            assert is_pattern_free(missing_last_pair(k401), k401)
            assert not is_pattern_free(missing_last_pair(make_pattern(PatternSpec.complete(402))), k401)
            assert not is_pattern_free(make_pattern(PatternSpec.empty(402)), e401)
            assert is_pattern_free(missing_last_pair(e401), e401)
            assert not is_pattern_free(make_pattern(PatternSpec.star(451)), star)
            # the leaves of a K1,450 with one edge among them hold no E_450
            assert is_pattern_free(missing_last_pair(star), star)
        finally:
            sys.setrecursionlimit(limit)


class TestDegeneracy:
    def test_null_graph_rejected(self):
        with pytest.raises(NullGraph):
            degeneracy(Graph(0, []))

    @pytest.mark.parametrize(
        "spec,expect",
        [
            (PatternSpec.empty(4), 0),
            (PatternSpec.path(6), 1),
            (PatternSpec.star(5), 1),
            (PatternSpec.cycle(7), 2),
            (PatternSpec.complete(5), 4),
        ],
    )
    def test_known_values(self, spec, expect):
        assert degeneracy(make_pattern(spec)) == expect

    @given(graphs(max_n=7).filter(lambda g: g.n >= 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_core_number(self, g):
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        expect = max(nx.core_number(ng).values()) if g.n else 0
        assert degeneracy(g) == expect


class TestHelpers:
    def test_is_module(self):
        # in K_{1,3} the leaves form a module, a leaf-plus-center does not
        star = make_pattern(PatternSpec.star(3))
        assert is_module(star, VertexSet.from_members([1, 2, 3], 4))
        assert not is_module(star, VertexSet.from_members([0, 1], 4))


class TestVertexSet:
    def test_round_trip(self):
        s = VertexSet.from_members([0, 2, 5], 6)
        assert s.members() == (0, 2, 5)
        assert len(s) == 3
        assert 2 in s and 1 not in s

    def test_rejects_bits_past_cap(self):
        with pytest.raises(ValueError):
            VertexSet(0b100, 2)


def g6_encode_bitwise(g):
    """graph6 one adjacency bit at a time, for n <= 258047: the reference
    encoder."""
    n = g.n
    size = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    out = bytearray(x + 63 for x in size)
    acc = nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | ((g.rows[v] >> u) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def g6_decode_bitwise(data):
    """graph6 decoded one adjacency bit at a time: the reference decoder,
    with the same checks, messages and offsets."""
    if isinstance(data, str):
        data = data.encode("ascii")
    if not data:
        raise MalformedG6("empty input", 0)
    for i, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise MalformedG6(f"byte {byte:#x} outside graph6 range", i)
    pos = 0
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
        raise MalformedG6(f"n is {n}; at most {MAX_JSON_VERTICES} vertices are accepted",
                          {4: 1, 8: 2}[pos])
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise MalformedG6(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}",
            min(pos + nbytes, len(data)),
        )
    rows = [0] * n
    u, v = 0, 1
    bit = 0
    for i in range(nbytes):
        group = data[pos + i] - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if (group >> k) & 1:
                    raise MalformedG6("nonzero padding bits", pos + i)
                continue
            if (group >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
            u += 1
            if u == v:
                u = 0
                v += 1
    return tuple(rows)


def _decode_outcome(decode, data):
    """The rows on success; else the error's message and offset."""
    try:
        result = decode(data)
    except MalformedG6 as err:
        return ("MalformedG6", str(err), err.offset)
    return ("rows", result if isinstance(result, tuple) else result.rows)


def _g6_corruptions():
    """Malformed inputs for every branch of the decoder."""
    rng = random.Random(12)
    valid = [g6_encode(_gnp(rng, n, 0.5)) for n in (0, 1, 2, 3, 5, 7, 12, 62, 63, 64, 70)]
    for data in valid:
        for i in range(len(data)):
            for bad in (0x00, 0x20, 0x3E, 0x7F, 0xFF):
                yield data[:i] + bytes([bad]) + data[i + 1 :]
        yield data + b"?"  # one body byte too many
        yield data[:-1]  # one too few, or a cut size word
        for k in range(6):  # each bit of the last byte, padding or not
            yield data[:-1] + bytes([63 + ((data[-1] - 63) ^ (1 << k))])
    # truncated 3- and 6-byte size words
    for k in range(1, 4):
        yield b"~" + b"?" * k
    for k in range(0, 6):
        yield b"~~" + b"?" * k
    yield b"~"
    # non-canonical size words: n <= 62 in three bytes, n <= 258047 in six
    yield b"~??}"
    yield b"~??~" + b"?" * 31
    yield b"~~" + b"?" * 6
    yield b"~~??~~~~"
    yield b"~~" + b"???" + b"@??"
    # vertex cap: n = 16,384 is accepted, 16,385 refused, and every
    # canonical six-byte size word is above it
    yield b"~C??"
    yield b"~C?@"


class TestGraph6:
    def test_decode_matches_bitwise_reference(self):
        for n in range(7):
            for g in all_graphs(n):
                data = g6_encode(g)
                assert g6_decode(data).rows == g6_decode_bitwise(data), g.rows
        rng = random.Random(7)
        for n in (7, 8, 12, 13, 62, 63, 64, 127, 130, 258, 300, 400):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                data = g6_encode(_gnp(rng, n, p))
                assert g6_decode(data).rows == g6_decode_bitwise(data), (n, p)
        branches = set()
        for data in _g6_corruptions():
            expected = _decode_outcome(g6_decode_bitwise, data)
            assert _decode_outcome(g6_decode, data) == expected, data
            assert _decode_outcome(g6_decode, data.decode("latin-1")) == expected, data
            if expected[0] == "MalformedG6":
                words = expected[1].split()
                branch = words[0] if words[0] in ("byte", "expected") else " ".join(words[:2])
                branches.add((branch, expected[2] if branch == "non-canonical size" else None))
        assert branches == {
            ("byte", None),
            ("expected", None),
            ("empty input", None),
            ("nonzero padding", None),
            ("truncated 3-byte", None),
            ("truncated 6-byte", None),
            ("non-canonical size", 1),
            ("non-canonical size", 2),
            ("n is", None),
        }

    def test_non_ascii_character_is_malformed(self):
        for text, offset, code in (("\u00e9", 0, 0xE9), ("Bw\u20ac", 2, 0x20AC), ("B \u00e9", 1, 0x20)):
            with pytest.raises(MalformedG6) as err:
                g6_decode(text)
            assert err.value.offset == offset
            assert str(err.value) == f"byte {code:#x} outside graph6 range (byte offset {offset})"

    def test_oversized_input_decodes_in_bounded_time_and_memory(self):
        # a seeded 2,000-vertex graph: 333 KB of graph6
        n = 2000
        nbytes = (n * (n - 1) // 2 + 5) // 6
        to_g6 = bytes.maketrans(bytes(range(256)), bytes(63 + (b & 63) for b in range(256)))
        body = bytearray(random.Random(2000).randbytes(nbytes).translate(to_g6))
        body[-1] = 63 + ((body[-1] - 63) & ~3)  # the last two bits are padding
        data = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]) + body
        start = time.perf_counter()
        g = g6_decode(data)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        assert g.n == n and g6_encode(g) == data
        assert sum(map(int.bit_count, g.rows)) == 2 * sum((b - 63).bit_count() for b in body)
        tracemalloc.start()
        try:
            g6_decode(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_vertex_cap(self):
        # the size word alone declares n; above the cap nothing of size n^2
        # is allocated, and the error points at the size word
        at_cap, above = b"~C??", b"~C?@"  # n = 16,384 and 16,385
        with pytest.raises(MalformedG6) as err:
            g6_decode(above)
        assert err.value.offset == 1
        assert str(err.value) == (
            f"n is {MAX_JSON_VERTICES + 1}; at most {MAX_JSON_VERTICES} vertices"
            " are accepted (byte offset 1)")
        with pytest.raises(MalformedG6, match="adjacency bytes for n=16384"):
            g6_decode(at_cap)
        with pytest.raises(MalformedG6, match="at most") as err:
            g6_decode(b"~~???~??")  # 258,048 vertices, the least six-byte n
        assert err.value.offset == 2

    def test_encode_matches_bitwise_reference(self):
        for n in range(7):
            for g in all_graphs(n):
                assert g6_encode(g) == g6_encode_bitwise(g), g.rows
        rng = random.Random(6)
        for n in (7, 8, 12, 13, 62, 63, 64, 127, 130, 258, 300, 400):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                g = _gnp(rng, n, p)
                assert g6_encode(g) == g6_encode_bitwise(g), (n, p)

    def test_frozen_values(self):
        assert g6_encode(make_pattern(PatternSpec.complete(3))) == b"Bw"
        assert g6_encode(Graph(0, [])) == b"?"
        assert g6_decode(b"Bw") == make_pattern(PatternSpec.complete(3))
        assert g6_decode(b"?").n == 0

    @given(graphs(max_n=12))
    def test_round_trip(self, g):
        assert g6_decode(g6_encode(g)) == Graph(g.n, g.rows)

    @given(graphs(max_n=9))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_networkx(self, g):
        ng = nx.from_graph6_bytes(g6_encode(g))
        assert set(ng.nodes) == set(range(g.n))
        assert {frozenset(e) for e in ng.edges} == {frozenset(e) for e in g.edges()}

    def test_long_size_word(self):
        g = Graph(63, (0,) * 63)
        data = g6_encode(g)
        assert data[0] == 126
        assert g6_decode(data).n == 63

    @pytest.mark.parametrize(
        "data,offset",
        [
            (b"", 0),
            (b"B\x20", 1),  # byte below range
            (b"Bw~", 2),  # trailing garbage
            (b"B", 1),  # missing adjacency byte
            (b"A\x7f", 1),  # byte above range (127)
        ],
    )
    def test_malformed_inputs_carry_offset(self, data, offset):
        with pytest.raises(MalformedG6) as err:
            g6_decode(data)
        assert err.value.offset == offset

    @pytest.mark.parametrize("n,seed", [(40, 1), (126, 2), (200, 3)])
    def test_decode_agrees_with_networkx_at_larger_n(self, n, seed):
        ng = nx.gnp_random_graph(n, 0.3, seed=seed)
        data = nx.to_graph6_bytes(ng, header=False).strip()
        g = g6_decode(data)
        assert g.n == n
        assert set(g.edges()) == {(min(e), max(e)) for e in ng.edges}
        assert g6_encode(g) == data

    def test_padding_error_offset_is_last_byte(self):
        # C5 has 10 adjacency bits in two bytes, so the last two bits pad
        data = bytearray(g6_encode(make_pattern(PatternSpec.cycle(5))))
        data[-1] += 1
        with pytest.raises(MalformedG6) as err:
            g6_decode(bytes(data))
        assert err.value.offset == len(data) - 1

    def test_nonzero_padding_rejected(self):
        # K2's encoding is "A_"; "A" + chr(63+1) sets a padding bit
        assert g6_decode(b"A_") == make_pattern(PatternSpec.complete(2))
        with pytest.raises(MalformedG6):
            g6_decode(bytes([65, 63 + 1]))


class TestJson:
    @given(graphs(max_n=8))
    def test_round_trip(self, g):
        assert graph_from_json(graph_to_json(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2}',
            '{"n": -1, "edges": []}',
            '{"n": 2, "edges": [[0, 0]]}',
            '{"n": 2, "edges": [[0, 1], [1, 0]]}',
            '{"n": 2, "edges": [[0, 5]]}',
        ],
    )
    def test_bad_documents_rejected(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": true, "edges": []}',
            '{"n": 2, "edges": [[true, false]]}',
            '{"n": 2, "edges": [[0, true]]}',
            '{"n": 2, "edges": {"0": 1}}',
            '{"n": 2, "edges": [], "labels": [1, 2]}',
            '{"n": 2, "edges": [], "labels": ["a", "b", "c"]}',
            '{"n": 2, "edges": [], "labels": ["a"]}',
            '{"n": 2, "edges": [], "labels": "ab"}',
        ],
    )
    def test_hostile_documents_rejected(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)

    def test_vertex_cap(self):
        assert graph_from_json(f'{{"n": {MAX_JSON_VERTICES}, "edges": [[0, 1]]}}').n == MAX_JSON_VERTICES
        for n in (MAX_JSON_VERTICES + 1, 1 << 62):
            with pytest.raises(ValueError, match="at most"):
                graph_from_json(f'{{"n": {n}, "edges": []}}')

    def test_null_labels_mean_none(self):
        assert graph_from_json('{"n": 1, "edges": [], "labels": null}') == Graph(1, [0])


def test_public_surface():
    # every export resolves; the removed names stay removed
    import subcomp
    from subcomp import split

    for name in subcomp.__all__:
        assert getattr(subcomp, name) is not None, name
    for name in ("find_induced", "InducedCopy", "all_adjacent", "kt_free_recognizer"):
        assert name not in subcomp.__all__
        assert not hasattr(subcomp, name)
    assert not hasattr(Pattern, "vertex_transitive")
    assert not hasattr(SplitPartition, "to_json")
    assert not hasattr(Assignment, "to_json")
    assert split.least_clique is matcher.least_clique
    # within is keyword-only: a stale embed(rows, True) must not read as within=1
    k3 = make_pattern(PatternSpec.complete(3))
    with pytest.raises(TypeError):
        Pattern(k3).embed(k3.rows, True)


_VS = VertexSet.from_members([0], 2)
_VALUE_MAKERS = {
    "Graph": lambda: graph_from_edges(2, [(0, 1)]),
    "VertexSet": lambda: VertexSet.from_members([0], 2),
    "PatternSpec": lambda: PatternSpec.complement_of(PatternSpec.path(4)),
    "Pattern": lambda: Pattern(make_pattern(PatternSpec.path(3))),
    "RamseyBound": lambda: RamseyBound(3, 3, 6, True),
    "SplitPartition": lambda: SplitPartition(1, 1, _VS, VertexSet(0b10, 2)),
    "SolveReport": lambda: SolveReport("Yes", _VS, {"elapsed": 0.0}, True),
    "GadgetInstance": lambda: GadgetInstance(Graph(0, []), "K15", [], {"phi": None}),
    "CnfFormula": lambda: CnfFormula(4, [[1, -2, 3, 4]]),
    "Assignment": lambda: Assignment([True, False]),
}


class TestFrozen:
    """Every value class is immutable and compares by value."""

    @pytest.mark.parametrize("name", list(_VALUE_MAKERS))
    def test_immutable_with_value_equality(self, name):
        make = _VALUE_MAKERS[name]
        a, b = make(), make()
        assert type(a).__name__ == name
        assert a == b and a is not b
        assert not (a != b)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            a.extra = 1
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(a, type(a).__slots__[0], None)

    def test_hash_follows_equality(self):
        assert hash(PatternSpec.path(4)) == hash(PatternSpec.path(4))
        assert PatternSpec.path(4) != PatternSpec.cycle(4)
        assert VertexSet(1, 2) != VertexSet(1, 3)
        assert VertexSet(1, 2) != Graph(0, [])
        # a dict field hashes by its items, whatever their insertion order
        a = SolveReport("No", None, {"subsets_examined": 3, "elapsed": 0.5}, False)
        b = SolveReport("No", None, {"elapsed": 0.5, "subsets_examined": 3}, False)
        assert a == b and hash(a) == hash(b)
        assert a != SolveReport("No", None, {"subsets_examined": 4, "elapsed": 0.5}, False)
        phi = CnfFormula(4, [[1, -2, 3, 4]])
        g = GadgetInstance(Graph(0, []), "K15", [], {"phi": phi, "dummy_clause_added": False})
        h = GadgetInstance(Graph(0, []), "K15", [], {"dummy_clause_added": False, "phi": phi})
        assert g == h and hash(g) == hash(h)

    def test_report_json_is_a_copy(self):
        # editing the JSON document, as callers that strip elapsed do,
        # leaves the report's own stats alone
        r = SolveReport("No", None, {"subsets_examined": 3, "elapsed": 0.5}, False)
        del r.to_json()["stats"]["elapsed"]
        assert r.stats == {"subsets_examined": 3, "elapsed": 0.5}
