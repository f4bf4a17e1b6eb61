"""Split-partition search and enumeration against an exhaustive oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcomp import split
from subcomp.errors import InvalidArgs, InvalidSeed
from subcomp.graphs import Graph, PatternSpec, VertexSet, complement, disjoint_union, induced, make_pattern
from subcomp.solvers import _region_masks
from subcomp.split import (
    RamseyBound,
    SplitPartition,
    _seed_q,
    enumerate_split_partitions,
    find_split_partition,
    is_split_partition,
    ramsey_bound,
    region_q_sides,
)
from subcomp.verify import all_graphs, random_graph


@st.composite
def graphs(draw, max_n=6):
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


def oracle_partitions(g, p, q):
    """All valid (p, q)-split bipartitions by trying every subset as P."""

    def clique_free(verts, size):
        return not any(
            all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
            for combo in itertools.combinations(verts, size)
        )

    def independent_free(verts, size):
        return not any(
            not any(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
            for combo in itertools.combinations(verts, size)
        )

    out = []
    for pb in range(1 << g.n):
        pv = [v for v in range(g.n) if (pb >> v) & 1]
        qv = [v for v in range(g.n) if not (pb >> v) & 1]
        if clique_free(pv, p + 1) and independent_free(qv, q + 1):
            out.append(pb)
    return sorted(out)


def _exchange_sweep(g, p, q, seed, forced_p=0):
    """A reference that leans on the Ramsey bound: from a valid seed, sweep
    every exchange X ⊆ P and Y ⊆ Q below the bound and validate each
    candidate from scratch. Q sides, sorted by P side."""
    co_rows = complement(g).rows
    bound = ramsey_bound(p + 1, q + 1).value
    must = seed.Q.bits & forced_p
    y_room = bound - 1 - must.bit_count()
    if y_room < 0:
        return []
    pmem = VertexSet(seed.P.bits & ~forced_p, g.n).members()
    qmem = VertexSet(seed.Q.bits & ~forced_p, g.n).members()
    found = {}
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
    return [qb for _, qb in sorted(found.items())]


class TestRamseyBound:
    @pytest.mark.parametrize(
        "p,q,value,exact",
        [
            (1, 1, 1, True),
            (1, 7, 1, True),
            (2, 2, 2, True),
            (2, 9, 9, True),
            (5, 2, 5, True),
            (3, 3, 6, True),
            (3, 4, 9, True),
            (4, 3, 9, True),
            (3, 5, 14, True),
            (5, 3, 14, True),
            (4, 4, 18, True),
            (4, 5, 35, False),  # C(7, 3)
            (5, 5, 70, False),  # C(8, 4)
        ],
    )
    def test_table(self, p, q, value, exact):
        got = ramsey_bound(p, q)
        assert (got.value, got.exact) == (value, exact)

    def test_symmetry(self):
        for p, q in itertools.product(range(1, 7), repeat=2):
            assert ramsey_bound(p, q).value == ramsey_bound(q, p).value

    @pytest.mark.parametrize("p,q", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_nonpositive(self, p, q):
        with pytest.raises(InvalidArgs):
            ramsey_bound(p, q)


class TestFindSplitPartition:
    def test_path_on_four(self):
        # endpoints are the only edgeless pair covering the rest as a clique side
        p4 = make_pattern(PatternSpec.path(4))
        got = find_split_partition(p4, 1, 1)
        assert got.P == VertexSet.from_members([0, 3], 4)
        assert got.Q == VertexSet.from_members([1, 2], 4)

    def test_four_cycle_has_none(self):
        c4 = make_pattern(PatternSpec.cycle(4))
        assert find_split_partition(c4, 1, 1) is None

    def test_null_graph(self):
        got = find_split_partition(Graph(0, []), 1, 1)
        assert got is not None
        assert got.P.bits == 0 and got.Q.bits == 0

    @given(graphs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_oracle_on_existence(self, g, p, q):
        got = find_split_partition(g, p, q)
        valid = oracle_partitions(g, p, q)
        if got is None:
            assert valid == []
        else:
            assert got.P.bits in valid
            assert is_split_partition(g, p, q, got.P.bits, got.Q.bits)


    def test_deep_branch_needs_no_recursion(self):
        # K_n at p = q = 1 moves one vertex to Q per level, n - 1 levels
        got = find_split_partition(make_pattern(PatternSpec.complete(1200)), 1, 1)
        assert len(got.Q) == 1199
        assert got.P.members() == (1199,)

    @given(graphs(max_n=8), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_same_partition_as_recursive_search(self, g, p, q):
        """The search visits Q sides in the order of a plain recursive
        depth-first search over the vertices of the least clique."""

        def has_clique(verts, size, edge):
            return any(
                all(edge(a, b) for a, b in itertools.combinations(combo, 2))
                for combo in itertools.combinations(verts, size)
            )

        def least_clique(verts, size):
            for combo in itertools.combinations(verts, size):
                if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                    return combo
            return None

        seen = set()

        def solve(qset):
            if qset in seen:
                return None
            seen.add(qset)
            if has_clique(sorted(qset), q + 1, lambda a, b: not g.has_edge(a, b)):
                return None
            clique = least_clique([v for v in range(g.n) if v not in qset], p + 1)
            if clique is None:
                return qset
            for v in clique:
                got = solve(qset | {v})
                if got is not None:
                    return got
            return None

        expected = solve(frozenset())
        got = find_split_partition(g, p, q)
        if expected is None:
            assert got is None
        else:
            assert got.Q == VertexSet.from_members(expected, g.n)


def _subset_tables(g):
    """Clique and independence numbers of every vertex subset of g, indexed
    by mask."""
    co_rows = complement(g).rows
    omega, alpha = [0] * (1 << g.n), [0] * (1 << g.n)
    for m in range(1, 1 << g.n):
        v = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        omega[m] = max(omega[rest], 1 + omega[rest & g.rows[v]])
        alpha[m] = max(alpha[rest], 1 + alpha[rest & co_rows[v]])
    return omega, alpha


class TestIsSplitPartition:
    @pytest.mark.parametrize("p,q", [(-2, 1), (0, 1), (1, 0), (0, 0)])
    def test_rejects_nonpositive(self, p, q):
        k4 = make_pattern(PatternSpec.complete(4))
        with pytest.raises(InvalidArgs):
            is_split_partition(k4, p, q, 0b1111, 0)


class TestEnumerate:
    def test_path_on_three_has_exactly_three(self):
        p3 = make_pattern(PatternSpec.path(3))
        seed = find_split_partition(p3, 1, 1)
        got = enumerate_split_partitions(p3, 1, 1, seed)
        assert [sp.P.bits for sp in got] == [0b001, 0b100, 0b101]
        assert [sp.Q.bits for sp in got] == [0b110, 0b011, 0b010]

    def test_single_vertex_has_two(self):
        k1 = Graph(1, [0])
        seed = find_split_partition(k1, 1, 1)
        got = enumerate_split_partitions(k1, 1, 1, seed)
        assert len(got) == 2
        assert [sp.P.bits for sp in got] == [0, 1]

    def test_rejects_bad_seed(self):
        c4 = make_pattern(PatternSpec.cycle(4))
        fake = SplitPartition(1, 1, VertexSet(0b0011, 4), VertexSet(0b1100, 4))
        with pytest.raises(InvalidSeed):
            enumerate_split_partitions(c4, 1, 1, fake)

    def test_rejects_seed_with_wrong_cap(self):
        p3 = make_pattern(PatternSpec.path(3))
        fake = SplitPartition(1, 1, VertexSet(0b01, 2), VertexSet(0b10, 2))
        with pytest.raises(InvalidSeed):
            enumerate_split_partitions(p3, 1, 1, fake)

    @given(graphs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_complete_against_oracle(self, g, p, q):
        valid = oracle_partitions(g, p, q)
        seed = find_split_partition(g, p, q)
        if seed is None:
            assert valid == []
            return
        got = enumerate_split_partitions(g, p, q, seed)
        assert [sp.P.bits for sp in got] == valid
        for sp in got:
            assert sp.P.bits | sp.Q.bits == (1 << g.n) - 1
            assert sp.P.bits & sp.Q.bits == 0

    @given(graphs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_difference_bound(self, g, p, q):
        seed = find_split_partition(g, p, q)
        if seed is None:
            return
        bound = ramsey_bound(p + 1, q + 1).value
        got = enumerate_split_partitions(g, p, q, seed)
        for a, b in itertools.combinations(got, 2):
            assert (a.P.bits & b.Q.bits).bit_count() <= bound - 1
            assert (a.Q.bits & b.P.bits).bit_count() <= bound - 1

    def test_forced_p_matches_filtered_oracle(self):
        """With forced_p, exactly the oracle's partitions whose Q side misses
        the forced vertices: every graph with n <= 4 and every forced set
        from the search's seed, then seeded graphs with n <= 9, each grown
        from a random valid seed with a random forced set."""

        def check(g, p, q, seed, forced):
            expected = [pb for pb in oracle_partitions(g, p, q) if pb & forced == forced]
            got = enumerate_split_partitions(g, p, q, seed, forced)
            assert [sp.P.bits for sp in got] == expected, (g.rows, p, q, forced)
            assert all(sp.Q.bits & forced == 0 for sp in got)

        for n in range(5):
            for g in all_graphs(n):
                for p, q in itertools.product((1, 2), repeat=2):
                    seed = find_split_partition(g, p, q)
                    if seed is not None:
                        for forced in range(1 << n):
                            check(g, p, q, seed, forced)
        rng = random.Random(5)
        checked = 0
        while checked < 150:
            g = random_graph(rng, rng.randint(5, 9))
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            valid = oracle_partitions(g, p, q)
            if not valid:
                continue
            pb = rng.choice(valid)
            full = (1 << g.n) - 1
            seed = SplitPartition(p, q, VertexSet(pb, g.n), VertexSet(full ^ pb, g.n))
            check(g, p, q, seed, rng.getrandbits(g.n) & rng.getrandbits(g.n))
            checked += 1

    def test_region_core_matches_sweep(self):
        """region_q_sides equals the exchange sweep: on every graph with
        n <= 4, for every forced set and (p, q) in {1, 2, 3}^2, and on the
        four regions of a random pair u < v on each of 300 seeded hosts with n = 8-12 in
        the solver's calling shape (forced = region ∩ {0..v-1}), against the
        sweep on the induced region mapped back to host indices."""
        for n in range(5):
            full = (1 << n) - 1
            for g in all_graphs(n):
                co_rows = complement(g).rows
                for p, q in itertools.product((1, 2, 3), repeat=2):
                    seed = find_split_partition(g, p, q)
                    for forced in range(1 << n):
                        got = region_q_sides(g.rows, co_rows, full, p, q, forced)
                        want = [] if seed is None else _exchange_sweep(g, p, q, seed, forced)
                        assert got == want, (g.rows, p, q, forced)
        rng = random.Random(9)
        for _ in range(300):
            g = random_graph(rng, rng.randint(8, 12))
            co_rows = complement(g).rows
            u, v = sorted(rng.sample(range(g.n), 2))
            t = rng.randint(2, 4)
            lo, hi = max(t - 2, 1), t - 1
            for mask, (p, q) in zip(_region_masks(g, u, v), ((lo, hi), (hi, lo), (lo, lo), (lo, lo))):
                forced = mask & ((1 << v) - 1)
                got = region_q_sides(g.rows, co_rows, mask, p, q, forced)
                verts = VertexSet(mask, g.n).members()
                sub = induced(g, VertexSet(mask, g.n))
                seed = find_split_partition(sub, p, q)
                want = []
                if seed is not None:
                    local = (1 << (mask & ((1 << v) - 1)).bit_count()) - 1
                    for qb in _exchange_sweep(sub, p, q, seed, local):
                        want.append(sum(1 << verts[j] for j in VertexSet(qb, sub.n).members()))
                assert got == want, (g.rows, u, v, mask, p, q)

    def test_seed_keeps_forced_vertices_on_p(self):
        """_seed_q with a forced mask finds a partition exactly when one has
        Q ∩ forced = ∅, and then returns a valid one: every graph with
        n <= 5, every forced mask, (p, q) in {1, 2, 3}^2. The reference
        reads clique and independence numbers off a table over all subsets."""
        for n in range(6):
            full = (1 << n) - 1
            for g in all_graphs(n):
                co_rows = complement(g).rows
                omega, alpha = _subset_tables(g)
                for p, q in itertools.product((1, 2, 3), repeat=2):
                    valid = [pb for pb in range(1 << n)
                             if omega[pb] <= p and alpha[full ^ pb] <= q]
                    for forced in range(1 << n):
                        qbits = _seed_q(g.rows, co_rows, full, p, q, forced)
                        exists = any(pb & forced == forced for pb in valid)
                        assert (qbits is not None) == exists, (g.rows, p, q, forced)
                        if qbits is not None:
                            assert qbits & forced == 0
                            assert is_split_partition(g, p, q, full ^ qbits, qbits, co_rows)

    def test_enumeration_is_seed_independent(self):
        # growing from any valid partition must reach the same set
        g = make_pattern(PatternSpec.star(3))
        seeds = oracle_partitions(g, 1, 2)
        full = (1 << g.n) - 1
        results = []
        for pb in seeds:
            seed = SplitPartition(1, 2, VertexSet(pb, g.n), VertexSet(full ^ pb, g.n))
            results.append([sp.P.bits for sp in enumerate_split_partitions(g, 1, 2, seed)])
        assert all(r == results[0] for r in results)
        assert results[0] == seeds

    def test_region_core_matches_subset_tables(self):
        """region_q_sides equals an oracle that reads clique and independence
        numbers off a table over all subsets: 150 seeded hosts with n = 9-12,
        each with a random region and forced mask, every (p, q) in
        {1, 2, 3, 4}^2."""
        rng = random.Random(12)
        for _ in range(150):
            g = random_graph(rng, rng.randint(9, 12))
            co_rows = complement(g).rows
            omega, alpha = _subset_tables(g)
            region = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            forced = region & rng.getrandbits(g.n) & rng.getrandbits(g.n)
            for p, q in itertools.product((1, 2, 3, 4), repeat=2):
                want = []
                pb = 0
                while True:  # every P ⊆ region, ascending
                    if pb & forced == forced and omega[pb] <= p and alpha[region ^ pb] <= q:
                        want.append(region ^ pb)
                    if pb == region:
                        break
                    pb = (pb - region) & region
                got = region_q_sides(g.rows, co_rows, region, p, q, forced)
                assert got == want, (g.rows, region, forced, p, q)

    def test_seed_check_runs_before_the_search(self, monkeypatch):
        """A region with no (3, 3)-split partition ends at the seed check: four
        disjoint K4 (any Q side meets each, so it holds an independent 4-set)
        below a G(18, 1/2). Placing vertices from the highest down without
        the check would first enumerate the partitions of the G(18, 1/2), a
        few 10^5 clique searches."""
        k4 = make_pattern(PatternSpec.complete(4))
        low = disjoint_union(disjoint_union(k4, k4), disjoint_union(k4, k4))
        g = disjoint_union(low, random_graph(random.Random(1), 18))
        co_rows = complement(g).rows
        calls = 0
        least_clique = split.least_clique

        def spy(*args):
            nonlocal calls
            calls += 1
            return least_clique(*args)

        monkeypatch.setattr(split, "least_clique", spy)
        assert region_q_sides(g.rows, co_rows, (1 << g.n) - 1, 3, 3, 0) == []
        assert calls < 1000

    def test_deep_search_needs_no_recursion(self):
        # K_n at p = q = 1: P is empty or one vertex, each leaf n levels deep
        n = 1200
        k = make_pattern(PatternSpec.complete(n))
        seed = SplitPartition(1, 1, VertexSet(0, n), VertexSet((1 << n) - 1, n))
        got = enumerate_split_partitions(k, 1, 1, seed)
        assert [sp.P.bits for sp in got] == [0] + [1 << v for v in range(n)]
