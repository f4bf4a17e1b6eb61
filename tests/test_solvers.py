"""Brute-force and structured solvers, cross-checked against each other."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcomp import solvers
from subcomp.errors import InvalidT, PatternTooSmall, RecognizerMismatch
from subcomp.graphs import (
    Graph,
    Pattern,
    PatternSpec,
    VertexSet,
    complement,
    degeneracy,
    induced,
    is_pattern_free,
    make_pattern,
    no_instance,
    subgraph_complement,
)
from subcomp.solvers import (
    SolveReport,
    _region_masks,
    _rule_out_pairs,
    brute_solve,
    kt_free_recognizer,
    solve_complement_class,
    solve_kt_free,
)
from subcomp.split import enumerate_split_partitions, find_split_partition
from subcomp.verify import all_graphs, random_graph

K2 = make_pattern(PatternSpec.complete(2))
K3 = make_pattern(PatternSpec.complete(3))
P3 = make_pattern(PatternSpec.path(3))
BRUTE_PATTERNS = {
    "P3": P3,
    "P4": make_pattern(PatternSpec.path(4)),
    "C4": make_pattern(PatternSpec.cycle(4)),
    "K1,3": make_pattern(PatternSpec.star(3)),
    "co-P4": complement(make_pattern(PatternSpec.path(4))),
}


@st.composite
def graphs(draw, max_n=6, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
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


def _subsets_by_cardinality(n: int):
    """The order brute_solve examines subsets in, one by one: by increasing
    cardinality, then by increasing mask value (Gosper's hack)."""
    yield 0
    top = 1 << n
    for k in range(1, n + 1):
        m = (1 << k) - 1
        while m < top:
            yield m
            c = m & -m
            r = m + c
            m = (((r ^ m) >> 2) // c) | r


def _kt_sweep(g: Graph, t: int, recognizer):
    """What solve_kt_free did before it kept K_t witnesses: split seeding
    and enumeration for every pair, then every candidate of the product of
    the four region lists with one recognizer call each. Returns (status,
    solution mask or None, pairs examined, candidates examined)."""
    if recognizer(g):
        return "Yes", 0, 0, 0
    if t == 1:
        return "No", None, 0, 0
    lo, hi = max(t - 2, 1), t - 1
    params = ((lo, hi), (hi, lo), (lo, lo), (lo, lo))
    pairs = examined = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            pairs += 1
            region_lists = []
            for mask, (p, q) in zip(_region_masks(g, u, v), params):
                region = VertexSet(mask, g.n)
                verts = region.members()
                sub = induced(g, region)
                seed = find_split_partition(sub, p, q)
                if seed is None:
                    break
                forced = (1 << (mask & ((1 << v) - 1)).bit_count()) - 1
                parts = enumerate_split_partitions(sub, p, q, seed, forced)
                if not parts:
                    break
                region_lists.append(
                    [sum(1 << verts[j] for j in sp.Q.members()) for sp in parts]
                )
            if len(region_lists) < 4:
                continue
            for qs in itertools.product(*region_lists):
                examined += 1
                s = VertexSet(sum(qs) | 1 << u | 1 << v, g.n)
                if recognizer(subgraph_complement(g, s)):
                    return "Yes", s.bits, pairs, examined
    return "No", None, pairs, examined


def _degenerate(t):
    """The (t-2)-degenerate graphs, a subclass of the K_t-free ones."""
    return lambda gg: gg.n == 0 or degeneracy(gg) <= t - 2


class TestSubsetOrder:
    def test_cardinality_then_mask(self):
        got = list(_subsets_by_cardinality(4))
        assert len(got) == 16
        assert got == sorted(range(16), key=lambda m: (bin(m).count("1"), m))

    def test_mask_order_is_not_combination_order(self):
        # {1,2} must come before {0,3} within size 2
        got = list(_subsets_by_cardinality(4))
        assert got.index(0b0110) < got.index(0b1001)


class TestSolveReport:
    def test_solution_only_with_yes(self):
        with pytest.raises(ValueError):
            SolveReport("No", VertexSet.empty(1), {}, False)
        with pytest.raises(ValueError):
            SolveReport("Yes", None, {}, True)

    def test_json_shape(self):
        r = SolveReport("Yes", VertexSet.from_members([1, 3], 4), {"elapsed": 0.0}, True)
        doc = r.to_json()
        assert doc["status"] == "Yes"
        assert doc["solution"] == [1, 3]
        assert doc["verified"] is True


class TestBruteSolve:
    def test_already_free(self):
        c5 = make_pattern(PatternSpec.cycle(5))
        r = brute_solve(c5, K3)
        assert r.status == "Yes"
        assert r.solution.bits == 0
        assert r.verified

    def test_k4_to_triangle_free_needs_three(self):
        k4 = make_pattern(PatternSpec.complete(4))
        r = brute_solve(k4, K3)
        assert r.status == "Yes"
        assert len(r.solution) == 3
        assert is_pattern_free(subgraph_complement(k4, r.solution), K3)

    def test_no_instance_is_no(self):
        r = brute_solve(no_instance(P3), P3)
        assert r.status == "No"
        assert r.stats["subsets_examined"] == 512

    def test_single_vertex_pattern(self):
        assert brute_solve(Graph(0, []), Graph(1, [0])).status == "Yes"
        assert brute_solve(Graph(2, [0, 0]), Graph(1, [0])).status == "No"

    def test_rejects_null_pattern(self):
        with pytest.raises(PatternTooSmall):
            brute_solve(Graph(1, [0]), Graph(0, []))

    def test_cap_yields_unknown(self):
        r = brute_solve(no_instance(K3), K3, cap=17)
        assert r.status == "Unknown"
        assert r.stats["subsets_examined"] == 17
        assert r.stats["pairs_pruned"] == 0

    def test_deterministic(self):
        g = make_pattern(PatternSpec.cycle(6))
        a = brute_solve(g, P3)
        b = brute_solve(g, P3)
        assert (a.status, a.solution, a.stats["subsets_examined"]) == (
            b.status,
            b.solution,
            b.stats["subsets_examined"],
        )

    @given(graphs(max_n=5), st.sampled_from(list(BRUTE_PATTERNS)))
    @settings(max_examples=300, deadline=None)
    def test_minimum_size_and_first_in_order(self, g, name):
        # against one fresh search per subset, which brute_solve's witness
        # reuse must reproduce exactly, subset count included
        h = BRUTE_PATTERNS[name]
        r = brute_solve(g, h)
        order = list(_subsets_by_cardinality(g.n))
        winners = [
            m
            for m in order
            if is_pattern_free(subgraph_complement(g, VertexSet(m, g.n)), h)
        ]
        if r.status == "No":
            assert winners == []
            assert r.stats["subsets_examined"] == 2**g.n
        else:
            assert r.solution.bits == winners[0]
            assert len(r.solution) == min(bin(m).count("1") for m in winners)
            assert r.stats["subsets_examined"] == order.index(winners[0]) + 1
        assert r.stats["recognizer_calls"] <= r.stats["subsets_examined"]

    def test_witnesses_spare_searches(self):
        # every subset is still counted, but only few get a full search
        r = brute_solve(no_instance(P3), P3)
        assert r.status == "No"
        assert r.stats["subsets_examined"] == 512
        assert r.stats["recognizer_calls"] <= 512 // 8
        p4 = BRUTE_PATTERNS["P4"]
        rng = random.Random(5)
        no_cases = 0
        while no_cases < 3:
            g = random_graph(rng, 11)
            r = brute_solve(g, p4)
            if r.status == "No":
                no_cases += 1
                assert r.stats["subsets_examined"] == 2**11
                assert r.stats["recognizer_calls"] <= 2**11 // 8

    def test_recognizer_calls_counts_searches(self, monkeypatch):
        searches = []
        embed = Pattern.embed

        def counting(self, rows, **kwargs):
            searches.append(rows)
            return embed(self, rows, **kwargs)

        monkeypatch.setattr(Pattern, "embed", counting)
        for g, h in ((make_pattern(PatternSpec.complete(4)), K3), (no_instance(P3), P3)):
            searches.clear()
            assert brute_solve(g, h).stats["recognizer_calls"] == len(searches) > 0
        assert brute_solve(Graph(2, [0, 0]), Graph(1, [0])).stats["recognizer_calls"] == 0


# every pattern the window tests sweep, prepared once
WINDOW_PATTERNS = {
    name: Pattern(h)
    for name, h in dict(
        BRUTE_PATTERNS,
        K3=K3,
        E3=make_pattern(PatternSpec.empty(3)),
        C5=make_pattern(PatternSpec.cycle(5)),
        P5=make_pattern(PatternSpec.path(5)),
    ).items()
}


def outcome(r):
    return r.status, r.solution, r.stats["subsets_examined"], r.stats["recognizer_calls"]


class TestBruteSolveBlocks:
    def test_same_outcome_at_every_window_width(self, monkeypatch):
        # widths 1-3 leave most vertices above the window, so deep stacks
        # and both leaf kinds run even at small n
        widths = (1, 2, 3, solvers.WINDOW)
        rng = random.Random(11)
        for n in range(17):
            for _ in range(3 if n <= 12 else 1):
                g = random_graph(rng, n)
                cap = rng.randint(1, 2**n)
                for h in WINDOW_PATTERNS.values():
                    seen = set()
                    for width in widths:
                        monkeypatch.setattr(solvers, "WINDOW", width)
                        seen.add(outcome(brute_solve(g, h)))
                        if n <= 12:
                            seen.add(("cap",) + outcome(brute_solve(g, h, cap)))
                    assert len(seen) == (2 if n <= 12 else 1), (n, seen)

    def test_cap_boundaries(self):
        rng = random.Random(3)
        for n in range(1, 11):
            g = random_graph(rng, n)
            for h in WINDOW_PATTERNS.values():
                full = brute_solve(g, h)
                if full.status == "Yes":
                    i = full.stats["subsets_examined"]
                    at = brute_solve(g, h, cap=i)
                    assert outcome(at) == outcome(full)
                    before = brute_solve(g, h, cap=i - 1)
                    assert before.status == "Unknown"
                    assert before.stats["subsets_examined"] == i - 1
                else:
                    assert outcome(brute_solve(g, h, cap=2**n)) == outcome(full)
                    short = brute_solve(g, h, cap=2**n - 1)
                    assert short.status == "Unknown"
                    assert short.stats["subsets_examined"] == 2**n - 1

    def test_large_graph_stops_at_cap(self):
        # 300 vertices sit far above the window: only a few searches run,
        # and rejected subsets are counted without being enumerated
        g = random_graph(random.Random(4), 300)
        r = brute_solve(g, K3, cap=2**16)
        assert r.status == "Unknown"
        assert r.stats["subsets_examined"] == 2**16
        assert 0 < r.stats["recognizer_calls"] < 100


class TestSolveKtFree:
    def test_rejects_bad_t(self):
        with pytest.raises(InvalidT):
            solve_kt_free(Graph(1, [0]), 0)

    def test_step_zero(self):
        c5 = make_pattern(PatternSpec.cycle(5))
        r = solve_kt_free(c5, 3)
        assert (r.status, r.solution.bits) == ("Yes", 0)
        assert r.stats["pairs_examined"] == 0

    def test_t_one(self):
        assert solve_kt_free(Graph(0, []), 1).status == "Yes"
        assert solve_kt_free(Graph(3, [0, 0, 0]), 1).status == "No"

    def test_k4(self):
        k4 = make_pattern(PatternSpec.complete(4))
        r = solve_kt_free(k4, 3)
        assert r.status == "Yes"
        assert is_pattern_free(subgraph_complement(k4, r.solution), K3)

    def test_no_instance_agrees_with_brute(self):
        g = no_instance(K3)
        assert solve_kt_free(g, 3).status == "No"
        assert brute_solve(g, K3).status == "No"

    @given(graphs(max_n=6), st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_status(self, g, t):
        kt = make_pattern(PatternSpec.complete(t))
        fast = solve_kt_free(g, t)
        slow = brute_solve(g, kt)
        assert fast.status == slow.status
        if fast.status == "Yes":
            assert is_pattern_free(subgraph_complement(g, fast.solution), kt)

    def test_pairs_pruned_counts_skipped_pairs(self):
        r = solve_kt_free(no_instance(K3), 3)
        assert r.status == "No"
        assert 0 < r.stats["pairs_pruned"] <= r.stats["pairs_examined"]

    def test_cap_yields_unknown(self):
        # complement(no_instance(K3)) is a No instance with many candidates
        g = complement(no_instance(K3))
        assert solve_kt_free(g, 3).stats["subsets_examined"] > 3
        r = solve_kt_free(g, 3, cap=3)
        assert r.status == "Unknown"
        assert r.stats["subsets_examined"] == 3

    def test_recognizer_calls_include_step_zero(self):
        # step 0 asks about g itself; after it, only candidates whose K_3
        # search found no copy reach the recognizer, each one once
        k3_free = kt_free_recognizer(3)
        cases = (
            (make_pattern(PatternSpec.cycle(5)), k3_free),
            (make_pattern(PatternSpec.complete(4)), k3_free),
            (complement(no_instance(K3)), k3_free),
            (make_pattern(PatternSpec.cycle(6)), _degenerate(3)),
            (complement(make_pattern(PatternSpec.cycle(6))), _degenerate(3)),
        )
        seen_calls = []
        for g, target in cases:
            calls = []

            def counting(gg, target=target):
                calls.append(gg.rows)
                return target(gg)

            r = solve_kt_free(g, 3, recognizer=counting)
            assert r.stats["recognizer_calls"] == len(calls)
            assert calls[0] == g.rows
            assert all(k3_free(Graph(g.n, rows)) for rows in calls[1:])
            assert len(set(calls)) == len(calls)
            assert len(calls) <= r.stats["subsets_examined"] + 1
            seen_calls.append(len(calls))
        # C5 stops at step 0; the degenerate target rejects K_3-free candidates
        assert seen_calls[0] == 1 and min(seen_calls[3:]) > 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_candidate_once_on_g16(self, seed, monkeypatch):
        # Every candidate holds its pair, so distinct candidates flip
        # distinct edge sets: no flipped graph is built twice, every one is
        # searched by the default recognizer, and the count stays below the
        # 2^16 subsets brute force would try.
        built = []
        flip = solvers.subgraph_complement

        def recording(gg, s):
            out = flip(gg, s)
            built.append(out.rows)
            return out

        monkeypatch.setattr(solvers, "subgraph_complement", recording)
        r = solve_kt_free(random_graph(random.Random(seed), 16), 3)
        assert r.stats["subsets_examined"] < 2**16
        assert len(built) == len(set(built)) == r.stats["recognizer_calls"] - 1
        assert len(built) < r.stats["subsets_examined"]

    def test_degenerate_subclass_matches_brute_force(self):
        """Target the (t-2)-degenerate graphs, a subclass of the K_t-free
        ones: every graph with n <= 5 and seeded graphs with n = 6, against
        a sweep over all subsets with the same recognizer."""
        rng = random.Random(11)
        pool = [g for n in range(6) for g in all_graphs(n)]
        pool += [random_graph(rng, 6) for _ in range(150)]
        for t in (2, 3, 4):
            recognize = _degenerate(t)
            for g in pool:
                want = any(
                    recognize(subgraph_complement(g, VertexSet(m, g.n)))
                    for m in range(1 << g.n)
                )
                r = solve_kt_free(g, t, recognizer=recognize)
                assert (r.status == "Yes") == want, (g.rows, t)
                if want:
                    assert recognize(subgraph_complement(g, r.solution))

    def test_narrower_recognizer_is_honored(self):
        # target the (t-2)-degenerate subclass of K_t-free graphs
        def degen_at_most_one(g):
            return g.n == 0 or degeneracy(g) <= 1

        c6 = make_pattern(PatternSpec.cycle(6))
        r = solve_kt_free(c6, 3, recognizer=degen_at_most_one)
        assert r.status == "Yes"
        out = subgraph_complement(c6, r.solution)
        assert degeneracy(out) <= 1

    def test_debug_check_catches_lying_recognizer(self):
        k4 = make_pattern(PatternSpec.complete(4))
        with pytest.raises(RecognizerMismatch):
            solve_kt_free(k4, 3, recognizer=lambda g: True, debug_check=True)

    def test_debug_check_passes_honest_recognizer(self):
        k4 = make_pattern(PatternSpec.complete(4))
        r = solve_kt_free(k4, 3, recognizer=kt_free_recognizer(3), debug_check=True)
        assert r.status == "Yes"


class TestKtWitnesses:
    """solve_kt_free against _kt_sweep, which keeps no witnesses."""

    def test_matches_sweep(self):
        # every graph with n <= 5 and seeded ones with n = 6-12; status,
        # solution and pairs are equal, and witnesses only lower the count
        rng = random.Random(8)
        pool = [g for n in range(6) for g in all_graphs(n)]
        pool += [random_graph(rng, n) for n in range(6, 13) for _ in range(12)]
        fewer = 0
        for t in (2, 3, 4):
            for target in (None, _degenerate(t)):
                for g in pool:
                    r = solve_kt_free(g, t, recognizer=target)
                    status, solution, pairs, examined = _kt_sweep(
                        g, t, target or kt_free_recognizer(t)
                    )
                    got = None if r.solution is None else r.solution.bits
                    assert (r.status, got) == (status, solution), (g.rows, t)
                    assert r.stats["pairs_examined"] == pairs
                    assert r.stats["subsets_examined"] <= examined
                    fewer += r.stats["subsets_examined"] < examined
        assert fewer > 0

    def test_cap_boundaries(self):
        # the solver's own count as cap changes nothing, one less is Unknown
        rng = random.Random(9)
        for n in range(4, 12):
            for _ in range(6):
                g = random_graph(rng, n)
                for t in (2, 3, 4):
                    for target in (None, _degenerate(t)):
                        full = solve_kt_free(g, t, recognizer=target)
                        c = full.stats["subsets_examined"]
                        at = solve_kt_free(g, t, recognizer=target, cap=c)
                        assert (at.status, at.solution) == (full.status, full.solution)
                        assert at.stats["subsets_examined"] == c
                        if c:
                            short = solve_kt_free(g, t, recognizer=target, cap=c - 1)
                            assert short.status == "Unknown"
                            assert short.stats["subsets_examined"] == c - 1

    def test_g18_t4_no_matches_brute(self):
        g = random_graph(random.Random(4), 18)
        r = solve_kt_free(g, 4)
        assert r.status == brute_solve(g, Pattern(make_pattern(PatternSpec.complete(4)))).status == "No"
        assert r.stats["pairs_examined"] == 18 * 17 // 2


class TestRuleOutPairs:
    def test_exhaustive_up_to_seven(self):
        # the bits set for a witness (W, S ∩ W) are exactly the pairs u < v
        # with W ⊆ {0..v} and W ∩ {u, v} = S ∩ W, the scan they replace
        for n in range(1, 8):
            for w in range(1, 1 << n):
                sw = w  # every subset of w, from w down to 0
                while True:
                    dead = [0] * n
                    _rule_out_pairs(dead, w, sw)
                    for u in range(n):
                        assert dead[u] >> n == 0 and dead[u] & ((2 << u) - 1) == 0, (n, w, sw, u)
                        for v in range(u + 1, n):
                            want = not w >> (v + 1) and w & ((1 << u) | (1 << v)) == sw
                            assert (dead[u] >> v) & 1 == want, (n, w, sw, u, v)
                    if not sw:
                        break
                    sw = (sw - 1) & w


class TestComplementClass:
    def test_empty_triple_via_complement_side(self):
        # target 3K_1-free by solving the complement against K_3-free
        e3 = make_pattern(PatternSpec.empty(3))
        r = solve_complement_class(
            e3,
            lambda gg: brute_solve(gg, K3),
            bar_recognizer=lambda gg: is_pattern_free(gg, e3),
        )
        assert r.status == "Yes"
        assert is_pattern_free(subgraph_complement(e3, r.solution), e3)
        # complementing everything is also a solution, just not the first one
        full = VertexSet((1 << 3) - 1, 3)
        assert is_pattern_free(subgraph_complement(e3, full), e3)

    def test_null_graph_passthrough(self):
        g = Graph(0, [])
        direct = brute_solve(g, K3)
        wrapped = solve_complement_class(g, lambda gg: brute_solve(gg, K3))
        assert wrapped.status == direct.status

    def test_solution_returned_unchanged(self):
        p3bar = complement(P3)
        p4 = make_pattern(PatternSpec.path(4))
        inner = brute_solve(complement(p4), P3)
        outer = solve_complement_class(p4, lambda gg: brute_solve(gg, P3))
        assert inner.status == outer.status == "Yes"
        assert inner.solution == outer.solution
        assert is_pattern_free(subgraph_complement(p4, outer.solution), p3bar)

    @given(graphs(max_n=5))
    @settings(max_examples=100, deadline=None)
    def test_yes_no_matches_direct_solve(self, g):
        p3bar = complement(P3)
        direct = brute_solve(g, p3bar)
        via = solve_complement_class(g, lambda gg: brute_solve(gg, P3))
        assert direct.status == via.status

    def test_lying_solver_is_caught(self):
        e3 = make_pattern(PatternSpec.empty(3))

        def liar(gg):
            return SolveReport(
                "Yes", VertexSet.empty(gg.n), {"subsets_examined": 0}, True
            )

        with pytest.raises(RecognizerMismatch):
            solve_complement_class(
                e3, liar, bar_recognizer=lambda gg: is_pattern_free(gg, e3)
            )


class TestPairRegions:
    """_region_masks against the adjacency definition of the four regions."""

    def test_k4_example(self):
        k4 = make_pattern(PatternSpec.complete(4))
        assert _region_masks(k4, 0, 1) == (0b1100, 0, 0, 0)

    def test_pair_only_set(self):
        p4 = make_pattern(PatternSpec.path(4))
        # 0 sees only 1 and 3 sees only 2
        assert _region_masks(p4, 1, 2) == (0, 0, 0b0001, 0b1000)

    @given(graphs(min_n=2, max_n=7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_partition_invariant(self, g, data):
        u, v = data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)
        )
        # common, neither, u only, v only: keyed by (w ~ u, w ~ v)
        order = {(True, True): 0, (False, False): 1, (True, False): 2, (False, True): 3}
        expected = [0, 0, 0, 0]
        for w in range(g.n):
            if w not in (u, v):
                expected[order[(g.has_edge(u, w), g.has_edge(v, w))]] |= 1 << w
        assert _region_masks(g, u, v) == tuple(expected)
