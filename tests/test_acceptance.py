"""Acceptance gate: the ten headline properties, one test per criterion.

Run with -v to get exactly one pass/fail line per criterion. Every test is
self-contained: oracles are rebuilt here from definitions (truth tables,
exhaustive bipartitions, full 2^21 complement tables) rather than routed
through the code under test, and all randomness is seeded.
"""

import functools
import itertools
import math
import random
import time

import numpy as np

from subcomp import (
    CnfFormula,
    Graph,
    PatternSpec,
    VertexSet,
    brute_sat,
    brute_solve,
    c8_gadget,
    complement,
    cycle_inductive,
    enumerate_split_partitions,
    find_split_partition,
    induced,
    is_pattern_free,
    is_split_partition,
    k15_gadget,
    lift,
    make_pattern,
    no_instance,
    p7_gadget,
    p8_gadget,
    path_inductive,
    ramsey_bound,
    solution_from_assignment,
    solve_kt_free,
    star_inductive,
    subgraph_complement,
)
from subcomp.matcher import Pattern

SEED = 20260819


def _slots(n):
    # column-major upper triangle, the same order graph6 serializes
    return [(u, v) for v in range(n) for u in range(v)]


def _graph_from_mask(n, mask):
    rows = [0] * n
    for i, (u, v) in enumerate(_slots(n)):
        if (mask >> i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)


def _all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield _graph_from_mask(n, mask)


def _random_graph(rng, n):
    return _graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))


@functools.lru_cache(maxsize=None)
def _orbit_data(n):
    """Orbit decomposition of all labeled n-vertex graphs under relabeling.

    Edge masks are grouped by iterated min-label propagation along two
    generators of the symmetric group (a transposition and the full cycle),
    then the class count is recomputed by the cycle-counting (Burnside)
    formula as an independent check.
    """
    slots = _slots(n)
    idx = {uv: i for i, uv in enumerate(slots)}
    nmasks = 1 << len(slots)
    masks = np.arange(nmasks, dtype=np.int64)

    def perm_array(pi):
        arr = np.zeros(nmasks, dtype=np.int64)
        for i, (u, v) in enumerate(slots):
            pu, pv = pi[u], pi[v]
            arr |= ((masks >> i) & 1) << idx[(min(pu, pv), max(pu, pv))]
        return arr

    swap = perm_array((1, 0) + tuple(range(2, n)))
    cycle = perm_array(tuple(range(1, n)) + (0,))
    labels = masks.copy()
    while True:
        new = np.minimum(labels, labels[swap])
        np.minimum(new, new[cycle], out=new)
        if np.array_equal(new, labels):
            break
        labels = new

    classes = 0
    for pi in itertools.permutations(range(n)):
        seen = [False] * len(slots)
        cycles = 0
        for i in range(len(slots)):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                a, b = slots[j]
                pa, pb = pi[a], pi[b]
                j = idx[(min(pa, pb), max(pa, pb))]
        classes += 1 << cycles
    return labels, np.unique(labels), classes // math.factorial(n)


def test_criterion_01_inner_complement_commutes_with_outer():
    """Flipping inside S then complementing the whole graph equals
    complementing first and flipping the same S: exhaustive for n <= 5."""
    start = time.perf_counter()
    failures = 0
    for n in range(6):
        for g in _all_graphs(n):
            co = complement(g)
            for bits in range(1 << n):
                s = VertexSet(bits, n)
                if subgraph_complement(g, s) != complement(subgraph_complement(co, s)):
                    failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_02_complement_class_duality():
    """Brute answers for P_3-free on G and for its complement pattern on
    complement(G) agree on every graph with n <= 6, and each side's
    certificate solves the other side unchanged."""
    # prepared once: every solve and freeness test below reuses them
    p3 = Pattern(make_pattern(PatternSpec.path(3)))
    p3bar = Pattern(complement(p3.graph))
    failures = 0
    for n in range(7):
        for g in _all_graphs(n):
            left = brute_solve(g, p3)
            right = brute_solve(complement(g), p3bar)
            if left.status != right.status:
                failures += 1
                continue
            if left.status == "Yes":
                if not is_pattern_free(
                    subgraph_complement(complement(g), left.solution), p3bar
                ):
                    failures += 1
                if not is_pattern_free(subgraph_complement(g, right.solution), p3):
                    failures += 1
    assert failures == 0


def test_criterion_03_structured_solver_equals_brute_oracle():
    """t=3 structured solver versus an independent full-space oracle.

    The oracle is a numpy table over all 2^21 edge masks at n = 7: a
    triangle table from the 35 vertex triples, then an OR over all 128
    complement masks. Both tables are checked to be constant on relabeling
    orbits, spot-checked against the package on seeded samples, and every
    orbit representative is run through both solvers. A seeded random
    sample at n = 8, t = 4 finishes the sweep.
    """
    start = time.perf_counter()
    n = 7
    slots = _slots(n)
    idx = {uv: i for i, uv in enumerate(slots)}
    masks = np.arange(1 << len(slots), dtype=np.int64)

    triangle = np.zeros(len(masks), dtype=bool)
    for a, b, c in itertools.combinations(range(n), 3):
        e1, e2, e3 = idx[(a, b)], idx[(a, c)], idx[(b, c)]
        triangle |= ((masks >> e1) & (masks >> e2) & (masks >> e3) & 1).astype(bool)

    solvable = np.zeros(len(masks), dtype=bool)
    for sbits in range(1 << n):
        flip = 0
        members = [v for v in range(n) if (sbits >> v) & 1]
        for u, v in itertools.combinations(members, 2):
            flip |= 1 << idx[(u, v)]
        solvable |= ~triangle[masks ^ flip]

    k3 = make_pattern(PatternSpec.complete(3))
    rng = random.Random(SEED)
    for _ in range(300):
        m = rng.randrange(len(masks))
        assert bool(triangle[m]) == (not is_pattern_free(_graph_from_mask(n, m), k3))
    for _ in range(100):
        m = rng.randrange(len(masks))
        report = brute_solve(_graph_from_mask(n, m), k3)
        assert (report.status == "Yes") == bool(solvable[m])

    labels, reps, class_count = _orbit_data(n)
    assert len(reps) == class_count
    assert len(reps) == 1044  # the published count of 7-vertex graphs
    assert np.array_equal(triangle, triangle[labels])
    assert np.array_equal(solvable, solvable[labels])

    disagreements = 0
    for m in reps:
        g = _graph_from_mask(n, int(m))
        fast = solve_kt_free(g, 3)
        slow = brute_solve(g, k3)
        expect = "Yes" if solvable[m] else "No"
        if not (fast.status == slow.status == expect):
            disagreements += 1
    assert disagreements == 0

    k4 = make_pattern(PatternSpec.complete(4))
    for _ in range(10_000):
        g = _random_graph(rng, 8)
        if solve_kt_free(g, 4).status != brute_solve(g, k4).status:
            disagreements += 1
    assert disagreements == 0
    assert time.perf_counter() - start < 600.0


def test_criterion_04_hard_product_instances_are_no():
    """The complement(H) x H product instance admits no solution, by full
    512-subset enumeration, for both pattern choices."""
    for spec in (PatternSpec.path(3), PatternSpec.complete(3)):
        h = make_pattern(spec)
        hard = no_instance(h)
        assert hard.n == 9
        report = brute_solve(hard, h)
        assert report.status == "No"
        assert report.stats["subsets_examined"] == 512


def _clique_in_mask(rows, mask, size):
    # direct bit-loop clique test for size 2 or 3, used only by the oracle
    if size == 1:
        return mask != 0
    rest = mask
    while rest:
        u = (rest & -rest).bit_length() - 1
        rest ^= 1 << u
        later = rows[u] & rest
        if size == 2:
            if later:
                return True
            continue
        cand = later
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            if rows[v] & cand:
                return True
    return False


def _oracle_partitions(g, p, q):
    """Every (p,q)-split bipartition by trying all 2^n of them."""
    full = (1 << g.n) - 1
    co_rows = [full & ~row & ~(1 << v) for v, row in enumerate(g.rows)]
    out = []
    for pbits in range(1 << g.n):
        if _clique_in_mask(g.rows, pbits, p + 1):
            continue
        if _clique_in_mask(co_rows, full ^ pbits, q + 1):
            continue
        out.append(pbits)
    return out


def test_criterion_05_split_enumeration_matches_oracle():
    """Seeded sample of 10^4 graphs with n <= 10 plus an exhaustive n <= 4
    layer: enumerated partitions equal the exhaustive-bipartition oracle,
    pairwise P/Q overlaps stay under the Ramsey bound, and the total count
    respects n^(2R) wherever that bound's counting argument applies (its
    geometric-series step needs n >= 2; at n <= 1 the oracle equality pins
    the exact counts of 1 and 2)."""
    rng = random.Random(SEED)
    failures = 0

    def check(g, p, q):
        nonlocal failures
        expected = _oracle_partitions(g, p, q)
        seed_part = find_split_partition(g, p, q)
        if seed_part is None:
            failures += bool(expected)
            return
        got = enumerate_split_partitions(g, p, q, seed_part)
        if [sp.P.bits for sp in got] != expected:
            failures += 1
            return
        bound = ramsey_bound(p + 1, q + 1).value
        if g.n >= 2 and len(got) > g.n ** (2 * bound):
            failures += 1
            return
        for a, b in itertools.combinations(got, 2):
            if (a.P.bits & b.Q.bits).bit_count() > bound - 1:
                failures += 1
                return
            if (b.P.bits & a.Q.bits).bit_count() > bound - 1:
                failures += 1
                return

    for n in range(5):
        for g in _all_graphs(n):
            for p, q in itertools.product((1, 2), repeat=2):
                check(g, p, q)
    for _ in range(10_000):
        check(_random_graph(rng, rng.randint(0, 10)), rng.randint(1, 2), rng.randint(1, 2))
    assert failures == 0


def test_criterion_06_solution_pairs_induce_split_regions():
    """Around any two flipped vertices of a brute-force solution (t = 3),
    each of the four adjacency regions splits into its outside-S part with
    no K_3 and its inside-S part with no 3-vertex independent set.

    Coverage: every labeled graph with n <= 5, every isomorphism-class
    representative at n in {6, 7}, and 2000 seeded random labeled graphs
    at those sizes."""
    k3 = make_pattern(PatternSpec.complete(3))
    rng = random.Random(SEED)

    def pool():
        for n in range(6):
            yield from _all_graphs(n)
        for n in (6, 7):
            _, reps, _ = _orbit_data(n)
            for m in reps:
                yield _graph_from_mask(n, int(m))
        for _ in range(2000):
            yield _random_graph(rng, rng.choice((6, 7)))

    failures = 0
    solutions_checked = 0
    for g in pool():
        report = brute_solve(g, k3)
        if report.status != "Yes" or len(report.solution) < 2:
            continue
        solutions_checked += 1
        members = list(report.solution.members())
        for u, v in itertools.combinations(members, 2):
            # the four regions by definition: common neighbours, common
            # non-neighbours, and the two exclusive neighbourhoods
            regions = {key: [] for key in itertools.product((True, False), repeat=2)}
            for w in range(g.n):
                if w not in (u, v):
                    regions[(g.has_edge(u, w), g.has_edge(v, w))].append(w)
            for verts in regions.values():
                sub = induced(g, VertexSet.from_members(verts, g.n))
                pbits = sum(1 << i for i, w in enumerate(verts) if w not in report.solution)
                qbits = sum(1 << i for i, w in enumerate(verts) if w in report.solution)
                if not is_split_partition(sub, 2, 2, pbits, qbits):
                    failures += 1
    assert solutions_checked > 100
    assert failures == 0


def test_criterion_07_generated_sizes_match_closed_forms():
    """Vertex counts of generated instances against the published formulas,
    on a 20-point (n, m) grid per SAT construction and 24 (kind, t, n')
    combinations for the inductive one."""
    rng = random.Random(SEED)

    def formula(n, m):
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 4)]
            for _ in range(m)
        ]
        return CnfFormula(n, clauses)

    sat_cases = [
        (k15_gadget, lambda n, m: 22 * n + 5 * m),
        (p7_gadget, lambda n, m: 44 * n + 21 * m),
        (p8_gadget, lambda n, m: 50 * n + 32 * m),
        (c8_gadget, lambda n, m: 8 * n + 48 * m),
    ]
    for build, size in sat_cases:
        fixtures = 0
        for n in (4, 5, 6, 7, 8):
            for m in (1, 2, 3, 4):
                inst = build(formula(n, m))
                assert inst.graph.n == size(n, m)
                fixtures += 1
        assert fixtures == 20

    inductive_cases = [
        (star_inductive, (2, 3)),
        (path_inductive, (3, 4)),
        (cycle_inductive, (4, 5)),
    ]
    fixtures = 0
    for build, ts in inductive_cases:
        for t in ts:
            for n_prime in (1, 3, 5, 7):
                inst = build(_random_graph(rng, n_prime), t)
                assert inst.graph.n == n_prime * (t + 3)
                fixtures += 1
    assert fixtures == 24


def test_criterion_08_gadget_solutions_are_pattern_free():
    """20 seeded satisfiable 4-SAT instances (at least 2 true literals per
    clause, n <= 6, m <= 3); for each, the assignment-derived S leaves every
    construction's complemented graph free of its pattern. Checks are
    single-pattern searches, no exponential enumeration."""
    rng = random.Random(SEED)
    targets = [
        (k15_gadget, make_pattern(PatternSpec.star(5))),
        (p7_gadget, make_pattern(PatternSpec.path(7))),
        (p8_gadget, make_pattern(PatternSpec.path(8))),
        (c8_gadget, make_pattern(PatternSpec.cycle(8))),
    ]

    def satisfiable_formula():
        while True:
            n = rng.randint(4, 6)
            m = rng.randint(1, 3)
            clauses = [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 4)]
                for _ in range(m)
            ]
            phi = CnfFormula(n, clauses)
            if brute_sat(phi, 2) is not None:
                return phi

    failures = 0
    for _ in range(20):
        phi = satisfiable_formula()
        assignment = brute_sat(phi, 2)
        for build, pattern in targets:
            inst = build(phi)
            s = solution_from_assignment(inst, assignment)
            if not is_pattern_free(subgraph_complement(inst.graph, s), pattern):
                failures += 1
    assert failures == 0


def test_criterion_09_inductive_constructions_preserve_answers():
    """Double brute force on both sides of each inductive construction at
    its smallest legal t, for every source graph the 18-vertex instance cap
    allows exhaustively (n' <= 3 for star and path, n' <= 2 for cycle)."""
    start = time.perf_counter()
    jobs = [
        (star_inductive, 2, PatternSpec.star(2), PatternSpec.star(3), 3),
        (path_inductive, 3, PatternSpec.path(3), PatternSpec.path(5), 3),
        (cycle_inductive, 4, PatternSpec.path(4), PatternSpec.cycle(6), 2),
    ]
    disagreements = 0
    for build, t, source_spec, lifted_spec, max_n in jobs:
        source_pattern = make_pattern(source_spec)
        lifted_pattern = make_pattern(lifted_spec)
        for n in range(max_n + 1):
            for gp in _all_graphs(n):
                inst = build(gp, t)
                assert inst.graph.n <= 18
                left = brute_solve(gp, source_pattern)
                right = brute_solve(inst.graph, lifted_pattern)
                if left.status != right.status:
                    disagreements += 1
    assert disagreements == 0
    assert time.perf_counter() - start < 600.0


def test_criterion_10_lift_preserves_threshold_satisfiability():
    """For the exhaustive family of exact-3 CNF formulas (n <= 4, up to 3
    distinct clauses), the base formula clears threshold 1 exactly when the
    lifted width-4 formula clears threshold 2, by double truth-table."""
    failures = 0
    formulas = 0
    for n in (3, 4):
        universe = [
            tuple(v if (signs >> i) & 1 else -v for i, v in enumerate(combo))
            for combo in itertools.combinations(range(1, n + 1), 3)
            for signs in range(8)
        ]
        for m in range(4):
            for chosen in itertools.combinations(universe, m):
                phi = CnfFormula(n, [list(c) for c in chosen], k=3)
                lifted = lift(phi)
                formulas += 1
                base_sat = brute_sat(phi, 1) is not None
                lifted_sat = brute_sat(lifted, 2) is not None
                if base_sat != lifted_sat:
                    failures += 1
    assert formulas == 93 + 5489
    assert failures == 0
