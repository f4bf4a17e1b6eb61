"""Self-check sweeps behind the `verify` CLI command.

Each suite runs a scaled-down executable version of one of the package's
headline properties and reports counts plus counterexample dumps. Oracles
here are written directly against definitions (plain pair loops, exhaustive
bipartitions) rather than through the code under test, so a bug in the fast
path cannot vouch for itself.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from .errors import InvalidArgs
from .gadgets import (
    c8_gadget,
    cycle_inductive,
    expected_size,
    k15_gadget,
    p7_gadget,
    p8_gadget,
    path_inductive,
    solution_from_assignment,
    star_inductive,
)
from .graphs import (
    Graph,
    PatternSpec,
    VertexSet,
    complement,
    g6_encode,
    is_pattern_free,
    make_pattern,
    subgraph_complement,
)
from .sat import CnfFormula, brute_sat
from .solvers import brute_solve, solve_kt_free
from .split import enumerate_split_partitions, find_split_partition, ramsey_bound


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, by edge-bitmask order."""
    slots = [(u, v) for v in range(n) for u in range(v)]
    for bits in range(1 << len(slots)):
        rows = [0] * n
        for i, (u, v) in enumerate(slots):
            if (bits >> i) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(n, rows)


def random_graph(rng: random.Random, n: int) -> Graph:
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows)


def _dump(g: Graph, s: Optional[VertexSet] = None, **extra) -> dict:
    out = {"graph6": g6_encode(g).decode("ascii")}
    if s is not None:
        out["s"] = list(s.members())
    out.update(extra)
    return out


def _summary(suite: str, cases: int, failures: list[dict]) -> dict:
    return {
        "suite": suite,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }


def run_gs(max_n: int = 5, seed: int = 0) -> dict:
    """Complementing inside S commutes with taking the whole-graph
    complement; exhaustive over every graph and subset up to max_n."""
    cases = 0
    failures = []
    for n in range(max_n + 1):
        for g in all_graphs(n):
            co = complement(g)
            for bits in range(1 << n):
                cases += 1
                s = VertexSet(bits, n)
                if subgraph_complement(g, s) != complement(subgraph_complement(co, s)):
                    failures.append(_dump(g, s))
    return _summary("gs", cases, failures)


def run_dual(max_n: int = 4, seed: int = 0) -> dict:
    """Solving g against complement-of-P_3-free must mirror solving the
    complement graph against P_3-free, certificate included."""
    p3 = make_pattern(PatternSpec.path(3))
    p3bar = complement(p3)
    cases = 0
    failures = []
    for n in range(max_n + 1):
        for g in all_graphs(n):
            cases += 1
            left = brute_solve(g, p3bar)
            right = brute_solve(complement(g), p3)
            if left.status != right.status:
                failures.append(_dump(g, detail="status mismatch"))
                continue
            if left.status == "Yes":
                moved = subgraph_complement(complement(g), left.solution)
                if not is_pattern_free(moved, p3):
                    failures.append(_dump(g, left.solution, detail="certificate does not transfer"))
    return _summary("dual", cases, failures)


def run_kt_oracle(max_n: int = 5, seed: int = 0) -> dict:
    """Structured solver versus brute force at K_3. Exhaustive through
    n = 5; beyond that 200 seeded random graphs per order."""
    kt = make_pattern(PatternSpec.complete(3))
    rng = random.Random(seed)
    cases = 0
    failures = []

    def check(g: Graph):
        nonlocal cases
        cases += 1
        fast = solve_kt_free(g, 3)
        slow = brute_solve(g, kt)
        if fast.status != slow.status:
            failures.append(_dump(g, detail=f"fast={fast.status} brute={slow.status}"))
        elif fast.status == "Yes" and not is_pattern_free(
            subgraph_complement(g, fast.solution), kt
        ):
            failures.append(_dump(g, fast.solution, detail="bad certificate"))

    for n in range(min(max_n, 5) + 1):
        for g in all_graphs(n):
            check(g)
    for n in range(6, max_n + 1):
        for _ in range(200):
            check(random_graph(rng, n))
    return _summary("kt-oracle", cases, failures)


def _side_ok(g: Graph, members: tuple[int, ...], clique_side: bool, limit: int) -> bool:
    """No clique (or independent set) on limit+1 vertices, checked by plain
    enumeration; the oracle half of the split sweeps."""
    for combo in itertools.combinations(members, limit + 1):
        pairs = itertools.combinations(combo, 2)
        if clique_side:
            if all(g.has_edge(a, b) for a, b in pairs):
                return False
        else:
            if not any(g.has_edge(a, b) for a, b in pairs):
                return False
    return True


def run_split(max_n: int = 8, seed: int = 0) -> dict:
    """Split-partition enumeration against the exhaustive bipartition oracle,
    plus the pairwise difference and count bounds, on 300 seeded graphs
    with p and q in 1..3."""
    rng = random.Random(seed)
    failures = []
    ran = 0
    for _ in range(300):
        ran += 1
        n = rng.randint(0, max_n)
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        g = random_graph(rng, n)
        expected = []
        for bits in range(1 << n):
            pv = tuple(v for v in range(n) if (bits >> v) & 1)
            qv = tuple(v for v in range(n) if not (bits >> v) & 1)
            if _side_ok(g, pv, True, p) and _side_ok(g, qv, False, q):
                expected.append(bits)
        seed_part = find_split_partition(g, p, q)
        if seed_part is None:
            if expected:
                failures.append(_dump(g, detail=f"missed partitions p={p} q={q}"))
            continue
        got = enumerate_split_partitions(g, p, q, seed_part)
        if [sp.P.bits for sp in got] != expected:
            failures.append(_dump(g, detail=f"enumeration mismatch p={p} q={q}"))
            continue
        bound = ramsey_bound(p + 1, q + 1).value
        # The n^{2R} counting argument sums a geometric series and needs
        # n >= 2; below that the oracle equality above already pins the
        # exact counts (1 for the null graph, 2 for a single vertex).
        if n >= 2 and len(got) > n ** (2 * bound):
            failures.append(_dump(g, detail="count bound exceeded"))
            continue
        for a, b in itertools.combinations(got, 2):
            if (a.P.bits & b.Q.bits).bit_count() > bound - 1:
                failures.append(_dump(g, detail="difference bound exceeded"))
                break
    return _summary("split", ran, failures)


def random_satisfiable_formula(
    rng: random.Random, max_n: int = 6, max_m: int = 2
) -> CnfFormula:
    """Seeded 4-SAT instance guaranteed to pass the threshold-2 check."""
    while True:
        n = rng.randint(4, max_n)
        m = rng.randint(1, max_m)
        clauses = []
        for _ in range(m):
            variables = rng.sample(range(1, n + 1), 4)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        phi = CnfFormula(n, clauses)
        if brute_sat(phi, 2) is not None:
            return phi


_GADGETS = {
    "k15": (k15_gadget, PatternSpec.star(5)),
    "p7": (p7_gadget, PatternSpec.path(7)),
    "p8": (p8_gadget, PatternSpec.path(8)),
    "c8": (c8_gadget, PatternSpec.cycle(8)),
}


def run_gadget(max_n: int = 6, seed: int = 0) -> dict:
    """Forward soundness and size formulas for the four 4-SAT gadgets on
    three seeded satisfiable formulas each, with 4..max_n variables
    (single-clause instances keep this quick)."""
    if max_n < 4:
        raise InvalidArgs(f"4-SAT formulas need at least 4 variables, got max_n={max_n}")
    rng = random.Random(seed)
    failures = []
    ran = 0
    for name, (build, pattern_spec) in _GADGETS.items():
        pattern = make_pattern(pattern_spec)
        for _ in range(3):
            ran += 1
            phi = random_satisfiable_formula(rng, max_n=max_n, max_m=1)
            inst = build(phi)
            if inst.graph.n != expected_size(inst):
                failures.append(_dump(inst.graph, detail=f"{name} size formula"))
                continue
            a = brute_sat(phi, 2)
            s = solution_from_assignment(inst, a)
            if not is_pattern_free(subgraph_complement(inst.graph, s), pattern):
                failures.append(_dump(inst.graph, s, detail=f"{name} not pattern-free"))
    return _summary("gadget", ran, failures)


def run_inductive(max_n: int = 2, seed: int = 0) -> dict:
    """Double-brute equivalence of the three inductive constructions on
    every source graph up to max_n vertices (cycle capped at two to keep the
    lifted instances within exhaustive reach)."""
    p3, k13, p4, p5, c6 = (
        make_pattern(spec)
        for spec in (
            PatternSpec.path(3),
            PatternSpec.star(3),
            PatternSpec.path(4),
            PatternSpec.path(5),
            PatternSpec.cycle(6),
        )
    )
    jobs = [
        ("star", star_inductive, 2, p3, k13, max_n),
        ("path", path_inductive, 3, p3, p5, max_n),
        ("cycle", cycle_inductive, 4, p4, c6, min(max_n, 2)),
    ]
    cases = 0
    failures = []
    for name, build, t, source_pat, lifted_pat, cap in jobs:
        for n in range(cap + 1):
            for gp in all_graphs(n):
                cases += 1
                inst = build(gp, t)
                left = brute_solve(gp, source_pat)
                right = brute_solve(inst.graph, lifted_pat)
                if left.status != right.status:
                    failures.append(
                        _dump(gp, detail=f"{name} t={t}: {left.status} vs {right.status}")
                    )
    return _summary("inductive", cases, failures)


SUITES = {
    "gs": run_gs,
    "dual": run_dual,
    "kt-oracle": run_kt_oracle,
    "split": run_split,
    "gadget": run_gadget,
    "inductive": run_inductive,
}


def run_suite(name: str, max_n: Optional[int] = None, seed: int = 0) -> dict:
    """Run one suite; max_n None keeps the suite's own default. The
    exhaustive suites (gs, dual, inductive) take no randomness and ignore
    the seed."""
    if max_n is not None and max_n < 0:
        raise InvalidArgs(f"max_n must be nonnegative, got {max_n}")
    fn = SUITES[name]
    return fn(seed=seed) if max_n is None else fn(max_n, seed)
