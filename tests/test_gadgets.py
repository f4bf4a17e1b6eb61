"""Gadget generators: sizes, block structure, role records, certificate maps.

The rebuild_* helpers re-derive each construction's edge set from the role
records alone, so a layout bug in the generators cannot hide behind its own
indexing scheme.
"""

import itertools
import random

import pytest

from subcomp.errors import InvalidT, KindMismatch, NotSatisfying, WrongWidth
from subcomp.gadgets import (
    GadgetInstance,
    assignment_from_solution,
    c8_gadget,
    certificate_json,
    cycle_inductive,
    expected_size,
    k15_gadget,
    p7_gadget,
    p8_gadget,
    path_inductive,
    solution_from_assignment,
    star_inductive,
)
from subcomp import matcher
from subcomp.graphs import (
    Graph,
    PatternSpec,
    VertexSet,
    complement,
    graph_from_edges,
    induced,
    is_pattern_free,
    make_pattern,
    subgraph_complement,
)
from subcomp.sat import Assignment, CnfFormula, brute_sat, check_threshold
from subcomp.solvers import brute_solve
from subcomp.verify import random_graph

PHI_41 = CnfFormula(4, [[1, 2, 3, 4]])
PHI_53 = CnfFormula(5, [[1, 2, 3, 4], [-1, 2, -3, 5], [1, -2, 4, -5]])


def roles_by_name(inst):
    out = {}
    for v, role in enumerate(inst.roles):
        out.setdefault(role.name, {})[role.index] = v
    return out


def rebuild_inductive(inst):
    """Edge set from roles: source edges, one pattern block per source
    vertex, owner joined to its block (star: all but the special last slot),
    and for the cycle kind a join between every two distinct blocks."""
    t = inst.params["t"]
    src = inst.params["source"]
    by = roles_by_name(inst)
    edges = set()

    def add(u, v):
        edges.add(frozenset((u, v)))

    for u, v in src.edges():
        add(by["source"][(u,)], by["source"][(v,)])
    kind = inst.kind
    if kind == "StarInductive":
        pattern = make_pattern(PatternSpec.complete(t + 2))
    elif kind == "PathInductive":
        pattern = complement(make_pattern(PatternSpec.path(t + 2)))
    else:
        pattern = complement(make_pattern(PatternSpec.cycle(t + 2)))
    blocks = {}
    for u in range(src.n):
        blocks[u] = [by["block"][(u, slot)] for slot in range(t + 2)]
        for a, b in pattern.edges():
            add(blocks[u][a], blocks[u][b])
        owner = by["source"][(u,)]
        joined = blocks[u][:-1] if kind == "StarInductive" else blocks[u]
        for w in joined:
            add(owner, w)
    if kind == "CycleInductive":
        for u, v in itertools.combinations(range(src.n), 2):
            for a in blocks[u]:
                for b in blocks[v]:
                    add(a, b)
    return edges


def lit_vertex_of(by, lit):
    return by["literal"][(abs(lit), 0 if lit > 0 else 1)]


def rebuild_k15(inst):
    phi = inst.params["phi"]
    by = roles_by_name(inst)
    edges = set()

    def add(u, v):
        edges.add(frozenset((u, v)))

    for i in range(1, phi.n + 1):
        u, up = by["literal"][(i, 0)], by["literal"][(i, 1)]
        add(u, up)
        hangs = {
            s: [by["hanging"][(i, s, j)] for j in range(5)] for s in (1, 2, 3, 4)
        }
        for verts in hangs.values():
            for a, b in itertools.combinations(verts, 2):
                add(a, b)
        for w in hangs[1]:
            add(u, w)
            add(up, w)
        for s in (2, 3, 4):
            for a in hangs[1]:
                for b in hangs[s]:
                    add(a, b)
    all_clause = [
        by["clause"][(i, j)] for i in range(1, phi.m + 1) for j in range(5)
    ]
    for a, b in itertools.combinations(all_clause, 2):
        add(a, b)
    for i, clause in enumerate(phi.clauses, start=1):
        verts = [by["clause"][(i, j)] for j in range(5)]
        for lit in clause:
            y = lit_vertex_of(by, lit)
            for w in verts:
                add(y, w)
    return edges


def rebuild_p_gadget(inst):
    phi = inst.params["phi"]
    size = 8 if inst.kind == "P8" else 7
    by = roles_by_name(inst)
    pbar = complement(make_pattern(PatternSpec.path(size)))
    edges = set()

    def add(u, v):
        edges.add(frozenset((u, v)))

    def block_edges(verts):
        for a, b in pbar.edges():
            add(verts[a], verts[b])

    def join(xs, ys):
        for a in xs:
            for b in ys:
                add(a, b)

    groups = {}
    for i in range(1, phi.n + 1):
        members = [by["literal"][(i, 0)], by["literal"][(i, 1)]]
        for side in (0, 1):
            prev = [by["literal"][(i, side)]]
            for s in (1, 2, 3):
                verts = [by["hanging"][(i, side, s, j)] for j in range(size)]
                block_edges(verts)
                join(prev, verts)
                members.extend(verts)
                prev = verts
        groups[i] = set(members)
    total = inst.graph.n
    for i in range(1, phi.n + 1):
        hanging = [
            v
            for v in groups[i]
            if inst.roles[v].name == "hanging"
        ]
        outside = [v for v in range(total) if v not in groups[i]]
        join(hanging, outside)

    clause_members = []
    for i, clause in enumerate(phi.clauses, start=1):
        members = []
        in_clause = {(abs(l), 0 if l > 0 else 1) for l in clause}
        others = [
            by["literal"][(j, side)]
            for j in range(1, phi.n + 1)
            for side in (0, 1)
            if (j, side) not in in_clause
        ]
        if inst.kind == "P8":
            verts = [by["clause_single"][(i, 1, j)] for j in range(size)]
            block_edges(verts)
            join([lit_vertex_of(by, clause[0])], verts)
            join(others, verts)
            members.extend(verts)
        for s, t in [(1, 2), (2, 3), (3, 4)]:
            verts = [by["clause_pair"][(i, s, t, j)] for j in range(size)]
            block_edges(verts)
            join([lit_vertex_of(by, clause[s - 1])], verts)
            join([lit_vertex_of(by, clause[t - 1])], verts)
            join(others, verts)
            members.extend(verts)
        clause_members.append(members)
    for a, b in itertools.combinations(clause_members, 2):
        join(a, b)
    return edges


def rebuild_c8(inst):
    phi = inst.params["phi"]
    by = roles_by_name(inst)
    cbar = complement(make_pattern(PatternSpec.cycle(8)))
    edges = set()

    def add(u, v):
        edges.add(frozenset((u, v)))

    def join(xs, ys):
        for a in xs:
            for b in ys:
                add(a, b)

    def lit_set(lit):
        i, side = abs(lit), 0 if lit > 0 else 1
        return [by["literal_set"][(i, side, member)] for member in range(4)]

    for i in range(1, phi.n + 1):
        # walk position 2*member + side reassembles the complemented cycle
        verts = [
            by["literal_set"][(i, pos % 2, pos // 2)] for pos in range(8)
        ]
        for a, b in cbar.edges():
            add(verts[a], verts[b])
    clause_members = []
    for i, clause in enumerate(phi.clauses, start=1):
        members = []
        for s, t in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            verts = [by["clause_pair"][(i, s, t, j)] for j in range(8)]
            for a, b in cbar.edges():
                add(verts[a], verts[b])
            join(lit_set(clause[s - 1]), verts)
            join(lit_set(clause[t - 1]), verts)
            members.extend(verts)
        clause_members.append(members)
    for a, b in itertools.combinations(clause_members, 2):
        join(a, b)
    return edges


def graph_edge_set(g):
    return {frozenset(e) for e in g.edges()}


class TestInductiveShape:
    def test_star_sizes(self):
        assert star_inductive(make_pattern(PatternSpec.star(4)), 4).graph.n == 35
        assert star_inductive(Graph(0, []), 2).graph.n == 0

    def test_star_single_vertex(self):
        inst = star_inductive(Graph(1, [0]), 2)
        g = inst.graph
        assert g.n == 5
        block = VertexSet.from_members([1, 2, 3, 4], 5)
        assert induced(g, block) == make_pattern(PatternSpec.complete(4))
        # owner sees the block except its special last vertex
        assert g.degree(0) == 3
        assert not g.has_edge(0, 4)

    def test_path_sizes_and_block(self):
        five = make_pattern(PatternSpec.path(5))
        assert path_inductive(five, 5).graph.n == 40
        inst = path_inductive(Graph(1, [0]), 3)
        assert inst.graph.n == 6
        block = VertexSet.from_members([1, 2, 3, 4, 5], 6)
        assert induced(inst.graph, block) == complement(
            make_pattern(PatternSpec.path(5))
        )
        assert inst.graph.degree(0) == 5

    def test_cycle_sizes_and_join(self):
        five = make_pattern(PatternSpec.path(5))
        assert cycle_inductive(five, 5).graph.n == 40
        inst = cycle_inductive(Graph(2, [0, 0]), 4)
        g = inst.graph
        assert g.n == 14
        b0 = list(range(2, 8))
        b1 = list(range(8, 14))
        for a, b in itertools.product(b0, b1):
            assert g.has_edge(a, b)
        assert not g.has_edge(0, 1)
        for w in b1:
            assert not g.has_edge(0, w)

    def test_source_edges_preserved(self):
        p3 = make_pattern(PatternSpec.path(3))
        for build, t in [(star_inductive, 2), (path_inductive, 3), (cycle_inductive, 4)]:
            inst = build(p3, t)
            sub = induced(inst.graph, VertexSet.from_members([0, 1, 2], inst.graph.n))
            assert sub == p3

    @pytest.mark.parametrize(
        "build,bad_t",
        [(star_inductive, 1), (path_inductive, 2), (cycle_inductive, 3)],
    )
    def test_t_guards(self, build, bad_t):
        with pytest.raises(InvalidT):
            build(Graph(1, [0]), bad_t)

    @pytest.mark.parametrize(
        "build,t",
        [(star_inductive, 2), (star_inductive, 4), (path_inductive, 3), (cycle_inductive, 4)],
    )
    def test_rebuild_from_roles(self, build, t):
        inst = build(make_pattern(PatternSpec.path(3)), t)
        assert rebuild_inductive(inst) == graph_edge_set(inst.graph)


class TestSatGadgetShape:
    @pytest.mark.parametrize(
        "build,expect",
        [(k15_gadget, 93), (p7_gadget, 197), (p8_gadget, 232), (c8_gadget, 80)],
    )
    def test_single_clause_sizes(self, build, expect):
        inst = build(PHI_41)
        assert inst.graph.n == expect
        assert expected_size(inst) == expect

    def test_k15_figure_size(self):
        assert k15_gadget(PHI_53).graph.n == 125

    @pytest.mark.parametrize("build", [k15_gadget, p7_gadget, p8_gadget, c8_gadget])
    def test_width_guard(self, build):
        with pytest.raises(WrongWidth):
            build(CnfFormula(3, [[1, 2, 3]]))

    def test_k15_rebuild(self):
        assert rebuild_k15(k15_gadget(PHI_53)) == graph_edge_set(k15_gadget(PHI_53).graph)

    def test_p7_rebuild(self):
        inst = p7_gadget(PHI_53)
        assert rebuild_p_gadget(inst) == graph_edge_set(inst.graph)

    def test_p8_rebuild(self):
        inst = p8_gadget(PHI_53)
        assert rebuild_p_gadget(inst) == graph_edge_set(inst.graph)

    def test_c8_rebuild(self):
        inst = c8_gadget(PHI_53)
        assert rebuild_c8(inst) == graph_edge_set(inst.graph)

    def test_c8_variable_block_structure(self):
        inst = c8_gadget(PHI_41)
        block = induced(inst.graph, VertexSet.from_members(range(8), inst.graph.n))
        assert block == complement(make_pattern(PatternSpec.cycle(8)))
        assert block.edge_count() == 20
        evens = VertexSet.from_members([0, 2, 4, 6], 8)
        odds = VertexSet.from_members([1, 3, 5, 7], 8)
        assert induced(block, evens) == make_pattern(PatternSpec.complete(4))
        assert induced(block, odds) == make_pattern(PatternSpec.complete(4))

    def test_every_role_slot_filled(self):
        for build in (k15_gadget, p7_gadget, p8_gadget, c8_gadget):
            inst = build(PHI_41)
            assert len(inst.roles) == inst.graph.n
            assert len(set(inst.roles)) == inst.graph.n

    def test_dummy_clause_flag(self):
        inst = k15_gadget(PHI_41, add_dummy_clause=True)
        phi = inst.params["phi"]
        assert (phi.n, phi.m) == (8, 2)
        assert phi.clauses[-1] == (5, 6, 7, 8)
        assert inst.graph.n == 22 * 8 + 5 * 2
        assert inst.params["dummy_clause_added"] is True


class TestCertificateMaps:
    def test_k15_all_true(self):
        inst = k15_gadget(PHI_41)
        s = solution_from_assignment(inst, Assignment([True] * 4))
        assert s.members() == (0, 2, 4, 6)

    def test_c8_all_true(self):
        inst = c8_gadget(PHI_41)
        s = solution_from_assignment(inst, Assignment([True] * 4))
        assert len(s) == 16
        for i in range(4):
            for member in range(4):
                assert 8 * i + 2 * member in s

    def test_not_satisfying(self):
        phi = CnfFormula(4, [[1, 2, 3, 4]])
        inst = k15_gadget(phi)
        with pytest.raises(NotSatisfying):
            solution_from_assignment(inst, Assignment([False] * 4))

    def test_kind_mismatch(self):
        inst = star_inductive(Graph(1, [0]), 2)
        with pytest.raises(KindMismatch):
            solution_from_assignment(inst, Assignment([True]))
        with pytest.raises(KindMismatch):
            assignment_from_solution(inst, VertexSet.empty(inst.graph.n))

    def test_round_trip(self):
        a = brute_sat(PHI_53, 2)
        for build in (k15_gadget, p7_gadget, p8_gadget, c8_gadget):
            inst = build(PHI_53)
            s = solution_from_assignment(inst, a)
            assert assignment_from_solution(inst, s) == a

    def test_empty_set_reads_all_false(self):
        inst = p7_gadget(PHI_41)
        got = assignment_from_solution(inst, VertexSet.empty(inst.graph.n))
        assert got == Assignment([False] * 4)

    def test_brute_force_extraction_gate(self):
        # the reverse-direction check needs exhaustive search, which only
        # makes sense below 22 vertices; every 4-SAT gadget is far larger
        smallest = min(
            build(PHI_41).graph.n
            for build in (k15_gadget, p7_gadget, p8_gadget, c8_gadget)
        )
        assert smallest > 22
        pytest.skip("no 4-SAT gadget fits the exhaustive-search gate")


class TestForwardSoundness:
    @pytest.mark.parametrize(
        "build,pattern",
        [
            (k15_gadget, PatternSpec.star(5)),
            (p7_gadget, PatternSpec.path(7)),
            (p8_gadget, PatternSpec.path(8)),
            (c8_gadget, PatternSpec.cycle(8)),
        ],
    )
    def test_single_clause(self, build, pattern):
        inst = build(PHI_41)
        a = brute_sat(PHI_41, 2)
        assert check_threshold(PHI_41, a, 2)
        s = solution_from_assignment(inst, a)
        assert is_pattern_free(subgraph_complement(inst.graph, s), make_pattern(pattern))

    @pytest.mark.parametrize("phi", [PHI_41, PHI_53], ids=["1-clause", "3-clause"])
    def test_k15_neighbourhoods_fall_to_the_colouring_bound(self, monkeypatch, phi):
        # four cliques cover every neighbourhood of a flipped K1,5 gadget, so
        # the greedy colouring at the peel's end decides each one and no
        # embedding search runs
        inst = k15_gadget(phi)
        g = subgraph_complement(inst.graph, solution_from_assignment(inst, brute_sat(phi, 2)))
        full = (1 << g.n) - 1
        co_rows = [full ^ row ^ 1 << v for v, row in enumerate(g.rows)]
        assert all(matcher.greedy_colourable(co_rows, row, 4) for row in g.rows)

        def no_search(*args, **kwargs):
            raise AssertionError("the colouring bound should have decided")

        monkeypatch.setattr(matcher.Pattern, "embed", no_search)
        assert is_pattern_free(g, make_pattern(PatternSpec.star(5)))

    @pytest.mark.parametrize("phi", [PHI_41, PHI_53], ids=["1-clause", "3-clause"])
    def test_k15_check_decides_one_vertex_per_twin_class(self, monkeypatch, phi):
        # the peel walks every vertex, but true twins (equal closed
        # neighbourhoods) give the same answer, so at most one colouring
        # runs per class
        inst = k15_gadget(phi)
        g = subgraph_complement(inst.graph, solution_from_assignment(inst, brute_sat(phi, 2)))
        classes = len({row | 1 << v for v, row in enumerate(g.rows)})
        assert classes < g.n
        calls = []
        colourable = matcher.greedy_colourable

        def counted(*args):
            calls.append(args)
            return colourable(*args)

        monkeypatch.setattr(matcher, "greedy_colourable", counted)
        assert is_pattern_free(g, make_pattern(PatternSpec.star(5)))
        assert 0 < len(calls) <= classes

    @pytest.mark.parametrize(
        "build,pattern",
        [(k15_gadget, PatternSpec.star(5)), (p7_gadget, PatternSpec.path(7))],
    )
    def test_three_clauses(self, build, pattern):
        inst = build(PHI_53)
        s = solution_from_assignment(inst, brute_sat(PHI_53, 2))
        assert is_pattern_free(subgraph_complement(inst.graph, s), make_pattern(pattern))

    @pytest.mark.parametrize(
        "build,pattern",
        [
            (k15_gadget, PatternSpec.star(5)),
            (p7_gadget, PatternSpec.path(7)),
            (p8_gadget, PatternSpec.path(8)),
            (c8_gadget, PatternSpec.cycle(8)),
        ],
    )
    def test_multi_clause_gadget_contains_pattern(self, build, pattern):
        # sanity that the soundness checks have teeth; with a single clause
        # some gadgets come out pattern-free before any complementation, so
        # this uses the three-clause fixture
        inst = build(PHI_53)
        assert not is_pattern_free(inst.graph, make_pattern(pattern))

    @pytest.mark.parametrize(
        "build,pattern",
        [
            (p7_gadget, PatternSpec.path(7)),
            (p8_gadget, PatternSpec.path(8)),
            (c8_gadget, PatternSpec.cycle(8)),
        ],
    )
    def test_planned_quotient_decisions(self, build, pattern):
        # the top modular quotient of a gadget is searched in a planned
        # order; flipped it holds no copy, unflipped it holds one, as the
        # index-ordered search says
        inst = build(PHI_53)
        s = solution_from_assignment(inst, brute_sat(PHI_53, 2))
        planned = matcher.Pattern(make_pattern(pattern))
        for g, free in ((subgraph_complement(inst.graph, s), True), (inst.graph, False)):
            full = (1 << g.n) - 1
            quotient = 1
            for module in matcher.modules_avoiding(g.rows, full, 0):
                quotient |= module & -module
            assert planned._occurs_within(g.rows, quotient) == (
                planned.embed(g.rows, within=quotient) is not None)
            assert is_pattern_free(g, planned) == free
        assert planned._plan() is not planned

    def test_randomly_flipped_p8_gadgets(self):
        # a random flip leaves copies for the decision to find; it must
        # answer as the index-ordered least-embedding search does
        rng = random.Random(8)
        planned = matcher.Pattern(make_pattern(PatternSpec.path(8)))
        for phi in (PHI_41, PHI_53):
            g = p8_gadget(phi).graph
            for _ in range(3):
                flipped = subgraph_complement(g, VertexSet(rng.getrandbits(g.n), g.n))
                assert is_pattern_free(flipped, planned) == (planned.embed(flipped.rows) is None)

    def test_parts_failing_the_degree_filters_are_not_split(self, monkeypatch):
        # every module of a flipped P7 gadget below its top quotient fails
        # the pattern's degree filters, so only the whole host is split
        inst = p7_gadget(PHI_53)
        g = subgraph_complement(inst.graph, solution_from_assignment(inst, brute_sat(PHI_53, 2)))
        p7 = matcher.prepared(make_pattern(PatternSpec.path(7)))
        assert p7.prime  # decided before counting: it splits the pattern itself
        calls = []
        modules_avoiding = matcher.modules_avoiding

        def counted(*args):
            calls.append(args[1])
            return modules_avoiding(*args)

        monkeypatch.setattr(matcher, "modules_avoiding", counted)
        assert is_pattern_free(g, p7)
        assert calls == [(1 << g.n) - 1]
        assert not is_pattern_free(inst.graph, make_pattern(PatternSpec.path(7)))


class TestInductiveEquivalence:
    def test_star_smallest(self):
        p3 = make_pattern(PatternSpec.path(3))  # K_{1,2}
        k13 = make_pattern(PatternSpec.star(3))
        for bits in range(2):
            gp = Graph(1, [0])
            inst = star_inductive(gp, 2)
            left = brute_solve(gp, p3).status
            right = brute_solve(inst.graph, k13).status
            assert left == right

    def test_path_two_vertices(self):
        p3 = make_pattern(PatternSpec.path(3))
        p5 = make_pattern(PatternSpec.path(5))
        for edge in (False, True):
            gp = graph_from_edges(2, [(0, 1)] if edge else [])
            inst = path_inductive(gp, 3)
            assert inst.graph.n == 12
            assert brute_solve(gp, p3).status == brute_solve(inst.graph, p5).status

    def test_cycle_two_vertices(self):
        p4 = make_pattern(PatternSpec.path(4))
        c6 = make_pattern(PatternSpec.cycle(6))
        for edge in (False, True):
            gp = graph_from_edges(2, [(0, 1)] if edge else [])
            inst = cycle_inductive(gp, 4)
            assert inst.graph.n == 14
            assert brute_solve(gp, p4).status == brute_solve(inst.graph, c6).status

    def test_star_path_solution_transfer(self):
        # a source-side solution works unchanged on the lifted instance
        k13 = make_pattern(PatternSpec.star(3))
        p5 = make_pattern(PatternSpec.path(5))
        for bits in range(4):
            gp = graph_from_edges(2, [(0, 1)] if bits & 1 else [])
            star_inst = star_inductive(gp, 2)
            path_inst = path_inductive(gp, 3)
            for mask in range(4):
                sp = VertexSet(mask, 2)
                if is_pattern_free(
                    subgraph_complement(gp, sp), make_pattern(PatternSpec.path(3))
                ):
                    lifted = VertexSet(mask, star_inst.graph.n)
                    assert is_pattern_free(
                        subgraph_complement(star_inst.graph, lifted), k13
                    )
                    lifted = VertexSet(mask, path_inst.graph.n)
                    assert is_pattern_free(
                        subgraph_complement(path_inst.graph, lifted), p5
                    )


class TestCertificateJson:
    def test_shape(self):
        inst = c8_gadget(PHI_41)
        doc = certificate_json(inst)
        assert doc["kind"] == "C8"
        assert doc["params"]["phi"]["n"] == 4
        assert doc["size_formula_check"] == {"expected": 80, "actual": 80, "ok": True}
        assert len(doc["roles"]) == 80
        assert doc["roles"][0] == {"vertex": 0, "role": "literal_set", "indices": [1, 0, 0]}

    def test_inductive_params(self):
        inst = path_inductive(make_pattern(PatternSpec.path(3)), 3)
        doc = certificate_json(inst)
        assert doc["params"]["t"] == 3
        assert doc["params"]["source"] == {"n": 3, "edges": [[0, 1], [1, 2]]}
        assert doc["size_formula_check"]["ok"] is True


class TestBuilder:
    def test_graphs_pass_the_checked_constructor(self):
        # gadgets are built without the constructor's symmetry and loop
        # checks; rebuilding each one through them must give the same graph
        rng = random.Random(17)
        for _ in range(3):
            nvars = rng.randint(4, 6)
            clauses = [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 4)]
                for _ in range(rng.randint(1, 3))
            ]
            phi = CnfFormula(nvars, clauses)
            source = random_graph(rng, rng.randint(1, 5))
            for inst in (
                k15_gadget(phi),
                k15_gadget(phi, add_dummy_clause=True),
                p7_gadget(phi),
                p8_gadget(phi),
                c8_gadget(phi),
                star_inductive(source, 2),
                path_inductive(source, 3),
                cycle_inductive(source, 4),
            ):
                g = inst.graph
                checked = Graph(g.n, g.rows)
                assert checked == g
                assert type(g.rows) is tuple
