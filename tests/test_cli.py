"""End-to-end checks for the command-line surface.

Each test drives main() directly with an argv list and inspects exit code
plus captured stdout/stderr, so the exact contract scripts rely on is what
gets pinned here.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from subcomp import cli
from subcomp.cli import main, parse_pattern_token
from subcomp.gadgets import certificate_json
from subcomp.graphs import (
    PatternSpec,
    complement,
    g6_decode,
    g6_encode,
    graph_from_edges,
    is_pattern_free,
    make_pattern,
    no_instance,
)
from subcomp.solvers import brute_solve, solve_complement_class, solve_kt_free

C5_G6 = g6_encode(make_pattern(PatternSpec.cycle(5)))
P3_G6 = g6_encode(make_pattern(PatternSpec.path(3)))
NO_K3_G6 = g6_encode(no_instance(make_pattern(PatternSpec.complete(3))))
DIMACS_41 = b"p cnf 4 1\n1 2 3 4 0\n"


def write_g6(tmp_path, payload, name="g.g6"):
    path = tmp_path / name
    path.write_bytes(payload + b"\n")
    return str(path)


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestPatternTokens:
    @pytest.mark.parametrize(
        "token,edges,n",
        [
            ("K3", 3, 3),
            ("P4", 3, 4),
            ("C5", 5, 5),
            ("E3", 0, 3),
            ("K1,5", 5, 6),
            ("co-K3", 0, 3),
            ("co-E2", 1, 2),
        ],
    )
    def test_token_shapes(self, token, edges, n):
        g = make_pattern(parse_pattern_token(token))
        assert (g.n, g.edge_count()) == (n, edges)

    def test_co_p4_is_self_complementary(self):
        g = make_pattern(parse_pattern_token("co-P4"))
        assert g == complement(make_pattern(PatternSpec.path(4)))

    @pytest.mark.parametrize("token", ["", "K", "Q3", "K2,3", "P-4", "co-", "k3"])
    def test_rejects_garbage(self, token):
        from subcomp.errors import InvalidPattern

        with pytest.raises(InvalidPattern):
            parse_pattern_token(token)


class TestSolve:
    def test_c5_is_already_triangle_free(self, tmp_path, capsys):
        code = main(["solve", "--target", "kt", "-t", "3", write_g6(tmp_path, C5_G6)])
        report = last_json(capsys)
        assert code == 0
        assert report["status"] == "Yes"
        assert report["solution"] == []

    def test_t1_nonempty_graph_is_no(self, tmp_path, capsys):
        code = main(["solve", "--target", "kt", "-t", "1", write_g6(tmp_path, P3_G6)])
        assert code == 1
        assert last_json(capsys)["status"] == "No"

    def test_brute_pattern_on_hard_instance(self, tmp_path, capsys):
        code = main([
            "solve", "--target", "pattern", "--pattern", "K3", "--brute",
            write_g6(tmp_path, NO_K3_G6),
        ])
        report = last_json(capsys)
        assert code == 1
        assert report["status"] == "No"
        assert report["stats"]["subsets_examined"] == 512

    def test_kt_bar_reports_verified_certificate(self, tmp_path, capsys):
        code = main(["solve", "--target", "kt-bar", "-t", "2", write_g6(tmp_path, P3_G6)])
        report = last_json(capsys)
        assert code == 0
        assert report["status"] == "Yes"
        assert report["verified"] is True

    def test_budget_exhaustion_is_unknown(self, tmp_path, capsys):
        code = main([
            "solve", "--target", "pattern", "--pattern", "P3", "--budget", "1",
            write_g6(tmp_path, g6_encode(no_instance(make_pattern(PatternSpec.path(3))))),
        ])
        assert code == 2
        assert last_json(capsys)["status"] == "Unknown"

    @pytest.mark.parametrize(
        "target,g6",
        [
            ("kt", g6_encode(complement(no_instance(make_pattern(PatternSpec.complete(3)))))),
            ("kt-bar", NO_K3_G6),
        ],
    )
    def test_budget_caps_structured_solver(self, tmp_path, capsys, target, g6):
        # both inputs send the structured K_3 solver to the complement of
        # no_instance(K3), a No instance with more than one candidate
        code = main([
            "solve", "--target", target, "-t", "3", "--budget", "1",
            write_g6(tmp_path, g6),
        ])
        report = last_json(capsys)
        assert code == 2
        assert report["status"] == "Unknown"
        assert report["stats"]["subsets_examined"] == 1

    def test_long_pattern_ends_in_exit_code(self, tmp_path, capsys):
        # the search for P1200 goes 1200 levels deep; the empty subset
        # already holds a copy, and that one subset is the whole budget
        code = main([
            "solve", "--target", "pattern", "--pattern", "P1200", "--budget", "1",
            write_g6(tmp_path, g6_encode(make_pattern(PatternSpec.path(1500)))),
        ])
        report = last_json(capsys)
        assert code == 2
        assert report["status"] == "Unknown"
        assert report["stats"]["recognizer_calls"] == 1

    def test_large_graph_budget_ends_in_exit_code(self, tmp_path, capsys):
        # 2,000 vertices: rejected subsets are counted in blocks, so the
        # budget is reached after a few searches and nothing of size 2^n
        # is built
        g = complement(make_pattern(PatternSpec.path(2000)))
        code = main([
            "solve", "--target", "pattern", "--pattern", "K3", "--budget", "1000",
            write_g6(tmp_path, g6_encode(g)),
        ])
        report = last_json(capsys)
        assert code == 2
        assert report["status"] == "Unknown"
        assert report["stats"]["subsets_examined"] == 1000
        assert report["stats"]["elapsed"] < 30

    def test_degenerate_recognizer_stays_sound(self, tmp_path, capsys):
        # C_5 has degeneracy 2 <= t-2 for t=4, so the subclass recognizer
        # accepts immediately; the answer must still be a real one.
        code = main([
            "solve", "--target", "kt", "-t", "4", "--recognizer", "degenerate",
            write_g6(tmp_path, C5_G6),
        ])
        assert code == 0
        assert last_json(capsys)["solution"] == []

    def test_human_table(self, tmp_path, capsys):
        main(["solve", "--target", "kt", "-t", "3", "--human", write_g6(tmp_path, C5_G6)])
        out = capsys.readouterr().out
        assert "status" in out and "Yes" in out
        assert "{" not in out

    def test_bad_pattern_token_exits_65(self, tmp_path, capsys):
        code = main([
            "solve", "--target", "pattern", "--pattern", "Z9",
            write_g6(tmp_path, C5_G6),
        ])
        assert code == 65
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidPattern"

    def test_zero_budget_exits_65(self, tmp_path, capsys):
        code = main([
            "solve", "--target", "kt", "-t", "3", "--budget", "0",
            write_g6(tmp_path, C5_G6),
        ])
        assert code == 65

    def test_missing_file_exits_66(self, tmp_path, capsys):
        code = main(["solve", "--target", "kt", "-t", "3", str(tmp_path / "nope.g6")])
        assert code == 66
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        # a directory cannot be opened as a file, as input or as output
        code = main(["solve", "--target", "kt", "-t", "3", str(tmp_path)])
        assert code == 66
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
        src = write_g6(tmp_path, C5_G6)
        code = main(["convert", "--from", "g6", "--to", "json", "-o", str(tmp_path), src])
        assert code == 66
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    def test_t_above_n_answers_as_the_solvers_do(self, tmp_path, capsys):
        # the CLI clamps t to max(n + 1, 2); its reports must equal those of
        # the solvers called with the unclamped t, on every graph with n <= 4
        def unclamped(g, t, target, brute, degenerate):
            recognizer = cli._degenerate_recognizer(t) if degenerate else None

            def base(h):
                if brute:
                    return brute_solve(h, make_pattern(PatternSpec.complete(t)))
                return solve_kt_free(h, t, recognizer=recognizer)

            if target == "kt":
                return base(g)
            co_target = make_pattern(PatternSpec.empty(t))
            return solve_complement_class(
                g, base, bar_recognizer=lambda h: is_pattern_free(h, co_target))

        modes = [([], False, False), (["--recognizer", "degenerate"], False, True),
                 (["--brute"], True, False)]
        for n in range(5):
            pairs = [(a, b) for b in range(n) for a in range(b)]
            for mask in range(1 << len(pairs)):
                g = graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                path = write_g6(tmp_path, g6_encode(g))
                for t in range(n + 1, n + 5):
                    for target in ("kt", "kt-bar"):
                        for flags, brute, degenerate in modes:
                            code = main(["solve", "--target", target, "-t", str(t),
                                         *flags, path])
                            got = last_json(capsys)
                            want = unclamped(g, t, target, brute, degenerate).to_json()
                            del got["stats"]["elapsed"], want["stats"]["elapsed"]
                            assert (code, got) == (0, want), (g.edges(), t, target, flags)

    def test_large_t_builds_no_large_pattern(self, tmp_path, capsys, monkeypatch):
        # a spy on the pattern specs; it refuses a large order before the
        # pattern's t rows of t bits are built
        sizes = []
        for name in ("complete", "empty"):
            def spy(cls, t, build=getattr(PatternSpec, name)):
                sizes.append(t)
                assert t <= 4, f"pattern of order {t} requested"
                return build(t)

            monkeypatch.setattr(PatternSpec, name, classmethod(spy))
        path = write_g6(tmp_path, P3_G6)
        for target in ("kt", "kt-bar"):
            for flags in ([], ["--brute"]):
                code = main(["solve", "--target", target, "-t", "100000", *flags, path])
                assert code == 0
                assert last_json(capsys)["solution"] == []
        assert sizes

    def test_malformed_g6_exits_65_with_offset(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"B\x01\n")
        code = main(["solve", "--target", "kt", "-t", "3", str(path)])
        assert code == 65
        assert "byte offset" in json.loads(capsys.readouterr().err)["message"]

    def test_g6_above_the_vertex_cap_exits_65(self, tmp_path, capsys):
        path = tmp_path / "big.g6"
        path.write_bytes(b"~C?@\n")  # header only, n = 16,385
        code = main(["solve", "--target", "kt", "-t", "3", str(path)])
        assert code == 65
        err = capsys.readouterr().err
        assert json.loads(err) == {
            "error": "MalformedG6",
            "message": "n is 16385; at most 16384 vertices are accepted (byte offset 1)",
        }

    def test_stdin_dash(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=io.BytesIO(C5_G6 + b"\n")))
        code = main(["solve", "--target", "kt", "-t", "3", "-"])
        assert code == 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "x.g6"],
            ["solve", "--target", "kt", "x.g6"],
            ["solve", "--target", "kt", "-t", "3", "--pattern", "K3", "x.g6"],
            ["solve", "--target", "pattern", "x.g6"],
            ["solve", "--target", "pattern", "--pattern", "K3",
             "--recognizer", "degenerate", "x.g6"],
            ["gen", "star", "x.g6"],
            ["gen", "p7", "--dummy-clause", "x.cnf"],
            ["frobnicate"],
            [],
        ],
    )
    def test_usage_exit_64(self, argv, capsys, tmp_path):
        # Flag validation fires before input files are opened for the
        # post-parse checks, so give the path-dependent cases a real file.
        fixed = [a.replace("x.g6", write_g6(tmp_path, C5_G6)) for a in argv]
        if any(a.endswith(".cnf") for a in fixed):
            cnf = tmp_path / "x.cnf"
            cnf.write_bytes(DIMACS_41)
            fixed = [str(cnf) if a == "x.cnf" else a for a in fixed]
        with pytest.raises(SystemExit) as excinfo:
            main(fixed)
        assert excinfo.value.code == 64
        assert "error" in capsys.readouterr().err


class TestGen:
    def test_c8_size_line(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_bytes(DIMACS_41)
        code = main(["gen", "c8", "-o", str(tmp_path / "inst"), str(cnf)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "vertices=80"
        g = g6_decode((tmp_path / "inst.g6").read_bytes().strip())
        assert g.n == 80
        cert = json.loads((tmp_path / "inst.cert.json").read_text())
        assert cert["size_formula_check"]["ok"] is True

    def test_star_size_line(self, tmp_path, capsys):
        src = write_g6(tmp_path, g6_encode(make_pattern(PatternSpec.path(5))))
        code = main(["gen", "star", "-t", "4", "-o", str(tmp_path / "st"), src])
        assert code == 0
        assert capsys.readouterr().out.strip() == "vertices=35"

    def test_path_t2_violates_precondition(self, tmp_path, capsys):
        code = main(["gen", "path", "-t", "2", write_g6(tmp_path, C5_G6)])
        assert code == 65
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidT"

    def test_k15_dummy_clause_pads_odd_formula(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_bytes(DIMACS_41)
        code = main([
            "gen", "k15", "--dummy-clause", "-o", str(tmp_path / "k"), str(cnf),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "vertices=186"
        cert = json.loads((tmp_path / "k.cert.json").read_text())
        assert cert["params"]["dummy_clause_added"] is True

    def test_default_prefix_from_input_stem(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cnf = tmp_path / "phi.cnf"
        cnf.write_bytes(DIMACS_41)
        assert main(["gen", "p7", "phi.cnf"]) == 0
        assert (tmp_path / "phi.p7.g6").exists()
        assert (tmp_path / "phi.p7.cert.json").exists()

    def test_bad_dimacs_exits_65(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_bytes(b"p cnf 4 1\n1 2 3 0\n")
        code = main(["gen", "c8", str(cnf)])
        assert code == 65


class TestGenDigests:
    """gen output is a fixture: the sha256 digests (first 16 hex digits) of
    the .g6 and .cert.json files for every kind on two formulas and two
    source graphs. A change to the builders or writers must keep them."""

    FORMULAS = {
        "a": b"p cnf 5 2\n1 -2 3 4 0\n-1 2 -5 3 0\n",
        "b": b"p cnf 6 3\n1 2 3 4 0\n-1 -2 5 6 0\n3 -4 -5 -6 0\n",
    }
    SOURCES = {
        "a": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
        "b": [(0, 1), (1, 2), (2, 3)],
    }
    DIGESTS = {
        ("a", "k15"): ("7f5d80456de6b404", "422c310a01727111"),
        ("a", "k15 --dummy-clause"): ("ba46ee6e3c702902", "2f6479949c32d4c5"),
        ("a", "p7"): ("6e958137d3b254bf", "4b94328274973a70"),
        ("a", "p8"): ("ae21bb6a9e8e2f25", "3352eb7408ebafd8"),
        ("a", "c8"): ("ec5d55d1d5bcf551", "d434406fdf88f483"),
        ("a", "star -t 3"): ("4df919833c26b0eb", "57ce097f28602fa9"),
        ("a", "path -t 4"): ("20949be5fb0f9f0d", "33b064439f248d1b"),
        ("a", "cycle -t 5"): ("604831d171000cdf", "fcb9e2148bd55ec1"),
        ("b", "k15"): ("b1b632a0b05807ef", "01ab01fb28c29011"),
        ("b", "k15 --dummy-clause"): ("af1cb65096b565a4", "a1460d4bca6f589a"),
        ("b", "p7"): ("b65491a06ad8bedd", "386d216618731a63"),
        ("b", "p8"): ("decc5514a0ae7276", "31f211fc966a5e9e"),
        ("b", "c8"): ("69b0b4ba4e40bac2", "85d60468ce76ae3d"),
        ("b", "star -t 3"): ("e1c3e0c7b31bb2ba", "b5534142195a5162"),
        ("b", "path -t 4"): ("a5435dfa5d37d6e2", "95ea664f72f2e499"),
        ("b", "cycle -t 5"): ("c306b42fcd99ea9f", "eebee5cc55532a6a"),
    }

    @pytest.mark.parametrize("key,argv", sorted(DIGESTS))
    def test_digest(self, tmp_path, capsys, key, argv):
        argv = argv.split()
        if "-t" in argv:
            n = 1 + max(max(e) for e in self.SOURCES[key])
            source = write_g6(tmp_path, g6_encode(graph_from_edges(n, self.SOURCES[key])))
        else:
            source = tmp_path / "phi.cnf"
            source.write_bytes(self.FORMULAS[key])
        prefix = tmp_path / "out"
        assert main(["gen", *argv, "-o", str(prefix), str(source)]) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / f"out.{ext}").read_bytes()).hexdigest()[:16]
            for ext in ("g6", "cert.json")
        )
        assert digests == self.DIGESTS[key, " ".join(argv)]


class TestSolveDigests:
    """solve output is a fixture too: per solve command, the sha256 digest
    (first 16 hex digits) of its report lines with `elapsed` stripped, over
    seeded G(n, p) hosts with n = 6-12 and p in {0.3, 0.5, 0.7}, or over one
    fixed host. Every counter is pinned, so a speedup of a solver must keep
    its reports byte for byte."""

    HOSTS = {
        "gnp": [(n, p) for n in range(6, 13) for p in (0.3, 0.5, 0.7)],
        "gnp-small": [(n, p) for n in range(6, 10) for p in (0.3, 0.5, 0.7)],
        "no-k3": None,
    }
    DIGESTS = {
        ("gnp", "--target kt -t 2"): "79cbd2aef59cce2a",
        ("gnp", "--target kt -t 3"): "507f83ddb1656e68",
        ("gnp", "--target kt -t 4"): "2d06676d5aef6d9a",
        ("gnp", "--target kt-bar -t 2"): "93593b7223b9f4a2",
        ("gnp", "--target kt-bar -t 3"): "46daf75472a1173c",
        ("gnp", "--target kt-bar -t 4"): "8ea9d32b1e9e20bd",
        ("gnp", "--target kt -t 3 --recognizer degenerate"): "e63aaedf00496b0f",
        ("gnp", "--target kt-bar -t 4 --recognizer degenerate"): "481dcd84f2db622d",
        ("no-k3", "--target kt -t 3"): "36edaafde8891b85",
        ("no-k3", "--target kt-bar -t 3"): "13627c88f8f0e910",
        ("gnp-small", "--target pattern --pattern P4"): "017ed65c3591b929",
        ("gnp-small", "--target pattern --pattern C4"): "3b6eb6f346324d43",
        ("gnp-small", "--target pattern --pattern K3"): "569cc4ac12135a36",
    }

    @staticmethod
    def host(n, p):
        rng = random.Random(1000 * n + round(100 * p))
        edges = [(a, b) for b in range(n) for a in range(b) if rng.random() < p]
        return graph_from_edges(n, edges)

    @pytest.mark.parametrize("hosts,argv", sorted(DIGESTS))
    def test_digest(self, tmp_path, capsys, hosts, argv):
        shapes = self.HOSTS[hosts]
        if shapes is None:
            graphs = [no_instance(make_pattern(PatternSpec.complete(3)))]
        else:
            graphs = [self.host(n, p) for n, p in shapes]
        lines = []
        for g in graphs:
            code = main(["solve", *argv.split(), write_g6(tmp_path, g6_encode(g))])
            report = last_json(capsys)
            del report["stats"]["elapsed"]
            lines.append(f"{code} {json.dumps(report)}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[hosts, argv]


class TestCertificateText:
    """gen writes the certificate as exactly the text json.dumps(doc,
    indent=2) gives, though it renders the roles list itself."""

    DIMACS_42 = b"p cnf 4 2\n1 -2 3 4 0\n-1 2 -3 4 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["k15", "f2.cnf"],
            ["k15", "--dummy-clause", "f1.cnf"],
            ["p7", "f1.cnf"],
            ["p8", "f2.cnf"],
            ["c8", "f1.cnf"],
            ["star", "-t", "4", "c5.g6"],
            ["path", "-t", "3", "c5.g6"],
            ["cycle", "-t", "4", "c5.g6"],
            ["star", "-t", "3", "e3.g6"],  # no source edges: "edges": []
            ["cycle", "-t", "4", "e0.g6"],  # no vertices: "roles": []
        ],
    )
    def test_matches_json_dumps(self, tmp_path, capsys, argv):
        (tmp_path / "f1.cnf").write_bytes(DIMACS_41)
        (tmp_path / "f2.cnf").write_bytes(self.DIMACS_42)
        write_g6(tmp_path, C5_G6, "c5.g6")
        write_g6(tmp_path, g6_encode(complement(make_pattern(PatternSpec.complete(3)))), "e3.g6")
        write_g6(tmp_path, b"?", "e0.g6")
        prefix = tmp_path / "out"
        argv = ["gen", *argv[:-1], "-o", str(prefix), str(tmp_path / argv[-1])]
        assert main(argv) == 0
        inst = cli._build_instance(cli.build_parser().parse_args(argv))
        expected = json.dumps(certificate_json(inst), indent=2) + "\n"
        assert (tmp_path / "out.cert.json").read_text() == expected

    def test_empty_indices_and_escaped_names(self):
        doc = {
            "kind": "Custom",
            "params": {},
            "roles": [
                {"vertex": 0, "role": "plain", "indices": []},
                {"vertex": 1, "role": 'quo"te\\', "indices": [3, -1]},
                {"vertex": 2, "role": "\u00e9\n", "indices": []},
                {"vertex": 3, "role": "plain", "indices": [0]},
                {"vertex": 4, "role": "100%", "indices": [7]},
                {"vertex": 5, "role": "%d %s %%", "indices": [1, 2]},
                {"vertex": 6, "role": "plain", "indices": [0, 1]},
            ],
            "size_formula_check": {"expected": 7, "actual": 7, "ok": True},
        }
        assert cli._certificate_text(doc) == json.dumps(doc, indent=2)


class TestVerify:
    def test_gs_small_sweep_passes(self, capsys):
        code = main(["verify", "gs", "--max-n", "3"])
        summary = last_json(capsys)
        assert code == 0
        assert summary["passed"] is True
        # 2^C(n,2) graphs times 2^n subsets for n = 0..3
        assert summary["cases"] == 1 + 2 + 8 + 64

    def test_split_sweep_seeded(self, capsys):
        code = main(["verify", "split", "--max-n", "5", "--seed", "7"])
        summary = last_json(capsys)
        assert code == 0
        assert summary["failures"] == []

    def test_failure_exits_3_with_dump(self, capsys, monkeypatch):
        fake = {
            "suite": "gs",
            "cases": 1,
            "failures": [{"graph6": "Bw", "s": [0, 1]}],
            "passed": False,
        }
        monkeypatch.setattr("subcomp.cli.run_suite", lambda *a, **k: fake)
        code = main(["verify", "gs"])
        assert code == 3
        assert last_json(capsys)["failures"][0]["graph6"] == "Bw"

    def test_gadget_max_n_sets_variable_count(self, capsys, monkeypatch):
        import subcomp.verify as verify

        sizes = []
        original = verify.random_satisfiable_formula

        def spy(rng, max_n=6, max_m=2):
            phi = original(rng, max_n=max_n, max_m=max_m)
            sizes.append(phi.n)
            return phi

        monkeypatch.setattr(verify, "random_satisfiable_formula", spy)
        assert main(["verify", "gadget", "--max-n", "4"]) == 0
        assert last_json(capsys)["cases"] == 12
        assert sizes == [4] * 12

    def test_gadget_max_n_below_four_exits_65(self, capsys):
        assert main(["verify", "gadget", "--max-n", "3"]) == 65
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgs"

    @pytest.mark.parametrize("suite", ["split", "kt-oracle"])
    def test_negative_max_n_exits_65(self, capsys, suite):
        assert main(["verify", suite, "--max-n", "-1"]) == 65
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgs"

    def test_human_verdict_line(self, capsys):
        code = main(["verify", "inductive", "--max-n", "1", "--human"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


class TestConvert:
    def test_g6_json_round_trip(self, tmp_path, capsys):
        src = write_g6(tmp_path, C5_G6)
        assert main(["convert", "--from", "g6", "--to", "json",
                     "-o", str(tmp_path / "g.json"), src]) == 0
        payload = json.loads((tmp_path / "g.json").read_text())
        assert payload["n"] == 5
        assert len(payload["edges"]) == 5
        assert main(["convert", "--from", "json", "--to", "g6",
                     "-o", str(tmp_path / "back.g6"), str(tmp_path / "g.json")]) == 0
        assert (tmp_path / "back.g6").read_bytes().strip() == C5_G6

    def test_input_labels_are_dropped(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}))
        assert main(["convert", "--from", "json", "--to", "json", str(path)]) == 0
        assert capsys.readouterr().out == '{"n": 2, "edges": [[0, 1]]}\n'

    def test_stdout_default(self, tmp_path, capsys):
        src = write_g6(tmp_path, P3_G6)
        assert main(["convert", "--from", "g6", "--to", "json", src]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_malformed_g6_offset_in_error(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"~~\n")
        code = main(["convert", "--from", "g6", "--to", "json", str(path)])
        assert code == 65
        assert "byte offset" in json.loads(capsys.readouterr().err)["message"]

    def test_asymmetric_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1], [1, 0]]}))
        code = main(["convert", "--from", "json", "--to", "g6", str(path)])
        assert code == 65

    def test_empty_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_bytes(b"\n")
        code = main(["convert", "--from", "g6", "--to", "json", str(path)])
        assert code == 65

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "edges": []},
            {"n": 2, "edges": [[True, False]]},
            {"n": 2, "edges": [], "labels": [0, 1]},
            {"n": 2, "edges": [], "labels": ["a", "b", "c"]},
            # past the vertex cap; at 2^62 the row table cannot even be asked for
            {"n": 4611686018427387904, "edges": []},
        ],
    )
    def test_hostile_json_exits_65(self, tmp_path, capsys, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code = main(["convert", "--from", "json", "--to", "g6", str(path)])
        assert code == 65
        assert json.loads(capsys.readouterr().err)["error"] == "SubcompError"

    def test_deeply_nested_json_exits_65(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["convert", "--from", "json", "--to", "g6", str(path)])
        assert code == 65


def test_import_does_not_load_dataclasses():
    # every CLI launch pays the import; dataclasses pulls in inspect and ast
    code = "import sys, subcomp.cli; assert 'dataclasses' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    # main() builds the argparse parser on its first call and reuses it;
    # a usage error in between leaves it fit for the next call
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    solve = ["solve", "--target", "kt-bar", "-t", "2", write_g6(tmp_path, P3_G6)]

    def report():
        doc = last_json(capsys)
        del doc["stats"]["elapsed"]
        return doc

    assert main(solve) == 0
    first = report()
    assert first["solution"]
    assert main(["verify", "split", "--max-n", "5"]) == 0
    assert last_json(capsys)["passed"]
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--target", "kq", "-t", "2", solve[-1]])
    assert excinfo.value.code == 64
    assert "invalid choice" in capsys.readouterr().err
    assert main(solve) == 0
    assert report() == first
    assert len(builds) == 1
