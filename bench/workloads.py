"""The three benchmark workloads and the operations they run.

An operation is one in-process `subcomp.cli.main(argv)` call on generated
files, with stdout captured; gadget operations then decode the written
graph, flip the certificate's set and test pattern-freeness through
subcomp's public functions. Each operation is checked afterwards, outside
its timing, against answers computed by `oracle` and `corpus`.

A workload is a list of cells, each a class of input with a fixed expected
verdict. Round r holds a fresh seeded sample for every cell, so every round
has the same composition and the latency percentiles land inside the same
classes on every seed. The cell counts place p50 and p90 inside blocks of
similar-cost operations rather than in the gaps between them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from subcomp import cli, graphs
from subcomp.graphs import VertexSet, make_pattern

import corpus
from oracle import Pattern, flipped, is_free, solvable

YES, NO = True, False
MAX_TRIES = 2000


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class SolveOp:
    """`subcomp solve`; the verdict must match the exhaustive oracle and a
    Yes certificate must leave the graph free of `token` under our own test."""

    def __init__(self, argv: list[str], rows: list[int], token: str, expect_yes: bool):
        self.argv = argv
        self.rows = rows
        self.token = token
        self.expect_yes = expect_yes

    def run(self):
        return call_cli(self.argv)

    def check(self, outcome) -> str | None:
        code, out = outcome
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return f"exit {code} without a JSON report"
        status = report.get("status")
        if {"Yes": 0, "No": 1, "Unknown": 2}.get(status) != code:
            return f"status {status!r} with exit code {code}"
        if status != ("Yes" if self.expect_yes else "No"):
            return f"status {status}, oracle says {'Yes' if self.expect_yes else 'No'}"
        if status == "Yes":
            s = 0
            for v in report["solution"]:
                if not 0 <= v < len(self.rows):
                    return f"solution vertex {v} out of range"
                s |= 1 << v
            if not report.get("verified"):
                return "Yes report not marked verified"
            if not is_free(flipped(self.rows, s), Pattern(self.token)):
                return f"certificate leaves an induced {self.token}"
        return None

    def counts(self, outcome) -> dict:
        stats = json.loads(outcome[1].strip().splitlines()[-1])["stats"]
        return {"subsets_examined": stats["subsets_examined"], "pairs_examined": stats["pairs_examined"]}


SAT_PATTERN = {"k15": "K1,5", "p7": "P7", "p8": "P8", "c8": "C8"}
SAT_SIZE = {
    "k15": lambda n, m: 22 * n + 5 * m,
    "p7": lambda n, m: 44 * n + 21 * m,
    "p8": lambda n, m: 50 * n + 32 * m,
    "c8": lambda n, m: 8 * n + 48 * m,
}


def _check_graph6(prefix: str, g, expected_n: int) -> str | None:
    """The decoded graph has the closed-form size and equals our own decode."""
    if g.n != expected_n:
        return f"decoded {g.n} vertices, closed form gives {expected_n}"
    own = corpus.g6_decode(Path(prefix + ".g6").read_bytes().strip())
    if tuple(own) != g.rows:
        return "graph6 decode differs from the reference decoder"
    return None


class SatGadgetOp:
    """`subcomp gen k15|p7|p8|c8` on a formula with a planted threshold-2
    assignment, then decode, flip the assignment's set and check that the
    result has no induced copy of the gadget's pattern."""

    def __init__(self, argv, prefix, kind, values, m):
        self.argv = argv
        self.prefix = prefix
        self.kind = kind
        self.values = values
        self.expected_n = SAT_SIZE[kind](len(values), m)

    def run(self):
        code, out = call_cli(self.argv)
        g = graphs.g6_decode(Path(self.prefix + ".g6").read_bytes().strip())
        cert = json.loads(Path(self.prefix + ".cert.json").read_text())
        role = "literal_set" if self.kind == "c8" else "literal"
        s = 0
        for entry in cert["roles"]:
            var, side = entry["indices"][:2] if entry["role"] == role else (None, None)
            if var is not None and side == (0 if self.values[var - 1] else 1):
                s |= 1 << entry["vertex"]
        h = make_pattern(cli.parse_pattern_token(SAT_PATTERN[self.kind]))
        free = graphs.is_pattern_free(graphs.subgraph_complement(g, VertexSet(s, g.n)), h)
        return code, out, g, cert, s, free

    def check(self, outcome) -> str | None:
        code, out, g, cert, s, free = outcome
        if code != 0 or out != f"vertices={self.expected_n}\n":
            return f"exit {code}, output {out!r}, closed form {self.expected_n}"
        size = cert["size_formula_check"]
        if (size["expected"], size["actual"], size["ok"]) != (self.expected_n, self.expected_n, True):
            return f"certificate size check {size}"
        per_var = 4 if self.kind == "c8" else 1
        if s.bit_count() != per_var * len(self.values):
            return f"assignment set has {s.bit_count()} vertices"
        if not free:
            return f"planted assignment's set leaves an induced {SAT_PATTERN[self.kind]}"
        return _check_graph6(self.prefix, g, self.expected_n)

    def counts(self, outcome) -> dict:
        return {}


class InductiveGadgetOp:
    """`subcomp gen star|path|cycle -t T` on a small source, then decode."""

    def __init__(self, argv, prefix, t, source):
        self.argv = argv
        self.prefix = prefix
        self.source = source
        self.expected_n = len(source) * (t + 3)

    def run(self):
        code, out = call_cli(self.argv)
        return code, out, graphs.g6_decode(Path(self.prefix + ".g6").read_bytes().strip())

    def check(self, outcome) -> str | None:
        code, out, g = outcome
        if code != 0 or out != f"vertices={self.expected_n}\n":
            return f"exit {code}, output {out!r}, closed form {self.expected_n}"
        k = len(self.source)
        keep = (1 << k) - 1
        if [row & keep for row in g.rows[:k]] != self.source:
            return "source graph is not the leading induced subgraph"
        return _check_graph6(self.prefix, g, self.expected_n)

    def counts(self, outcome) -> dict:
        return {}


def _sample(rng, n, p, token, expect_yes):
    """First G(n, p) draw whose oracle verdict for `token` is `expect_yes`."""
    h = Pattern(token)
    for _ in range(MAX_TRIES):
        rows = corpus.gnp(rng, n, p)
        if solvable(rows, h) == expect_yes:
            return rows
    raise RuntimeError(f"no G({n}, {p}) with verdict {expect_yes} for {token} in {MAX_TRIES} draws")


class SolveWorkload:
    """Cells are (argv prefix, oracle token, n, p, expected verdict, count);
    n = None means the product No instance of the token."""

    def __init__(self, name, cells):
        self.name = name
        self.cells = cells

    def round(self, rng: random.Random, workdir: Path) -> list:
        ops = []
        for prefix, token, n, p, expect, count in self.cells:
            for _ in range(count):
                if n is None:
                    rows = corpus.no_instance(token)
                    expect = solvable(rows, Pattern(token))
                else:
                    rows = _sample(rng, n, p, token, expect)
                path = corpus.write_g6(workdir / f"in{len(ops)}.g6", rows)
                ops.append(SolveOp(prefix + [path], rows, token, expect))
        rng.shuffle(ops)
        return ops


def _kt(target, t):
    return ["solve", "--target", target, "-t", str(t)], ("K" if target == "kt" else "E") + str(t)


def _pattern(token):
    return ["solve", "--target", "pattern", "--pattern", token], token


KT_STRUCTURED = SolveWorkload("kt-structured", [
    # below p50: cheap Yes at t = 3 and t = 4, small No, a search-dependent Yes
    (*_kt("kt", 4), 12, 0.5, YES, 1),
    (*_kt("kt-bar", 4), 11, 0.3, YES, 1),
    (*_kt("kt", 3), 10, 0.3, YES, 1),
    (*_kt("kt", 3), 12, 0.3, YES, 1),
    (*_kt("kt", 3), 8, 0.5, NO, 1),
    (*_kt("kt", 3), None, None, NO, 1),
    # the p50 block: No at n = 10, whose costs spread by about a quarter
    # either way, so that a slower stretch of the machine moves p50 in
    # proportion rather than by a step
    (*_kt("kt", 3), 10, 0.5, NO, 4),
    (*_kt("kt", 3), 10, 0.7, NO, 4),
    (*_kt("kt-bar", 3), 10, 0.3, NO, 2),
    (*_kt("kt-bar", 3), 10, 0.5, NO, 2),
    # the p90 block: No at n = 11
    (*_kt("kt", 3), 11, 0.5, NO, 2),
    (*_kt("kt", 3), 11, 0.7, NO, 1),
    (*_kt("kt-bar", 3), 11, 0.5, NO, 1),
])

BRUTE_PATTERNS = SolveWorkload("brute-patterns", [
    # cheap: Yes found among the first subsets, or No on 9 vertices
    (*_pattern("P5"), 9, 0.5, YES, 1),
    (*_pattern("C4"), 9, 0.5, YES, 1),
    (*_pattern("C5"), 11, 0.5, YES, 1),
    (*_pattern("K3"), 9, 0.5, YES, 1),
    (*_pattern("K1,3"), 9, 0.5, YES, 1),
    (*_pattern("co-C6"), 13, 0.5, YES, 1),
    (*_pattern("P4"), 9, 0.5, NO, 1),
    (*_pattern("P3"), None, None, NO, 1),
    # Yes found further in, and the quickest No at n = 11
    (*_pattern("P5"), 11, 0.5, YES, 1),
    (*_pattern("C5"), 13, 0.5, YES, 1),
    (*_pattern("K3"), 11, 0.5, NO, 1),
    (*_pattern("E3"), 11, 0.5, NO, 1),
    # the p50 block: No at n = 11, every one of the 2^11 subsets tried
    (*_pattern("P4"), 11, 0.5, NO, 3),
    (*_pattern("K1,3"), 11, 0.5, NO, 2),
    (*_pattern("co-P4"), 11, 0.5, NO, 3),
    # No at n = 13; the p90 block is P4 and co-P4
    (*_pattern("K3"), 13, 0.5, NO, 1),
    (*_pattern("E3"), 13, 0.5, NO, 1),
    (*_pattern("C4"), 13, 0.5, NO, 3),
    (*_pattern("P4"), 13, 0.5, NO, 3),
    (*_pattern("co-P4"), 13, 0.5, NO, 3),
    (*_pattern("K1,3"), 13, 0.5, NO, 1),
])


class GadgetWorkload:
    """SAT cells are (kind, variables, clauses); inductive cells are
    (kind, t, source vertices). Per round, the five cheap inductive
    operations and about two cheap C8 checks sit below the ten K1,5 ones,
    which hold p50; p90 falls among the P7, P8 and costly C8 checks.

    C8 check costs vary from 16 ms to over 1 s with the formula, so the
    number of them below p50 varies, and p50 lands on a different rank
    of the K1,5 block. The cell counts put p50 near the middle of that
    block, where its costs are densest. The K1,5 cells use 5 and 6
    variables only: 4-variable ones cost about a third less and would
    make the block a slope."""

    name = "gadget-certify"

    SAT = [
        ("c8", 4, 1), ("c8", 5, 1), ("c8", 6, 1),
        ("k15", 5, 1), ("k15", 5, 1), ("k15", 5, 1), ("k15", 5, 1),
        ("k15", 5, 2), ("k15", 5, 2), ("k15", 5, 2), ("k15", 5, 2),
        ("k15", 6, 1), ("k15", 6, 2),
        ("p7", 5, 2), ("p7", 6, 1),
        ("p8", 4, 2), ("p8", 5, 1),
    ]
    INDUCTIVE = [
        ("star", 3, 5), ("star", 4, 7),
        ("path", 4, 7), ("path", 5, 3),
        ("cycle", 6, 5),
    ]

    def round(self, rng: random.Random, workdir: Path) -> list:
        ops = []
        for kind, nvars, m in self.SAT:
            values, clauses = corpus.planted_formula(rng, nvars, m)
            path = corpus.write_dimacs(workdir / f"in{len(ops)}.cnf", nvars, clauses)
            prefix = str(workdir / f"out{len(ops)}")
            ops.append(SatGadgetOp(["gen", kind, "-o", prefix, path], prefix, kind, values, m))
        for kind, t, n in self.INDUCTIVE:
            source = corpus.gnp(rng, n, 0.5)
            path = corpus.write_g6(workdir / f"in{len(ops)}.g6", source)
            prefix = str(workdir / f"out{len(ops)}")
            ops.append(InductiveGadgetOp(["gen", kind, "-t", str(t), "-o", prefix, path], prefix, t, source))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (KT_STRUCTURED, BRUTE_PATTERNS, GadgetWorkload())}
