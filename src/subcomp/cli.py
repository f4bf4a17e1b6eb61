"""Command-line front-end: solve, gen, verify, convert.

All commands emit JSON on stdout by default (``--human`` switches to plain
tables) so the output can feed scripts directly. Exit codes:

* solve: 0 = Yes, 1 = No, 2 = Unknown
* verify: 0 = all checks passed, 3 = counterexample found
* 64 = usage error, 65 = bad input data or construction precondition,
  66 = an input or output path that cannot be opened
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Iterator, Optional

from .errors import InvalidPattern, SubcompError
from .gadgets import (
    GadgetInstance,
    c8_gadget,
    certificate_json,
    cycle_inductive,
    k15_gadget,
    p7_gadget,
    p8_gadget,
    path_inductive,
    star_inductive,
)
from .graphs import (
    Graph,
    PatternSpec,
    degeneracy,
    g6_decode,
    g6_encode,
    graph_from_json,
    graph_to_json,
    is_pattern_free,
    make_pattern,
)
from .sat import parse_dimacs
from .solvers import (
    DEFAULT_SUBSET_CAP,
    SolveReport,
    brute_solve,
    solve_complement_class,
    solve_kt_free,
)
from .verify import SUITES, run_suite

EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_PATTERN_TOKEN = re.compile(r"(co-)?(?:K1,(\d+)|([KPCE])(\d+))\Z")


def parse_pattern_token(token: str) -> PatternSpec:
    """Small grammar for --pattern: K4, P5, C6, E3, K1,5, and a co- prefix
    for the complement (co-P4 is self-complementary, co-C5 is C5)."""
    m = _PATTERN_TOKEN.match(token)
    if m is None:
        raise InvalidPattern(f"cannot parse pattern token {token!r}")
    co, leaves, kind, size = m.groups()
    if leaves is not None:
        spec = PatternSpec.star(int(leaves))
    else:
        builder = {
            "K": PatternSpec.complete,
            "P": PatternSpec.path,
            "C": PatternSpec.cycle,
            "E": PatternSpec.empty,
        }[kind]
        spec = builder(int(size))
    if co:
        spec = PatternSpec.complement_of(spec)
    return spec


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _read_graph(path: str) -> Graph:
    """First graph6 line of a file (or stdin when path is '-')."""
    for line in _read_bytes(path).splitlines():
        line = line.strip()
        if line:
            return g6_decode(line)
    raise SubcompError(f"no graph6 line found in {path!r}")


def _rows(prefix: str, value) -> Iterator[tuple[str, str]]:
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _rows(f"{prefix}.{key}" if prefix else key, child)
    elif isinstance(value, list):
        yield prefix, " ".join(str(v) for v in value) if value else "(empty)"
    elif value is None:
        yield prefix, "-"
    else:
        yield prefix, str(value)


def _emit(payload: dict, human: bool) -> None:
    if human:
        for key, text in _rows("", payload):
            print(f"{key:<24}{text}")
    else:
        print(json.dumps(payload))


def _degenerate_recognizer(t: int):
    # K_t-free whenever the degeneracy stays below t-1; a proper subclass
    # of the exact target, usable as a faster sufficient check.
    def recognize(g: Graph) -> bool:
        return g.n == 0 or degeneracy(g) <= t - 2

    return recognize


def cmd_solve(args) -> int:
    # flag-combination errors are usage errors (64) and must not be masked
    # by input IO, so they are checked before the graph is read
    if args.recognizer == "degenerate" and (args.target == "pattern" or args.brute):
        args.parser.error("--recognizer degenerate needs --target kt or kt-bar without --brute")
    if args.target == "pattern":
        if args.pattern is None:
            args.parser.error("--target pattern requires --pattern")
    else:
        if args.t is None:
            args.parser.error(f"--target {args.target} requires -t")
        if args.pattern is not None:
            args.parser.error("--pattern only applies to --target pattern")
    if args.budget < 1:
        raise SubcompError(f"budget must be at least 1, got {args.budget}")
    g = _read_graph(args.input)
    # an n-vertex graph holds no pattern of more than n vertices, so every
    # larger pattern answers as one of order max(n + 1, 2) does (on the null
    # graph a single vertex has its own answer); the clamps keep patterns
    # small. make_pattern refuses no token of order above 2, so clamping
    # --pattern hides none of its errors
    top = max(g.n + 1, 2)
    if args.target == "pattern":
        spec = parse_pattern_token(args.pattern)
        if spec.order > top:
            spec = PatternSpec.complete(top)
    else:
        t = min(args.t, top)
        spec = (PatternSpec.complete if args.target == "kt" else PatternSpec.empty)(t)
    # brute force takes any pattern, E_t included; the structured solver only
    # knows K_t and reaches E_t-freeness through the complement. Patterns are
    # built when used, so -t 0 raises InvalidT on structured kt
    if args.target == "pattern" or args.brute:
        report = brute_solve(g, make_pattern(spec), cap=args.budget)
    else:
        recognizer = _degenerate_recognizer(t) if args.recognizer == "degenerate" else None

        def base(h: Graph) -> SolveReport:
            return solve_kt_free(h, t, recognizer=recognizer, cap=args.budget)

        if args.target == "kt":
            report = base(g)
        else:
            co_target = make_pattern(spec)
            report = solve_complement_class(
                g, base, bar_recognizer=lambda h: is_pattern_free(h, co_target)
            )
    _emit(report.to_json(), args.human)
    return {"Yes": 0, "No": 1, "Unknown": 2}[report.status]


_SAT_GADGETS = {
    "k15": k15_gadget,
    "p7": p7_gadget,
    "p8": p8_gadget,
    "c8": c8_gadget,
}

_INDUCTIVE_GADGETS = {
    "star": star_inductive,
    "path": path_inductive,
    "cycle": cycle_inductive,
}


def _build_instance(args) -> GadgetInstance:
    if args.kind in _INDUCTIVE_GADGETS:
        if args.t is None:
            args.parser.error(f"gen {args.kind} requires -t")
        return _INDUCTIVE_GADGETS[args.kind](_read_graph(args.input), args.t)
    if args.dummy_clause and args.kind != "k15":
        args.parser.error("--dummy-clause only applies to the k15 construction")
    phi = parse_dimacs(_read_bytes(args.input))
    if args.kind == "k15":
        return k15_gadget(phi, add_dummy_clause=args.dummy_clause)
    return _SAT_GADGETS[args.kind](phi)


# one roles entry as json.dumps(doc, indent=2) writes it; the role name is
# filled in here, the vertex and index slots by the writer
_ROLE_ENTRY = '    {\n      "vertex": %%s,\n      "role": %s,\n      "indices": %s\n    }'


def _role_template(name: str, arity: int) -> str:
    """Roles entry with a %s slot for the vertex and each of arity int
    indices."""
    indices = "[\n        " + ",\n        ".join(["%s"] * arity) + "\n      ]" if arity else "[]"
    return _ROLE_ENTRY % (json.dumps(name).replace("%", "%%"), indices)


def _certificate_text(doc: dict) -> str:
    """The text of json.dumps(doc, indent=2). The roles list, nearly all of
    it, is one % format over the joined templates of its entries, one
    template per (role name, arity); the other values are rendered by
    json.dumps, re-indented one level."""
    parts = []
    for key, value in doc.items():
        if key == "roles" and value:
            keys, slots = [], []
            for e in value:
                index = e["indices"]
                keys.append((e["role"], len(index)))
                slots.append(e["vertex"])
                slots += index
            templates = {k: _role_template(*k) for k in set(keys)}
            text = "[\n" + ",\n".join([templates[k] for k in keys]) % tuple(slots) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}"


def cmd_gen(args) -> int:
    inst = _build_instance(args)
    if args.output is not None:
        prefix = args.output
    else:
        stem = "out" if args.input == "-" else Path(args.input).stem
        prefix = f"{stem}.{args.kind}"
    Path(f"{prefix}.g6").write_bytes(g6_encode(inst.graph) + b"\n")
    Path(f"{prefix}.cert.json").write_text(_certificate_text(certificate_json(inst)) + "\n")
    print(f"vertices={inst.graph.n}")
    return 0


def cmd_verify(args) -> int:
    summary = run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    if args.human:
        verdict = "PASS" if summary["passed"] else "FAIL"
        print(f"suite={summary['suite']} cases={summary['cases']} "
              f"failures={len(summary['failures'])} {verdict}")
        for failure in summary["failures"]:
            print(json.dumps(failure))
    else:
        print(json.dumps(summary))
    return 0 if summary["passed"] else EXIT_VERIFY_FAILED


def cmd_convert(args) -> int:
    if args.src == "g6":
        g = _read_graph(args.input)
    else:
        try:
            g = graph_from_json(_read_bytes(args.input).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # deep nesting recurses
            raise SubcompError(f"bad JSON graph: {exc}") from exc
    if args.dst == "g6":
        out = g6_encode(g) + b"\n"
    else:
        out = (graph_to_json(g) + "\n").encode("utf-8")
    if args.output == "-":
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()
    else:
        Path(args.output).write_bytes(out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="subcomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="decide one instance")
    solve.add_argument("--target", choices=("kt", "kt-bar", "pattern"), required=True)
    solve.add_argument("-t", type=int, default=None, help="clique order for kt targets")
    solve.add_argument("--pattern", default=None, help="pattern token, e.g. K3 or co-P4")
    solve.add_argument("--recognizer", choices=("ktfree", "degenerate"), default="ktfree")
    solve.add_argument("--brute", action="store_true", help="bypass the structured solver")
    solve.add_argument("--budget", type=int, default=DEFAULT_SUBSET_CAP,
                       help="candidate-set cap for either solver")
    solve.add_argument("--human", action="store_true")
    solve.add_argument("input", help="graph6 file, or - for stdin")
    solve.set_defaults(func=cmd_solve, parser=solve)

    gen = sub.add_parser("gen", help="emit a reduction instance")
    gen.add_argument("kind", choices=("star", "path", "cycle", "k15", "p7", "p8", "c8"))
    gen.add_argument("-t", type=int, default=None, help="target order for inductive kinds")
    gen.add_argument("--dummy-clause", action="store_true",
                     help="k15 only: pad the formula with one always-true clause")
    gen.add_argument("-o", "--output", default=None,
                     help="output prefix (default: input stem + kind)")
    gen.add_argument("input", help="graph6 file for inductive kinds, DIMACS CNF otherwise")
    gen.set_defaults(func=cmd_gen, parser=gen)

    verify = sub.add_parser("verify", help="run a property sweep")
    verify.add_argument("suite", choices=tuple(SUITES))
    verify.add_argument("--max-n", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--human", action="store_true")
    verify.set_defaults(func=cmd_verify, parser=verify)

    convert = sub.add_parser("convert", help="translate between graph formats")
    convert.add_argument("--from", dest="src", choices=("g6", "json"), required=True)
    convert.add_argument("--to", dest="dst", choices=("g6", "json"), required=True)
    convert.add_argument("-o", "--output", default="-")
    convert.add_argument("input", nargs="?", default="-")
    convert.set_defaults(func=cmd_convert, parser=convert)

    return parser


_parser: Optional[_Parser] = None  # built by the first main() call, not at import


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except SubcompError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NOINPUT


if __name__ == "__main__":
    sys.exit(main())
