"""Spans around subcomp's layers, recorded from the benchmark's own files.

`Tracer.patched()` rebinds the public functions each subcomp module calls
(for example `subcomp.solvers.find_split_partition`, the name
`solve_kt_free` looks up) to wrappers that record one span per call: name,
start, end, parent span and operation id, plus one integer the layer
reports (a verdict or a size). Spans stay in memory in flat arrays and are
written once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from subcomp import cli, graphs, solvers, split


def _copy_found(result, args):
    return 0 if result else 1


def _is_none(result, args):
    return 1 if result is None else 0


def _length(result, args):
    return len(result)


def _truth(result, args):
    return 1 if result else 0


def _vertices(result, args):
    return result.graph.n


# (module, attribute, span name, value of a call): every binding through
# which one layer calls another, including the benchmark's own calls to
# subcomp.graphs.
BINDINGS = [
    (cli, "main", "cli.main", None),
    (cli, "g6_decode", "graphs.g6_decode", None),
    (cli, "g6_encode", "graphs.g6_encode", None),
    (cli, "is_pattern_free", "graphs.is_pattern_free", _copy_found),
    (cli, "parse_dimacs", "sat.parse_dimacs", None),
    (cli, "brute_solve", "solvers.brute_solve", None),
    (cli, "solve_kt_free", "solvers.solve_kt_free", None),
    (cli, "solve_complement_class", "solvers.solve_complement_class", None),
    (cli, "certificate_json", "gadgets.certificate_json", None),
    (cli, "k15_gadget", "gadgets.build", _vertices),
    (graphs, "g6_decode", "graphs.g6_decode", None),
    (graphs, "subgraph_complement", "graphs.subgraph_complement", None),
    (graphs, "is_pattern_free", "graphs.is_pattern_free", _copy_found),
    (solvers, "induced", "graphs.induced", None),
    (solvers, "is_pattern_free", "graphs.is_pattern_free", _copy_found),
    (solvers, "subgraph_complement", "graphs.subgraph_complement", None),
    (solvers, "find_split_partition", "split.find_split_partition", _is_none),
    (solvers, "enumerate_split_partitions", "split.enumerate_split_partitions", _length),
    (split, "is_split_partition", "split.is_split_partition", _truth),
]
# cli dispatches gen through these tables, bound when cli was imported
GADGET_TABLES = [cli._SAT_GADGETS, cli._INDUCTIVE_GADGETS]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        # distinct S per solve_kt_free call, for the redundancy ratio
        self.candidates: set | None = None
        self.candidates_tried = 0
        self.candidates_distinct = 0

    def _wrap(self, span: str, fn, value=None):
        nid = self.name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        perf = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.value.append(0)
            stack.append(idx)
            t0 = perf()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if value is not None:
                self.value[idx] = value(result, args)
            return result

        return wrapper

    def _kt_solver(self, fn):
        def solve(*args, **kwargs):
            self.candidates = set()
            try:
                return fn(*args, **kwargs)
            finally:
                self.candidates_distinct += len(self.candidates)
                self.candidates = None

        return solve

    def _candidate(self, result, args):
        if self.candidates is not None:
            self.candidates.add(args[1].bits)
            self.candidates_tried += 1
        return 0

    @contextmanager
    def patched(self, op_id: int):
        """Record spans for operation `op_id`; the original bindings are
        restored on exit."""
        self.op_id = op_id
        saved = []
        for module, attr, span, value in BINDINGS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if module is solvers and attr == "subgraph_complement":
                value = self._candidate
            wrapped = self._wrap(span, fn, value)
            if module is cli and attr == "solve_kt_free":
                wrapped = self._kt_solver(wrapped)
            setattr(module, attr, wrapped)
        saved_tables = [dict(table) for table in GADGET_TABLES]
        for table in GADGET_TABLES:
            for key, fn in table.items():
                table[key] = self._wrap("gadgets.build", fn, _vertices)
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            for table, original in zip(GADGET_TABLES, saved_tables):
                table.update(original)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, value sum."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0} for name in self.names}
        top_level = 0.0
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            row["value"] += self.value[i]
            if self.parent[i] < 0:
                top_level += dur
        out["<top-level>"] = {"calls": 0, "s": top_level, "self_s": 0.0, "value": 0}
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the columns as raw native arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ["name", "parent", "op", "start", "end", "value"]
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(f)
