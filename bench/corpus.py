"""Seeded inputs for the benchmark: random graphs, the product No
instances, and exact-4 CNF formulas with a planted threshold-2 assignment.

Nothing here imports subcomp; inputs reach the program only as the graph6
and DIMACS files written by `write_g6` and `write_dimacs`.
"""

from __future__ import annotations

import random
from pathlib import Path

from oracle import pattern_edges


def gnp(rng: random.Random, n: int, p: float) -> list[int]:
    """Adjacency rows of a G(n, p) sample."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def pattern_rows(token: str) -> list[int]:
    k, edges = pattern_edges(token)
    rows = [0] * k
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def no_instance(token: str) -> list[int]:
    """complement(H) x H in the cross product, where vertex (i, j) is index
    i*k + j: (i, j) ~ (i', j') iff i = i' and j ~ j' in H, or j = j' and
    i ~ i' in complement(H)."""
    h = pattern_rows(token)
    k = len(h)
    full = (1 << k) - 1
    co = [full ^ row ^ (1 << v) for v, row in enumerate(h)]
    rows = [0] * (k * k)
    for i in range(k):
        for j in range(k):
            row = 0
            for j2 in range(k):
                if (h[j] >> j2) & 1:
                    row |= 1 << (i * k + j2)
            for i2 in range(k):
                if (co[i] >> i2) & 1:
                    row |= 1 << (i2 * k + j)
            rows[i * k + j] = row
    return rows


def planted_formula(rng: random.Random, nvars: int, m: int) -> tuple[list[bool], list[list[int]]]:
    """Exact-4 clauses over distinct variables, each with at least two
    literals true under a random assignment (values[i] is variable i+1)."""
    values = [rng.random() < 0.5 for _ in range(nvars)]
    clauses = []
    while len(clauses) < m:
        variables = rng.sample(range(1, nvars + 1), 4)
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        if sum(values[abs(lit) - 1] == (lit > 0) for lit in clause) >= 2:
            clauses.append(clause)
    return values, clauses


def g6_encode(rows: list[int]) -> bytes:
    """graph6 for n <= 258047: upper triangle column by column, six bits a byte."""
    n = len(rows)
    out = bytearray([n + 63] if n <= 62 else [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = [(rows[v] >> u) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = (group << 1) | b
        out.append(group + 63)
    return bytes(out)


def g6_decode(data: bytes) -> list[int]:
    """Adjacency rows of a graph6 line (inverse of `g6_encode`)."""
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    else:
        n, pos = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    rows = [0] * n
    u, v = 0, 1
    for byte in data[pos:]:
        group = byte - 63
        for k in range(5, -1, -1):
            if v >= n:
                break
            if (group >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            u += 1
            if u == v:
                u, v = 0, v + 1
    return rows


def write_g6(path: Path, rows: list[int]) -> str:
    path.write_bytes(g6_encode(rows) + b"\n")
    return str(path)


def write_dimacs(path: Path, nvars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {nvars} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    path.write_text("\n".join(lines) + "\n")
    return str(path)
