"""Fixed-width CNF formulas and threshold satisfiability.

The satisfiability notion here is parameterized: an assignment passes at
threshold r when every clause has at least r true literals. r = 1 is
ordinary satisfiability; the gadget constructions consume 4-SAT instances
at threshold 2, and the lifting step moves a formula from threshold s-2 to
s-1 while raising the width by one.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import (
    LengthMismatch,
    NonUniformClause,
    ParseError,
    RepeatedVariable,
    TooManyVariables,
    WidthTooSmall,
)
from .values import Frozen

BRUTE_SAT_VARIABLE_LIMIT = 24


class CnfFormula(Frozen):
    """CNF with every clause exactly k literals over k distinct variables.

    Literals are DIMACS-style signed integers; within a clause they are
    normalized to ascending variable index with signs preserved.
    """

    __slots__ = ("n", "clauses", "k")

    def __init__(self, n: int, clauses: Iterable[Iterable[int]], k: Optional[int] = None):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        normalized = []
        for idx, clause in enumerate(clauses, start=1):
            lits = sorted(clause, key=abs)
            if k is None:
                k = len(lits)
            elif len(lits) != k:
                raise NonUniformClause(
                    f"clause {idx} has {len(lits)} literals, expected {k}"
                )
            seen = set()
            for lit in lits:
                var = abs(lit)
                if lit == 0 or not isinstance(lit, int):
                    raise ValueError(f"clause {idx}: literal {lit!r} is not valid")
                if var > n:
                    raise ValueError(f"clause {idx}: variable {var} exceeds n={n}")
                if var in seen:
                    raise RepeatedVariable(f"clause {idx}: variable {var} repeats")
                seen.add(var)
            normalized.append(tuple(lits))
        if k is None:
            raise ValueError("width k is required for a formula with no clauses")
        if k < 0:
            raise ValueError("width k must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", tuple(normalized))
        object.__setattr__(self, "k", k)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"CnfFormula(n={self.n}, m={self.m}, k={self.k})"


class Assignment(Frozen):
    """Truth values for variables 1..n; values[j] belongs to variable j+1."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[bool]):
        object.__setattr__(self, "values", tuple(bool(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, var: int) -> bool:
        """Truth value of variable `var` (1-based, as in literals)."""
        return self.values[var - 1]

    def __repr__(self) -> str:
        return f"Assignment({''.join('1' if v else '0' for v in self.values)})"


def parse_dimacs(data: bytes) -> CnfFormula:
    """Standard DIMACS CNF. Clause width must be uniform; it is inferred
    from the clauses themselves."""
    if isinstance(data, bytes):
        text = data.decode("ascii", errors="replace")
    else:
        text = data
    header = None
    clauses: list[list[int]] = []
    current: list[int] = []
    current_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad header {line!r}", lineno)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(f"bad header {line!r}", lineno) from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative counts in header", lineno)
            continue
        if header is None:
            raise ParseError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > header[0]:
                    raise ParseError(
                        f"variable {abs(lit)} exceeds declared count {header[0]}", lineno
                    )
                if not current:
                    current_line = lineno
                current.append(lit)
    last_line = max(1, len(text.splitlines()))
    if header is None:
        raise ParseError("missing header", last_line)
    if current:
        raise ParseError("unterminated clause", current_line)
    n, m = header
    if len(clauses) != m:
        raise ParseError(
            f"header declares {m} clauses, found {len(clauses)}", last_line
        )
    return CnfFormula(n, clauses, k=None if clauses else 0)


def emit_dimacs(phi: CnfFormula) -> bytes:
    lines = [f"p cnf {phi.n} {phi.m}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return ("\n".join(lines) + "\n").encode("ascii")


def _true_count(clause: tuple[int, ...], values: tuple[bool, ...]) -> int:
    return sum(1 for lit in clause if values[abs(lit) - 1] == (lit > 0))


def check_threshold(phi: CnfFormula, a: Assignment, r: int) -> bool:
    """True iff every clause has at least r true literals under a."""
    if len(a) != phi.n:
        raise LengthMismatch(f"assignment has {len(a)} values, formula has n={phi.n}")
    if not 0 <= r <= phi.k:
        raise ValueError(f"threshold {r} outside [0, {phi.k}]")
    return all(_true_count(clause, a.values) >= r for clause in phi.clauses)


def brute_sat(phi: CnfFormula, r: int) -> Optional[Assignment]:
    """Lexicographically least assignment meeting the threshold, or None."""
    if phi.n > BRUTE_SAT_VARIABLE_LIMIT:
        raise TooManyVariables(f"refusing exhaustive scan over n={phi.n} variables")
    n = phi.n
    for i in range(1 << n):
        # variable 1 is the most significant bit, so tuples come out in
        # lexicographic order
        values = tuple(bool((i >> (n - 1 - j)) & 1) for j in range(n))
        a = Assignment(values)
        if check_threshold(phi, a, r):
            return a
    return None


def lift(phi: CnfFormula) -> CnfFormula:
    """Width s to s+1: clause i gains a fresh positive variable n+i.

    The output has n+m variables and m clauses, and an assignment meeting
    threshold s-2 for phi exists iff one meeting s-1 exists for the lift.
    """
    if phi.k < 3:
        raise WidthTooSmall(f"lifting needs width at least 3, got {phi.k}")
    clauses = [
        clause + (phi.n + i,) for i, clause in enumerate(phi.clauses, start=1)
    ]
    return CnfFormula(phi.n + phi.m, clauses, k=phi.k + 1 if not clauses else None)
