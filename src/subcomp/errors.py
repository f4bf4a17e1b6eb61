"""Exception types shared across the package.

Each error maps to one contract violation; nothing here carries algorithmic
state beyond what a caller needs to report the failure.
"""


class SubcompError(Exception):
    """Base class for all package errors."""


# graph construction and patterns

class InvalidPattern(SubcompError):
    """Pattern size constraints violated (e.g. a 2-cycle)."""


class CapMismatch(SubcompError):
    """A VertexSet indexes a different vertex count than the graph has."""


class PatternTooSmall(SubcompError):
    """Operation needs a pattern with more vertices than was given."""


class NullGraph(SubcompError):
    """Operation undefined on the graph with no vertices."""


class MalformedG6(SubcompError):
    """Invalid graph6 input. `offset` is the first offending byte index."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# split partitions

class InvalidArgs(SubcompError):
    """Ramsey/split parameters out of range (p or q below 1)."""


class InvalidSeed(SubcompError):
    """Seed partition handed to the enumerator is not a valid split partition."""


# solvers

class InvalidT(SubcompError):
    """Clique size / construction parameter t below the operation's minimum."""


class RecognizerMismatch(SubcompError):
    """solve_complement_class: a Yes from the complement side fails the
    target recognizer."""


# CNF handling

class ParseError(SubcompError):
    """DIMACS input rejected. `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class NonUniformClause(SubcompError):
    """Clause width differs from the formula's uniform k."""


class RepeatedVariable(SubcompError):
    """A clause mentions some variable more than once."""


class LengthMismatch(SubcompError):
    """Assignment length differs from the formula's variable count."""


class TooManyVariables(SubcompError):
    """brute_sat guard: exhaustive scan refused above 24 variables."""


class WidthTooSmall(SubcompError):
    """lift() needs clause width at least 3."""


# gadgets

class WrongWidth(SubcompError):
    """SAT gadget constructions take exact 4-SAT formulas only."""


class NotSatisfying(SubcompError):
    """Assignment fails the threshold check required by the mapping."""


class KindMismatch(SubcompError):
    """Certificate mapping applied to a gadget kind it is not defined for."""


class GadgetTooLarge(SubcompError):
    """The gadget's closed-form vertex count exceeds graphs.MAX_JSON_VERTICES."""
