"""Exception types shared across the package."""


class CoreachError(Exception):
    """Base class for all package errors."""


class InvalidOption(CoreachError, ValueError):
    """A setting outside its range: a search bound, a timeout, a domain bound."""


class UnknownSort(CoreachError):
    pass


class Redeclared(CoreachError):
    """A second declaration of a sort, a variable or a symbol at the same sorts."""


class IllTyped(CoreachError):
    pass


class SortMismatch(CoreachError):
    pass


class InvalidPosition(CoreachError):
    pass


class NonBuiltinResidue(CoreachError):
    """A formula the SMT encoder cannot write; `smt.check_sat` answers it unknown."""


class SolverUnavailable(CoreachError):
    pass


class MalformedSolverOutput(CoreachError):
    pass


class GuardednessViolation(CoreachError):
    """A circularity was applied on a branch with no derivative step above it."""


class InvalidSplit(CoreachError):
    pass


class DerivativeRefused(CoreachError):
    """A symbolic step that could miss successors: it would have to narrow a
    user-sorted variable of the subject, or a redex could sit inside one."""


class UnsupportedQuantifier(CoreachError):
    """A quantifier ranges over a sort the finite-domain evaluator cannot enumerate."""


class ParseError(CoreachError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class ResolutionError(ParseError):
    pass
