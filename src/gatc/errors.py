"""Error types shared across the kernel.

Hard errors are exceptions; indeterminacy from fuel exhaustion is the
distinct InconclusiveEquality so callers can map it to a non-failure
exit status.
"""

from __future__ import annotations


class GatError(Exception):
    """Base class for all kernel errors."""

    def __init__(self, *args, decl: str | None = None):
        super().__init__(*args)
        self.decl = decl  # the declaration being certified, when known


class ScopeError(GatError):
    """An expression mentions a variable not bound by the ambient context."""


class UnknownSymbol(GatError):
    """A symbol is not declared in the ambient theory or symbol map."""


class ForwardReference(GatError):
    """A declaration mentions a symbol that is only declared later."""


class DuplicateName(GatError):
    """Two declarations share a name."""


class ArityMismatch(GatError):
    """A symbol application has the wrong number of arguments."""


class ArgumentTypeMismatch(GatError):
    """An argument's inferred type is not provably equal to the expected one."""


class NotAType(GatError):
    """An expression used in type position is not a type."""


class NotATerm(GatError):
    """An expression used in term position is not a term."""


class VariableClash(GatError):
    """A variable that must be fresh already occurs."""


class InconclusiveEquality(GatError):
    """A needed conversion could not be proved within the given fuel."""


class BudgetExceeded(GatError):
    """A search exceeded its configured node limit."""


class ModelError(GatError):
    """A finite model is malformed or the theory is outside the model fragment."""


class GatSyntaxError(GatError):
    """A positioned syntax error in the .gat surface language."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
