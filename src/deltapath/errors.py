"""Exception types shared across the package."""


class DeltaPathError(Exception):
    """Base class for all errors raised by deltapath."""


class UnknownNodeError(DeltaPathError):
    """An event or policy referenced a node that is not in the graph."""


class DuplicateNodeError(DeltaPathError):
    """A node with the same id already exists."""


class UnknownLinkError(DeltaPathError):
    """A removal or update referenced a link that is not stored."""


class AmbiguousLinkError(DeltaPathError):
    """An endpoint pair matched more than one stored weight."""


class NegativeMultiplicityError(DeltaPathError):
    """A retraction would drive a stored multiplicity below zero."""


class InvalidWeightError(DeltaPathError):
    """A link weight fell outside the strategy's declared domain."""


class UnknownStrategyError(DeltaPathError):
    """No built-in strategy with that name."""


class NonConvergenceError(DeltaPathError):
    """The strategy's path cost can improve a path by extending it, so the
    rules have no fixpoint (broken strategy)."""


class UnreachableError(DeltaPathError):
    """No forwarding rule exists for a requested pair."""


class CycleDetectedError(DeltaPathError):
    """Pointer chasing exceeded the step bound (corrupted view)."""


class PolicySyntaxError(DeltaPathError):
    """A policy string did not match the grammar."""


class NoBackupError(DeltaPathError):
    """Removing the primary path's links disconnects the pair."""


class TooLargeError(DeltaPathError):
    """Input past what a check holds exactly: the oracle refuses non-float
    weights whose total is 2**53 or more."""


class InfeasibleError(DeltaPathError):
    """Generator parameters admit no valid topology."""


class OddArityError(DeltaPathError):
    """Fat-tree arity must be even."""


class EventParseError(DeltaPathError):
    """A topology, event, or scenario file line could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class VerifyMismatchError(DeltaPathError):
    """The engine's established view diverged from the oracle."""


class IntegrityError(DeltaPathError, AssertionError):
    """A `check_integrity` invariant does not hold.  It is raised rather
    than asserted, so the checks also run under `python -O`; it stays an
    AssertionError for callers that catch one."""
