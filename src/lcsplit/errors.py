"""Exception types shared across the package, and the check that raises a failed one."""


class LcsplitError(Exception):
    """Base class for all package-specific errors."""


class InvalidVertexError(LcsplitError, ValueError):
    """A vertex id is outside 1..n for the graph it indexes."""


class NotAnEdgeError(LcsplitError, ValueError):
    """An edge pivot was requested on a non-edge."""


class NotConnectedError(LcsplitError, ValueError):
    """An operation requires a connected graph."""


class SizeLimitError(LcsplitError, ValueError):
    """Input exceeds the documented desk-scale size limit."""


class InvalidSpecError(LcsplitError, ValueError):
    """A family specification violates its parameter constraints."""


class BudgetExceededError(LcsplitError):
    """Orbit enumeration hit the member budget before closing.

    ``partial_count`` records how many members were found before aborting.
    """

    def __init__(self, partial_count: int, limit: int):
        super().__init__(
            f"orbit budget exceeded: more than {limit} members "
            f"(found {partial_count} before aborting)"
        )
        self.partial_count = partial_count
        self.limit = limit


class NotEquivalentError(LcsplitError, ValueError):
    """A transformation was requested between graphs in different orbits."""


class MalformedQasstError(LcsplitError, ValueError):
    """A quotient tree violates its structural invariants."""


class UnsupportedQasstError(LcsplitError, ValueError):
    """An operation does not support this quotient tree (e.g. prime quotients)."""


class InvalidCaseError(LcsplitError, ValueError):
    """A symmetry-case description violates the case rules."""


class InvalidAssignmentError(LcsplitError, ValueError):
    """A quotient-kind assignment violates the join-validity rules."""


def check(ok: bool, message: str = "") -> None:
    """Raise :class:`AssertionError` with ``message`` unless ``ok``: an ``assert`` that ``python -O`` keeps."""
    if not ok:
        raise AssertionError(message)
