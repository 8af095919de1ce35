"""Exception types shared across the package."""

import itertools


class KCanonError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(KCanonError):
    """Invalid graph structure or graph file content."""


class MalformedLineError(GraphError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class NonPositiveWeightError(GraphError):
    pass


class NonFiniteWeightError(GraphError):
    pass


class DisconnectedError(GraphError):
    """Graph on nodes 1..n is not connected; carries the node components found.

    components may leave out isolated nodes, since n names them.  The
    components attribute and the message list the isolated nodes one by one
    up to LISTED_ISOLATED of them; isolated counts them all.
    """

    LISTED_ISOLATED = 10

    def __init__(self, components, n):
        comps = [sorted(c) for c in components if len(c) > 1]
        named = {x for c in comps for x in c}
        unnamed = (x for x in range(1, n + 1) if x not in named)
        comps += [[x] for x in itertools.islice(unnamed, self.LISTED_ISOLATED)]
        comps.sort()
        self.isolated = n - len(named)
        more = self.isolated - self.LISTED_ISOLATED
        super().__init__(f"graph is disconnected; components: {comps}"
                         + (f" and {more} more isolated nodes" if more > 0 else ""))
        self.components = tuple(tuple(c) for c in comps)


class SameSourceSinkError(KCanonError):
    pass


class FactorizationFailedError(KCanonError):
    """Grounded block is singular, or every prime tried failed (disconnected or corrupted graph)."""


class EigendecompositionFailedError(KCanonError):
    pass


class SecondEigenvalueNearZeroError(KCanonError):
    """Algebraic connectivity is numerically zero; input is effectively disconnected."""


class GraphMismatchError(KCanonError):
    pass


class TooLargeError(KCanonError):
    """Input exceeds the hard size limit of a brute-force routine."""


class SingularSystemError(KCanonError):
    pass


class InvalidBudgetError(KCanonError):
    """A search budget that is not an integer of at least 1."""
