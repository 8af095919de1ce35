"""Exception types shared across the package."""


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
    """Graph is not connected; carries the node components found."""

    def __init__(self, components):
        comps = [sorted(c) for c in components]
        comps.sort()
        super().__init__(f"graph is disconnected; components: {comps}")
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


class NonFiniteError(KCanonError):
    pass


class InvalidToleranceError(KCanonError):
    """Quantization tolerance is not a finite number above zero."""


class TooLargeError(KCanonError):
    """Input exceeds the hard size limit of a brute-force routine."""


class SingularSystemError(KCanonError):
    pass


class BudgetExhaustedError(KCanonError):
    """Search stopped because its tree-node budget ran out (not a proof of absence)."""
