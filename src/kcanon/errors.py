"""Exception types shared across the package, and the bounded repr of their messages."""

import itertools
import reprlib


class _Bounded(reprlib.Repr):
    """The repr that error messages echo inputs in, bounded in length.

    Lists and tuples show 12 items, room for a DisconnectedError's components.
    An integer past 128 bits shows its size, and is never converted: str()
    refuses one of more than 4,300 digits with a bare ValueError.
    """

    def __init__(self):
        super().__init__()
        self.maxlist = self.maxtuple = 12

    def repr_int(self, x, level):
        bits = x.bit_length()
        return repr(x) if bits <= 128 else f"<{'negative ' if x < 0 else ''}integer of {bits} bits>"


_bounded = _Bounded().repr


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
    components attribute lists the isolated nodes one by one up to
    LISTED_ISOLATED of them, and the message shows that list in bounded form;
    isolated counts them all.
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
        super().__init__(f"graph is disconnected; components: {_bounded(comps)}"
                         + (f" and {_bounded(more)} more isolated nodes" if more > 0 else ""))
        self.components = tuple(tuple(c) for c in comps)


class SameSourceSinkError(KCanonError):
    pass


class FactorizationFailedError(KCanonError):
    """Grounded block singular, every prime tried failed, or MINRES broke down."""


class GraphMismatchError(KCanonError):
    pass


class TooLargeError(KCanonError):
    """Input exceeds the hard size limit of a brute-force routine."""


class SingularSystemError(KCanonError):
    pass


class InvalidBudgetError(KCanonError):
    """A search budget that is not an integer of at least 1."""
