"""Node/edge signatures over all ordered source/sink pairs, and what they buy.

For every ordered pair (a,b) the network is solved with unit current from a
to b.  Each node collects its voltage across all N(N-1) ordered pairs; each
edge collects its current.  Sorted and quantized, these vectors are label
independent, so equal vectors group nodes into orbit candidates, the multiset
of all vectors fingerprints the whole graph, and the class structure prunes
isomorphism search and drives canonical labeling.

Only the N(N-1)/2 unordered pairs are solved; the reversed pair contributes
the exact negation thanks to the sum-zero gauge.

Signature values are integer grid units k (standing for k * tol) from the
quantizer through to the fingerprint's JSON, and fingerprints compare as
values, not as serialized text.

Every reader works from one analysis per graph: one factorization, one
quantizer.  Nodes are solved in exact weighted colour-refinement order, so
relabelled copies with a discrete refinement run bit-identical float
operations and snap even near-half-grid values alike.  Ties inside a cell
refinement cannot split (vertex-transitive graphs) still break by node id.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, GraphError, InvalidToleranceError, NonFiniteError
from .graph import Graph, relabel
from .solver import build_system, solve_all_pairs

DEFAULT_TOL = 1e-8
DEFAULT_BUDGET = 10**6


def _grid(values: np.ndarray, tol: float) -> np.ndarray:
    """The quantizer: snap to integer multiples of tol, in grid units.

    Odd under negation and 0 at zero.  Refuses values that are not finite or
    whose grid index does not fit in int64.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scaled = values / tol
    if not np.all(np.abs(scaled) < 2.0**63):
        raise NonFiniteError(f"solve result is not finite or overflows the grid at tol {tol}")
    return np.rint(scaled).astype(np.int64)


def _refinement_order(graph: Graph) -> list[int]:
    """Node ids sorted by exact weighted colour refinement, ties by id.

    A node's next colour is the rank of its key, (colour, sorted (neighbour
    colour, weight) pairs), among all keys; keys hold exact weights, never
    float sums, so colours depend on structure and weights alone.
    """
    nbrs = [[] for _ in range(graph.n)]
    for u, v, w in graph.edges:
        nbrs[u - 1].append((v - 1, w))
        nbrs[v - 1].append((u - 1, w))
    colour, count = [0] * graph.n, 1
    while True:
        keys = [
            (colour[x], tuple(sorted((colour[y], w) for y, w in nbrs[x])))
            for x in range(graph.n)
        ]
        rank = {key: c for c, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) == count:
            return sorted(range(1, graph.n + 1), key=lambda x: (colour[x - 1], x))
        count = len(rank)


def _row(half: np.ndarray) -> tuple[int, ...]:
    """Sorted values over all ordered pairs: the solved half and its negation."""
    row = np.concatenate([half, -half])
    row.sort()
    return tuple(row.tolist())


@dataclass(frozen=True)
class NodeSignature:
    """Sorted grid-unit voltages of one node over all N(N-1) ordered pairs."""

    node: int
    values: tuple[int, ...]
    tol: float


@dataclass(frozen=True)
class EdgeSignature:
    """Sorted grid-unit currents of one edge over all N(N-1) ordered pairs."""

    edge: tuple[int, int]
    values: tuple[int, ...]
    tol: float


@dataclass(frozen=True)
class OrbitPartition:
    """Disjoint node classes sharing identical signatures; orbit candidates."""

    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Fingerprint:
    """Label-invariant multiset summary of all node and edge signatures.

    Parts hold integer grid units (multiply by tol for volts and amperes).
    Instances compare by value; digest() is sha256 of to_json().
    """

    n: int
    m: int
    tol: float
    node_part: tuple[tuple[int, ...], ...]  # sorted multiset of value vectors
    edge_part: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        """Canonical serialization: integer grid units, fixed key order."""
        obj = {
            "n": self.n,
            "m": self.m,
            "tol": format(self.tol, ".17g"),
            "edge_part": self.edge_part,
            "node_part": self.node_part,
        }
        return json.dumps(obj, separators=(",", ":"), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


class _Analysis:
    """One factorization and one batch of pair solves of one graph.

    The graph is solved relabelled into refinement order; node rows, edge
    rows and signature classes are keyed by the original ids.  Edge rows are
    rebuilt on each request rather than kept, so a caller holding several
    analyses holds only the edge rows it is using.
    """

    def __init__(self, graph: Graph, tol: float):
        if not 0 < tol < float("inf"):
            raise InvalidToleranceError(f"tol must be finite and above 0, got {tol}")
        if graph.n < 2:
            raise GraphError("need at least 2 nodes and 1 edge")
        self.graph, self.tol = graph, tol
        # original id -> row of V
        self.index = {x: k for k, x in enumerate(_refinement_order(graph))}
        ordered = relabel(graph, {x: k + 1 for x, k in self.index.items()})
        _, self.V = solve_all_pairs(build_system(ordered))
        G = _grid(self.V, tol)
        self.node_rows = [_row(G[self.index[x]]) for x in range(1, graph.n + 1)]
        classes: dict[tuple, list[int]] = {}
        for x, row in enumerate(self.node_rows, start=1):
            classes.setdefault(row, []).append(x)
        # Sorted by signature: the order of orbit classes and canonical positions.
        self.classes = dict(sorted(classes.items()))

    def edge_rows(self) -> list[tuple[int, ...]]:
        """One row per stored edge, in graph.edges order."""
        ix, V = self.index, self.V
        return [_row(_grid(w * (V[ix[u]] - V[ix[v]]), self.tol)) for u, v, w in self.graph.edges]

    def fingerprint(self) -> Fingerprint:
        g = self.graph
        return Fingerprint(g.n, g.m, self.tol, tuple(sorted(self.node_rows)),
                           tuple(sorted(self.edge_rows())))


def all_node_signatures(graph: Graph, tol: float = DEFAULT_TOL) -> list[NodeSignature]:
    rows = _Analysis(graph, tol).node_rows
    return [NodeSignature(x, row, tol) for x, row in enumerate(rows, start=1)]


def all_edge_signatures(graph: Graph, tol: float = DEFAULT_TOL) -> list[EdgeSignature]:
    rows = _Analysis(graph, tol).edge_rows()
    return [EdgeSignature((u, v), row, tol) for (u, v, _), row in zip(graph.edges, rows)]


def orbit_partition(graph: Graph, tol: float = DEFAULT_TOL) -> OrbitPartition:
    """Group nodes by identical signature; classes ordered by signature."""
    return OrbitPartition(tuple(map(tuple, _Analysis(graph, tol).classes.values())))


def fingerprint(graph: Graph, tol: float = DEFAULT_TOL) -> Fingerprint:
    """Canonical summary; permuting node labels leaves it byte-identical.

    One factorization and one batch of pair solves feed both parts.
    """
    return _Analysis(graph, tol).fingerprint()


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of an isomorphism screen.

    kind is one of "distinct-certified", "possibly-isomorphic", or
    "isomorphic-certified"; a certified isomorphism always carries a mapping
    that has passed independent edge-and-weight verification.
    """

    kind: str
    mapping: dict[int, int] | None = None
    reason: str = ""

    DISTINCT = "distinct-certified"
    POSSIBLE = "possibly-isomorphic"
    ISOMORPHIC = "isomorphic-certified"


def verify_mapping(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    """Independent check that mapping is a weight-preserving edge bijection."""
    if sorted(mapping) != list(range(1, g1.n + 1)):
        return False
    if sorted(mapping.values()) != list(range(1, g2.n + 1)):
        return False
    if g1.m != g2.m:
        return False
    for u, v, w in g1.edges:
        if g2.weight(mapping[u], mapping[v]) != w:
            return False
    return True


def find_isomorphism(
    g1: Graph,
    g2: Graph,
    tol: float = DEFAULT_TOL,
    node_budget: int = DEFAULT_BUDGET,
) -> dict[int, int] | None:
    """Backtracking matcher restricted to equal-signature node classes.

    Returns a weight-preserving mapping, or None when the search space is
    exhausted (a proof of non-isomorphism).  Raises BudgetExhaustedError when
    node_budget expansions run out first.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    return _match(_Analysis(g1, tol), _Analysis(g2, tol), node_budget)


def _match(a1: _Analysis, a2: _Analysis, node_budget: int) -> dict[int, int] | None:
    g1, g2, c1, c2 = a1.graph, a2.graph, a1.classes, a2.classes
    # Both class dicts are sorted by signature.
    if [(k, len(v)) for k, v in c1.items()] != [(k, len(v)) for k, v in c2.items()]:
        return None
    candidates = {x: c2[sig] for sig, nodes in c1.items() for x in nodes}
    # Fail-first: smallest class first, then lowest node id.
    order = sorted(candidates, key=lambda x: (len(candidates[x]), x))
    mapping: dict[int, int] = {}
    used: set[int] = set()
    budget = [node_budget]

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        x = order[depth]
        for y in candidates[x]:
            if y in used:
                continue
            if budget[0] <= 0:
                raise BudgetExhaustedError(
                    f"isomorphism search exceeded {node_budget} expansions"
                )
            budget[0] -= 1
            ok = all(
                g1.weight(x, xp) == g2.weight(y, yp) for xp, yp in mapping.items()
            )
            if not ok:
                continue
            mapping[x] = y
            used.add(y)
            if extend(depth + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return dict(mapping) if extend(0) else None


def iso_screen(
    g1: Graph,
    g2: Graph,
    tol: float = DEFAULT_TOL,
    node_budget: int = DEFAULT_BUDGET,
) -> IsoVerdict:
    """Fingerprint screen plus verified search; never certifies without proof."""
    if g1.n != g2.n:
        return IsoVerdict(IsoVerdict.DISTINCT, reason="node counts differ")
    if g1.m != g2.m:
        return IsoVerdict(IsoVerdict.DISTINCT, reason="edge counts differ")
    a1, a2 = _Analysis(g1, tol), _Analysis(g2, tol)
    if a1.fingerprint() != a2.fingerprint():
        return IsoVerdict(IsoVerdict.DISTINCT, reason="fingerprints differ")
    try:
        mapping = _match(a1, a2, node_budget)
    except BudgetExhaustedError:
        return IsoVerdict(IsoVerdict.POSSIBLE, reason="search budget exhausted")
    if mapping is None:
        # Exhausted search with equal fingerprints: a completed search is
        # itself a certificate of non-isomorphism.
        return IsoVerdict(IsoVerdict.DISTINCT, reason="search exhausted, no mapping")
    if not verify_mapping(g1, g2, mapping):
        return IsoVerdict(IsoVerdict.POSSIBLE, reason="mapping failed verification")
    return IsoVerdict(IsoVerdict.ISOMORPHIC, mapping=mapping, reason="verified mapping")


@dataclass(frozen=True)
class CanonicalLabeling:
    """Canonical node order and the adjacency weight sequence it minimizes.

    order[i] is the original node id placed at canonical position i.  form is
    the column-incremental upper-triangle weight sequence of the reordered
    adjacency matrix: entries (0,1), (0,2), (1,2), (0,3), ... certified is
    False when the tie-exploration budget ran out before the search finished.
    """

    order: tuple[int, ...]
    form: tuple[float, ...]
    certified: bool
    expansions: int

    def form_json(self) -> str:
        return json.dumps(
            {
                "n": len(self.order),
                "form": [format(x, ".17g") for x in self.form],
            },
            separators=(",", ":"),
            sort_keys=True,
        )

    def digest(self) -> str:
        return hashlib.sha256(self.form_json().encode()).hexdigest()


def canonical_labeling(
    graph: Graph,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> CanonicalLabeling:
    """Order signature classes lexicographically, break ties by backtracking.

    Positions are grouped by signature class (classes sorted by signature);
    within that structure the search picks the permutation minimizing the
    adjacency weight sequence.  Fully explored ties make the result label
    invariant.
    """
    if graph.n == 1:
        return CanonicalLabeling((1,), (), True, 0)
    classes = list(_Analysis(graph, tol).classes.values())
    cell = [cls for cls in classes for _ in cls]  # the class of each position
    n = graph.n
    wfn = graph.weight

    def column(prefix: list[int], cand: int) -> list[float]:
        return [wfn(p, cand) or 0.0 for p in prefix]

    # Greedy seed guarantees a complete form even if the budget is tiny.
    best_order = [x for cls in classes for x in cls]
    best_form: list[float] = []
    for k in range(1, n):
        best_form.extend(column(best_order[:k], best_order[k]))

    expansions = [0]
    exhausted = [False]

    def search(prefix: list[int], form: list[float], tied: bool) -> bool:
        """tied: partial form equals the incumbent's prefix (else strictly less).

        Returns True when the incumbent best was replaced inside this subtree;
        the caller's partial is then a prefix of the new best, so it flips back
        to tied for the remaining siblings.
        """
        nonlocal best_order, best_form
        k = len(prefix)
        if k == n:
            if not tied:
                best_order = list(prefix)
                best_form = list(form)
                return True
            return False
        updated = False
        for cand in cell[k]:
            if cand in prefix_set:
                continue
            if expansions[0] >= budget:
                exhausted[0] = True
                return updated
            expansions[0] += 1
            col = column(prefix, cand)
            child_tied = tied
            if tied:
                ref = best_form[len(form) : len(form) + len(col)]
                if col > ref:
                    continue
                if col < ref:
                    child_tied = False
            prefix.append(cand)
            prefix_set.add(cand)
            if search(prefix, form + col, child_tied):
                updated = True
                tied = True
            prefix.pop()
            prefix_set.discard(cand)
            if exhausted[0]:
                return updated
        return updated

    prefix_set: set[int] = set()
    search([], [], True)
    return CanonicalLabeling(
        tuple(best_order), tuple(best_form), not exhausted[0], expansions[0]
    )
