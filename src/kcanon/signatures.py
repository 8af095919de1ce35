"""Node/edge signatures over all ordered source/sink pairs, and what they buy.

In the paper, for every ordered pair (a,b) the network is solved with unit
current from a to b.  Each node collects its voltage across all N(N-1)
ordered pairs; each edge collects its current.  Sorted, these vectors are
label independent, so equal vectors group nodes into orbit candidates, the
multiset of all vectors fingerprints the whole graph, and the signature
classes seed the individualization-refinement search behind canonical
labeling.

iso_screen decides in three stages, cheapest first: exact weighted colour
refinement from one cell (no factorization; a discrete refinement gives the
only candidate mapping), then fingerprints, then canonical forms.

Every voltage is a difference of two entries of one row of the Laplacian
pseudoinverse: v_ab[x] = L+[x,a] - L+[x,b].  Every float weight is a dyadic
rational, so L+ is exact rational, and the analysis computes it exactly
modulo a prime p (solver._pinv_mod), with no tolerance, at most once per
graph: every call here reads the cached Graph._analysis.  The signatures it
reads are compact rows of those residues:

* node x: [L+[x,x], sorted L+[x,:]], N + 1 values;
* edge (u,v) of weight w: the lexicographically smaller of sorted(D) and
  sorted(-D) mod p, with D = w (L+[u,:] - L+[v,:]), N values.

The paper's node and edge vectors are functions of these rows, so classes
are equal or finer, and still contain every automorphism orbit.  Isomorphic
graphs get identical residues by construction; differing residues prove the
exact values differ, and a residue collision can only merge classes.  Rows
are int64 matrices from L+ to the fingerprint.  Rows are ordered and grouped
lexicographically, by one fixed-width bytes key per row (_row_keys): node
classes are the runs of equal keys in key order, ids ascending within each.
Fingerprint.digest() hashes the parts' int64 bytes under the header tag gfp/1.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBudgetError
from .graph import Graph, _index, _is_bijection
from .solver import _pinv_mod, _require_two_nodes

DEFAULT_BUDGET = 10**6


def _refine(nbrs, colour: list[int], splitters: list[int] | None = None) -> list[int]:
    """Exact weighted colour refinement of colour, to the coarsest equitable one.

    Splitter-queue refinement (Paige & Tarjan, "Three partition refinement
    algorithms", SIAM J. Comput. 16, 1987; McKay & Piperno, "Practical graph
    isomorphism, II", 2014).  Cells are intervals of the order by colour, and
    a node's colour is the last position of its cell, so a cell splits in
    place and every input cell stays one interval of the order.  Popping a
    splitter cell S keys each node x of a non-singleton cell by the sorted
    multiset of the weights of x's edges into S: exact weights, never a float
    sum, whose rounding could depend on the labels.  Each touched cell splits
    by key, in sorted key order, and its untouched nodes come last and keep
    their colour, so a split costs time in the touched nodes alone.  The new
    fragments join the queue, except the first largest when the parent cell
    was not queued: equitability to the parent and to the others implies it
    to that one.  The queue starts with splitters, given as output colours,
    or with every cell; splitters=[s] suffices when colour is equitable but
    for a node moved to the first position s of its cell.  nbrs[x] holds the
    (neighbour, weight) pairs of Graph.adj[x], such as adj[x].items(); nbrs
    and colour are indexed by node id - 1.
    """
    n = len(colour)
    order = sorted(range(n), key=colour.__getitem__)
    pos, cell, first = [0] * n, [0] * n, [0] * n  # first[c]: first position of cell c
    last = n - 1
    for i in range(n - 1, -1, -1):
        x = order[i]
        if i < last and colour[x] != colour[order[i + 1]]:
            last = i
        pos[x], cell[x], first[last] = i, last, i
    queue = deque(sorted(set(cell)) if splitters is None else splitters)
    queued, cells = set(queue), len(set(cell))
    while queue and cells < n:
        s = queue.popleft()
        queued.remove(s)
        into: dict[int, list] = {}
        for y in order[first[s]:s + 1]:
            for x, w in nbrs[y]:
                if first[cell[x]] < cell[x]:
                    if x in into:
                        into[x].append(w)
                    else:
                        into[x] = [w]
        touched: dict[int, list[int]] = {}
        for x in into:
            touched.setdefault(cell[x], []).append(x)
        for c in sorted(touched):
            xs, a = touched[c], first[c]
            groups: dict[tuple, list[int]] = {}
            for x in xs:
                groups.setdefault(tuple(sorted(into[x])), []).append(x)
            t = a + len(xs)  # touched nodes move to order[a:t]
            if t > c and len(groups) == 1:
                continue
            holes = [pos[x] for x in xs if pos[x] >= t]
            for i, y in zip(holes, [y for y in order[a:t] if y not in into]):
                order[i], pos[y] = y, i
            lasts, i = [], a
            for key in sorted(groups):
                lasts.append(i + len(groups[key]) - 1)
                for x in groups[key]:
                    order[i], pos[x], cell[x] = x, i, lasts[-1]
                    i += 1
            if t <= c:
                lasts.append(c)
            bounds = list(zip([a] + [b + 1 for b in lasts[:-1]], lasts))
            sizes = [b - f for f, b in bounds]
            skip = len(bounds) - 1 if c in queued else sizes.index(max(sizes))
            for j, (f, b) in enumerate(bounds):
                first[b] = f
                if j != skip:
                    queue.append(b)
                    queued.add(b)
            cells += len(bounds) - 1
    return cell


def _uniform_refine(graph: Graph) -> list[int]:
    """_refine of graph from the single-cell colouring; commutes with relabelling.

    Raises GraphError below 2 nodes, where no signature exists.
    """
    _require_two_nodes(graph)
    return _refine([a.items() for a in graph.adj], [0] * graph.n)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per int64 row that sorts and compares as the row does lexicographically.

    With the sign bit flipped, big-endian bytes compare as the values do, and
    numpy sorts and compares unstructured void scalars bytewise.
    """
    keys = (rows ^ np.int64(-2**63)).astype(">i8", order="C")
    return keys.view(f"V{8 * rows.shape[1]}").ravel()


@dataclass(frozen=True)
class OrbitPartition:
    """Disjoint node classes sharing identical signatures; orbit candidates."""

    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """Label-invariant multiset summary of all node and edge signatures.

    Parts are read-only int64 matrices of residues mod p in [0, p), one
    signature per row, rows in lexicographic order: node rows [L+[x,x],
    sorted L+[x,:]] and edge rows, the lesser of sorted(D) and sorted(-D)
    with D = w (L+[u,:] - L+[v,:]).  Instances compare and hash by value.
    digest() is sha256 of a fixed ASCII header (format tag, n, m, p) and
    both parts as little-endian int64 bytes; it never calls to_json().
    """

    n: int
    m: int
    p: int
    node_part: np.ndarray  # n x (n + 1), sorted multiset of node rows
    edge_part: np.ndarray  # m x n

    def __post_init__(self):
        self.node_part.flags.writeable = False
        self.edge_part.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return ((self.n, self.m, self.p) == (other.n, other.m, other.p)
                and np.array_equal(self.node_part, other.node_part)
                and np.array_equal(self.edge_part, other.edge_part))

    def __hash__(self):
        return hash(self.digest())

    def to_json(self) -> str:
        """Canonical serialization: integer residues, fixed key order."""
        obj = {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "edge_part": self.edge_part.tolist(),
            "node_part": self.node_part.tolist(),
        }
        return json.dumps(obj, separators=(",", ":"), sort_keys=True)

    def digest(self) -> str:
        header = f"kcanon-fingerprint-gfp/1 n={self.n} m={self.m} p={self.p}\n"
        h = hashlib.sha256(header.encode("ascii"))
        for part in (self.node_part, self.edge_part):
            h.update(np.ascontiguousarray(part, dtype="<i8"))
        return h.hexdigest()


class _Analysis:
    """L+ of one graph modulo a prime, and the node signature rows read from it.

    Built once per graph, as the cached view Graph._analysis; it keeps no
    reference to the graph, so the cache makes no reference cycle.  P[x - 1]
    is the residue row of L+ for node x, and r[k] the weight of
    graph.edges[k] mod p.
    """

    def __init__(self, graph: Graph):
        _require_two_nodes(graph)
        self.P, self.p, self.r = _pinv_mod(graph)
        self.node_rows = np.concatenate([self.P.diagonal()[:, None], np.sort(self.P, axis=1)],
                                        axis=1)
        # Colouring by signature class, in signature order: the root of the
        # canonical search, and the order of orbit classes and canonical positions.
        _, start, sizes = np.unique(_row_keys(self.node_rows), return_inverse=True,
                                    return_counts=True)
        self.start, self.node_order = start.tolist(), np.argsort(start, kind="stable")
        ids, ends = (self.node_order + 1).tolist(), np.cumsum(sizes).tolist()
        self.classes = [ids[i:j] for i, j in zip([0] + ends, ends)]


def orbit_partition(graph: Graph) -> OrbitPartition:
    """Group nodes by identical signature; classes ordered by signature."""
    return OrbitPartition(tuple(map(tuple, graph._analysis.classes)))


def fingerprint(graph: Graph) -> Fingerprint:
    """Canonical summary; permuting node labels leaves it byte-identical.

    The graph's one analysis feeds both parts.  Edge rows, one per stored
    edge and orientation-free, are rebuilt on each call rather than kept.
    """
    a, (u, v, _) = graph._analysis, graph.arrays
    d = a.r[:, None] * (a.P[u] - a.P[v]) % a.p
    rows, negated = np.sort(d, axis=1), np.sort(-d % a.p, axis=1)
    first = (rows != negated).argmax(axis=1)
    pick = np.arange(len(rows))
    smaller = negated[pick, first] < rows[pick, first]
    rows[smaller] = negated[smaller]
    order = np.argsort(_row_keys(rows), kind="stable")
    return Fingerprint(graph.n, graph.m, a.p, a.node_rows[a.node_order], rows[order])


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of an isomorphism screen.

    kind is one of "distinct-certified", "possibly-isomorphic", or
    "isomorphic-certified"; a certified isomorphism always carries a mapping
    that has passed independent edge-and-weight verification.  reason names
    the stage that decided: "node counts differ", "edge counts differ",
    "colour refinement differs", "fingerprints differ", "canonical forms
    differ", "search budget exhausted", "mapping failed verification" or
    "verified mapping".
    """

    kind: str
    mapping: dict[int, int] | None = None
    reason: str = ""

    DISTINCT = "distinct-certified"
    POSSIBLE = "possibly-isomorphic"
    ISOMORPHIC = "isomorphic-certified"


def verify_mapping(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    """Independent check that mapping is a weight-preserving edge bijection."""
    if g1.n != g2.n or g1.m != g2.m or not _is_bijection(mapping, g1.n):
        return False
    for u, v, w in g1.edges:
        if g2.weight(mapping[u], mapping[v]) != w:
            return False
    return True


def iso_screen(
    g1: Graph,
    g2: Graph,
    *,
    node_budget: int = DEFAULT_BUDGET,
) -> IsoVerdict:
    """Refinement, fingerprint, then canonical-form screen; never certifies without proof.

    After the node and edge counts, each graph is refined from one cell by
    exact weighted colour refinement (_refine), which commutes with
    relabelling and costs no factorization.  Differing refinement invariants
    (sorted colours, sorted (colour, colour, weight) edge triples) prove the
    pair distinct.  When g1's colouring is discrete, an isomorphism must match
    colours, so that mapping is the only candidate, and it is certified only
    after verify_mapping.  Otherwise differing fingerprints prove the pair
    distinct, certified canonical forms that differ do too, and equal forms
    give a mapping that must pass verify_mapping.  A node_budget that is not
    an integer of at least 1 raises InvalidBudgetError before any of this.
    """
    _check_budget(node_budget)
    if g1.n != g2.n:
        return IsoVerdict(IsoVerdict.DISTINCT, reason="node counts differ")
    if g1.m != g2.m:
        return IsoVerdict(IsoVerdict.DISTINCT, reason="edge counts differ")
    k1, k2 = _uniform_refine(g1), _uniform_refine(g2)
    if _refinement_invariant(g1, k1) != _refinement_invariant(g2, k2):
        return IsoVerdict(IsoVerdict.DISTINCT, reason="colour refinement differs")
    if len(set(k1)) == g1.n:
        orders = [sorted(range(1, g1.n + 1), key=lambda x: k[x - 1]) for k in (k1, k2)]
    else:
        if fingerprint(g1) != fingerprint(g2):
            return IsoVerdict(IsoVerdict.DISTINCT, reason="fingerprints differ")
        c1, c2 = (canonical_labeling(g, budget=node_budget) for g in (g1, g2))
        if not (c1.certified and c2.certified):
            return IsoVerdict(IsoVerdict.POSSIBLE, reason="search budget exhausted")
        if c1.form != c2.form:
            return IsoVerdict(IsoVerdict.DISTINCT, reason="canonical forms differ")
        orders = [c1.order, c2.order]
    mapping = dict(zip(*orders))
    if not verify_mapping(g1, g2, mapping):
        return IsoVerdict(IsoVerdict.POSSIBLE, reason="mapping failed verification")
    return IsoVerdict(IsoVerdict.ISOMORPHIC, mapping=mapping, reason="verified mapping")


def _refinement_invariant(graph: Graph, colour: list[int]) -> tuple[list, list]:
    """Sorted colours and sorted (min colour, max colour, weight) edge triples."""
    c = [None, *colour]  # c[x] is the colour of node x
    edges = []
    for u, v, w in graph.edges:
        a, b = c[u], c[v]
        edges.append((a, b, w) if a <= b else (b, a, w))
    edges.sort()
    return sorted(colour), edges


@dataclass(frozen=True)
class CanonicalLabeling:
    """Canonical node order and the adjacency weight sequence it gives.

    order[i] is the original node id placed at canonical position i; the
    positions keep the signature classes in signature order.  form is the
    column-incremental upper-triangle weight sequence of the reordered
    adjacency matrix: entries (0,1), (0,2), (1,2), (0,3), ..., the least over
    the leaves of the individualization-refinement search.  expansions counts
    the search's tree nodes, root included.  certified is False when the
    budget of tree nodes ran out before the search finished; order is a full
    permutation either way.
    """

    order: tuple[int, ...]
    form: tuple[float, ...]
    certified: bool
    expansions: int

    def digest(self) -> str:
        """sha256 of the JSON {"form": [17-digit decimal strings], "n": n}."""
        text = json.dumps({"form": [format(x, ".17g") for x in self.form], "n": len(self.order)},
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def canonical_labeling(
    graph: Graph,
    *,
    budget: int = DEFAULT_BUDGET,
) -> CanonicalLabeling:
    """Signature classes in signature order, ties broken by an IR search.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): start from the signature classes, refine them by
    exact weighted colour refinement, and branch on each node of the first
    smallest non-singleton cell.  Every discrete leaf gives an order; the one
    with the least form wins.  Automorphisms found on the way prune
    equivalent branches.  A finished search makes the form label invariant.
    A budget that is not an integer of at least 1 raises InvalidBudgetError
    before the graph is analysed.
    """
    budget = _check_budget(budget)
    return _canonical(graph.adj, graph._analysis.start, budget)


def _check_budget(budget) -> int:
    """budget as an int; InvalidBudgetError unless it is an integer (not a bool) >= 1."""
    try:
        budget = _index(budget)
    except TypeError:
        raise InvalidBudgetError(f"search budget must be an integer, got {budget!r}")
    if budget < 1:
        raise InvalidBudgetError(f"search budget must be >= 1, got {budget}")
    return budget


def _find(rep: list[int], x: int) -> int:
    """Root of x in the union-find forest rep, halving the path on the way."""
    while rep[x] != x:
        rep[x] = x = rep[rep[x]]
    return x


def _canonical(adj, start: list[int], budget: int) -> CanonicalLabeling:
    """Depth-first IR search for the leaf with the least form.

    A child individualizes one node v of its parent's first smallest
    non-singleton cell, placing v first in that cell, and refines with only
    the new singleton {v} as splitter: the parent's colouring is already
    equitable.  Refinement keeps colour order, so a node that is a singleton
    cell keeps one position in every leaf below it.  Hence when two leaves
    have equal forms, the map between their orders is an automorphism that
    fixes their common prefix and carries the earlier leaf's branch at the
    common ancestor onto the later leaf's.  The earlier branch is finished,
    so the search resumes at the common ancestor.  At every tree node,
    children in one orbit of the automorphisms found so far that fix the
    node's prefix are equivalent: one per orbit is explored.  Each tree node
    keeps those orbits in one union-find and adds each automorphism once, as
    it arrives.  The root refines start, the colouring by signature class of
    the graph whose Graph.adj is adj.  Node indices are id - 1.
    """
    n = len(adj)
    # _refine's hot loop iterates tuples faster than dict views.
    nbrs = [tuple(a.items()) for a in adj]
    autos: list[list[int]] = []
    first = best = None  # leaves: (form, order, path)
    expansions, exhausted = 1, False

    def search(colour: list[int], path: list[int]) -> int:
        """Explore the subtree at path; return the depth to resume at."""
        nonlocal first, best, expansions, exhausted
        cells = sorted(set(colour))
        if len(cells) == n:
            order = sorted(range(n), key=colour.__getitem__)
            form = tuple(adj[order[k]].get(order[i], 0.0) for k in range(1, n) for i in range(k))
            if first is None:
                first = best = (form, order, path)
                return len(path) - 1
            for ref_form, ref_order, ref_path in (first, best):
                if form == ref_form:
                    gamma = [0] * n
                    for x, y in zip(ref_order, order):
                        gamma[x] = y
                    autos.append(gamma)
                    common = 0
                    while path[common] == ref_path[common]:
                        common += 1
                    return common
            if form < best[0]:
                best = (form, order, path)
            return len(path) - 1
        size = {b: b - a for a, b in zip([-1] + cells, cells) if b - a > 1}
        target = min(size, key=size.__getitem__)
        rep, known, done = list(range(n)), 0, []
        for v in (x for x in range(n) if colour[x] == target):
            for gamma in autos[known:]:
                if all(gamma[x] == x for x in path):
                    for x, y in enumerate(gamma):
                        if x != y:
                            a, b = _find(rep, x), _find(rep, y)
                            rep[max(a, b)] = min(a, b)
            known = len(autos)
            if _find(rep, v) in {_find(rep, u) for u in done}:
                continue
            if first is not None and expansions >= budget:
                exhausted = True
                return -1
            expansions += 1
            child = colour.copy()
            child[v] = target - size[target] + 1
            resume = search(_refine(nbrs, child, [child[v]]), path + [v])
            if resume < len(path):
                return resume
            done.append(v)
        return len(path) - 1

    search(_refine(nbrs, start), [])
    form, order, _ = best
    return CanonicalLabeling(tuple(x + 1 for x in order), form, not exhausted, expansions)
