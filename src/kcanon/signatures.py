"""Node/edge signatures over all ordered source/sink pairs, and what they buy.

In the paper, for every ordered pair (a,b) the network is solved with unit
current from a to b.  Each node collects its voltage across all N(N-1)
ordered pairs; each edge collects its current.  Sorted, these vectors are
label independent, so equal vectors group nodes into orbit candidates, the
multiset of all vectors fingerprints the whole graph, and the signature
classes seed the individualization-refinement search behind canonical
labeling.

iso_screen decides in three stages, cheapest first: exact weighted colour
refinement from one cell (no factorization; the two graphs' first splits, by
the weights of each node's edges, are compared before either refines further,
and a discrete refinement gives the only candidate mapping), then
fingerprints, then canonical forms.

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

import functools
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
    and colour are indexed by node id - 1.  This is _cells, then _split, the
    generic path of _refined_state, which keeps the state and lays out the
    first split of a one-cell colouring directly (_weight_groups), where
    iso_screen compares two graphs before it refines on; the tests hold the
    two equal.
    """
    state = _cells(colour)
    cells = sorted(set(state[2]))
    _split(nbrs, *state, cells if splitters is None else splitters, len(cells))
    return state[2]


def _refined_state(adj, nbrs, colour: list[int]) -> tuple[tuple[list[int], ...], int]:
    """(state, cells): _refine's refined state (order, pos, cell, first) of colour, and its cell count.

    adj is Graph.adj and nbrs its (neighbour, weight) pairs, as for _refine.
    One cell is refined in two pieces: its first split, _weight_groups, and
    _refine_groups, which goes on from there; iso_screen compares two graphs'
    first splits between the pieces.  Any other colouring goes through
    _cells and _split.
    """
    if len(set(colour)) > 1:
        state = _cells(colour)
        cells = sorted(set(state[2]))
        return state, _split(nbrs, *state, cells, len(cells))
    return _refine_groups(nbrs, _weight_groups(adj))


def _weight_groups(adj) -> dict[tuple, list[int]]:
    """Refinement's first split from one cell: node indices by the sorted weights of their edges.

    From one cell, _split's first pop, of the whole node set, keys each node
    by the sorted weights of all its edges, and those are the values of
    adj[x].  Indices ascend within each group.  Relabelling renames the
    nodes of each group and keeps its key, so isomorphic graphs have equal
    maps of key to group size.
    """
    groups: dict[tuple, list[int]] = {}
    for x, a in enumerate(adj):
        groups.setdefault(tuple(sorted(a.values())), []).append(x)
    return groups


def _refine_groups(nbrs, groups: dict[tuple, list[int]]) -> tuple[tuple[list[int], ...], int]:
    """_refined_state from one cell, refined on from its first split, groups (_weight_groups).

    The groups are laid out directly, in key order, and every one but the
    first largest is queued, as _split queues fragments, before _split goes
    on from that queue.  This assumes that every node has an edge, as in
    every Graph of two or more nodes; _split would put an edgeless node
    last.  Nodes of one fragment keep ascending ids, where _split may swap
    them: only the sequence of splits decides cell.
    """
    n = len(nbrs)
    order, pos, cell, first = state = [], [0] * n, [0] * n, [0] * n
    queue, big, i = [], max(map(len, groups.values())), 0
    for key in sorted(groups) if len(groups) > 1 else groups:
        xs = groups[key]
        b = i + len(xs) - 1
        first[b] = i
        for x in xs:
            pos[x], cell[x] = i, b
            i += 1
        order += xs
        if len(xs) == big:
            big = 0
        else:
            queue.append(b)
    return state, _split(nbrs, *state, queue, len(groups))


def _cells(colour: list[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Refinement state (order, pos, cell, first) of colour.

    order lists the nodes by colour, ids ascending within a colour, and
    pos[x] is x's position in it; cell[x] is the last position of x's cell,
    and first[c] the first position of the cell whose last is c.
    """
    n = len(colour)
    order = sorted(range(n), key=colour.__getitem__)
    pos, cell, first = [0] * n, [0] * n, [0] * n
    last = n - 1
    for i in range(n - 1, -1, -1):
        x = order[i]
        if i < last and colour[x] != colour[order[i + 1]]:
            last = i
        pos[x], cell[x], first[last] = i, last, i
    return order, pos, cell, first


def _split(nbrs, order, pos, cell, first, splitters: list[int], cells: int) -> int:
    """_refine's splitter loop: refine a state of cells cells in place; return the new count.

    A touched node has one edge into a singleton splitter, so its key is that
    weight alone, which orders as the 1-tuple multiset does.  Keys and cells
    are sorted only when there are two or more, and each touched node is
    swapped into its fragment.  The splits and their order are as _refine
    describes.  Only that sequence of splits decides cell, never the order
    of the nodes inside a cell, so any state of one colouring refines to the
    same cell.
    """
    n = len(order)
    queue = deque(splitters)
    queued = set(queue)
    while queue and cells < n:
        s = queue.popleft()
        queued.remove(s)
        touched: dict[int, dict] = {}  # cell -> {key: its touched nodes}
        if first[s] == s:  # a singleton's one edge into x is x's key
            for x, w in nbrs[order[s]]:
                if first[cell[x]] < cell[x]:
                    touched.setdefault(cell[x], {}).setdefault(w, []).append(x)
        else:
            into: dict[int, list] = {}
            for y in order[first[s]:s + 1]:
                for x, w in nbrs[y]:
                    if x in into:
                        into[x].append(w)
                    elif first[cell[x]] < cell[x]:
                        into[x] = [w]
            for x, ws in into.items():
                ws.sort()
                touched.setdefault(cell[x], {}).setdefault(tuple(ws), []).append(x)
        for c in sorted(touched) if len(touched) > 1 else touched:
            groups, i = touched[c], first[c]
            if len(groups) == 1:
                frags = tuple(groups.values())
                rest = c + 1 - i - len(frags[0])  # untouched nodes, last in the cell
                if not rest:
                    continue
                big = 0 if c in queued else max(rest, len(frags[0]))
            else:
                frags = [groups[k] for k in sorted(groups)]
                rest = c + 1 - i - sum(map(len, frags))
                big = 0 if c in queued else max(rest, *map(len, frags))
            # A queued c stays queued for the fragment that keeps last c;
            # else the first fragment of size big is left out.
            for xs in frags:
                b = i + len(xs) - 1
                first[b] = i
                for x in xs:  # swap x to i; positions below i are final
                    y, j = order[i], pos[x]
                    order[j], pos[y] = y, j
                    order[i], pos[x], cell[x] = x, i, b
                    i += 1
                if len(xs) == big:
                    big = 0
                elif b not in queued:
                    queue.append(b)
                    queued.add(b)
            if rest:
                first[c] = i
                if rest != big and c not in queued:
                    queue.append(c)
                    queued.add(c)
            cells += len(frags) - (not rest)
    return cells


def _individualize(nbrs, state, cells: int, v: int):
    """(state, cells) of a copy of an equitable state of cells cells, v made a singleton and refined.

    v moves to the first position a of its cell and {v} becomes the cell a;
    the rest of the old cell keeps its last position.  Refining from [a]
    alone gives what _refine gives from the colouring with v at a.
    """
    order, pos, cell, first = state = tuple(map(list.copy, state))
    c = cell[v]
    a, i = first[c], pos[v]
    u = order[a]
    order[i], pos[u] = u, i
    order[a], pos[v], cell[v] = v, a, a
    first[a], first[c] = a, a + 1
    return state, _split(nbrs, *state, [a], cells + 1)


def _uniform_refine(graph: Graph) -> tuple[tuple[list[int], ...], int]:
    """_refined_state of graph from the single-cell colouring; its cell list commutes with relabelling.

    iso_screen runs the same two pieces, _weight_groups and _refine_groups,
    and compares the two graphs' first splits between them.  Raises
    GraphError below 2 nodes, where no signature exists.
    """
    _require_two_nodes(graph)
    return _refined_state(graph.adj, [a.items() for a in graph.adj], [0] * graph.n)


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
    graph.edges[k] mod p.  node_order, the node rows' order (_row_order), is
    computed at once; start and classes (_row_classes), the colouring by
    signature class that roots the canonical search and the orbit classes
    in row order, are built together on the first read of either, which
    orbit_partition, canonical_labeling and the CLI's orbits make and
    fingerprint never does.
    """

    def __init__(self, graph: Graph):
        _require_two_nodes(graph)
        self.P, self.p, self.r = _pinv_mod(graph)
        self.node_rows = np.concatenate([self.P.diagonal()[:, None], np.sort(self.P, axis=1)],
                                        axis=1)
        self.node_order = _row_order(self.node_rows)

    @functools.cached_property
    def _classes(self) -> tuple[list[int], list[list[int]]]:
        return _row_classes(self.node_rows, self.node_order)

    @property
    def start(self) -> list[int]:
        return self._classes[0]

    @property
    def classes(self) -> list[list[int]]:
        return self._classes[1]


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable argsort of an int64 matrix's rows in lexicographic order, by their keys (_row_keys)."""
    return np.argsort(_row_keys(rows), kind="stable")


def _row_classes(rows: np.ndarray, order: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """(start, classes) of an int64 matrix, one class per distinct row, in row order.

    order is the rows' _row_order.  classes lists the ids (index + 1) of each
    run of equal rows in it, and start[x] is the index of the class of row
    x, both from one pass over order.  Runs are found by comparing adjacent
    sorted rows as int64, which numpy does faster than it compares the void
    keys.
    """
    ranked = rows[order]
    opens = (ranked[1:] != ranked[:-1]).any(axis=1).tolist()  # row k + 1 opens a class
    start, classes, k = [0] * len(order), [], -1
    for x, new in zip(order.tolist(), [True, *opens]):
        if new:
            classes.append([])
            k += 1
        classes[k].append(x + 1)
        start[x] = k
    return start, classes


def orbit_partition(graph: Graph) -> OrbitPartition:
    """Group nodes by identical signature; classes ordered by signature."""
    return OrbitPartition(tuple(map(tuple, graph._analysis.classes)))


def fingerprint(graph: Graph) -> Fingerprint:
    """Canonical summary; permuting node labels leaves it byte-identical.

    The graph's one analysis feeds both parts.  Edge rows, one per stored
    edge and orientation-free, are rebuilt on each call rather than kept.
    """
    a, (u, v, _) = graph._analysis, graph.arrays
    p = a.p
    # Each row d = w (P[u] - P[v]) is reduced as d - (d // p) p and negated
    # as p - d with zeros kept at 0, since numpy's int64 // is far faster
    # than its %: two m x n arrays, each sorted in place.
    rows = a.P[u] - a.P[v]
    rows *= a.r[:, None]
    negated = rows // p
    negated *= p
    rows -= negated
    np.subtract(p, rows, out=negated)
    negated[negated == p] = 0
    rows.sort(axis=1)
    negated.sort(axis=1)
    first = (rows != negated).argmax(axis=1)
    pick = np.arange(len(rows))
    smaller = negated[pick, first] < rows[pick, first]
    rows[smaller] = negated[smaller]
    return Fingerprint(graph.n, graph.m, p, a.node_rows[a.node_order], rows[_row_order(rows)])


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
    return (g1.n == g2.n and g1.m == g2.m and _is_bijection(mapping, g1.n)
            and _maps_edges(g1, g2, mapping))


def _maps_edges(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    """Whether mapping sends each edge of g1 to one of g2 of equal weight.

    mapping must be a bijection from the ids of g1 onto 1..g2.n, as both
    callers ensure: iso_screen zips two refined orders, and verify_mapping
    checks _is_bijection first.
    """
    adj = g2.adj
    return all(adj[mapping[u] - 1].get(mapping[v] - 1) == w for u, v, w in g1.edges)


def iso_screen(
    g1: Graph,
    g2: Graph,
    *,
    node_budget: int = DEFAULT_BUDGET,
) -> IsoVerdict:
    """Refinement, fingerprint, then canonical-form screen; never certifies without proof.

    After the node and edge counts, each graph is refined from one cell by
    exact weighted colour refinement (_uniform_refine's two pieces), which
    commutes with relabelling and costs no factorization.  Its first split
    groups the nodes by the sorted weights of their edges (_weight_groups);
    when the two graphs' maps of key to group size differ, the pair is
    distinct before either graph refines further, and otherwise both go on
    from the groups already built.  When g1's colouring is discrete,
    an isomorphism must match colours, so the colour mapping is the only
    candidate: the pair is distinct unless g2's colouring is discrete too and
    that mapping keeps every edge and weight, and the mapping is certified
    only after verify_mapping.  A discrete refined order lists the nodes by
    colour, so the mapping zips the two orders, and the cell counts tell
    discreteness.  Otherwise differing refinement invariants
    (sorted colours, sorted (colour, colour, weight) edge triples) prove the
    pair distinct, differing fingerprints do too, and so do certified
    canonical forms that differ; equal forms give a mapping that must pass
    verify_mapping.  A node_budget that is not an integer of at least 1
    raises InvalidBudgetError before any of this.
    """
    _check_budget(node_budget)
    if g1.n != g2.n:
        return IsoVerdict(IsoVerdict.DISTINCT, reason="node counts differ")
    if g1.m != g2.m:
        return IsoVerdict(IsoVerdict.DISTINCT, reason="edge counts differ")
    _require_two_nodes(g1)
    groups1, groups2 = _weight_groups(g1.adj), _weight_groups(g2.adj)
    if ({key: len(xs) for key, xs in groups1.items()}
            != {key: len(xs) for key, xs in groups2.items()}):
        return IsoVerdict(IsoVerdict.DISTINCT, reason="colour refinement differs")
    (order1, _, k1, _), cells1 = _refine_groups([a.items() for a in g1.adj], groups1)
    (order2, _, k2, _), cells2 = _refine_groups([a.items() for a in g2.adj], groups2)
    if cells1 == g1.n:
        mapping = {x + 1: y + 1 for x, y in zip(order1, order2)}
        if cells2 < g2.n or not _maps_edges(g1, g2, mapping):
            return IsoVerdict(IsoVerdict.DISTINCT, reason="colour refinement differs")
    elif _refinement_invariant(g1, k1) != _refinement_invariant(g2, k2):
        return IsoVerdict(IsoVerdict.DISTINCT, reason="colour refinement differs")
    else:
        if fingerprint(g1) != fingerprint(g2):
            return IsoVerdict(IsoVerdict.DISTINCT, reason="fingerprints differ")
        c1, c2 = (canonical_labeling(g, budget=node_budget) for g in (g1, g2))
        if not (c1.certified and c2.certified):
            return IsoVerdict(IsoVerdict.POSSIBLE, reason="search budget exhausted")
        if c1.form != c2.form:
            return IsoVerdict(IsoVerdict.DISTINCT, reason="canonical forms differ")
        mapping = dict(zip(c1.order, c2.order))
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
    the leaves of the individualization-refinement search, which ranks leaves
    by their edges and builds form for the winner alone.  expansions counts
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


def _find(rep: dict[int, int], x: int) -> int:
    """Root of x in the union-find forest rep, halving the path on the way."""
    while rep[x] != x:
        rep[x] = x = rep[rep[x]]
    return x


def _twins(adj) -> list[int]:
    """twin[x]: the least node y with w(x,z) = w(y,z) for every node z other than x and y.

    Swapping two such twins is an automorphism, so twinship is an
    equivalence, and a node has twins of one kind only.  Non-adjacent twins
    have equal sets of (neighbour, weight) pairs.  Adjacent twins have equal
    closed sets of nodes, so only the nodes of one such set are compared,
    each against the first node of every class found so far: x and y joined
    by weight c are twins when their pair sets are equal once each adds
    (itself, c), which makes K_n one class.  A sum of the pairs' hashes
    screens each comparison, so a dense graph without twins costs O(n^2).
    """
    twin, lead, closed = [], {}, {}
    for x, a in enumerate(adj):
        twin.append(lead.setdefault(frozenset(a.items()), x))
        closed.setdefault(frozenset((*a, x)), []).append(x)
    for group in closed.values():
        if len(group) > 1:
            sums = {x: sum(map(hash, adj[x].items())) for x in group}
            firsts = []
            for y in group:
                for x in firsts:
                    c = adj[y][x]
                    if (sums[x] + hash((x, c)) == sums[y] + hash((y, c))
                            and {**adj[x], x: c} == {**adj[y], y: c}):
                        twin[y] = x
                        break
                else:
                    firsts.append(y)
    return twin


def _canonical(adj, start: list[int], budget: int) -> CanonicalLabeling:
    """Depth-first IR search for the leaf with the least form.

    A child individualizes one node v of its parent's first smallest
    non-singleton cell, placing v first in that cell, and refines the
    parent's refinement state in place (_individualize), with only the new
    singleton {v} as splitter: the parent's colouring is already equitable.
    Refinement keeps colour order, so a node that is a singleton cell keeps
    one position in every leaf below it, and a leaf's order is its state's
    order.  Hence when two leaves have equal forms, the map between their
    orders is an automorphism that fixes their common prefix and carries the
    earlier leaf's branch at the common ancestor onto the later leaf's.  The
    earlier branch is finished, so the search resumes at the common
    ancestor.  At every tree node, children in one orbit of the automorphisms
    known to fix the node's prefix are equivalent: one per orbit is explored,
    in ascending node index.  Such an automorphism maps the target cell onto
    itself, so each tree node keeps the orbits of its target cell alone, in
    one union-find seeded with the cell's twin classes (_twins: a swap of two
    twins off the path fixes it), and adds each automorphism found by a leaf
    once, as it arrives.  Each tree node is a generator on an explicit stack,
    so the depth of a path is not bounded by Python's recursion limit.  The
    root is _refined_state of start, the colouring by signature class of the
    graph whose Graph.adj is adj; it is one cell whenever the signature
    classes are, as for every vertex-transitive graph.  Node indices are id - 1.  Leaves compare by
    _edge_key, and the form is built for the winning leaf alone.
    """
    n = len(adj)
    # _split's hot loop iterates tuples faster than dict views.
    nbrs = [tuple(a.items()) for a in adj]
    edges = [(x, y, w) for x, a in enumerate(adj) for y, w in a.items() if x < y]
    autos: list[list[int]] = []
    first = best = None  # leaves: (key, order, path)
    expansions, exhausted = 1, False

    def leaf(state, path: list[int]) -> int:
        """Compare a discrete leaf with the first and best ones; return the depth to resume at."""
        nonlocal first, best
        order, pos = state[:2]
        key = _edge_key(edges, pos)
        if first is None:
            first = best = (key, order, path)
            return len(path) - 1
        for ref_key, ref_order, ref_path in (first, best):
            if key == ref_key:
                gamma = [0] * n
                for x, y in zip(ref_order, order):
                    gamma[x] = y
                autos.append(gamma)
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                return common
        if key < best[0]:
            best = (key, order, path)
        return len(path) - 1

    def search(state, cells: int, path: list[int]):
        """Yield each child of the tree node at path, sent back the depth to resume at; return it."""
        nonlocal expansions, exhausted
        order, _, cell, first_pos = state
        target, i = -1, 0
        while i < n:
            c = cell[order[i]]
            if c > i and (target < 0 or c - i < target - first_pos[target]):
                target = c
            i = c + 1
        children = sorted(order[first_pos[target]:target + 1])
        lead: dict[int, int] = {}
        rep = {x: lead.setdefault(twin[x], x) for x in children}
        known, explored = 0, set()  # explored: the roots of the orbits explored
        for v in lead.values():  # the first child of each twin class, ascending
            if known < len(autos):
                for gamma in autos[known:]:
                    if all(gamma[x] == x for x in path):
                        for x in children:
                            a, b = _find(rep, x), _find(rep, gamma[x])
                            if a != b:
                                rep[max(a, b)] = min(a, b)
                known = len(autos)
                explored = {_find(rep, u) for u in explored}
            if _find(rep, v) in explored:
                continue
            if first is not None and expansions >= budget:
                exhausted = True
                return -1
            expansions += 1
            resume = yield _individualize(nbrs, state, cells, v), path + [v]
            if resume < len(path):
                return resume
            explored.add(_find(rep, v))
        return len(path) - 1

    state, cells = _refined_state(adj, nbrs, start)
    if cells == n:
        leaf(state, [])
    else:
        twin = _twins(adj)
        stack, resume = [search(state, cells, [])], None
        while stack:
            try:
                (state, cells), path = stack[-1].send(resume)
            except StopIteration as stop:
                stack.pop()
                resume = stop.value
                continue
            if cells == n:
                resume = leaf(state, path)
            else:
                stack.append(search(state, cells, path))
                resume = None
    order = best[1]
    return CanonicalLabeling(tuple(x + 1 for x in order), _form(adj, order), not exhausted,
                             expansions)


def _form(adj, order: list[int]) -> tuple[float, ...]:
    """CanonicalLabeling.form of a node order (indices id - 1) of the graph whose Graph.adj is adj."""
    return tuple(get(y, 0.0) for k, get in enumerate([adj[x].get for x in order]) for y in order[:k])


def _edge_key(edges, pos: list[int]) -> list[tuple]:
    """A search leaf's key: between orders of one graph it compares as _form does.

    edges holds the graph's (u, v, w) by node index, and pos[x] is x's
    position.  An edge at positions i > j becomes (-i, -j, w), and the list
    is sorted in descending order, so it lists the form's non-zero entries
    (j, i) in form order.  Two orders of one graph give keys of equal length
    m.  At their first difference, either both keys hold an edge at one
    entry, and its weights decide as in the form, or one key has an edge where
    the other has 0.0 and its next edge, at a later entry, a smaller tuple.
    Weights are positive, so either way the keys compare as the forms do,
    in O(m log m) rather than the form's O(n^2).
    """
    key = []
    for u, v, w in edges:
        i, j = pos[u], pos[v]
        key.append((-i, -j, w) if i > j else (-j, -i, w))
    key.sort(reverse=True)
    return key
