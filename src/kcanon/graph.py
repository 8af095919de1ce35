"""Immutable weighted graph type, validation, and edge-list / JSON parsing.

Nodes are labeled 1..N in all files and public interfaces.  Edge weights are
conductances in siemens and must be strictly positive and finite.  Graphs must
be simple (no self-loops, no parallel edges) and connected; construction fails
otherwise.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    MalformedLineError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
)


@dataclass(frozen=True)
class Graph:
    """Undirected connected weighted graph. Immutable and safe to share.

    The cached views arrays, adj and _analysis (the signature analysis, built
    at most once) are shared: read-only by convention.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __init__(self, n, edges):
        object.__setattr__(self, "n", int(n))
        try:
            edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
        except OverflowError:
            raise NonFiniteWeightError("an edge weight is too large for a float")
        object.__setattr__(self, "edges", edges)
        self._validate()

    def _validate(self):
        if self.n < 1:
            raise GraphError(f"node count must be >= 1, got {self.n}")
        seen = set()
        for u, v, w in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphError(
                    f"edge ({u},{v}) endpoint outside 1..{self.n}"
                )
            if u == v:
                raise SelfLoopError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {key[0]}-{key[1]}")
            seen.add(key)
            if not (w > 0.0):  # catches zero, negative, and NaN
                raise NonPositiveWeightError(
                    f"edge ({u},{v}) has non-positive weight {w}"
                )
            if w == float("inf"):
                raise NonFiniteWeightError(f"edge ({u},{v}) has infinite weight")
        comps = _components(self.n, self.edges)
        if len(comps) > 1:
            raise DisconnectedError(comps)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, w) edge arrays in stored edge order; ids 0-based."""
        e = np.array(self.edges, dtype=float).reshape(-1, 3)
        arrays = (e[:, 0].astype(np.intp) - 1, e[:, 1].astype(np.intp) - 1, e[:, 2].copy())
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def adj(self) -> tuple[dict[int, float], ...]:
        """adj[x - 1] maps each neighbour y - 1 of node x to the weight of {x, y}."""
        adj = tuple({} for _ in range(self.n))
        for u, v, w in self.edges:
            adj[u - 1][v - 1] = adj[v - 1][u - 1] = w
        return adj

    @cached_property
    def _analysis(self):
        from .signatures import _Analysis  # signatures imports graph
        return _Analysis(self)

    def weight(self, u: int, v: int) -> float | None:
        """Weight of edge {u,v}, or None if absent or an id is outside 1..n."""
        return self.adj[u - 1].get(v - 1) if 1 <= u <= self.n else None

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self.adj))


def _components(n, edges):
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            k = queue.popleft()
            comp.append(k + 1)
            for j in adj[k]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        comps.append(comp)
    return comps


def is_connected(n: int, edges) -> bool:
    """True iff breadth-first traversal from node 1 reaches all n nodes."""
    if n < 1:
        raise GraphError("node count must be >= 1")
    return len(_components(n, [(u, v, 1.0) for u, v, *_ in edges])) == 1


def adjacency(graph: Graph) -> np.ndarray:
    """Symmetric N x N conductance matrix with zero diagonal."""
    a = np.zeros((graph.n, graph.n))
    u, v, w = graph.arrays
    a[u, v] = a[v, u] = w
    return a


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" or "u v w" lines into a Graph.

    Lines starting with '#' and blank lines are ignored.  A missing weight
    defaults to 1.0 (unit resistors).  N is the largest node id seen.
    """
    edges = []
    max_id = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise MalformedLineError(line_no, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(line_no, f"node ids must be integers: {line!r}")
        if u < 1 or v < 1:
            raise MalformedLineError(line_no, f"node ids must be positive: {line!r}")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise MalformedLineError(line_no, f"bad weight: {parts[2]!r}")
        edges.append((u, v, w))
        max_id = max(max_id, u, v)
    if max_id == 0:
        raise GraphError("no edges found")
    return Graph(max_id, edges)


def parse_json(text: str) -> Graph:
    """Parse the JSON form {"n": N, "edges": [[u, v, w], ...]}.

    N and the node ids must be JSON integers, weights JSON numbers (booleans
    are neither); anything else is a GraphError, never coerced.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(exc.lineno, f"invalid JSON: {exc.msg}")
    if not (isinstance(obj, dict) and type(obj.get("n")) is int
            and isinstance(obj.get("edges"), list)):
        raise GraphError('JSON graph must be an object with integer "n" and list "edges"')
    for e in obj["edges"]:
        if not (isinstance(e, list) and len(e) in (2, 3) and type(e[0]) is type(e[1]) is int
                and type(e[-1]) in (int, float)):
            raise GraphError(f"bad edge entry: {e!r}")
    return Graph(obj["n"], [(e[0], e[1], e[2] if len(e) == 3 else 1.0) for e in obj["edges"]])


def parse_graph(text: str) -> Graph:
    """Parse either format, sniffing JSON by a leading '{'."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_edge_list(text)


def load_graph(path: str) -> Graph:
    """Read a graph file as UTF-8; a byte that is not UTF-8 is a MalformedLineError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLineError(line_no, f"byte {data[exc.start]:#04x} is not UTF-8")
    return parse_graph(text)


def to_edge_list(graph: Graph) -> str:
    """Serialize to edge-list text; round-trips weights exactly via repr."""
    return "\n".join(f"{u} {v} {w!r}" for u, v, w in graph.edges) + "\n"


def to_json(graph: Graph) -> str:
    return json.dumps(
        {"n": graph.n, "edges": [[u, v, w] for u, v, w in graph.edges]},
        separators=(",", ":"),
    )


def relabel(graph: Graph, perm: dict[int, int]) -> Graph:
    """Apply a node relabeling; perm maps old id -> new id, a bijection on 1..N."""
    ids = list(range(1, graph.n + 1))
    if sorted(perm) != ids or sorted(perm.values()) != ids:
        raise GraphError("perm must be a bijection on 1..N")
    return Graph(graph.n, [(perm[u], perm[v], w) for u, v, w in graph.edges])
