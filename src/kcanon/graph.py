"""Immutable weighted graph type, validation, and edge-list / JSON parsing.

Nodes are labeled 1..N in all files and public interfaces.  Edge weights are
conductances in siemens and must be strictly positive and finite.  Graphs must
be simple (no self-loops, no parallel edges) and connected; construction fails
otherwise.
"""

from __future__ import annotations

import codecs
import json
import numbers
import operator
import os
import sys
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    MalformedLineError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SameSourceSinkError,
    SelfLoopError,
    _bounded,
)

_INF = float("inf")


@dataclass(frozen=True)
class Graph:
    """Undirected connected weighted graph. Immutable and safe to share.

    n and each node id must be integers (anything operator.index takes, but
    not a bool), and each edge a (u, v, w) triple whose weight is a real
    number that is not a bool; anything else is a GraphError, never coerced.
    edges holds them as (int, int, float).

    Construction makes two passes.  The conversion pass turns every entry
    into an (int, int, float) triple, so each type fault comes before any
    graph fault; the structural pass, _build, then checks the graph and
    fills adj in one loop.  parse_edge_list reads (int, int, float) edges
    already and calls _build alone.

    adj, built while the edges are validated, and the cached views arrays and
    _analysis (the signature analysis, built at most once) are shared:
    read-only by convention.  adj[x - 1] maps each neighbour y - 1 of node x
    to the weight of {x, y}.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __init__(self, n, edges):
        try:
            n = _index(n)
        except TypeError:
            raise GraphError(f"node count must be an integer, got {_bounded(n)}")
        try:
            entries = iter(edges)
        except TypeError:
            raise GraphError(f"edges must be iterable, got {type(edges).__name__}")
        # The conversion pass.  Entries that are already (int, int, float)
        # tuples are kept as they are.
        self._build(n, tuple(e if type(e) is tuple and len(e) == 3 and type(e[0]) is int
                             and type(e[1]) is int and type(e[2]) is float else _edge(e)
                             for e in entries))

    def _build(self, n: int, edges: tuple[tuple[int, int, float], ...]) -> None:
        """The structural pass: check n and the (int, int, float) edges, fill adj.

        Graph faults come in edge order: an endpoint outside 1..n, a
        self-loop, a duplicate, a weight that is not positive, then one that
        is infinite; a disconnected graph last.
        """
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        if n < 1:
            raise GraphError(f"node count must be >= 1, got {_bounded(n)}")
        # Above 2m nodes some node has no edge, so the graph is disconnected:
        # adj then holds only the nodes that edges name, so rejecting a huge
        # node id costs time and memory bounded by the input, not by n.
        named_only = n > 1 and n > 2 * len(edges)
        adj = defaultdict(dict) if named_only else tuple([{} for _ in range(n)])
        for u, v, w in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(
                    f"edge ({_bounded(u)},{_bounded(v)}) endpoint outside 1..{_bounded(n)}")
            if u == v:
                raise SelfLoopError(f"self-loop at node {_bounded(u)}")
            a, b = u - 1, v - 1
            nbrs = adj[a]
            if b in nbrs:
                raise DuplicateEdgeError(
                    f"duplicate edge {_bounded(min(u, v))}-{_bounded(max(u, v))}")
            if not (0.0 < w < _INF):
                edge = f"edge ({_bounded(u)},{_bounded(v)})"
                if not (w > 0.0):  # catches zero, negative, and NaN
                    raise NonPositiveWeightError(f"{edge} has non-positive weight {w}")
                raise NonFiniteWeightError(f"{edge} has infinite weight")
            nbrs[b] = adj[b][a] = w
        if named_only:
            raise DisconnectedError(_components(adj, list(adj)), n)
        if not _connected(adj):
            raise DisconnectedError(_components(adj, range(n)), n)
        object.__setattr__(self, "adj", adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, w) edge arrays in stored edge order; ids 0-based."""
        e = np.fromiter(chain.from_iterable(self.edges), float, 3 * len(self.edges)).reshape(-1, 3)
        arrays = (e[:, 0].astype(np.intp) - 1, e[:, 1].astype(np.intp) - 1, e[:, 2].copy())
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _analysis(self):
        from .signatures import _Analysis  # signatures imports graph
        return _Analysis(self)

    def weight(self, u: int, v: int) -> float | None:
        """Weight of edge {u,v}, or None if absent or an id is outside 1..n.

        GraphError unless both ids are integers, as _index takes them.
        """
        try:
            u, v = _index(u), _index(v)
        except TypeError:
            raise GraphError(f"node ids ({_bounded(u)},{_bounded(v)}) must be integers")
        return self.adj[u - 1].get(v - 1) if 1 <= u <= self.n else None

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self.adj))


def _index(x) -> int:
    """operator.index(x), which refuses bools too: TypeError unless x is an integer."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool, not an integer")
    return operator.index(x)


def _source_sink(n: int, a, b) -> tuple[int, int]:
    """(a, b) as ints; SameSourceSinkError unless a != b are node ids in 1..n."""
    try:
        a, b = _index(a), _index(b)
    except TypeError:
        raise SameSourceSinkError(f"node ids ({_bounded(a)},{_bounded(b)}) must be integers")
    if a == b:
        raise SameSourceSinkError(f"source and sink are both node {_bounded(a)}")
    if not (1 <= a <= n and 1 <= b <= n):
        raise SameSourceSinkError(f"nodes ({_bounded(a)},{_bounded(b)}) outside 1..{n}")
    return a, b


def _weight(w) -> float:
    """w as a float; GraphError unless w is a real number and not a bool."""
    if isinstance(w, bool) or not isinstance(w, numbers.Real):
        raise GraphError(f"edge weight must be a real number, got {_bounded(w)}")
    try:
        return float(w)
    except OverflowError:
        raise NonFiniteWeightError("an edge weight is too large for a float")


def _edge(e) -> tuple[int, int, float]:
    """An entry of Graph's edges as (int, int, float); GraphError if it is not one."""
    try:
        u, v, w = e
    except (TypeError, ValueError):
        raise GraphError(f"edge {_bounded(e)} is not a (u, v, w) triple")
    try:
        u, v = _index(u), _index(v)
    except TypeError:
        raise GraphError(f"edge {_bounded(e)} has a node id that is not an integer")
    return u, v, _weight(w)


def _connected(adj) -> bool:
    """Whether every node index of the sequence adj is reached from index 0."""
    seen = {0}
    reached = [0]
    for k in reached:  # grows as the walk goes
        for j in adj[k]:
            if j not in seen:
                seen.add(j)
                reached.append(j)
    return len(reached) == len(adj)


def _components(adj, nodes):
    """Node-id lists of the components that hold the node indices nodes.

    adj[k] iterates the neighbour indices of node index k.  Only a
    DisconnectedError needs them: _connected tells whether a graph is.
    """
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = []
        stack = [start]
        while stack:
            k = stack.pop()
            comp.append(k + 1)
            for j in adj[k]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        comps.append(comp)
    return comps


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" or "u v w" lines into a Graph.

    Lines starting with '#' and blank lines are ignored.  A missing weight
    defaults to 1.0 (unit resistors).  N is the largest node id seen.  text
    must be a str; decoding bytes is load_graph's job.

    Every line is read before any graph fault is looked for.  The edges
    read are (int, int, float) already, so they go straight to Graph's
    structural pass, without its conversion pass; the outcome is that of
    Graph(N, edges).
    """
    if not isinstance(text, str):
        raise GraphError(f"edge-list text must be a str, got {type(text).__name__}")
    lines = text.splitlines()
    edges = []
    max_id = 0
    for line_no, parts in enumerate(map(str.split, lines), start=1):
        fields = len(parts)
        if fields != 3 and fields != 2 or parts[0][0] == "#":
            if not parts or parts[0][0] == "#":
                continue
            raise MalformedLineError(line_no, f"expected 2 or 3 fields, got {fields}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:  # also where decimal digits are past int()'s limit
            cause = (f"node ids must have at most {sys.get_int_max_str_digits()} digits"
                     if parts[0].isdecimal() and parts[1].isdecimal() else "node ids must be integers")
            raise MalformedLineError(line_no, f"{cause}: {_bounded(lines[line_no - 1].strip())}")
        if u < 1 or v < 1:
            raise MalformedLineError(
                line_no, f"node ids must be positive: {_bounded(lines[line_no - 1].strip())}")
        w = 1.0
        if fields == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise MalformedLineError(line_no, f"bad weight: {_bounded(parts[2])}")
        edges.append((u, v, w))
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    if max_id == 0:
        raise GraphError("no edges found")
    graph = object.__new__(Graph)
    graph._build(max_id, tuple(edges))
    return graph


def parse_json(text: str) -> Graph:
    """Parse the JSON form {"n": N, "edges": [[u, v, w], ...]}.

    N and the node ids must be JSON integers, weights JSON numbers (booleans
    are neither); anything else is a GraphError, never coerced.  text must be
    a str, as for parse_edge_list.  An integer of more digits than int()
    converts (sys.get_int_max_str_digits()) is beyond every float too, so it
    reads as the float it overflows to, +-inf: a NonFiniteWeightError as a
    weight, as for 1e400, and no integer as N or a node id.  Nesting too deep
    for the JSON decoder is a GraphError as well.
    """
    if not isinstance(text, str):
        raise GraphError(f"JSON text must be a str, got {type(text).__name__}")
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(exc.lineno, f"invalid JSON: {exc.msg}")
    except RecursionError:
        raise GraphError("JSON nesting is too deep to read")
    n = obj.get("n") if isinstance(obj, dict) else None
    if not (type(n) is int and isinstance(obj.get("edges"), list)):
        raise GraphError('JSON graph must be an object with integer "n" and list "edges"'
                         + (f', got "n": {n}' if type(n) is float else ""))
    for e in obj["edges"]:
        if not (isinstance(e, list) and len(e) in (2, 3) and type(e[0]) is type(e[1]) is int
                and type(e[-1]) in (int, float)):
            raise GraphError(f"bad edge entry: {_bounded(e)}")
    return Graph(n, [(e[0], e[1], e[2] if len(e) == 3 else 1.0) for e in obj["edges"]])


def _json_int(digits: str) -> int | float:
    """A JSON integer as an int, or as +-inf when it has more digits than int() converts."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def parse_graph(text: str) -> Graph:
    """Parse either format, sniffing JSON by a leading '{'."""
    if isinstance(text, str) and text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_edge_list(text)


def load_graph(path: str | os.PathLike) -> Graph:
    """Read a graph file as UTF-8; a byte that is not UTF-8 is a MalformedLineError.

    path must be a str or an os.PathLike, checked before anything is opened;
    anything else, and a file that cannot be opened or read, is a GraphError.
    One leading UTF-8 byte-order mark is dropped from the bytes before they
    are decoded, so a decoding error still names the bad byte and its line.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise GraphError(f"graph path must be a str or os.PathLike, got {type(path).__name__}")
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise GraphError(f"cannot read {_bounded(os.fspath(path))}: {getattr(exc, 'strerror', None) or exc}")
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


def _is_bijection(perm, n: int) -> bool:
    """Whether perm is a mapping whose keys and whose values are each 1..n.

    Ids must be integers, as _index takes them: a float or a bool equal to an
    id is refused.
    """
    if not isinstance(perm, Mapping):
        return False
    types = {*map(type, perm), *map(type, perm.values())}
    if bool in types or not all(hasattr(t, "__index__") for t in types):
        return False
    ids = list(range(1, n + 1))
    try:
        return sorted(perm) == ids and sorted(perm.values()) == ids
    except TypeError:  # keys or values that do not compare with each other
        return False


def relabel(graph: Graph, perm: dict[int, int]) -> Graph:
    """Apply a node relabeling; perm maps old id -> new id, a bijection on 1..N."""
    if not _is_bijection(perm, graph.n):
        raise GraphError("perm must be a bijection on 1..N")
    return Graph(graph.n, [(perm[u], perm[v], w) for u, v, w in graph.edges])
