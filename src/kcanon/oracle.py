"""Brute-force and exact-rational ground truth for validating the pipeline.

Everything here is deliberately naive and float-free: exact Fraction solves,
exhaustive permutation search, and small-graph enumeration.  The main pipeline
is checked against this module, never the other way around.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import SingularSystemError, TooLargeError
from .graph import Graph, _source_sink

BRUTE_FORCE_MAX_N = 10
ENUMERATION_MAX_N = 7


def exact_laplacian(graph: Graph) -> list[list[Fraction]]:
    n = graph.n
    L = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for u, v, w in graph.edges:
        fw = Fraction(w)
        L[u - 1][v - 1] -= fw
        L[v - 1][u - 1] -= fw
        L[u - 1][u - 1] += fw
        L[v - 1][v - 1] += fw
    return L


def _bareiss_solve(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Fraction-free (Bareiss) elimination with back substitution."""
    sz = len(M)
    aug = [list(row) + [b] for row, b in zip(M, rhs)]
    prev = Fraction(1)
    for k in range(sz):
        pivot_row = next((r for r in range(k, sz) if aug[r][k] != 0), None)
        if pivot_row is None:
            raise SingularSystemError("singular system (disconnected graph?)")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for r in range(k + 1, sz):
            for c in range(k + 1, sz + 1):
                aug[r][c] = (aug[r][c] * aug[k][k] - aug[r][k] * aug[k][c]) / prev
            aug[r][k] = Fraction(0)
        prev = aug[k][k]
    sol = [Fraction(0)] * sz
    for r in range(sz - 1, -1, -1):
        s = aug[r][sz]
        for c in range(r + 1, sz):
            s -= aug[r][c] * sol[c]
        sol[r] = s / aug[r][r]
    return sol


def exact_solve_pair(graph: Graph, a: int, b: int) -> list[Fraction]:
    """Exact sum-zero-gauge voltages for unit current from a to b."""
    n = graph.n
    a, b = _source_sink(n, a, b)
    L = exact_laplacian(graph)
    ground = n - 1  # 0-based node N, the node build_system grounds
    keep = [i for i in range(n) if i != ground]
    reduced = [[L[i][j] for j in keep] for i in keep]
    rhs = [
        Fraction(1 if i == a - 1 else 0) - Fraction(1 if i == b - 1 else 0)
        for i in keep
    ]
    sol = _bareiss_solve(reduced, rhs)
    v = [Fraction(0)] * n
    for i, idx in enumerate(keep):
        v[idx] = sol[i]
    mean = sum(v, Fraction(0)) / n
    return [x - mean for x in v]


def exact_pinv(graph: Graph) -> list[list[Fraction]]:
    """The Laplacian pseudoinverse L+ = (L + J/n)^-1 - J/n, J the all-ones matrix.

    One Gauss-Jordan inverse, in place and with no pivoting: L + J/n is
    positive definite for a connected graph.  Row x - 1 is node x, so the
    sum-zero-gauge voltage of node x for unit current from a to b is
    L+[x - 1][a - 1] - L+[x - 1][b - 1].
    """
    n = graph.n
    j = Fraction(1, n)
    a = [[x + j for x in row] for row in exact_laplacian(graph)]
    for k in range(n):
        # Column k of the inverse takes the place of column k of the matrix.
        d, a[k][k] = a[k][k], Fraction(1)
        pivot = a[k] = [x / d for x in a[k]]
        for r in range(n):
            f = a[r][k]
            if r != k and f:
                a[r][k] = Fraction(0)
                a[r] = [x - f * y for x, y in zip(a[r], pivot)]
    return [[x - j for x in row] for row in a]


@dataclass(frozen=True)
class AutomorphismReport:
    order: int
    orbits: tuple[tuple[int, ...], ...]
    automorphisms: tuple[tuple[int, ...], ...]  # perm[i-1] = image of node i


def _mapping_search(g1: Graph, g2: Graph, find_all: bool):
    """Exhaustive prefix-pruned search for weight-preserving bijections."""
    n = g1.n
    deg1 = [len(a) for a in g1.adj]
    deg2 = [len(a) for a in g2.adj]
    results = []
    image = [0] * n  # image[i] = mapped node (1-based), 0 = unassigned

    def extend(i):
        if i == n:
            results.append(tuple(image))
            return not find_all  # stop at first hit unless collecting all
        for y in range(1, n + 1):
            if y in image[:i]:
                continue
            if deg1[i] != deg2[y - 1]:
                continue
            ok = True
            for j in range(i):
                if g1.weight(i + 1, j + 1) != g2.weight(y, image[j]):
                    ok = False
                    break
            if ok:
                image[i] = y
                if extend(i + 1):
                    return True
                image[i] = 0
        return False

    extend(0)
    return results


def brute_force_automorphisms(graph: Graph) -> AutomorphismReport:
    """All weight-preserving self-bijections, their count, and node orbits."""
    if graph.n > BRUTE_FORCE_MAX_N:
        raise TooLargeError(f"n={graph.n} exceeds brute-force limit {BRUTE_FORCE_MAX_N}")
    autos = _mapping_search(graph, graph, find_all=True)
    parent = list(range(graph.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in autos:
        for i, img in enumerate(perm, start=1):
            ri, rj = find(i), find(img)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(1, graph.n + 1):
        groups.setdefault(find(i), []).append(i)
    orbits = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return AutomorphismReport(len(autos), orbits, tuple(autos))


def brute_force_isomorphic(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """A verified mapping, or None as a proof of non-isomorphism."""
    if g1.n > BRUTE_FORCE_MAX_N or g2.n > BRUTE_FORCE_MAX_N:
        raise TooLargeError(f"exceeds brute-force limit {BRUTE_FORCE_MAX_N}")
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if g1.degree_sequence() != g2.degree_sequence():
        return None
    hits = _mapping_search(g1, g2, find_all=False)
    if not hits:
        return None
    return {i + 1: img for i, img in enumerate(hits[0])}


# --- enumeration of small graphs up to isomorphism ------------------------

@lru_cache(maxsize=None)
def _pairs(n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def _perm_edge_maps(n):
    """For each permutation of range(n), where each pair index lands."""
    pairs = _pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    maps = []
    for perm in itertools.permutations(range(n)):
        maps.append(
            [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        )
    return np.array(maps, dtype=np.int64)


def _canonical_mask(mask: int, n: int) -> int:
    """Minimal adjacency bit-string over all n! relabelings."""
    pairs = _pairs(n)
    bits = np.array([(mask >> k) & 1 for k in range(len(pairs))], dtype=np.int64)
    mapped = bits[_perm_edge_maps(n)]  # (n!, n_pairs)
    weights = np.left_shift(np.int64(1), np.arange(len(pairs), dtype=np.int64))
    return int((mapped @ weights).min())


def _mask_connected(mask: int, n: int) -> bool:
    adj = [0] * n
    for k, (i, j) in enumerate(_pairs(n)):
        if (mask >> k) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for i in range(n):
            if (frontier >> i) & 1:
                nxt |= adj[i]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


@lru_cache(maxsize=None)
def _all_graph_masks(n):
    """Canonical masks of ALL simple graphs on n nodes, up to isomorphism.

    Built by augmentation: every graph on n nodes restricted to its first n-1
    nodes is isomorphic to some (n-1)-node representative, so attaching a new
    node with every possible neighborhood covers everything.
    """
    if n == 1:
        return (0,)
    prev_pairs = _pairs(n - 1)
    cur_index = {p: k for k, p in enumerate(_pairs(n))}
    embed = [cur_index[p] for p in prev_pairs]
    seen = set()
    for prev_mask in _all_graph_masks(n - 1):
        base = 0
        for k in range(len(prev_pairs)):
            if (prev_mask >> k) & 1:
                base |= 1 << embed[k]
        for subset in range(1 << (n - 1)):
            mask = base
            for i in range(n - 1):
                if (subset >> i) & 1:
                    mask |= 1 << cur_index[(i, n - 1)]
            seen.add(_canonical_mask(mask, n))
    return tuple(sorted(seen))


def _mask_to_graph(mask: int, n: int) -> Graph:
    edges = [
        (i + 1, j + 1, 1.0)
        for k, (i, j) in enumerate(_pairs(n))
        if (mask >> k) & 1
    ]
    return Graph(n, edges)


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """All connected simple unweighted graphs on n nodes, up to isomorphism."""
    if not 2 <= n <= ENUMERATION_MAX_N:
        raise TooLargeError(f"n must be in 2..{ENUMERATION_MAX_N}, got {n}")
    return [
        _mask_to_graph(mask, n)
        for mask in _all_graph_masks(n)
        if _mask_connected(mask, n)
    ]


def random_connected_graph(
    n: int,
    rng: random.Random,
    extra_edge_prob: float = 0.25,
    weight_range: tuple[float, float] | None = None,
) -> Graph:
    """Random spanning tree plus random extra edges; optional random weights."""
    def w():
        return rng.uniform(*weight_range) if weight_range else 1.0

    edges = set()
    for k in range(2, n + 1):
        p = rng.randint(1, k - 1)
        edges.add((p, k))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return Graph(n, [(u, v, w()) for u, v in sorted(edges)])
