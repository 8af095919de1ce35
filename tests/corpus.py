"""The test corpora: every small connected graph, and seeded random graphs.

Every test that needs "all connected graphs on n nodes" or "a random
connected graph" draws it from here, so every corpus draws the same graphs.
The enumerator is exhaustive and slow by design (n! relabelings per graph).
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import numpy as np

from kcanon.errors import TooLargeError
from kcanon.graph import Graph

ENUMERATION_MAX_N = 7


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
