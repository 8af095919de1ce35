import random

import pytest

from kcanon.graph import Graph, is_connected


def path(n, w=1.0):
    return Graph(n, [(k, k + 1, w) for k in range(1, n)])


def cycle(n, w=1.0):
    return Graph(n, [(k, k + 1, w) for k in range(1, n)] + [(n, 1, w)])


def complete(n, w=1.0):
    return Graph(n, [(i, j, w) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star(leaves):
    """K_{1,leaves}: node 1 is the center."""
    return Graph(leaves + 1, [(1, k, 1.0) for k in range(2, leaves + 2)])


def random_cubic(n, rng):
    """Unweighted 3-regular connected simple graph on n nodes, by stub matching."""
    while True:
        stubs = [x for x in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(pairs) == 3 * n // 2 and is_connected(n, pairs):
            return Graph(n, [(u, v, 1.0) for u, v in sorted(pairs)])


def random_permutation(n, rng):
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return {old: new for old, new in zip(range(1, n + 1), ids)}


def shuffled_copy(g, rng):
    """g with nodes permuted, edge order shuffled and orientations flipped."""
    perm = random_permutation(g.n, rng)
    edges = [(perm[v], perm[u], w) if rng.random() < 0.5 else (perm[u], perm[v], w)
             for u, v, w in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, edges), perm


@pytest.fixture
def rng():
    return random.Random(20260823)
