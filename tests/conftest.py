import itertools
import random

import pytest

from kcanon.errors import DisconnectedError
from kcanon.graph import Graph


def path(n, w=1.0):
    return Graph(n, [(k, k + 1, w) for k in range(1, n)])


def cycle(n, w=1.0):
    return Graph(n, [(k, k + 1, w) for k in range(1, n)] + [(n, 1, w)])


def complete(n, w=1.0):
    return Graph(n, [(i, j, w) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star(leaves):
    """K_{1,leaves}: node 1 is the center."""
    return Graph(leaves + 1, [(1, k, 1.0) for k in range(2, leaves + 2)])


def caterpillar(spine, legs, w=1.0, leg_w=1.0):
    """A path of spine nodes 1..spine, each with legs pendant leaves: twins on every spine node."""
    edges = [(k, k + 1, w) for k in range(1, spine)]
    edges += [(k, spine + legs * (k - 1) + j, leg_w) for k in range(1, spine + 1) for j in range(1, legs + 1)]
    return Graph(spine * (legs + 1), edges)


def unit_graph(n, pairs):
    """Unweighted graph on nodes 1..n from 0-based node pairs, duplicates merged."""
    edges = {(min(u, v) + 1, max(u, v) + 1) for u, v in pairs}
    return Graph(n, [(u, v, 1.0) for u, v in sorted(edges)])


def prism(k):
    return unit_graph(2 * k, [(x + s, (x + 1) % k + s) for x in range(k) for s in (0, k)]
                      + [(x, x + k) for x in range(k)])


def complete_bipartite(k):
    return unit_graph(2 * k, [(i, k + j) for i in range(k) for j in range(k)])


def cayley_z4z4(steps):
    """Cayley graph of Z4 x Z4 whose connection set is steps and their negations."""
    return unit_graph(16, [(4 * a + b, 4 * ((a + s) % 4) + (b + t) % 4)
                           for a in range(4) for b in range(4) for s, t in steps])


# Both strongly regular with parameters (16, 6, 2, 2), and not isomorphic.
SHRIKHANDE = cayley_z4z4([(0, 1), (1, 0), (1, 1)])
ROOK_4X4 = cayley_z4z4([(0, 1), (0, 2), (1, 0), (2, 0)])


def random_cubic(n, rng):
    """Unweighted 3-regular connected simple graph on n nodes, by stub matching."""
    while True:
        stubs = [x for x in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(pairs) == 3 * n // 2:
            try:
                return Graph(n, [(u, v, 1.0) for u, v in sorted(pairs)])
            except DisconnectedError:
                pass


def cfi(base, twist):
    """The Cai-Furer-Immerman graph of base, with its first edge twisted when twist is true.

    Each base node v gets one gadget: two ends (v, e, 0) and (v, e, 1) per
    base edge e at v, and one middle node per even subset S of v's edges,
    joined to (v, e, 1) for e in S and to (v, e, 0) for the others.  Each
    base edge e = uv joins (u, e, i) to (v, e, i), or to (v, e, 1 - i) when
    e is twisted.  A cubic base gives 10 nodes per base node, each with three
    unit-weight edges.  On a connected base the twisted and untwisted graphs
    are not isomorphic (Cai, Furer & Immerman, "An optimal lower bound on the
    number of variables for graph identification", Combinatorica 12, 1992).
    """
    ids = {}

    def node(key):
        return ids.setdefault(key, len(ids) + 1)

    incident = {v: [] for v in range(1, base.n + 1)}
    for e, (u, v, _) in enumerate(base.edges):
        incident[u].append(e)
        incident[v].append(e)
    edges = []
    for v, es in incident.items():
        for size in range(0, len(es) + 1, 2):
            for subset in itertools.combinations(es, size):
                middle = node(("middle", v, subset))
                edges += [(middle, node((v, e, int(e in subset))), 1.0) for e in es]
    for e, (u, v, _) in enumerate(base.edges):
        for i in (0, 1):
            edges.append((node((u, e, i)), node((v, e, i ^ (twist and e == 0))), 1.0))
    return Graph(len(ids), edges)


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


def double_edge_swap(g, rng):
    """g with edges a-b, c-d replaced by a-d, c-b, degrees and weights kept.

    None when no such swap leaves a simple connected graph.
    """
    edges = list(g.edges)
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    pairs = list(itertools.combinations(range(len(edges)), 2))
    rng.shuffle(pairs)
    for i, j in pairs:
        (a, b, w1), (c, d, w2) = edges[i], edges[j]
        for a, b in ((a, b), (b, a)):
            if len({a, b, c, d}) < 4 or {(min(a, d), max(a, d)), (min(c, b), max(c, b))} & present:
                continue
            out = edges.copy()
            out[i], out[j] = (a, d, w1), (c, b, w2)
            try:
                return Graph(g.n, out)
            except DisconnectedError:
                pass
    return None


@pytest.fixture
def rng():
    return random.Random(20260823)
