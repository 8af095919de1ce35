"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` keyed by the run seed plus a
position (workload, cycle, index), so the same seed regenerates byte-identical
edge-list texts regardless of how far a run gets.  Nothing here imports
kcanon: the program only ever sees the generated text.
"""

from __future__ import annotations

import random


def rng_for(seed: int, *key) -> random.Random:
    """Independent stream for one input position; string seeding is stable."""
    return random.Random(":".join(str(k) for k in (seed, *key)))


def edge_text(edges, weighted: bool = True) -> str:
    """Edge-list text in the program's input format (1-based ids)."""
    if weighted:
        return "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)
    return "".join(f"{u} {v}\n" for u, v, _ in edges)


def node_count(edges) -> int:
    return max(max(u, v) for u, v, _ in edges)


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n + 1)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def random_connected(rng: random.Random, n: int, m: int, weights) -> list:
    """Random spanning tree plus random extra edges; m edges, simple, connected."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"cannot build a simple connected graph with n={n}, m={m}")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = weights(rng)
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.setdefault((min(u, v), max(u, v)), weights(rng))
    return [(u, v, w) for (u, v), w in edges.items()]


def relabel(rng: random.Random, edges) -> list:
    """Random node permutation, edge order and edge orientation."""
    n = node_count(edges)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [(perm[u - 1], perm[v - 1], w) for u, v, w in edges]
    out = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in out]
    rng.shuffle(out)
    return out


def double_edge_swap(rng: random.Random, edges) -> list:
    """Replace edges a-b, c-d by a-d, c-b, keeping degrees, weights and connectivity."""
    n = node_count(edges)
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(10_000):
        i, j = rng.sample(range(len(edges)), 2)
        a, b, w1 = edges[i]
        c, d, w2 = edges[j]
        if len({a, b, c, d}) < 4:
            continue
        if (min(a, d), max(a, d)) in present or (min(c, b), max(c, b)) in present:
            continue
        out = list(edges)
        out[i] = (a, d, w1)
        out[j] = (c, b, w2)
        if is_connected(n, out):
            return out
    raise ValueError("no valid double-edge swap found")


# Highly symmetric (vertex-transitive) unweighted families for canon-symmetric.


def _from_pairs(pairs) -> list:
    return sorted({(min(u, v), max(u, v), 1.0) for u, v in pairs})


def cycle(n: int) -> list:
    return _from_pairs((i, i % n + 1) for i in range(1, n + 1))


def hypercube(d: int) -> list:
    return _from_pairs(
        (i + 1, (i ^ (1 << b)) + 1) for i in range(1 << d) for b in range(d)
    )


def torus(a: int, b: int) -> list:
    node = lambda i, j: (i % a) * b + (j % b) + 1
    return _from_pairs(
        p for i in range(a) for j in range(b)
        for p in ((node(i, j), node(i + 1, j)), (node(i, j), node(i, j + 1)))
    )


def prism(k: int) -> list:
    return _from_pairs(
        p for i in range(k)
        for p in ((i + 1, (i + 1) % k + 1), (k + i + 1, k + (i + 1) % k + 1), (i + 1, k + i + 1))
    )


def circulant(n: int, jumps) -> list:
    return _from_pairs(
        (i + 1, (i + s) % n + 1) for i in range(n) for s in jumps
    )


def complete_bipartite(k: int) -> list:
    return _from_pairs((i, k + j) for i in range(1, k + 1) for j in range(1, k + 1))


def petersen() -> list:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return _from_pairs(outer + spokes + inner)
