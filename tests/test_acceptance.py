"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the orbit-comparison report.
"""

import itertools
import random
import time

import numpy as np
import pytest

from kcanon import oracle
from kcanon.graph import Graph, relabel
from kcanon.signatures import (
    IsoVerdict,
    canonical_labeling,
    fingerprint,
    iso_screen,
    orbit_partition,
    verify_mapping,
)
from kcanon.solver import (
    build_system,
    effective_resistance,
    factorization_count,
    kcl_residual,
    laplacian,
    solve_pair,
    solve_pair_pseudoinverse,
)

from conftest import complete, cycle, path, random_permutation
from corpus import enumerate_connected_graphs, random_connected_graph

SEED = 20260823


@pytest.fixture(scope="module")
def corpus7():
    """Every connected graph on 2..7 nodes, up to isomorphism (995 graphs)."""
    graphs = []
    for n in range(2, 8):
        graphs.extend(enumerate_connected_graphs(n))
    assert len(graphs) == 995
    return graphs


@pytest.fixture(scope="module")
def random_corpus():
    """100 random connected weighted graphs, n <= 30, weights in [0.1, 10]."""
    rng = random.Random(SEED)
    return [
        random_connected_graph(rng.randint(2, 30), rng, weight_range=(0.1, 10.0))
        for _ in range(100)
    ]


def test_criterion_1_kcl_residual_suite(corpus7, random_corpus):
    start = time.perf_counter()
    for g in corpus7 + random_corpus:
        system = build_system(g)
        L = laplacian(g)
        for a, b in itertools.combinations(range(1, g.n + 1), 2):
            v = solve_pair(system, a, b).v
            rhs = np.zeros(g.n)
            rhs[a - 1], rhs[b - 1] = 1.0, -1.0
            assert np.abs(L @ v - rhs).max() < 1e-9
            assert abs(v.sum()) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 1 (KCL residual suite, {len(corpus7) + len(random_corpus)} "
          f"graphs in {elapsed:.1f}s): PASS")


def test_criterion_2_method_agreement(corpus7, random_corpus):
    for g in corpus7 + random_corpus:
        system = build_system(g)
        for a, b in itertools.combinations(range(1, g.n + 1), 2):
            v1 = solve_pair(system, a, b).v
            v2 = solve_pair_pseudoinverse(g, a, b).v
            assert np.abs(v1 - v2).max() < 1e-8
    print("\nACCEPTANCE 2 (grounded vs pseudoinverse): PASS")


def test_criterion_3_exact_oracle_agreement(corpus7):
    for g in corpus7:
        system = build_system(g)
        pinv = oracle.exact_pinv(g)
        for a, b in itertools.combinations(range(1, g.n + 1), 2):
            exact = np.array([float(row[a - 1] - row[b - 1]) for row in pinv])
            assert np.abs(solve_pair(system, a, b).v - exact).max() < 1e-9
    print("\nACCEPTANCE 3 (float vs exact rational on full n<=7 corpus): PASS")


def test_criterion_4_orbit_soundness_and_report(corpus7):
    violations = []
    mismatches = []
    for idx, g in enumerate(corpus7):
        truth = oracle.brute_force_automorphisms(g).orbits
        candidate = orbit_partition(g).classes
        class_of = {}
        for ci, cls in enumerate(candidate):
            for node in cls:
                class_of[node] = ci
        for orbit in truth:
            if len({class_of[x] for x in orbit}) != 1:
                violations.append((idx, g, orbit))
        if sorted(truth) != sorted(candidate):
            mismatches.append((idx, g, truth, candidate))
    # The provable direction must hold everywhere.
    assert violations == []
    # The converse is measured, not asserted; emit the comparison report.
    print("\norbit comparison report (n<=7 exhaustive):")
    print(f"  graphs checked: {len(corpus7)}")
    print(f"  true-orbit-split-across-classes violations: {len(violations)}")
    print(f"  signature classes coarser than true orbits: {len(mismatches)}")
    for idx, g, truth, candidate in mismatches:
        print(f"  graph #{idx} n={g.n} edges={[(u, v) for u, v, _ in g.edges]}")
        print(f"    true orbits: {sorted(truth)}")
        print(f"    signature classes: {sorted(candidate)}")
    print("ACCEPTANCE 4 (orbit soundness + converse report): PASS")


def _double_edge_swap(g, rng, attempts=200):
    """Degree-preserving rewire; returns a connected Graph or None."""
    edges = {(u, v) for u, v, _ in g.edges}
    for _ in range(attempts):
        old1, old2 = rng.sample(sorted(edges), 2)
        a, b = old1
        c, d = old2 if rng.random() < 0.5 else old2[::-1]
        if len({a, b, c, d}) < 4:
            continue
        e1 = (min(a, c), max(a, c))
        e2 = (min(b, d), max(b, d))
        if e1 in edges or e2 in edges:
            continue
        new_edges = (edges - {old1, old2}) | {e1, e2}
        try:
            return Graph(g.n, [(u, v, 1.0) for u, v in sorted(new_edges)])
        except Exception:
            continue
    return None


def test_criterion_5_isomorphism_soundness():
    rng = random.Random(SEED)
    iso_pairs = []
    while len(iso_pairs) < 100:
        g = random_connected_graph(rng.randint(4, 8), rng, extra_edge_prob=0.35)
        h = relabel(g, random_permutation(g.n, rng))
        iso_pairs.append((g, h))
    noniso_pairs = []
    while len(noniso_pairs) < 100:
        g = random_connected_graph(rng.randint(5, 8), rng, extra_edge_prob=0.35)
        h = _double_edge_swap(g, rng)
        if h is None:
            continue
        assert g.degree_sequence() == h.degree_sequence()
        if oracle.brute_force_isomorphic(g, h) is not None:
            continue
        noniso_pairs.append((g, h))

    for g, h in iso_pairs:
        verdict = iso_screen(g, h)
        assert verdict.kind == IsoVerdict.ISOMORPHIC
        assert verify_mapping(g, h, verdict.mapping)
    for g, h in noniso_pairs:
        verdict = iso_screen(g, h)
        assert verdict.kind != IsoVerdict.ISOMORPHIC
    print("\nACCEPTANCE 5 (200 pairs, no oracle contradiction, mappings verified): PASS")


def test_criterion_6_canonical_form_stability():
    rng = random.Random(SEED)
    graphs = [random_connected_graph(rng.randint(4, 9), rng, extra_edge_prob=0.0)
              for _ in range(20)]
    graphs += [
        random_connected_graph(rng.randint(4, 9), rng, extra_edge_prob=0.3)
        for _ in range(20)
    ]
    for g in graphs:
        digests = set()
        for _ in range(50):
            h = relabel(g, random_permutation(g.n, rng))
            lab = canonical_labeling(h)
            assert lab.certified
            digests.add(lab.digest())
        assert len(digests) == 1
    print("\nACCEPTANCE 6 (canonical form stable over 50 relabelings x 40 graphs): PASS")


def test_criterion_7_performance_n100():
    rng = random.Random(SEED)
    g = random_connected_graph(100, rng, extra_edge_prob=0.1)
    before = factorization_count()
    start = time.perf_counter()
    fp = fingerprint(g)
    elapsed = time.perf_counter() - start
    assert factorization_count() - before == 1
    assert len(fp.node_part) == 100
    assert len(fp.node_part[0]) == 100 + 1
    assert elapsed < 10
    print(f"\nACCEPTANCE 7 (N=100 fingerprint in {elapsed:.2f}s, 1 factorization): PASS")


def test_criterion_8_known_effective_resistances():
    checks = [
        (complete(3), 1, 2, 2 / 3),
        (cycle(4), 1, 2, 3 / 4),
        (cycle(4), 1, 3, 1.0),
        (path(3), 1, 3, 2.0),
    ]
    for g, a, b, expected in checks:
        assert effective_resistance(build_system(g), a, b) == pytest.approx(
            expected, abs=1e-12
        )
    print("\nACCEPTANCE 8 (known effective resistances at 1e-12): PASS")
