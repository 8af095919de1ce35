import gc
import hashlib
import itertools
import json
import math
import random
import re
import struct
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcanon import oracle, signatures, solver
from kcanon.errors import (
    BudgetExhaustedError,
    FactorizationFailedError,
    GraphError,
    InvalidToleranceError,
    NonFiniteError,
)
from kcanon.graph import Graph, relabel
from kcanon.signatures import (
    Fingerprint,
    all_edge_signatures,
    all_node_signatures,
    canonical_labeling,
    find_isomorphism,
    fingerprint,
    iso_screen,
    orbit_partition,
    verify_mapping,
    IsoVerdict,
    _canonical,
    _grid,
    _lex_sort,
    _refine,
)
from kcanon.solver import factorization_count, reset_factorization_count

from conftest import complete, cycle, path, random_cubic, random_permutation, shuffled_copy, star


def grid(frac, tol=1e-8):
    """Expected grid units of an exact rational value."""
    return round(Fraction(frac) / Fraction(tol))


def residue(frac, p):
    """An exact rational value mod p."""
    frac = Fraction(frac)
    return frac.numerator * pow(frac.denominator, -1, p) % p


def exact_pinv(g):
    """L+ in exact rationals: column a is the mean over b of the (a, b) solves."""
    columns = [[sum(col) / g.n for col in zip(*(oracle.exact_solve_pair(g, a, b)
                                                 for b in range(1, g.n + 1) if b != a))]
               for a in range(1, g.n + 1)]
    return [list(row) for row in zip(*columns)]


def expected_rows(g, p):
    """Node and edge rows, in lexicographic order, from exact rationals."""
    pinv = [[residue(x, p) for x in row] for row in exact_pinv(g)]
    nodes = sorted([row[x]] + sorted(row) for x, row in enumerate(pinv))
    edges = []
    for u, v, w in g.edges:
        d = [residue(Fraction(w) * (a - b), p) for a, b in zip(pinv[u - 1], pinv[v - 1])]
        edges.append(min(sorted(d), sorted(-x % p for x in d)))
    return nodes, sorted(edges)


def unit_graph(n, pairs):
    """Unweighted graph on nodes 1..n from 0-based node pairs, duplicates merged."""
    edges = {(min(u, v) + 1, max(u, v) + 1) for u, v in pairs}
    return Graph(n, [(u, v, 1.0) for u, v in sorted(edges)])


def circulant(n, jumps):
    return unit_graph(n, [(x, (x + j) % n) for x in range(n) for j in jumps])


def hypercube(d):
    return unit_graph(2**d, [(x, x ^ 1 << i) for x in range(2**d) for i in range(d)])


def torus(a, b):
    return unit_graph(a * b, [(b * i + j, b * ((i + di) % a) + (j + dj) % b)
                              for i in range(a) for j in range(b) for di, dj in ((0, 1), (1, 0))])


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


def chang_graph():
    """The second Chang graph, SRG(28, 12, 6, 4): the triangular graph T(8),
    where two 2-subsets of {0..7} are adjacent when they meet, Seidel-switched
    on the 8 subsets {i, i+1 mod 8}.  Node k + 1 is the k-th 2-subset in
    combinations order."""
    subsets = list(itertools.combinations(range(8), 2))
    switch = {tuple(sorted((i, (i + 1) % 8))) for i in range(8)}
    pairs = itertools.combinations(enumerate(subsets), 2)
    return unit_graph(28, [(i, j) for (i, a), (j, b) in pairs
                           if bool(set(a) & set(b)) != ((a in switch) != (b in switch))])


# Cubic graphs that are not vertex-transitive, where the search alone, started
# from a single cell, must find automorphisms to prune and resume correctly.
CUBIC = [
    unit_graph(12, [(0, 7), (2, 4), (5, 11), (0, 10), (3, 11), (6, 11), (4, 9), (2, 7), (1, 8),
                    (0, 9), (1, 4), (5, 10), (3, 9), (5, 6), (1, 10), (3, 6), (7, 8), (2, 8)]),
    unit_graph(10, [(0, 7), (2, 4), (1, 2), (3, 4), (4, 9), (6, 8), (0, 3), (5, 7), (1, 7),
                    (8, 9), (0, 5), (3, 6), (5, 9), (1, 6), (2, 8)]),
]

# Vertex-transitive graphs whose signature classes are a single cell.
SYMMETRIC = {
    "C12": cycle(12),
    "C16": cycle(16),
    "Q4": hypercube(4),
    "T4x4": torus(4, 4),
    "Prism8": prism(8),
    "K8,8": complete_bipartite(8),
    "Circ16(1,3)": circulant(16, (1, 3)),
    "Q5": hypercube(5),
}


class TestQuantize:
    """The one quantizer, _grid, and the signature rows built on it."""

    def test_snap(self):
        assert _grid(np.array([0.333333333007]), 1e-8).tolist() == [33333333]

    @given(st.floats(-1e6, 1e6), st.sampled_from([1e-8, 1e-6, 0.5]))
    def test_odd_symmetry(self, x, tol):
        assert _grid(np.array([-x]), tol)[0] == -_grid(np.array([x]), tol)[0]

    def test_zero_is_positive_zero(self):
        assert _grid(np.array([-1e-12, -0.0]), 1e-8).tolist() == [0, 0]
        # P3's fingerprint serializes every value as its exact residue mod p,
        # a JSON integer in [0, p).
        fp = fingerprint(path(3))
        assert fp.p == next(iter(solver._primes()))
        text = fp.to_json()
        doc = json.loads(text)
        assert doc["p"] == fp.p
        assert (doc["node_part"], doc["edge_part"]) == expected_rows(path(3), fp.p)
        assert doc["node_part"] == [list(row) for row in fp.node_part]
        assert doc["edge_part"] == [list(row) for row in fp.edge_part]
        assert re.search(r"-0\b", text) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            _grid(np.array([0.5, bad]), 1e-8)

    def test_overflow(self):
        assert _grid(np.array([-9.2e10]), 1e-8)[0] == -9_200_000_000_000_000_000
        with pytest.raises(NonFiniteError):
            _grid(np.array([9.3e10]), 1e-8)
        # A 1e-300 S bridge puts the paper's float voltages near 1e300, on
        # either side of the path.
        with pytest.raises(NonFiniteError):
            all_node_signatures(Graph(3, [(1, 2, 1.0), (2, 3, 1e-300)]))
        with pytest.raises(NonFiniteError):
            all_node_signatures(Graph(3, [(1, 2, 1e-300), (2, 3, 1.0)]))

    def test_symmetric_solves_quantize_identically(self):
        # K3 is vertex-transitive: node 1 under (1,2) and node 2 under (2,3)
        # sit in the same electrical position.
        from kcanon.solver import build_system, solve_pair

        system = build_system(complete(3))
        v12 = solve_pair(system, 1, 2).v
        v23 = solve_pair(system, 2, 3).v
        assert _grid(np.array([v12[0]]), 1e-8) == _grid(np.array([v23[1]]), 1e-8)
        assert len({tuple(row) for row in all_node_signatures(complete(3)).tolist()}) == 1


THIRD = grid(Fraction(1, 3))
TWO_THIRDS = grid(Fraction(2, 3))
ONE = grid(1)


class TestNodeSignatures:
    @pytest.mark.parametrize("tol", [-1e-8, 0.0, float("nan"), float("inf")])
    def test_invalid_tol(self, tol):
        with pytest.raises(InvalidToleranceError):
            all_node_signatures(path(3), tol)
        with pytest.raises(InvalidToleranceError):
            all_edge_signatures(path(3), tol)

    def test_lengths_and_sorted(self):
        for g in (path(3), cycle(4), star(3)):
            rows = all_node_signatures(g)
            assert rows.shape == (g.n, g.n * (g.n - 1))
            for row in rows.tolist():
                assert row == sorted(row)

    def test_negation_symmetric(self):
        for row in all_node_signatures(cycle(5)).tolist():
            assert sorted(-x for x in row) == row

    def test_k3_all_identical(self):
        rows = all_node_signatures(complete(3)).tolist()
        assert rows[0] == rows[1] == rows[2]

    def test_p3_frozen(self):
        # From the exact solves of all three pairs of the path 1-2-3; row
        # x - 1 is node x.
        rows = all_node_signatures(path(3)).tolist()
        assert rows[1] == [-THIRD, -THIRD, 0, 0, THIRD, THIRD]
        expected_end = [-ONE, -TWO_THIRDS, -THIRD, THIRD, TWO_THIRDS, ONE]
        assert rows[0] == expected_end
        assert rows[2] == expected_end

    def test_star_two_classes(self):
        rows = all_node_signatures(star(3)).tolist()
        center, leaves = tuple(rows[0]), {tuple(row) for row in rows[1:]}
        assert len(leaves) == 1
        assert center not in leaves

    @pytest.mark.parametrize("signatures_of", [all_node_signatures, all_edge_signatures])
    def test_read_only_int64_matrix(self, signatures_of):
        g = Graph(4, [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5), (4, 1, 1.0), (1, 3, 3.0)])
        rows = signatures_of(g)
        count = g.n if signatures_of is all_node_signatures else g.m
        assert isinstance(rows, np.ndarray)
        assert rows.dtype == np.int64
        assert rows.shape == (count, g.n * (g.n - 1))
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0

    def test_too_few_nodes(self):
        with pytest.raises(GraphError):
            all_node_signatures(Graph(1, []))


class TestEdgeSignatures:
    def test_p2_single_edge(self):
        rows = all_edge_signatures(path(2))
        assert rows.tolist() == [[-ONE, ONE]]

    def test_k3_edge_transitive(self):
        rows = all_edge_signatures(complete(3))
        assert len({tuple(row) for row in rows.tolist()}) == 1

    def test_p3_edges_share_signature(self):
        rows = all_edge_signatures(path(3)).tolist()
        assert rows[0] == rows[1]

    def test_orientation_independent(self):
        g1 = Graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        g2 = Graph(3, [(2, 1, 1.0), (3, 2, 1.0)])
        assert all_edge_signatures(g1).tolist() == all_edge_signatures(g2).tolist()


class TestOrbitPartition:
    def test_p3(self):
        # Classes in signature order: node 2's L+[x,x] residue, 2/9 mod p,
        # is below 5/9 mod p.
        assert orbit_partition(path(3)).classes == ((2,), (1, 3))

    def test_k3(self):
        assert orbit_partition(complete(3)).classes == ((1, 2, 3),)

    def test_c6_with_chord(self):
        g = Graph(6, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                      (5, 6, 1.0), (6, 1, 1.0), (1, 4, 1.0)])
        part = sorted(orbit_partition(g).classes)
        assert part == [(1, 4), (2, 3, 5, 6)]
        report = oracle.brute_force_automorphisms(g)
        assert sorted(report.orbits) == part

    def test_classes_cover_nodes(self):
        g = cycle(7)
        part = orbit_partition(g)
        assert sorted(x for cls in part.classes for x in cls) == list(range(1, 8))


class TestFingerprint:
    def test_label_invariance(self, rng):
        g = Graph(6, [(1, 2, 0.5), (2, 3, 1.0), (3, 4, 2.0), (4, 5, 1.0),
                      (5, 6, 1.0), (6, 1, 1.0), (2, 5, 3.0)])
        ref = fingerprint(g).to_json()
        for _ in range(10):
            h = relabel(g, random_permutation(6, rng))
            assert fingerprint(h).to_json() == ref

    def test_p4_vs_star_differ(self):
        assert fingerprint(path(4)).digest() != fingerprint(star(3)).digest()

    def test_nonisomorphic_trees_same_degree_sequence(self):
        # Two trees on 6 nodes, both with degree sequence (1,1,1,2,2,3).
        t1 = Graph(6, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (2, 6, 1.0)])
        t2 = Graph(6, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 6, 1.0)])
        assert t1.degree_sequence() == t2.degree_sequence()
        assert oracle.brute_force_isomorphic(t1, t2) is None
        assert fingerprint(t1).digest() != fingerprint(t2).digest()

    def test_counts(self):
        fp = fingerprint(cycle(5))
        assert len(fp.node_part) == 5
        assert len(fp.edge_part) == 5

    def test_json_is_canonical(self):
        fp = fingerprint(path(4))
        assert fp.to_json() == fingerprint(path(4)).to_json()

    def test_hashable_and_hash_matches_eq(self, rng):
        g = Graph(6, [(1, 2, 0.5), (2, 3, 1.0), (3, 4, 2.0), (4, 5, 1.0),
                      (5, 6, 1.0), (6, 1, 1.0), (2, 5, 3.0)])
        fp, other = fingerprint(g), fingerprint(relabel(g, random_permutation(6, rng)))
        assert fp == other and hash(fp) == hash(other)
        assert len({fp, other}) == 1
        assert len({fp, fingerprint(path(6))}) == 2

    def test_not_equal_to_other_types(self):
        fp = fingerprint(path(3))
        assert not fp == "x"
        assert fp != "x"

    def test_parts_are_read_only_int64(self):
        fp = fingerprint(cycle(5))
        for part, shape in ((fp.node_part, (5, 6)), (fp.edge_part, (5, 5))):
            assert part.dtype == np.int64
            assert part.shape == shape
            with pytest.raises(ValueError):
                part[0, 0] = 1

    def test_digest_skips_json(self, monkeypatch):
        def refuse(self):
            raise AssertionError("digest serialized the fingerprint")

        fp = fingerprint(path(3))
        monkeypatch.setattr(Fingerprint, "to_json", refuse)
        assert len(fp.digest()) == 64

    def test_digest_pinned(self):
        # A fixed ASCII header, then both parts' rows as little-endian int64,
        # rows in lexicographic order, all from exact rational L+.
        p = next(iter(solver._primes()))
        for g in (path(3), Graph(4, [(1, 2, 0.5), (2, 3, 1.0), (3, 1, 3.0), (3, 4, 2.0)])):
            nodes, edges = expected_rows(g, p)
            data = f"kcanon-fingerprint-gfp/1 n={g.n} m={g.m} p={p}\n".encode()
            data += b"".join(struct.pack("<q", k) for row in nodes + edges for k in row)
            assert fingerprint(g).digest() == hashlib.sha256(data).hexdigest()


class TestLexSort:
    def test_matches_sorted_tuples(self):
        rng = np.random.default_rng(3)
        # Rows tied on long prefixes, so the sort must widen past 8 columns.
        base = rng.integers(-3, 3, size=(6, 40))
        rows = base[rng.integers(0, 6, size=30)]
        rows[::4, 25:] = rng.integers(-3, 3, size=(8, 15))
        order, new = _lex_sort(rows)
        tuples = [tuple(r) for r in rows.tolist()]
        assert order.tolist() == sorted(range(30), key=lambda i: (tuples[i], i))
        assert new.tolist() == [k == 0 or tuples[order[k]] != tuples[order[k - 1]]
                                for k in range(30)]


class TestHalfRows:
    """The paper's float rows: each is a sorted non-positive half h followed by -h[::-1]."""

    def test_expanded_rows_match_exact_solves(self):
        # Every connected graph on 2..5 nodes, against exact Fraction voltages
        # and currents over all ordered pairs.
        tol = Fraction(1e-8)
        for n in range(2, 6):
            for g in oracle.enumerate_connected_graphs(n):
                volts = [[] for _ in range(n)]
                amps = [[] for _ in range(g.m)]
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        if a == b:
                            continue
                        v = oracle.exact_solve_pair(g, a, b)
                        for x in range(n):
                            volts[x].append(v[x] / tol)
                        for k, (p, q, w) in enumerate(g.edges):
                            amps[k].append(Fraction(w) * (v[p - 1] - v[q - 1]) / tol)
                for units in volts + amps:
                    # No value within 1e-6 grid units of a half-grid point, so
                    # float noise cannot move any value to another grid unit.
                    assert all(abs(u - (math.floor(u) + Fraction(1, 2))) > Fraction(1, 10**6)
                               for u in units)
                node_rows = all_node_signatures(g).tolist()
                edge_rows = all_edge_signatures(g).tolist()
                assert node_rows == [sorted(map(round, units)) for units in volts]
                assert edge_rows == [sorted(map(round, units)) for units in amps]

    def test_lex_sort_of_halves_matches_full_rows(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(8, 40)
            tree = oracle.random_connected_graph(n, rng, extra_edge_prob=1.5 / n)
            g = Graph(n, [(u, v, rng.choice((1.0, 2.0))) for u, v, _ in tree.edges])
            for full in (all_node_signatures(g), all_edge_signatures(g)):
                h = full[:, :n * (n - 1) // 2]
                assert (h <= 0).all()
                assert (full == np.concatenate([h, -h[:, ::-1]], axis=1)).all()
                order, new = _lex_sort(h)
                full_order, full_new = _lex_sort(full)
                assert order.tolist() == full_order.tolist()
                assert new.tolist() == full_new.tolist()


class TestExactResidues:
    """The residue L+ against the exact Fraction oracle and the paper's float rows."""

    def test_pinv_matches_exact_solves(self):
        for n in range(2, 6):
            for g in oracle.enumerate_connected_graphs(n):
                P, p = g._analysis.P, g._analysis.p
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        if a == b:
                            continue
                        v = oracle.exact_solve_pair(g, a, b)
                        for x in range(n):
                            assert (P[x, a - 1] - P[x, b - 1]) % p == residue(v[x], p)

    def test_classes_refine_paper_classes_and_hold_orbits(self):
        for n in range(2, 8):
            for g in oracle.enumerate_connected_graphs(n):
                classes = orbit_partition(g).classes
                paper = all_node_signatures(g)
                for cls in classes:
                    assert len({tuple(paper[x - 1].tolist()) for x in cls}) == 1
                class_of = {x: k for k, cls in enumerate(classes) for x in cls}
                for orbit in oracle.brute_force_automorphisms(g).orbits:
                    assert len({class_of[x] for x in orbit}) == 1

    def test_prime_fallback(self, monkeypatch):
        # The 6-node wheel has 121 = 11^2 spanning trees, so it is singular
        # mod 11 and moves on to 13; labels cannot change that.
        wheel = Graph(6, [(1, k, 1.0) for k in range(2, 7)]
                      + [(k, k % 5 + 2, 1.0) for k in range(2, 7)])
        monkeypatch.setattr(solver, "_primes", lambda: (11, 13))
        reset_factorization_count()
        fp = fingerprint(wheel)
        assert fp.p == 13
        assert factorization_count() == 2
        nodes, edges = expected_rows(wheel, 13)
        assert fp.node_part.tolist() == nodes and fp.edge_part.tolist() == edges
        assert fingerprint(relabel(wheel, random_permutation(6, random.Random(1)))) == fp
        monkeypatch.setattr(solver, "_primes", lambda: (11,))
        with pytest.raises(FactorizationFailedError):  # a fresh graph: no cached analysis
            fingerprint(Graph(wheel.n, wheel.edges))


# Graph seeds per n for which float signatures snapped to a grid gave some of
# the relabellings below a different digest.
CUBIC_SEEDS = {48: 232, 64: 117, 80: 147, 96: 33}


@pytest.fixture(params=sorted(CUBIC_SEEDS), ids=lambda n: f"n{n}")
def cubic(request):
    return random_cubic(request.param, random.Random(CUBIC_SEEDS[request.param]))


class TestRegularRelabelling:
    """Colour refinement cannot split a regular unweighted graph, yet exact
    residues make every answer label-invariant."""

    def test_relabellings_agree(self, cubic):
        g = cubic
        digest = fingerprint(g).digest()
        classes = orbit_partition(g).classes
        ref = canonical_labeling(g)
        assert ref.certified
        rng = random.Random(g.n)
        for _ in range(3):
            h, perm = shuffled_copy(g, rng)
            assert fingerprint(h).digest() == digest
            mapped = sorted(sorted(perm[x] for x in cls) for cls in classes)
            assert mapped == sorted(list(cls) for cls in orbit_partition(h).classes)
            lab = canonical_labeling(h)
            assert lab.certified and lab.digest() == ref.digest()
            verdict = iso_screen(g, h)
            assert verdict.kind == IsoVerdict.ISOMORPHIC
            assert verify_mapping(g, h, verdict.mapping)


class TestFindIsomorphism:
    def test_identity(self):
        g = cycle(4)
        mapping = find_isomorphism(g, g)
        assert mapping is not None
        assert verify_mapping(g, g, mapping)

    def test_k3_any_bijection(self):
        mapping = find_isomorphism(complete(3), complete(3))
        assert verify_mapping(complete(3), complete(3), mapping)

    def test_random_tree_relabeling(self, rng):
        t = oracle.random_tree(9, rng)
        perm = random_permutation(9, rng)
        h = relabel(t, perm)
        mapping = find_isomorphism(t, h)
        assert mapping is not None
        assert verify_mapping(t, h, mapping)

    def test_budget_exhaustion_raises(self):
        g = cycle(6)
        with pytest.raises(BudgetExhaustedError):
            find_isomorphism(g, g, node_budget=1)

    def test_budget_error_carries_the_verdict_reason(self):
        with pytest.raises(BudgetExhaustedError, match="search budget exhausted"):
            find_isomorphism(cycle(6), cycle(6), node_budget=1)

    def test_fingerprint_mismatch_rejects_before_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched a pair with differing fingerprints")

        monkeypatch.setattr(signatures, "_canonical", refuse)
        assert find_isomorphism(path(4), star(3)) is None


class TestVerifyMapping:
    @pytest.mark.parametrize("g2, mapping", [
        (path(3), {1: 1, 2: 2}),
        (path(3), {1: 1, 2: 2, 3: 4}),
        (complete(3), {1: 1, 2: 2, 3: 3}),
        (path(3, 2.0), {1: 1, 2: 2, 3: 3}),
    ], ids=["domain", "image", "edge-count", "weight"])
    def test_rejects(self, g2, mapping):
        assert verify_mapping(path(3), path(3), {1: 3, 2: 2, 3: 1})
        assert not verify_mapping(path(3), g2, mapping)


class TestIsoScreen:
    def test_node_counts_differ(self):
        verdict = iso_screen(path(3), path(4))
        assert (verdict.kind, verdict.reason) == (IsoVerdict.DISTINCT, "node counts differ")

    def test_unverified_mapping_is_not_certified(self, rng, monkeypatch):
        monkeypatch.setattr(signatures, "verify_mapping", lambda g1, g2, mapping: False)
        g = cycle(5)
        verdict = iso_screen(g, relabel(g, random_permutation(5, rng)))
        assert verdict.kind == IsoVerdict.POSSIBLE
        assert verdict.reason == "mapping failed verification"
        assert verdict.mapping is None

    def test_relabeled_c4(self, rng):
        g = cycle(4)
        h = relabel(g, random_permutation(4, rng))
        verdict = iso_screen(g, h)
        assert verdict.kind == IsoVerdict.ISOMORPHIC
        assert verify_mapping(g, h, verdict.mapping)

    def test_c6_vs_p6_edge_count(self):
        verdict = iso_screen(cycle(6), path(6))
        assert verdict.kind == IsoVerdict.DISTINCT

    def test_same_degree_sequence_distinct(self, rng):
        # Find two degree-matched non-isomorphic graphs on 8 nodes.
        while True:
            g = oracle.random_connected_graph(8, rng)
            h = oracle.random_connected_graph(8, rng)
            if g.degree_sequence() != h.degree_sequence():
                continue
            if oracle.brute_force_isomorphic(g, h) is None:
                break
        assert iso_screen(g, h).kind == IsoVerdict.DISTINCT

    def test_srg_16_6_2_2_decided_by_canonical_form(self, rng):
        # Equal parameters give equal signatures, so only the canonical forms
        # tell the Shrikhande graph from the 4x4 rook's graph.
        assert fingerprint(SHRIKHANDE) == fingerprint(ROOK_4X4)
        verdict = iso_screen(SHRIKHANDE, ROOK_4X4)
        assert verdict.kind == IsoVerdict.DISTINCT
        assert verdict.reason == "canonical forms differ"
        assert find_isomorphism(SHRIKHANDE, ROOK_4X4) is None
        h = relabel(SHRIKHANDE, random_permutation(16, rng))
        verdict = iso_screen(SHRIKHANDE, h)
        assert verdict.kind == IsoVerdict.ISOMORPHIC
        assert verify_mapping(SHRIKHANDE, h, verdict.mapping)

    def test_budget_one_gives_possible(self, rng):
        g = cycle(6)
        h = relabel(g, random_permutation(6, rng))
        verdict = iso_screen(g, h, node_budget=1)
        assert verdict.kind == IsoVerdict.POSSIBLE

    def test_decides_without_serializing(self, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("iso_screen serialized a fingerprint")

        monkeypatch.setattr(Fingerprint, "to_json", refuse)
        chorded = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
        g = Graph(6, [(u, v, 1.0) for u, v in chorded])
        h = relabel(g, random_permutation(6, rng))
        assert iso_screen(g, h).kind == IsoVerdict.ISOMORPHIC
        # Double edge swap 1-2, 4-5 -> 1-5, 4-2: same degrees, not isomorphic.
        swapped = Graph(6, [(u, v, 1.0) for u, v in chorded[1:3] + chorded[4:]
                            + [(1, 5), (4, 2)]])
        assert swapped.degree_sequence() == g.degree_sequence()
        assert oracle.brute_force_isomorphic(g, swapped) is None
        verdict = iso_screen(g, swapped)
        assert verdict.kind == IsoVerdict.DISTINCT
        assert verdict.reason == "fingerprints differ"


class TestCanonicalLabeling:
    def test_p3_all_labelings_one_form(self):
        import itertools

        forms = set()
        for ids in itertools.permutations([1, 2, 3]):
            perm = {old: new for old, new in zip([1, 2, 3], ids)}
            lab = canonical_labeling(relabel(path(3), perm))
            assert lab.certified
            forms.add(lab.form)
        assert len(forms) == 1

    def test_k3(self):
        lab = canonical_labeling(complete(3))
        assert lab.certified
        assert lab.form == (1.0, 1.0, 1.0)

    def test_caterpillar_stable_under_relabeling(self, rng):
        g = Graph(7, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                      (2, 6, 1.0), (4, 7, 1.0)])
        ref = canonical_labeling(g)
        assert ref.certified
        for _ in range(100):
            h = relabel(g, random_permutation(7, rng))
            lab = canonical_labeling(h)
            assert lab.certified
            assert lab.form == ref.form
            assert lab.digest() == ref.digest()

    def test_small_graphs_certified_distinct_and_stable(self):
        """Every connected graph on 2..7 nodes: forms tell them apart."""
        rng = random.Random(7)
        forms = set()
        for n in range(2, 8):
            for g in oracle.enumerate_connected_graphs(n):
                lab = canonical_labeling(g)
                assert lab.certified
                forms.add(lab.form)
                for _ in range(3):
                    h = relabel(g, random_permutation(n, rng))
                    assert canonical_labeling(h).form == lab.form
        assert len(forms) == 995

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_vertex_transitive_certifies(self, name, rng):
        g = SYMMETRIC[name]
        assert len(orbit_partition(g).classes) == 1
        lab = canonical_labeling(g, budget=100_000)
        assert lab.certified
        other = canonical_labeling(relabel(g, random_permutation(g.n, rng)), budget=100_000)
        assert other.certified
        assert other.digest() == lab.digest()

    @pytest.mark.parametrize("g", CUBIC, ids=["n12", "n10"])
    def test_search_from_one_cell_is_label_invariant(self, g):
        forms = set()
        for seed in range(10):
            h = relabel(g, random_permutation(g.n, random.Random(seed)))
            lab = _canonical(h.adj, [0] * g.n, 10**6)  # no help from signatures
            assert lab.certified
            forms.add(lab.form)
        assert len(forms) == 1

    @pytest.mark.parametrize("name", ["K8,8", "Q5"])
    def test_orbit_pruning_certifies_in_few_tree_nodes(self, name):
        g = SYMMETRIC[name]
        rng = random.Random(5)
        digests = set()
        for _ in range(5):
            lab = canonical_labeling(relabel(g, random_permutation(g.n, rng)), budget=400)
            assert lab.certified
            digests.add(lab.digest())
        assert len(digests) == 1

    def test_orbit_pruning_uses_path_stabilizer_only(self):
        # Merging a tree node's children under automorphisms that move its
        # path, not only those that fix it, gives these relabellings of the
        # second Chang graph two other, different, digests.
        g = chang_graph()
        assert g.m == 168
        digests = set()
        for seed in (0, 79, 92, 94, 115):
            lab = canonical_labeling(relabel(g, random_permutation(28, random.Random(seed))))
            assert lab.certified
            digests.add(lab.digest())
        assert len(digests) == 1

    def test_budget_exhaustion_flags_uncertified(self):
        lab = canonical_labeling(cycle(6), budget=1)
        assert not lab.certified
        assert len(lab.order) == 6

    def test_order_is_permutation(self):
        lab = canonical_labeling(cycle(5))
        assert sorted(lab.order) == [1, 2, 3, 4, 5]


def reference_refine(nbrs, colour):
    """Whole-graph re-keying, the refinement the splitter queue replaced.

    Each round ranks every node's key (colour, sorted (neighbour colour,
    weight) pairs) until the number of colours stops growing.
    """
    count = len(set(colour))
    while True:
        keys = [
            (colour[x], tuple(sorted((colour[y], w) for y, w in nbrs[x])))
            for x in range(len(nbrs))
        ]
        rank = {key: c for c, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) == count:
            return colour
        count = len(rank)


def cells_of(colour):
    cells = {}
    for x, c in enumerate(colour):
        cells.setdefault(c, set()).add(x)
    return {frozenset(cell) for cell in cells.values()}


def check_refine(g, colour, rng, splitters=None):
    """_refine against the referee, the input order, and a relabelled copy."""
    nbrs = [tuple(a.items()) for a in g.adj]
    out = _refine(nbrs, colour, splitters)
    assert cells_of(out) == cells_of(reference_refine(nbrs, colour))
    # Every input cell stays one interval, in input order.
    by_output = [colour[x] for x in sorted(range(g.n), key=out.__getitem__)]
    assert by_output == sorted(by_output)
    perm = random_permutation(g.n, rng)
    h = relabel(g, perm)
    moved = [0] * g.n
    for x in range(g.n):
        moved[perm[x + 1] - 1] = colour[x]
    out_h = _refine([tuple(a.items()) for a in h.adj], moved, splitters)
    assert [out_h[perm[x + 1] - 1] for x in range(g.n)] == out
    return out


def check_individualized(g, colour, rng):
    """Refine, move one node of a non-singleton cell to its front, refine from it."""
    equitable = check_refine(g, colour, rng)
    big = [x for x in range(g.n) if equitable.count(equitable[x]) > 1]
    if big:
        v = rng.choice(big)
        child = equitable.copy()
        child[v] = sum(c < equitable[v] for c in equitable)
        check_refine(g, child, rng, [child[v]])


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(2, 40))
    parents = [draw(st.integers(1, k - 1)) for k in range(2, n + 1)]
    pairs = {(p, k) for p, k in zip(parents, range(2, n + 1))}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    weights = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    return Graph(n, [(u, v, draw(weights)) for u, v in sorted(pairs)])


class TestRefine:
    """Splitter-queue refinement gives the referee's partition, keeps input
    cells as intervals in order, and commutes with relabelling."""

    def test_small_graphs(self):
        rng = random.Random(3)
        for n in range(2, 7):
            for g in oracle.enumerate_connected_graphs(n):
                weighted = Graph(n, [(u, v, rng.choice((1.0, 2.0))) for u, v, _ in g.edges])
                for h in (g, weighted):
                    check_individualized(h, [0] * n, rng)
                    for _ in range(2):
                        check_individualized(h, [rng.randrange(3) for _ in range(n)], rng)

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(), st.randoms(use_true_random=False))
    def test_weighted_graphs(self, g, rng):
        check_individualized(g, [0] * g.n, rng)
        check_individualized(g, [rng.randrange(2) for _ in range(g.n)], rng)

    def test_equal_weight_sums_split_by_multiset(self):
        # Nodes 1-4 carry weights {1, 3, 5}, nodes 5-8 {2, 2, 5}: equal sums.
        g = Graph(8, [(1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.0), (4, 1, 3.0),
                      (5, 6, 2.0), (6, 7, 2.0), (7, 8, 2.0), (8, 5, 2.0)]
                  + [(k, k + 4, 5.0) for k in range(1, 5)])
        out = check_refine(g, [0] * 8, random.Random(1))
        assert cells_of(out) == {frozenset(range(4)), frozenset(range(4, 8))}


def weighted_graph(n, seed, m=None):
    """Connected graph on n nodes with m (default 2n) edges, 3-decimal weights in [0.5, 4]."""
    rng = random.Random(seed)
    pairs = {(rng.randint(1, k - 1), k) for k in range(2, n + 1)}
    while len(pairs) < (m or 2 * n):
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        pairs.add((u, v))
    return Graph(n, [(u, v, round(rng.uniform(0.5, 4.0), 3)) for u, v in sorted(pairs)])


@pytest.fixture(params=range(4), ids=lambda seed: f"seed{seed}")
def relabelled_pair(request):
    seed = request.param
    g = weighted_graph(48 + 5 * seed, seed)
    h, perm = shuffled_copy(g, random.Random(seed))
    return g, h, perm


class TestLabelInvariance:
    """Relabelled copies get the same residues, relabelled; with a discrete
    refinement the paper's float rows run bit-identical solves."""

    def test_float_voltage_rows_bit_equal(self, relabelled_pair):
        g, h, perm = relabelled_pair
        a, b = g._analysis, h._analysis
        assert a.p == b.p
        to_h = np.array([perm[x] - 1 for x in range(1, g.n + 1)])
        assert (b.P[np.ix_(to_h, to_h)] == a.P).all()
        paper_g, paper_h = all_node_signatures(g), all_node_signatures(h)
        for x in range(1, g.n + 1):
            assert paper_h[perm[x] - 1].tolist() == paper_g[x - 1].tolist()

    def test_digest_and_orbit_classes(self, relabelled_pair):
        g, h, perm = relabelled_pair
        assert fingerprint(h).digest() == fingerprint(g).digest()
        mapped = sorted(sorted(perm[x] for x in cls) for cls in orbit_partition(g).classes)
        assert mapped == sorted(list(cls) for cls in orbit_partition(h).classes)

    def test_certified_canonical_digest(self, relabelled_pair):
        g, h, _ = relabelled_pair
        ref, lab = canonical_labeling(g), canonical_labeling(h)
        assert ref.certified and lab.certified
        assert lab.digest() == ref.digest()


class TestFactorizations:
    """One analysis, so one factorization, per graph."""

    def test_fingerprint(self):
        reset_factorization_count()
        fingerprint(weighted_graph(20, 0))
        assert factorization_count() == 1

    def test_canonical_labeling(self):
        reset_factorization_count()
        canonical_labeling(weighted_graph(20, 0))
        assert factorization_count() == 1

    def test_iso_screen_isomorphic_pair(self):
        g = weighted_graph(20, 0)
        h, _ = shuffled_copy(g, random.Random(1))
        reset_factorization_count()
        assert iso_screen(g, h).kind == IsoVerdict.ISOMORPHIC
        assert factorization_count() == 2

    def test_orbit_partition_then_canonical_labeling(self):
        g = weighted_graph(20, 0)
        reset_factorization_count()
        orbit_partition(g)
        canonical_labeling(g)
        assert factorization_count() == 1

    def test_fingerprint_then_canonical_labeling(self):
        g = weighted_graph(20, 0)
        reset_factorization_count()
        fingerprint(g)
        canonical_labeling(g)
        assert factorization_count() == 1

    def test_iso_screen_of_a_graph_with_itself(self):
        g = weighted_graph(20, 0)
        reset_factorization_count()
        assert iso_screen(g, g).kind == IsoVerdict.ISOMORPHIC
        assert factorization_count() == 1

    def test_cached_analysis_dies_with_its_graph(self):
        # No reference cycle: reference counting alone frees the n x n L+.
        gc.disable()
        try:
            g = weighted_graph(20, 0)
            fingerprint(g)
            canonical_labeling(g)
            analysis = weakref.ref(g._analysis)
            del g
            assert analysis() is None
        finally:
            gc.enable()


class TestScale:
    """Fingerprint and canonical search at n = 1000, from one analysis per copy."""

    @pytest.mark.parametrize("g", [weighted_graph(1000, 0, m=3000), torus(10, 100)],
                             ids=["random-n1000-m3000", "torus-10x100"])
    def test_relabelled_copies_agree(self, g):
        rng = random.Random(g.m)
        digests = set()
        for copy in range(3):
            h = Graph(g.n, g.edges) if copy == 0 else shuffled_copy(g, rng)[0]
            reset_factorization_count()
            lab = canonical_labeling(h)
            assert lab.certified
            digests.add((fingerprint(h).digest(), lab.digest()))
            assert factorization_count() == 1
        assert len(digests) == 1
