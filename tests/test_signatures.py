import gc
import hashlib
import itertools
import json
import math
import random
import re
import struct
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kcanon import oracle, signatures, solver
from kcanon.errors import FactorizationFailedError, InvalidBudgetError
from kcanon.graph import Graph, parse_edge_list, relabel, to_edge_list
from kcanon.signatures import (
    DEFAULT_BUDGET,
    Fingerprint,
    canonical_labeling,
    fingerprint,
    iso_screen,
    orbit_partition,
    verify_mapping,
    IsoVerdict,
    _canonical,
    _edge_key,
    _form,
    _individualize,
    _layout,
    _refined_state,
    _refinement_invariant,
    _row_classes,
    _row_keys,
    _row_order,
    _split,
    _twins,
    _weight_groups,
)
from kcanon.solver import factorization_count

from conftest import (
    ROOK_4X4,
    SHRIKHANDE,
    caterpillar,
    cfi,
    complete,
    complete_bipartite,
    cycle,
    double_edge_swap,
    path,
    prism,
    random_cubic,
    random_permutation,
    shuffled_copy,
    star,
    unit_graph,
)
from corpus import enumerate_connected_graphs, random_connected_graph


def residue(frac, p):
    """An exact rational value mod p."""
    frac = Fraction(frac)
    return frac.numerator * pow(frac.denominator, -1, p) % p


def expected_rows(g, p):
    """Node and edge rows, in lexicographic order, from exact rationals."""
    pinv = [[residue(x, p) for x in row] for row in oracle.exact_pinv(g)]
    nodes = sorted([row[x]] + sorted(row) for x, row in enumerate(pinv))
    edges = []
    for u, v, w in g.edges:
        d = [residue(Fraction(w) * (a - b), p) for a, b in zip(pinv[u - 1], pinv[v - 1])]
        edges.append(min(sorted(d), sorted(-x % p for x in d)))
    return nodes, sorted(edges)


def colour_groups(colour):
    """The node indices of each colour, colours ascending, indices ascending within each."""
    groups = {}
    for x in sorted(range(len(colour)), key=colour.__getitem__):
        groups.setdefault(colour[x], []).append(x)
    return list(groups.values())


def signature_groups(g):
    """g's signature classes as node indices, as canonical_labeling hands them to _canonical."""
    return [[x - 1 for x in c] for c in g._analysis.classes]


def _refine(nbrs, colour, splitters=None):
    """colour refined from splitters, by default from each of its cells: _layout of its groups, then _split."""
    state, lasts = _layout(colour_groups(colour))
    _split(nbrs, *state, lasts if splitters is None else splitters, len(lasts))
    return state[2]


def _uniform_refine(g):
    """(state, cells) of g refined from one cell: _weight_groups, then _refine_groups."""
    return _refined_state(g.adj, [a.items() for a in g.adj], [list(range(g.n))])


def refuse_to_factorize(graph):
    raise AssertionError("factorized a pair that colour refinement decides")


def refuse_to_refine(*args):
    raise AssertionError("refined a pair that the first split decides")


def refuse_to_search(*args):
    raise AssertionError("searched a pair that an earlier stage decides")


def weighted_graph(n, seed, m=None):
    """Connected graph on n nodes with m (default 2n) edges, 3-decimal weights in [0.5, 4]."""
    rng = random.Random(seed)
    pairs = {(rng.randint(1, k - 1), k) for k in range(2, n + 1)}
    while len(pairs) < (m or 2 * n):
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        pairs.add((u, v))
    return Graph(n, [(u, v, round(rng.uniform(0.5, 4.0), 3)) for u, v in sorted(pairs)])


@st.composite
def weighted_graphs(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    parents = [draw(st.integers(1, k - 1)) for k in range(2, n + 1)]
    pairs = {(p, k) for p, k in zip(parents, range(2, n + 1))}
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    weights = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    return Graph(n, [(u, v, draw(weights)) for u, v in sorted(pairs)])


def circulant(n, jumps):
    return unit_graph(n, [(x, (x + j) % n) for x in range(n) for j in jumps])


def hypercube(d):
    return unit_graph(2**d, [(x, x ^ 1 << i) for x in range(2**d) for i in range(d)])


def torus(a, b):
    return unit_graph(a * b, [(b * i + j, b * ((i + di) % a) + (j + dj) % b)
                              for i in range(a) for j in range(b) for di, dj in ((0, 1), (1, 0))])


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

# CH3-CH2-CH2-CH3: carbons 1-4 (C-C weight 1.54), hydrogens 5-14 (C-H 1.09).
BUTANE = Graph(14, [(1, 2, 1.54), (2, 3, 1.54), (3, 4, 1.54)]
               + [(c, h, 1.09) for c, hs in {1: (5, 6, 7), 2: (8, 9), 3: (10, 11), 4: (12, 13, 14)}.items()
                  for h in hs])


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

    def test_json_holds_exact_residues(self):
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

    @pytest.mark.parametrize("g", [path(2), complete(3), path(3)], ids=["P2", "K3", "P3"])
    def test_symmetric_edges_share_one_row(self, g):
        fp = fingerprint(g)
        assert fp.edge_part.tolist() == [fp.edge_part[0].tolist()] * g.m
        assert fp.edge_part.tolist() == expected_rows(g, fp.p)[1]

    def test_edge_orientation_independent(self):
        g1 = Graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
        g2 = Graph(3, [(2, 1, 1.0), (3, 2, 1.0)])
        assert fingerprint(g1) == fingerprint(g2)

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

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs(max_n=8))
    def test_parts_match_exact_rows(self, g):
        fp = fingerprint(g)
        assert (fp.node_part.tolist(), fp.edge_part.tolist()) == expected_rows(g, fp.p)

    @pytest.mark.parametrize("n", [33, 40])
    def test_parts_match_exact_rows_through_block_recursion(self, n):
        g = weighted_graph(n, n)
        fp = fingerprint(g)
        assert (fp.node_part.tolist(), fp.edge_part.tolist()) == expected_rows(g, fp.p)

    @pytest.mark.parametrize("n, digest", [
        (33, "0c0b48efe1a6df3bdf1b445e8178ad8b071e790830f9e4d351db7d854a6c18a3"),
        (65, "149c469c5f1a093d16bbe7a56aa015b6d63180236200e428eb8742be31dd63fe"),
        (130, "24eea3d72c2a54848c44c4c97b414d25bb4d45f9261228def246d654ba436eab"),
        (300, "b4cac454530766305f037859907f7c251bcea6c00d39e87250120e109b1c2a88"),
    ], ids=["n33", "n65", "n130", "n300"])
    def test_digest_pinned_through_block_recursion(self, n, digest):
        # 1 to 4 levels of the modular inverse's block recursion, whatever the
        # BLAS thread count of its products.
        assert fingerprint(weighted_graph(n, n)).digest() == digest


class TestLexSort:
    def test_matches_sorted_tuples(self):
        rng = np.random.default_rng(3)
        # Rows tied on long prefixes, so the sort must widen past 8 columns.
        base = rng.integers(-3, 3, size=(6, 40))
        rows = base[rng.integers(0, 6, size=30)]
        rows[::4, 25:] = rng.integers(-3, 3, size=(8, 15))
        keys = _row_keys(rows)
        order = np.argsort(keys, kind="stable")
        tuples = [tuple(r) for r in rows.tolist()]
        assert order.tolist() == sorted(range(30), key=lambda i: (tuples[i], i))
        assert (keys[order][1:] != keys[order][:-1]).tolist() == [
            tuples[order[k]] != tuples[order[k - 1]] for k in range(1, 30)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_key_order_and_equality_match_row_tuples(self, data):
        # The full int64 range, and a 3-value alphabet for ties: -2**63 makes
        # all-zero key bytes, 0 and 1 differ only in the last byte.
        values = data.draw(st.sampled_from([st.integers(-2**63, 2**63 - 1),
                                            st.sampled_from([-2**63, 0, 1])]))
        shape = st.tuples(st.integers(1, 30), st.integers(1, 40))
        rows = data.draw(hnp.arrays(np.int64, shape, elements=values))
        keys, tuples = _row_keys(rows), [tuple(row) for row in rows.tolist()]
        order = np.argsort(keys, kind="stable")
        assert order.tolist() == sorted(range(len(rows)), key=lambda i: (tuples[i], i))
        assert (keys[:, None] == keys).tolist() == [[s == t for t in tuples] for s in tuples]


class TestAnalysis:
    def test_classes_and_start_group_equal_node_rows_in_row_order(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                a = g._analysis
                rows = [tuple(row) for row in a.node_rows.tolist()]
                distinct = sorted(set(rows))
                assert a.classes == [[x for x in range(1, n + 1) if rows[x - 1] == row]
                                     for row in distinct]
                assert (a.node_order + 1).tolist() == [x for c in a.classes for x in c]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_classes_match_unique(self, data):
        # np.unique over the row keys, which _row_classes replaced, is the
        # reference; rows are drawn from a few base rows, so many repeat.
        values = data.draw(st.sampled_from([st.integers(-2**63, 2**63 - 1),
                                            st.sampled_from([-2**63, 0, 1])]))
        shape = st.tuples(st.integers(1, 8), st.integers(1, 12))
        base = data.draw(hnp.arrays(np.int64, shape, elements=values))
        pick = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=30))
        rows = base[pick]
        _, inverse, sizes = np.unique(_row_keys(rows), return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
        ids, ends = (order + 1).tolist(), np.cumsum(sizes).tolist()
        got_order = _row_order(rows)
        classes = _row_classes(rows, got_order)
        assert got_order.dtype == order.dtype and got_order.tolist() == order.tolist()
        assert classes == [ids[i:j] for i, j in zip([0] + ends, ends)]

    @pytest.mark.parametrize("g", [path(7), prism(5), SHRIKHANDE, weighted_graph(20, 3)],
                             ids=["path7", "prism5", "shrikhande", "weighted20"])
    def test_fingerprint_builds_no_classes(self, g, monkeypatch):
        # The classes are built on their first read, once, from the cached
        # analysis, and equal those of a graph that never had a fingerprint.
        calls = []
        row_classes = signatures._row_classes
        monkeypatch.setattr(signatures, "_row_classes",
                            lambda *args: calls.append(args) or row_classes(*args))
        text = to_edge_list(g)
        g = parse_edge_list(text)
        fingerprint(g)
        assert calls == []
        part, labeling = orbit_partition(g), canonical_labeling(g)
        assert len(calls) == 1
        fresh = parse_edge_list(text)
        assert (orbit_partition(fresh), canonical_labeling(fresh)) == (part, labeling)


class TestSeparation:
    """What the signatures tell apart, against one-cell colour refinement (1-WL)."""

    def test_connected_graphs_up_to_seven_nodes(self):
        # One graph per isomorphism class: the fingerprints separate them all,
        # and the one-cell refinement invariant merges some.  Its count is
        # pinned as measured.
        graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
        invariants = set()
        for g in graphs:
            (_, _, cell, _), _ = _uniform_refine(g)
            colours, edges = _refinement_invariant(g, cell)
            invariants.add((tuple(colours), tuple(edges)))
        assert len(graphs) == len({fingerprint(g).digest() for g in graphs}) == 995
        assert len(invariants) == 975


class TestExactResidues:
    """The residue L+ against the exact Fraction oracle and the paper's rows."""

    def test_pinv_matches_exact_solves(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                P, p = g._analysis.P, g._analysis.p
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        if a == b:
                            continue
                        v = oracle.exact_solve_pair(g, a, b)
                        for x in range(n):
                            assert (P[x, a - 1] - P[x, b - 1]) % p == residue(v[x], p)

    def test_classes_refine_paper_classes_and_hold_orbits(self):
        # The paper's row for node x: its sorted exact voltages
        # L+[x,a] - L+[x,b] over all ordered pairs (a, b), here times the
        # common denominator d of L+, which keeps order and equality.
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                classes = orbit_partition(g).classes
                pinv = oracle.exact_pinv(g)
                d = math.lcm(*(x.denominator for row in pinv for x in row))
                scaled = [[x.numerator * (d // x.denominator) for x in row] for row in pinv]
                paper = [sorted(row[a] - row[b] for a in range(n) for b in range(n) if a != b)
                         for row in scaled]
                for cls in classes:
                    assert len({tuple(paper[x - 1]) for x in cls}) == 1
                class_of = {x: k for k, cls in enumerate(classes) for x in cls}
                for orbit in oracle.brute_force_automorphisms(g).orbits:
                    assert len({class_of[x] for x in orbit}) == 1

    def test_prime_fallback(self, monkeypatch):
        # The 6-node wheel has 121 = 11^2 spanning trees, so it is singular
        # mod 11 and moves on to 13; labels cannot change that.
        wheel = Graph(6, [(1, k, 1.0) for k in range(2, 7)]
                      + [(k, k % 5 + 2, 1.0) for k in range(2, 7)])
        monkeypatch.setattr(solver, "_primes", lambda: (11, 13))
        before = factorization_count()
        fp = fingerprint(wheel)
        assert fp.p == 13
        assert factorization_count() - before == 2
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


class TestVerifyMapping:
    @pytest.mark.parametrize("g2, mapping", [
        (path(3), {1: 1, 2: 2}),
        (path(3), {1: 1, 2: 2, 3: 4}),
        (complete(3), {1: 1, 2: 2, 3: 3}),
        (path(3, 2.0), {1: 1, 2: 2, 3: 3}),
        (path(3), [2, 1, 3]),
        (path(3), "abc"),
        (path(3), None),
        (path(3), {1: 1, "2": 2, 3: 3}),
        (path(3), {1: 1.0, 2: 2, 3: 3}),
        (path(3), {1: True, 2: 2, 3: 3}),
        (path(3), {1: 1, 2: 2, 3: 3.0}),
        (path(3), {1: 2, 2: True, 3: 3}),
    ], ids=["domain", "image", "edge-count", "weight", "list", "str", "none", "str-key",
            "float-key", "bool-key", "float-value", "bool-value"])
    def test_rejects(self, g2, mapping):
        assert verify_mapping(path(3), path(3), {1: 3, 2: 2, 3: 1})
        assert verify_mapping(path(3), g2, mapping) is False

    def test_numpy_integer_ids_pass(self):
        assert verify_mapping(path(3), path(3), {np.int64(1): 3, 2: np.int64(2), 3: 1})


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

    def test_unverified_discrete_mapping_is_not_certified(self, rng, monkeypatch):
        monkeypatch.setattr(signatures, "verify_mapping", lambda g1, g2, mapping: False)
        g = weighted_graph(12, 0)
        assert _uniform_refine(g)[1] == g.n
        verdict = iso_screen(g, relabel(g, random_permutation(12, rng)))
        assert verdict.kind == IsoVerdict.POSSIBLE
        assert verdict.reason == "mapping failed verification"
        assert verdict.mapping is None

    def test_relabeled_c4(self, rng):
        # Also C4 and K3 against themselves, and a relabelled random tree.
        g = cycle(4)
        pairs = [(g, relabel(g, random_permutation(4, rng))), (g, g), (complete(3), complete(3))]
        tree = random_connected_graph(9, rng, extra_edge_prob=0.0)
        pairs.append((tree, relabel(tree, random_permutation(9, rng))))
        for g, h in pairs:
            verdict = iso_screen(g, h)
            assert verdict.kind == IsoVerdict.ISOMORPHIC
            assert verify_mapping(g, h, verdict.mapping)

    def test_refinement_rejects_a_swap_without_factorizing(self, monkeypatch):
        g = weighted_graph(20, 0)
        h = double_edge_swap(g, random.Random(2))
        monkeypatch.setattr(signatures, "_pinv_mod", refuse_to_factorize)
        monkeypatch.setattr(signatures, "_canonical", refuse_to_search)
        for g, h in [(g, h), (path(4), star(3))]:
            verdict = iso_screen(g, h)
            assert (verdict.kind, verdict.reason) == (IsoVerdict.DISTINCT, "colour refinement differs")
            assert verdict.mapping is None

    def test_first_split_decides_a_swap_before_refining(self, monkeypatch):
        # Swapping edges of unequal weight changes two nodes' weight
        # multisets, so the first splits differ and nothing refines further.
        g = weighted_graph(20, 0)
        h = double_edge_swap(g, random.Random(2))
        monkeypatch.setattr(signatures, "_split", refuse_to_refine)
        monkeypatch.setattr(signatures, "_pinv_mod", refuse_to_factorize)
        monkeypatch.setattr(signatures, "_canonical", refuse_to_search)
        verdict = iso_screen(g, h)
        assert (verdict.kind, verdict.reason, verdict.mapping) == (
            IsoVerdict.DISTINCT, "colour refinement differs", None)

    def test_equal_first_splits_refine_on(self, monkeypatch):
        # A swap of two unit-weight edges keeps every weight multiset.
        g = Graph(20, [(u, v, 1.0) for u, v, _ in weighted_graph(20, 0).edges])
        h = double_edge_swap(g, random.Random(2))
        assert ({k: len(xs) for k, xs in _weight_groups(g.adj).items()}
                == {k: len(xs) for k, xs in _weight_groups(h.adj).items()})
        splits = []
        split = signatures._split
        monkeypatch.setattr(signatures, "_split", lambda *args: splits.append(1) or split(*args))
        verdict = iso_screen(g, h)
        assert (verdict.kind, verdict.reason, verdict.mapping) == (
            IsoVerdict.DISTINCT, "colour refinement differs", None)
        assert len(splits) == 2

    def test_discrete_refinement_gives_the_mapping_without_factorizing(self, monkeypatch):
        # A discrete refinement leaves no automorphism, so the relabelling is
        # the only isomorphism.
        g = weighted_graph(20, 0)
        h, perm = shuffled_copy(g, random.Random(1))
        monkeypatch.setattr(signatures, "_pinv_mod", refuse_to_factorize)
        verdict = iso_screen(g, h)
        assert (verdict.kind, verdict.reason) == (IsoVerdict.ISOMORPHIC, "verified mapping")
        assert verdict.mapping == perm
        assert verify_mapping(g, h, verdict.mapping)

    def test_discrete_pair_decided_by_the_colour_mapping(self, monkeypatch):
        # Two discrete colourings give equal refinement invariants exactly
        # when the colour mapping keeps every edge and weight, so neither
        # pair needs the invariants.
        def refuse(*args):
            raise AssertionError("built refinement invariants for a discrete pair")

        g = weighted_graph(20, 0)
        relabelled, perm = shuffled_copy(g, random.Random(1))
        swapped = double_edge_swap(g, random.Random(2))
        assert all(_uniform_refine(h)[1] == 20 for h in (g, relabelled, swapped))
        monkeypatch.setattr(signatures, "_refinement_invariant", refuse)
        monkeypatch.setattr(signatures, "_pinv_mod", refuse_to_factorize)
        verdict = iso_screen(g, swapped)
        assert (verdict.kind, verdict.reason, verdict.mapping) == (
            IsoVerdict.DISTINCT, "colour refinement differs", None)
        verdict = iso_screen(g, relabelled)
        assert (verdict.kind, verdict.reason, verdict.mapping) == (
            IsoVerdict.ISOMORPHIC, "verified mapping", perm)

    def test_discrete_mapping_sorts_both_graphs_by_colour(self):
        # The mapping zips the two refined orders; it must be the one that
        # lists each graph's nodes by colour, insertion order included.
        discrete = 0
        for seed in range(12):
            g = weighted_graph(10 + 3 * seed, seed)
            h, _ = shuffled_copy(g, random.Random(seed))
            k1, k2 = (_refine([a.items() for a in x.adj], [0] * x.n) for x in (g, h))
            if len(set(k1)) < g.n:
                continue
            discrete += 1
            by_colour = [sorted(range(1, g.n + 1), key=lambda x: k[x - 1]) for k in (k1, k2)]
            verdict = iso_screen(g, h)
            assert verdict.kind == IsoVerdict.ISOMORPHIC
            assert list(verdict.mapping.items()) == list(zip(*by_colour))
        assert discrete >= 8

    def test_pair_refinement_cannot_split_reaches_fingerprints(self, monkeypatch):
        g, h = complete_bipartite(3), prism(3)
        (_, _, k, _), cells = _uniform_refine(g)
        l = _uniform_refine(h)[0][2]
        assert cells == 1 and _refinement_invariant(g, k) == _refinement_invariant(h, l)
        monkeypatch.setattr(signatures, "_canonical", refuse_to_search)
        verdict = iso_screen(g, h)
        assert (verdict.kind, verdict.reason) == (IsoVerdict.DISTINCT, "fingerprints differ")

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs(max_n=8), st.randoms(use_true_random=False))
    def test_agrees_with_brute_force(self, g, rng):
        others = [shuffled_copy(g, rng)[0], double_edge_swap(g, rng)]
        for h in filter(None, others):
            truth = oracle.brute_force_isomorphic(g, h)
            verdict = iso_screen(g, h)
            assert verdict.kind == (IsoVerdict.DISTINCT if truth is None else IsoVerdict.ISOMORPHIC)
            if truth is not None:
                assert verify_mapping(g, h, verdict.mapping)

    @settings(max_examples=50, deadline=None)
    @given(weighted_graphs(max_n=20), st.randoms(use_true_random=False))
    def test_refinement_invariant_orders_each_edge_by_colour(self, g, rng):
        def reference(graph, colour):
            edges = sorted((min(colour[u - 1], colour[v - 1]), max(colour[u - 1], colour[v - 1]), w)
                           for u, v, w in graph.edges)
            return sorted(colour), edges

        for h in filter(None, [g, shuffled_copy(g, rng)[0], double_edge_swap(g, rng)]):
            for colour in (_uniform_refine(h)[0][2], [rng.randrange(3) for _ in range(h.n)]):
                assert _refinement_invariant(h, colour) == reference(h, colour)

    def test_c6_vs_p6_edge_count(self):
        verdict = iso_screen(cycle(6), path(6))
        assert verdict.kind == IsoVerdict.DISTINCT

    def test_same_degree_sequence_distinct(self, rng):
        # Find two degree-matched non-isomorphic graphs on 8 nodes.
        while True:
            g = random_connected_graph(8, rng)
            h = random_connected_graph(8, rng)
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
        assert verdict.mapping is None
        h = relabel(SHRIKHANDE, random_permutation(16, rng))
        verdict = iso_screen(SHRIKHANDE, h)
        assert verdict.kind == IsoVerdict.ISOMORPHIC
        assert verify_mapping(SHRIKHANDE, h, verdict.mapping)

    def test_budget_one_gives_possible(self, rng):
        g = cycle(6)
        h = relabel(g, random_permutation(6, rng))
        for budget in (1, np.int32(1)):  # numpy integers are integers
            verdict = iso_screen(g, h, node_budget=budget)
            assert (verdict.kind, verdict.reason) == (IsoVerdict.POSSIBLE, "search budget exhausted")
            assert verdict.mapping is None

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


class TestCFI:
    """Cai-Furer-Immerman pairs: equal signatures, told apart by the search alone."""

    @pytest.fixture(params=[10, 20, 40], ids=["base10", "base20", "base40"])
    def pair(self, request):
        base = random_cubic(request.param, random.Random(request.param))
        return base, cfi(base, False), cfi(base, True)

    def test_every_node_has_three_unit_weight_edges(self, pair):
        # Ten nodes per base node, all in one cell of the first split, so
        # the pair refines on past it.
        base, *graphs = pair
        for g in graphs:
            assert (g.n, g.m) == (10 * base.n, 15 * base.n)
            assert list(_weight_groups(g.adj)) == [(1.0, 1.0, 1.0)]

    def test_fingerprints_are_equal(self, pair):
        # A documented limit of the paper's signatures, whose L+ the
        # 2-dimensional Weisfeiler-Leman colouring already determines.
        _, g, h = pair
        assert fingerprint(g) == fingerprint(h)

    def test_twisted_pair_decided_by_canonical_form(self, pair):
        _, g, h = pair
        verdict = iso_screen(g, h)
        assert (verdict.kind, verdict.reason, verdict.mapping) == (
            IsoVerdict.DISTINCT, "canonical forms differ", None)

    def test_relabelled_copy_certified(self, pair):
        for g in pair[1:]:
            h, _ = shuffled_copy(g, random.Random(g.n))
            verdict = iso_screen(g, h)
            assert (verdict.kind, verdict.reason) == (IsoVerdict.ISOMORPHIC, "verified mapping")
            assert verify_mapping(g, h, verdict.mapping)


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
            for g in enumerate_connected_graphs(n):
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
            lab = _canonical(h.adj, [list(range(g.n))], 10**6)  # no help from signatures
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
        for budget in (1, np.int64(1)):  # numpy integers are integers
            lab = canonical_labeling(cycle(6), budget=budget)
            assert not lab.certified
            assert len(lab.order) == 6

    @pytest.mark.parametrize("budget, message", [
        (-5, "search budget must be >= 1, got -5"),
        (0, "search budget must be >= 1, got 0"),
        (True, "search budget must be an integer, got True"),
        (2.5, "search budget must be an integer, got 2.5"),
        ("x", "search budget must be an integer, got 'x'"),
        (None, "search budget must be an integer, got None"),
    ])
    def test_invalid_budget_raises_before_any_analysis(self, monkeypatch, budget, message):
        def refuse(*args):
            raise AssertionError("analysed a graph despite an invalid budget")

        monkeypatch.setattr(signatures, "_pinv_mod", refuse)
        monkeypatch.setattr(signatures, "_weight_groups", refuse)
        monkeypatch.setattr(signatures, "_split", refuse)
        for call in (lambda: canonical_labeling(cycle(4), budget=budget),
                     lambda: iso_screen(cycle(4), cycle(4), node_budget=budget),
                     lambda: iso_screen(cycle(4), path(5), node_budget=budget)):
            with pytest.raises(InvalidBudgetError) as exc:
                call()
            assert str(exc.value) == message

    def test_digest_pinned(self):
        # sha256 of {"form": [17-digit decimal strings], "n": n}, no spaces.
        g = Graph(5, [(1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.5), (4, 5, 1.0), (5, 1, 0.1)])
        lab = canonical_labeling(g)
        assert lab.certified
        assert lab.form == (0.5, 1.0, 0.0, 0.0, 0.0, 0.1, 0.0, 1.0, 0.0, 0.5)
        text = '{"form":["0.5","1","0","0","0","0.10000000000000001","0","1","0","0.5"],"n":5}'
        assert hashlib.sha256(text.encode()).hexdigest() == lab.digest()
        assert lab.digest() == "61eb9ff3be9a341160c52c5756e7a4b62d288057dc3e3f75f65f45270d5084d2"

    def test_order_is_permutation(self):
        lab = canonical_labeling(cycle(5))
        assert sorted(lab.order) == [1, 2, 3, 4, 5]

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs(max_n=8), st.randoms(use_true_random=False))
    def test_edge_key_compares_as_form(self, g, rng):
        # The search ranks its leaves by _edge_key and builds _form for the
        # winner alone.  Small graphs make equal forms from distinct orders.
        edges = [(u - 1, v - 1, w) for u, v, w in g.edges]
        leaves = []
        for _ in range(6):
            order = rng.sample(range(g.n), g.n)
            pos = [0] * g.n
            for i, x in enumerate(order):
                pos[x] = i
            leaves.append((_edge_key(edges, pos), _form(g.adj, order)))
        for (key1, form1), (key2, form2) in itertools.product(leaves, repeat=2):
            assert (key1 < key2, key1 == key2) == (form1 < form2, form1 == form2)

    @pytest.mark.parametrize("g, digest", [
        (complete_bipartite(4), "bd091253d0b61b9f6df8a64bd964c20c3d6a2bc8b5557bb9f52e5d6ffd00ecc9"),
        (complete_bipartite(8), "1ffb85714183cf29350749471d97e3c174c90c897254c919a5e1c29370ca2eb8"),
        (star(20), "791cdc81a820aab054bfaaafcb5233f8c100f3c0908db6959756f7193e146f37"),
        (complete(8), "4f8d7f870230792886f15bb570b677aba3aa238a6e6db76ae966f66b59fc8713"),
        (caterpillar(10, 3), "8813ab58d23434214eb07ea273d603a37269bddb65dc552503808dd4143660e8"),
        (BUTANE, "98b3a1d826990da27d6647cefa4a4b4891d4420351c17b37bda74cc47420c7ae"),
    ], ids=["K4,4", "K8,8", "K1,20", "K8", "caterpillar10x3", "butane"])
    def test_twin_rich_digests_pinned(self, g, digest, rng):
        # Pinned from the search that learnt every twin swap from a leaf:
        # pruning by twins skips only images of explored subtrees.
        for h in (g, relabel(g, random_permutation(g.n, rng))):
            lab = canonical_labeling(h)
            assert lab.certified
            assert lab.digest() == digest

    @pytest.mark.parametrize("name, most", [
        ("C12", 6), ("C16", 6), ("Q4", 15), ("T4x4", 15), ("Prism8", 8), ("K8,8", 29),
        ("Circ16(1,3)", 6), ("Q5", 21),
    ])
    def test_tree_nodes_pinned(self, name, most):
        # The search's counts as built; K8,8 took 134 before twin pruning.  A
        # search that did not resume at the common ancestor of two leaves with
        # equal forms would take more, 41 for Q5.
        assert canonical_labeling(SYMMETRIC[name]).expansions <= most

    @pytest.mark.parametrize("g, most", [
        (star(1000), 1001),
        (complete_bipartite(100), 400),
        (complete(200), 200),
        (caterpillar(50, 3), 400),
    ], ids=["K1,1000", "K100,100", "K200", "caterpillar50x3"])
    def test_twin_classes_certify_in_few_tree_nodes(self, g, most, rng):
        # Learning each twin swap from a leaf took about k^2/2 tree nodes per
        # class of k twins (5,050 for K1,100); the first paths are n - 1 deep.
        # The clock covers the search: the analysis, cached first, is a dense
        # n x n inverse whose time depends on BLAS threading.
        g._analysis
        start = time.perf_counter()
        lab = canonical_labeling(g)
        assert time.perf_counter() - start < 1.0
        assert lab.certified
        assert lab.expansions <= most
        other = canonical_labeling(relabel(g, random_permutation(g.n, rng)))
        assert other.certified
        assert other.digest() == lab.digest()


def unpruned_form(g, groups, most=10**4):
    """The least form over every leaf of the IR tree from groups; None past most leaves.

    The search's referee: it branches on the same target cell, the first
    smallest non-singleton one, but visits every child of every tree node,
    with no pruning by twins or automorphisms and no resuming at a common
    ancestor, and keeps the leaf with the least _edge_key.
    """
    nbrs = [tuple(a.items()) for a in g.adj]
    edges = [(u - 1, v - 1, w) for u, v, w in g.edges]
    best, leaves = None, 0
    stack = [_refined_state(g.adj, nbrs, groups)]
    while stack:
        state, cells = stack.pop()
        order, pos, cell, first = state
        if cells < g.n:
            target = min((c for c in set(cell) if first[c] < c), key=lambda c: (c - first[c], c))
            stack += (_individualize(nbrs, state, cells, v) for v in order[first[target]:target + 1])
            continue
        leaves += 1
        if leaves > most:
            return None
        key = _edge_key(edges, pos)
        if best is None or key < best[0]:
            best = key, order
    return _form(g.adj, best[1])


@pytest.fixture(scope="module")
def small_graphs():
    """Every connected graph on 2..7 nodes, one per isomorphism class; analyses cached across tests."""
    return [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]


class TestSearchContract:
    """The pruned search against the unpruned referee, its budget and its tree-node counts."""

    def test_referee_on_connected_graphs_up_to_seven_nodes(self, small_graphs):
        rng = random.Random(15)
        reweighted = [Graph(g.n, [(u, v, rng.choice((0.5, 1.0, 2.0))) for u, v, _ in g.edges])
                      for g in rng.sample(small_graphs, 300)]
        for g in small_graphs + reweighted:
            one_cell = [list(range(g.n))]
            assert _canonical(g.adj, one_cell, DEFAULT_BUDGET).form == unpruned_form(g, one_cell)
            form = unpruned_form(g, signature_groups(g))
            for h in (g, shuffled_copy(g, rng)[0]):
                lab = canonical_labeling(h)
                assert lab.certified
                assert lab.form == form

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_referee_on_symmetric_graphs(self, name, rng):
        g = SYMMETRIC[name]
        form = unpruned_form(g, signature_groups(g))
        # Every unpruned tree here has at most 3,840 leaves (Q5), except
        # K8,8's, whose first child alone has 8! * 7! leaves.
        assert (form is None) == (name == "K8,8")
        if form is not None:
            for h in (g, relabel(g, random_permutation(g.n, rng))):
                assert canonical_labeling(h).form == form

    @pytest.mark.parametrize("n", [8, 10])
    def test_referee_on_cfi_pairs(self, n):
        base = random_cubic(n, random.Random(n))
        forms = []
        for g in (cfi(base, False), cfi(base, True)):
            forms.append(unpruned_form(g, signature_groups(g)))
            assert canonical_labeling(g).form == forms[-1]
        assert forms[0] != forms[1]

    def test_budget_contract(self):
        # E tree nodes finish the search and F reach its first leaf, which
        # every budget reaches; a budget of B stops at max(B, F).
        graphs = [cycle(6), cycle(12), prism(5), complete_bipartite(4), star(6)]
        graphs += [random_cubic(16, random.Random(seed)) for seed in range(5)]
        graphs += enumerate_connected_graphs(6)
        for g in graphs:
            for groups in ([list(range(g.n))], signature_groups(g)):
                full = _canonical(g.adj, groups, DEFAULT_BUDGET)
                e, f = full.expansions, _canonical(g.adj, groups, 1).expansions
                for budget in range(1, e + 2):
                    lab = _canonical(g.adj, groups, budget)
                    assert lab.expansions == min(e, max(budget, f))
                    assert lab.certified == (budget >= e or e == f)
                    if lab.certified:
                        assert lab.order == full.order

    def test_tree_node_totals_pinned(self, small_graphs):
        # As built.  The referee catches a wrong form, not a search that
        # prunes less, which these totals catch.
        assert sum(_canonical(g.adj, [list(range(g.n))], DEFAULT_BUDGET).expansions
                   for g in small_graphs) == 3171
        assert sum(canonical_labeling(g).expansions for g in small_graphs) == 3145


def brute_force_twins(g):
    """Least y with w(x,z) = w(y,z) for every z other than x and y, for each node x."""
    w = [[g.adj[x].get(z, 0.0) for z in range(g.n)] for x in range(g.n)]
    return [min(y for y in range(g.n) if all(w[x][z] == w[y][z] for z in range(g.n) if z not in (x, y)))
            for x in range(g.n)]


class TestTwins:
    """Twin classes, adjacent and non-adjacent, by exact weights."""

    def test_known_classes(self):
        assert _twins(star(4).adj) == [0, 1, 1, 1, 1]
        assert _twins(complete(5).adj) == [0] * 5
        assert _twins(cycle(4).adj) == [0, 1, 0, 1]
        assert _twins(path(4).adj) == [0, 1, 2, 3]
        assert _twins(BUTANE.adj) == [0, 1, 2, 3, 4, 4, 4, 7, 7, 9, 9, 11, 11, 11]
        # Nodes 1 and 2, joined by weight 2, are adjacent twins; 3 and 4 are
        # not twins of them, though all four meet node 5 alike.
        g = Graph(5, [(1, 2, 2.0), (1, 5, 1.0), (2, 5, 1.0), (3, 5, 1.0), (4, 5, 1.0), (3, 4, 0.5),
                      (1, 3, 3.0), (2, 3, 3.0)])
        assert _twins(g.adj) == [0, 0, 2, 3, 4]

    def test_small_graphs_against_definition(self):
        rng = random.Random(4)
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                weighted = Graph(n, [(u, v, rng.choice((1.0, 2.0))) for u, v, _ in g.edges])
                for h in (g, weighted):
                    assert _twins(h.adj) == brute_force_twins(h)

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(max_n=12))
    def test_weighted_graphs_against_definition(self, g):
        assert _twins(g.adj) == brute_force_twins(g)


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


def colour_sorted_layout(colour):
    """Refinement state (order, pos, cell, first) of colour, by sorting the nodes by colour: _layout's referee.

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


def check_layout(colour):
    """_layout of colour's groups against the colour-sorted layout, and its lasts against the cells."""
    state, lasts = _layout(colour_groups(colour))
    assert state == colour_sorted_layout(colour)
    assert lasts == sorted(set(state[2]))


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


def check_in_place(g, state, cells, v, expected):
    """_individualize of state leaves it alone and gives expected, with a consistent state."""
    nbrs = [tuple(a.items()) for a in g.adj]
    before = [x.copy() for x in state]
    (order, pos, cell, first), child_cells = _individualize(nbrs, state, cells, v)
    assert list(state) == before
    assert cell == expected
    assert child_cells == len(set(cell))
    assert all(pos[x] == i and first[cell[x]] <= i <= cell[x] for i, x in enumerate(order))
    return (order, pos, cell, first), child_cells


def check_individualized(g, colour, rng):
    """Refine, move one node of a non-singleton cell to its front, refine from it,
    from the child colouring and from the parent's refined state in place."""
    equitable = check_refine(g, colour, rng)
    big = [x for x in range(g.n) if equitable.count(equitable[x]) > 1]
    if big:
        v = rng.choice(big)
        child = equitable.copy()
        child[v] = sum(c < equitable[v] for c in equitable)
        expected = check_refine(g, child, rng, [child[v]])
        state, lasts = _layout(colour_groups(colour))
        cells = _split([tuple(a.items()) for a in g.adj], *state, lasts, len(lasts))
        assert state[2] == equitable
        check_in_place(g, state, cells, v, expected)


def check_state(g, colour):
    """_refined_state against _refine: equal cells, a consistent state, and its cell count."""
    nbrs = [tuple(a.items()) for a in g.adj]
    (order, pos, cell, first), cells = _refined_state(g.adj, nbrs, colour_groups(colour))
    assert cell == _refine(nbrs, colour)
    assert sorted(order) == list(range(g.n)) and all(pos[x] == i for i, x in enumerate(order))
    # Each cell c is exactly the interval of positions first[c]..c.
    for c in set(cell):
        assert [cell[x] for x in order[first[c]:c + 1]] == [c] * (c + 1 - first[c])
    assert sum(c + 1 - first[c] for c in set(cell)) == g.n
    assert cells == len(set(cell))


class TestRefine:
    """Splitter-queue refinement gives the referee's partition, keeps input
    cells as intervals in order, and commutes with relabelling."""

    def test_small_graphs(self):
        rng = random.Random(3)
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
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

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_in_place_along_a_path(self, name, rng):
        # Individualize random nodes down to a discrete leaf, each child
        # refined in place from its parent's state.
        g = relabel(SYMMETRIC[name], random_permutation(SYMMETRIC[name].n, rng))
        state, lasts = _layout([list(range(g.n))])
        cells = _split([tuple(a.items()) for a in g.adj], *state, lasts, 1)
        while cells < g.n:
            cell, first = state[2], state[3]
            v = rng.choice([x for x in range(g.n) if first[cell[x]] < cell[x]])
            child = cell.copy()
            child[v] = first[cell[v]]
            expected = check_refine(g, child, rng, [child[v]])
            state, cells = check_in_place(g, state, cells, v, expected)

    def test_cell_lists_pinned(self):
        # The tests above compare partitions; this pins the exact cell lists,
        # so also the order of the fragments of every split.  Every connected
        # graph on <= 6 nodes, plain and weighted, and SYMMETRIC: _refine of
        # the uniform and a random colouring, and _individualize down a random
        # path to a leaf.  Pinned from the splitter loop before its rewrite.
        rng = random.Random(27)
        graphs = list(SYMMETRIC.values())
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                graphs += [g, Graph(n, [(u, v, rng.choice((1.0, 2.0))) for u, v, _ in g.edges])]
        digest = hashlib.sha256()
        for g in graphs:
            nbrs = [tuple(a.items()) for a in g.adj]
            for colour in ([0] * g.n, [rng.randrange(3) for _ in range(g.n)]):
                digest.update(repr(_refine(nbrs, colour)).encode())
            state, lasts = _layout(colour_groups(_refine(nbrs, [0] * g.n)))
            cells = len(lasts)
            while cells < g.n:
                cell, first = state[2], state[3]
                v = rng.choice([x for x in range(g.n) if first[cell[x]] < cell[x]])
                state, cells = _individualize(nbrs, state, cells, v)
                digest.update(repr(state[2]).encode())
        assert digest.hexdigest() == "6b74304812b0028017db98251e33e6e06460cd1a5f1bb1fe99431f126fa0bcfe"

    def test_refined_state_matches_refine(self):
        # Every connected graph on <= 6 nodes, plain and weighted, and
        # SYMMETRIC, from one cell (the direct first split) and from a
        # random colouring (_layout of its groups, then _split).
        rng = random.Random(29)
        graphs = list(SYMMETRIC.values())
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                graphs += [g, Graph(n, [(u, v, rng.choice((1.0, 2.0))) for u, v, _ in g.edges])]
        for g in graphs:
            for colour in ([0] * g.n, [rng.randrange(3) for _ in range(g.n)]):
                check_state(g, colour)

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(), st.randoms(use_true_random=False))
    def test_refined_state_of_weighted_graphs(self, g, rng):
        for colour in ([0] * g.n, [rng.randrange(2) for _ in range(g.n)]):
            check_state(g, colour)

    def test_layout_matches_colour_sorted_layout(self):
        # Every connected graph on <= 6 nodes, plain and weighted: random
        # colourings, the one-cell refinement and the signature classes, by
        # class index, the colouring that roots the canonical search.
        rng = random.Random(31)
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                weighted = Graph(n, [(u, v, rng.choice((1.0, 2.0))) for u, v, _ in g.edges])
                for h in (g, weighted):
                    for k in (1, 2, 3, n):
                        check_layout([rng.randrange(k) for _ in range(n)])
                    check_layout(_refine([tuple(a.items()) for a in h.adj], [0] * n))
                    by_class = [0] * n
                    for k, c in enumerate(signature_groups(h)):
                        for x in c:
                            by_class[x] = k
                    check_layout(by_class)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_layout_of_random_colourings(self, colour):
        check_layout(colour)

    def test_equal_weight_sums_split_by_multiset(self):
        # Nodes 1-4 carry weights {1, 3, 5}, nodes 5-8 {2, 2, 5}: equal sums.
        g = Graph(8, [(1, 2, 1.0), (2, 3, 3.0), (3, 4, 1.0), (4, 1, 3.0),
                      (5, 6, 2.0), (6, 7, 2.0), (7, 8, 2.0), (8, 5, 2.0)]
                  + [(k, k + 4, 5.0) for k in range(1, 5)])
        out = check_refine(g, [0] * 8, random.Random(1))
        assert cells_of(out) == {frozenset(range(4)), frozenset(range(4, 8))}


@pytest.fixture(params=range(4), ids=lambda seed: f"seed{seed}")
def relabelled_pair(request):
    seed = request.param
    g = weighted_graph(48 + 5 * seed, seed)
    h, perm = shuffled_copy(g, random.Random(seed))
    return g, h, perm


class TestLabelInvariance:
    """Relabelled copies get the same residues, relabelled."""

    def test_pinv_residues_permute_with_labels(self, relabelled_pair):
        g, h, perm = relabelled_pair
        a, b = g._analysis, h._analysis
        assert a.p == b.p
        to_h = np.array([perm[x] - 1 for x in range(1, g.n + 1)])
        assert (b.P[np.ix_(to_h, to_h)] == a.P).all()

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
    """One analysis, so one factorization, per graph; none for an iso pair
    that colour refinement decides."""

    def test_fingerprint(self):
        before = factorization_count()
        fingerprint(weighted_graph(20, 0))
        assert factorization_count() - before == 1

    def test_canonical_labeling(self):
        before = factorization_count()
        canonical_labeling(weighted_graph(20, 0))
        assert factorization_count() - before == 1

    def test_iso_screen_isomorphic_pair(self, rng):
        # Refinement leaves a strongly regular graph one cell, so the screen
        # reads both analyses.
        g = relabel(SHRIKHANDE, random_permutation(16, rng))
        h, _ = shuffled_copy(g, rng)
        before = factorization_count()
        assert iso_screen(g, h).kind == IsoVerdict.ISOMORPHIC
        assert factorization_count() - before == 2

    def test_iso_screen_discrete_pair(self):
        g = weighted_graph(20, 0)
        h, _ = shuffled_copy(g, random.Random(1))
        assert _uniform_refine(g)[1] == g.n
        before = factorization_count()
        assert iso_screen(g, h).kind == IsoVerdict.ISOMORPHIC
        assert factorization_count() - before == 0

    def test_orbit_partition_then_canonical_labeling(self):
        g = weighted_graph(20, 0)
        before = factorization_count()
        orbit_partition(g)
        canonical_labeling(g)
        assert factorization_count() - before == 1

    def test_fingerprint_then_canonical_labeling(self):
        g = weighted_graph(20, 0)
        before = factorization_count()
        fingerprint(g)
        canonical_labeling(g)
        assert factorization_count() - before == 1

    def test_iso_screen_of_a_graph_with_itself(self, rng):
        g = relabel(SHRIKHANDE, random_permutation(16, rng))
        before = factorization_count()
        assert iso_screen(g, g).kind == IsoVerdict.ISOMORPHIC
        assert factorization_count() - before == 1

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
    """Fingerprint and canonical search at n = 1000, from one analysis per copy.

    The digests are pinned, so they also hold whatever BLAS thread count the
    modular inverse's block products run with.
    """

    @pytest.mark.parametrize("g, digests", [
        (weighted_graph(1000, 0, m=3000),
         ("fb9c8154562cc7f6391c76308f6f6f5d4d25e5bc9be921220846c9ace87ebfb1",
          "14671be9111a22cde91cfb8da60988d172ca60200f924b56dbf2b52eca82f953")),
        (torus(10, 100),
         ("d12a9f77a7a3090d280aee8c2bf05afdd6d3f09b5d44c50369d45d308a2492f2",
          "0f4cc9a6d23d9f1c30a8c05a64974681a5ab99265e9e096f9691920cda924fb1")),
    ], ids=["random-n1000-m3000", "torus-10x100"])
    def test_relabelled_copies_agree(self, g, digests):
        rng = random.Random(g.m)
        for copy in range(3):
            h = Graph(g.n, g.edges) if copy == 0 else shuffled_copy(g, rng)[0]
            before = factorization_count()
            lab = canonical_labeling(h)
            assert lab.certified
            assert (fingerprint(h).digest(), lab.digest()) == digests
            assert factorization_count() - before == 1
