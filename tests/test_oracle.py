import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from kcanon import oracle
from kcanon.errors import SameSourceSinkError, TooLargeError
from kcanon.graph import Graph, relabel
from kcanon.solver import build_system, solve_pair, solve_pair_pseudoinverse

from conftest import complete, cycle, path, random_permutation, star
from corpus import enumerate_connected_graphs, random_connected_graph


class TestExactSolve:
    def test_p3(self):
        v = oracle.exact_solve_pair(path(3), 1, 2)
        assert v == [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]

    def test_k3(self):
        v = oracle.exact_solve_pair(complete(3), 1, 2)
        assert v == [Fraction(1, 3), Fraction(-1, 3), Fraction(0)]

    def test_c4_opposite_corners(self):
        v = oracle.exact_solve_pair(cycle(4), 1, 3)
        assert v[0] - v[2] == Fraction(1)

    def test_exact_residual(self):
        g = Graph(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0)])
        v = oracle.exact_solve_pair(g, 2, 4)
        L = oracle.exact_laplacian(g)
        for i in range(4):
            lhs = sum(L[i][j] * v[j] for j in range(4))
            rhs = Fraction(1 if i == 1 else 0) - Fraction(1 if i == 3 else 0)
            assert lhs == rhs
        assert sum(v, Fraction(0)) == 0

    def test_same_source_sink(self):
        with pytest.raises(SameSourceSinkError):
            oracle.exact_solve_pair(path(3), 1, 1)

    @pytest.mark.parametrize("a, b, message", [
        (1.5, 2, "node ids (1.5,2) must be integers"),
        (True, 3, "node ids (True,3) must be integers"),
        (0, 2, "nodes (0,2) outside 1..3"),
        (4, 1, "nodes (4,1) outside 1..3"),
    ])
    def test_rejects_what_the_float_solvers_reject(self, a, b, message):
        g = path(3)
        for solve in (oracle.exact_solve_pair, solve_pair_pseudoinverse,
                      lambda g, a, b: solve_pair(build_system(g), a, b)):
            with pytest.raises(SameSourceSinkError) as exc:
                solve(g, a, b)
            assert str(exc.value) == message

    def test_matches_float_solver(self, rng):
        for _ in range(20):
            g = random_connected_graph(
                rng.randint(3, 8), rng, weight_range=(0.1, 10.0)
            )
            system = build_system(g)
            a, b = rng.sample(range(1, g.n + 1), 2)
            exact = [float(x) for x in oracle.exact_solve_pair(g, a, b)]
            assert solve_pair(system, a, b).v == pytest.approx(exact, abs=1e-9)


class TestExactPinv:
    def test_differences_are_exact_solves(self, rng):
        graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
        graphs += [random_connected_graph(rng.randint(2, 7), rng, weight_range=(0.01, 100.0))
                   for _ in range(5)]
        for g in graphs:
            pinv = oracle.exact_pinv(g)
            for a, b in itertools.permutations(range(1, g.n + 1), 2):
                assert [row[a - 1] - row[b - 1] for row in pinv] == oracle.exact_solve_pair(g, a, b)


class TestBruteForceAutomorphisms:
    @pytest.mark.parametrize(
        "graph,order,orbits",
        [
            (complete(3), 6, ((1, 2, 3),)),
            (path(3), 2, ((1, 3), (2,))),
            (cycle(4), 8, ((1, 2, 3, 4),)),
            (star(3), 6, ((1,), (2, 3, 4))),
        ],
    )
    def test_known_groups(self, graph, order, orbits):
        report = oracle.brute_force_automorphisms(graph)
        assert report.order == order
        assert tuple(sorted(report.orbits)) == orbits

    def test_weights_break_symmetry(self):
        g = Graph(3, [(1, 2, 1.0), (2, 3, 2.0)])
        report = oracle.brute_force_automorphisms(g)
        assert report.order == 1
        assert report.orbits == ((1,), (2,), (3,))

    def test_listed_automorphisms_preserve_weights(self):
        g = cycle(5)
        report = oracle.brute_force_automorphisms(g)
        for perm in report.automorphisms:
            for u, v, w in g.edges:
                assert g.weight(perm[u - 1], perm[v - 1]) == w

    def test_group_order_divides_factorial(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng.randint(3, 7), rng)
            report = oracle.brute_force_automorphisms(g)
            assert math.factorial(g.n) % report.order == 0

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            oracle.brute_force_automorphisms(path(11))


class TestBruteForceIsomorphic:
    def test_c4_relabeled(self, rng):
        g = cycle(4)
        h = relabel(g, random_permutation(4, rng))
        mapping = oracle.brute_force_isomorphic(g, h)
        assert mapping is not None
        for u, v, w in g.edges:
            assert h.weight(mapping[u], mapping[v]) == w

    def test_p4_vs_star(self):
        assert oracle.brute_force_isomorphic(path(4), star(3)) is None

    def test_c6_chord_positions(self):
        base = [(k, k + 1, 1.0) for k in range(1, 6)] + [(6, 1, 1.0)]
        g14 = Graph(6, base + [(1, 4, 1.0)])
        g13 = Graph(6, base + [(1, 3, 1.0)])
        assert oracle.brute_force_isomorphic(g14, g13) is None


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)])
    def test_counts(self, n, count):
        assert len(enumerate_connected_graphs(n)) == count

    def test_n3_is_p3_and_k3(self):
        graphs = enumerate_connected_graphs(3)
        assert {g.m for g in graphs} == {2, 3}

    def test_pairwise_nonisomorphic(self):
        graphs = enumerate_connected_graphs(5)
        for g, h in itertools.combinations(graphs, 2):
            assert oracle.brute_force_isomorphic(g, h) is None

    def test_edge_lists_pinned(self):
        # Every graph the enumerator gives for n = 2..6, in order, edges in order.
        digest = hashlib.sha256()
        for n in range(2, 7):
            digest.update(repr([g.edges for g in enumerate_connected_graphs(n)]).encode())
        assert digest.hexdigest() == "08e3809844fc910fed5ac14ade8cf1ab1e82a8ac74b1f5fe0237c03a9d7e5a96"

    def test_out_of_range(self):
        with pytest.raises(TooLargeError):
            enumerate_connected_graphs(8)
        with pytest.raises(TooLargeError):
            enumerate_connected_graphs(1)


class TestRandomGraphs:
    def test_connected_and_valid(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 15), rng)
            assert g.m >= g.n - 1  # construction guarantees a spanning tree

    def test_tree_edge_count(self, rng):
        for _ in range(10):
            n = rng.randint(2, 12)
            assert random_connected_graph(n, rng, extra_edge_prob=0.0).m == n - 1

    def test_weight_range(self, rng):
        g = random_connected_graph(10, rng, weight_range=(0.1, 10.0))
        assert all(0.1 <= w <= 10.0 for _, _, w in g.edges)

    def test_draws_pinned(self):
        # The edges and weights that fixed seeds draw, so every corpus keeps its graphs.
        digest = hashlib.sha256()
        for n, seed, weight_range in [(2, 0, None), (8, 1, None), (10, 1, (0.5, 4.0)),
                                      (30, 2, (0.1, 10.0)), (60, 3, (0.01, 100.0))]:
            g = random_connected_graph(n, random.Random(seed), weight_range=weight_range)
            digest.update(repr(g.edges).encode())
        assert digest.hexdigest() == "95e13b8837e8b3d6e2026bfe8579acfd5f8f159b57be8c664daca61a55da78da"
