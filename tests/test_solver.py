import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

import kcanon
from kcanon import cli, oracle, solver
from kcanon.errors import (
    FactorizationFailedError,
    GraphError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SameSourceSinkError,
)
from kcanon.graph import Graph
from kcanon.solver import (
    VoltageProfile,
    build_system,
    effective_resistance,
    factorization_count,
    kcl_residual,
    pair_currents,
    solve_pair,
    solve_pair_pseudoinverse,
    solve_pair_universal_sink,
)

from conftest import complete, cycle, laplacian, path, random_cubic
from corpus import random_connected_graph


def grounded_block(g):
    """The block build_system factors, checked against the factor it builds."""
    block = solver._sparse_laplacian(g)[:-1, :-1].toarray()
    eye = np.eye(g.n - 1)
    assert np.allclose(block @ build_system(g).factor.solve(eye), eye, rtol=0, atol=1e-12)
    return block.tolist()


class TestBuildSystem:
    def test_p2_reduced(self):
        assert grounded_block(path(2)) == [[1.0]]

    def test_k3_reduced(self):
        assert grounded_block(complete(3)) == [[2, -1], [-1, 2]]

    def test_c4_reduced(self):
        assert grounded_block(cycle(4)) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

    def test_laplacian_is_degree_minus_adjacency_bytewise(self, rng):
        graphs = [Graph(1, [])] + [
            random_connected_graph(rng.randint(2, 120), rng, weight_range=(0.01, 100.0))
            for _ in range(30)
        ]
        for g in graphs:
            A = np.zeros((g.n, g.n))
            for u, v, w in g.edges:
                A[u - 1, v - 1] = A[v - 1, u - 1] = w
            assert laplacian(g).tobytes() == (np.diag(A.sum(axis=1)) - A).tobytes()
            # The sparse L sums each degree in edge order, so only rounding differs.
            assert np.allclose(solver._sparse_laplacian(g).toarray(), laplacian(g), rtol=1e-14, atol=0)

    def test_laplacian_rows_sum_zero(self):
        g = Graph(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0)])
        L = laplacian(g)
        assert np.allclose(L, L.T)
        assert np.allclose(L.sum(axis=1), 0.0)

    def test_rejects(self):
        with pytest.raises(GraphError, match="need at least 2 nodes and 1 edge"):
            build_system(Graph(1, []))

    def test_factorization_counter(self):
        before = factorization_count()
        build_system(path(3))
        build_system(path(3))
        assert factorization_count() - before == 2

    def test_failed_factorization_is_typed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
        with pytest.raises(FactorizationFailedError, match="exactly singular"):
            build_system(path(3))


class TestSolvePair:
    def test_p2(self):
        v = solve_pair(build_system(path(2)), 1, 2).v
        assert v == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_k3(self):
        v = solve_pair(build_system(complete(3)), 1, 2).v
        assert v == pytest.approx([1 / 3, -1 / 3, 0.0], abs=1e-12)

    def test_p3_matches_exact_solve(self):
        # frozen from the exact rational oracle: (2/3, -1/3, -1/3)
        g = path(3)
        v = solve_pair(build_system(g), 1, 2).v
        exact = [float(x) for x in oracle.exact_solve_pair(g, 1, 2)]
        assert exact == pytest.approx([2 / 3, -1 / 3, -1 / 3], abs=0)
        assert v == pytest.approx(exact, abs=1e-12)

    def test_same_source_sink(self):
        with pytest.raises(SameSourceSinkError):
            solve_pair(build_system(path(3)), 2, 2)

    @pytest.mark.parametrize("a, b", [(0, 2), (1, 4)])
    def test_node_outside(self, a, b):
        with pytest.raises(SameSourceSinkError):
            solve_pair(build_system(path(3)), a, b)

    @pytest.mark.parametrize("a, b", [(1.5, 2), (1, 3.0), (1, 2.5), (True, 2), ("1", 2),
                                      (np.True_, 3)])
    def test_node_ids_must_be_integers(self, a, b):
        g = path(3)
        system = build_system(g)
        for solve in (solve_pair, effective_resistance):
            with pytest.raises(SameSourceSinkError, match="must be integers"):
                solve(system, a, b)
        for solve in (solve_pair_pseudoinverse, solve_pair_universal_sink):
            with pytest.raises(SameSourceSinkError, match="must be integers"):
                solve(g, a, b)

    def test_numpy_node_ids_accepted(self):
        system = build_system(path(3))
        assert np.array_equal(solve_pair(system, np.int64(1), np.uint8(3)).v,
                              solve_pair(system, 1, 3).v)

    def test_gauge_and_residual(self):
        g = cycle(5)
        system = build_system(g)
        for a, b in itertools.combinations(range(1, 6), 2):
            p = solve_pair(system, a, b)
            assert abs(p.v.sum()) < 1e-9
            assert kcl_residual(g, p) < 1e-9

    def test_residual_of_wrong_profile(self):
        g = Graph(5, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0), (4, 5, 0.25)])
        p = solve_pair(build_system(g), 2, 5)
        v = p.v + np.linspace(-0.3, 0.2, g.n) ** 2
        wrong = VoltageProfile(p.a, p.b, v)
        rhs = np.zeros(g.n)
        rhs[1], rhs[4] = 1.0, -1.0
        expected = np.abs(laplacian(g) @ v - rhs).max()
        assert expected > 0.01
        assert kcl_residual(g, wrong) == pytest.approx(expected, abs=1e-12)

    def test_antisymmetry_exact(self):
        g = Graph(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (1, 4, 3.0)])
        system = build_system(g)
        for a, b in itertools.combinations(range(1, 5), 2):
            assert np.array_equal(solve_pair(system, a, b).v, -solve_pair(system, b, a).v)

    def test_maximum_principle(self):
        g = cycle(6)
        system = build_system(g)
        for a, b in itertools.combinations(range(1, 7), 2):
            v = solve_pair(system, a, b).v
            assert v[a - 1] == pytest.approx(v.max(), abs=1e-12)
            assert v[b - 1] == pytest.approx(v.min(), abs=1e-12)

    def test_superposition(self):
        system = build_system(cycle(5))
        vac = solve_pair(system, 1, 3).v
        vab = solve_pair(system, 1, 2).v
        vbc = solve_pair(system, 2, 3).v
        assert vac == pytest.approx(vab + vbc, abs=1e-9)


def sparse_graph(n, rng, weight):
    """A random spanning path plus random edges, m = 3n, each weight drawn by weight()."""
    order = rng.sample(range(1, n + 1), n)
    edges = {(min(x, y), max(x, y)) for x, y in zip(order, order[1:])}
    while len(edges) < 3 * n:
        x, y = rng.sample(range(1, n + 1), 2)
        edges.add((min(x, y), max(x, y)))
    return Graph(n, [(x, y, weight()) for x, y in sorted(edges)])


def wide_weight_queries():
    """30 graphs, n = 200, weights 10^U(-6, 6), with 5 queries each."""
    rng = random.Random(7)
    for _ in range(30):
        g = sparse_graph(200, rng, lambda: 10 ** rng.uniform(-6, 6))
        yield g, [rng.sample(range(1, 201), 2) for _ in range(5)]


class TestPseudoinverse:
    def test_p2(self):
        v = solve_pair_pseudoinverse(path(2), 1, 2).v
        assert v == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_k3(self):
        v = solve_pair_pseudoinverse(complete(3), 1, 2).v
        assert v == pytest.approx([1 / 3, -1 / 3, 0.0], abs=1e-12)

    def test_agrees_with_grounded(self):
        g = Graph(5, [(1, 2, 0.3), (2, 3, 2.0), (3, 4, 1.0), (4, 5, 5.0), (1, 5, 0.7), (2, 4, 1.1)])
        system = build_system(g)
        for a, b in itertools.combinations(range(1, 6), 2):
            v1 = solve_pair(system, a, b).v
            v2 = solve_pair_pseudoinverse(g, a, b).v
            assert np.abs(v1 - v2).max() < 1e-8

    def test_wide_weights_agree_with_grounded(self):
        # Caught: MINRES without the Jacobi preconditioner, which stops short
        # on most of these queries, up to 0.95 relative off.
        for g, queries in wide_weight_queries():
            system = build_system(g)
            for a, b in queries:
                want = solve_pair(system, a, b).v
                got = solve_pair_pseudoinverse(g, a, b).v
                assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_long_path_is_refined_below_the_gate(self):
        # Caught: no refinement.  One preconditioned MINRES run leaves 2.9e-9
        # here; a refinement step on the true residual brings it to 1e-13.
        g = path(2000)
        assert kcl_residual(g, solve_pair_pseudoinverse(g, 1, 2000)) <= cli.KCL_LIMIT

    def test_ten_thousand_nodes_under_a_second(self):
        # Caught: any dense solve, such as eigh of L, which needs 800 MB here.
        rng = random.Random(10**4)
        g = sparse_graph(10**4, rng, lambda: rng.choice([0.5, 1.0, 2.0, 4.0]))
        start = time.process_time()
        v = solve_pair_pseudoinverse(g, 17, 9001).v
        assert time.process_time() - start < 1.0
        assert np.abs(v - solve_pair(build_system(g), 17, 9001).v).max() <= 1e-8

    def test_singular_bridge_fails_the_gate(self):
        # Node 5 hangs on a 1e-17 edge: MINRES converges in its own measure,
        # but the residual is near 1, which the CLI refuses.  Caught: a solve
        # that raises here instead, as the eigh solve did.
        g = Graph(6, [(4, 6, 1.0), (5, 6, 1e-17), (2, 4, 1.0), (3, 6, 1.0), (1, 6, 1.0)])
        assert kcl_residual(g, solve_pair_pseudoinverse(g, 5, 3)) > cli.KCL_LIMIT

    def test_minres_breakdown_is_typed(self, monkeypatch):
        # SciPy's MINRES raises ValueError where it breaks down, and documents
        # a negative info for it.
        def raises(*args, **kwargs):
            raise ValueError("non-symmetric matrix")

        for breakdown, message in [(raises, "non-symmetric matrix"),
                                   (lambda *args, **kwargs: (np.zeros(3), -1), "MINRES broke down")]:
            monkeypatch.setattr(scipy.sparse.linalg, "minres", breakdown)
            with pytest.raises(FactorizationFailedError, match=message):
                solve_pair_pseudoinverse(complete(3), 1, 2)


class TestUniversalSink:
    def test_small_sink_weight_approaches_grounded(self):
        g = path(2)
        v = solve_pair_universal_sink(g, 1, 2, sink_weight=1e-6).v
        assert v == pytest.approx([0.5, -0.5], abs=1e-4)

    def test_k3_sink_weight_one_frozen(self):
        # Exact augmented 4-node solve: (L + I) v = e1 - e2 gives (1/4, -1/4, 0);
        # the grounded answer is (1/3, -1/3, 0), a discrepancy of 1/12.
        p = solve_pair_universal_sink(complete(3), 1, 2, sink_weight=1.0)
        assert p.approximate
        assert p.v == pytest.approx([0.25, -0.25, 0.0], abs=1e-12)
        exact = solve_pair(build_system(complete(3)), 1, 2).v
        assert abs(p.v[0] - exact[0]) == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("weight, error", [
        (0.0, NonPositiveWeightError), (-1.0, NonPositiveWeightError),
        (float("nan"), NonPositiveWeightError), (float("inf"), NonFiniteWeightError),
        ("x", GraphError), (True, GraphError), (1j, GraphError),
        (10**400, NonFiniteWeightError),
    ])
    def test_rejects_sink_weight(self, weight, error):
        with pytest.raises(error):
            solve_pair_universal_sink(complete(3), 1, 2, weight)

    def test_swap_negates(self):
        g = complete(3)
        v1 = solve_pair_universal_sink(g, 1, 2, 1.0).v
        v2 = solve_pair_universal_sink(g, 2, 1, 1.0).v
        assert np.array_equal(v1, -v2)

    def test_matches_dense_solve(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng.randint(2, 30), rng, weight_range=(0.1, 10.0))
            a, b = rng.sample(range(1, g.n + 1), 2)
            s = rng.uniform(0.1, 2.0)
            rhs = np.zeros(g.n)
            rhs[a - 1], rhs[b - 1] = 1.0, -1.0
            ref = np.linalg.solve(laplacian(g) + s * np.eye(g.n), rhs)
            ref -= ref.mean()
            v = solve_pair_universal_sink(g, a, b, s).v
            assert np.abs(v - ref).max() <= 1e-12


class TestCurrents:
    def test_p2_unit_current(self):
        g = path(2)
        cur = pair_currents(g, solve_pair(build_system(g), 1, 2))
        assert cur.currents == pytest.approx([1.0], abs=1e-12)

    def test_k3_split(self):
        g = complete(3)  # edges (1,2), (1,3), (2,3)
        cur = pair_currents(g, solve_pair(build_system(g), 1, 2))
        assert cur.currents == pytest.approx([2 / 3, 1 / 3, -1 / 3], abs=1e-12)

    def test_p3_series(self):
        g = path(3)
        cur = pair_currents(g, solve_pair(build_system(g), 1, 3))
        assert cur.currents == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_node_balance(self):
        g = cycle(6)
        cur = pair_currents(g, solve_pair(build_system(g), 2, 5))
        # Net current out of each node: +1 at the source, -1 at the sink.
        bal = np.zeros(6)
        for (u, v, _), i in zip(g.edges, cur.currents):
            bal[u - 1] += i
            bal[v - 1] -= i
        expected = np.zeros(6)
        expected[1], expected[4] = 1.0, -1.0
        assert bal == pytest.approx(expected, abs=1e-9)

    def test_equals_per_edge_expression(self, rng):
        g = random_connected_graph(40, rng, weight_range=(0.1, 10.0))
        p = solve_pair(build_system(g), 3, 17)
        cur = pair_currents(g, p).currents
        assert len(cur) == g.m
        for (u, v, w), i in zip(g.edges, cur):
            assert i == w * (p.v[u - 1] - p.v[v - 1])

    def test_currents_are_read_only_float64(self):
        cur = pair_currents(cycle(6), solve_pair(build_system(cycle(6)), 2, 5)).currents
        assert cur.dtype == np.float64 and cur.shape == (6,)
        with pytest.raises(ValueError):
            cur[0] = 0.0

    @pytest.mark.parametrize("read", [pair_currents, kcl_residual])
    @pytest.mark.parametrize("solved_n, graph_n", [(3, 4), (4, 3)])
    def test_graph_mismatch(self, read, solved_n, graph_n):
        from kcanon.errors import GraphMismatchError

        p = solve_pair(build_system(path(solved_n)), 1, 2)
        with pytest.raises(GraphMismatchError):
            read(path(graph_n), p)


class TestEffectiveResistance:
    @pytest.mark.parametrize(
        "graph,a,b,expected",
        [
            (complete(3), 1, 2, 2 / 3),
            (cycle(4), 1, 2, 3 / 4),
            (cycle(4), 1, 3, 1.0),
            (path(3), 1, 3, 2.0),
        ],
    )
    def test_known_values(self, graph, a, b, expected):
        assert effective_resistance(build_system(graph), a, b) == pytest.approx(
            expected, abs=1e-12
        )

    def test_metric_properties(self):
        g = Graph(5, [(1, 2, 0.3), (2, 3, 2.0), (3, 4, 1.0), (4, 5, 5.0), (1, 5, 0.7)])
        system = build_system(g)
        r = {}
        for a, b in itertools.combinations(range(1, 6), 2):
            r[a, b] = r[b, a] = effective_resistance(system, a, b)
            assert r[a, b] > 0
            assert effective_resistance(system, b, a) == pytest.approx(r[a, b], abs=1e-9)
        for a, b, c in itertools.permutations(range(1, 6), 3):
            assert r[a, c] <= r[a, b] + r[b, c] + 1e-9


P = next(iter(solver._primes()))


def is_inverse_mod(a, x, p=P):
    """A X == I mod p, exactly: k p^2 < 2^53 for these sizes."""
    return ((a.astype(float) @ x.astype(float)) % p == np.eye(len(a))).all()


def inverse_mod(a, p):
    """a^-1 mod p as int64 in [0, p), from the -a^-1 that _block_inverse returns."""
    return -solver._block_inverse(a.astype(float), p).astype(np.int64) % p


def inverse_or_none(inverse, a, p):
    try:
        return inverse(a, p)
    except FactorizationFailedError:
        return None


def symmetric(rng, k, high):
    """A random symmetric k x k matrix of integers in [0, high)."""
    a = rng.integers(0, high, size=(k, k))
    return np.triu(a) + np.triu(a, 1).T


def spy_gauss_jordan(monkeypatch):
    """The sizes of the matrices _gauss_jordan inverts from now on."""
    sizes = []
    gauss_jordan = solver._gauss_jordan
    monkeypatch.setattr(solver, "_gauss_jordan", lambda b, p: sizes.append(len(b)) or gauss_jordan(b, p))
    return sizes


class TestModularInverse:
    @pytest.mark.parametrize("k", [1, 2, 7, 33, 63, 65, 97, 300, 1000])
    def test_random_residue_matrices(self, k):
        a = symmetric(np.random.default_rng(k), k, P)
        x = inverse_mod(a, P)
        assert x.dtype == np.int64 and ((0 <= x) & (x < P)).all()
        assert is_inverse_mod(a, x)
        assert (x == solver._gauss_jordan(a, P)).all()

    @pytest.mark.parametrize("k", [1, 2, 7, 33, 65])
    def test_gauss_jordan_inverts_non_symmetric_matrices(self, k):
        # The fallback is general elimination with row pivoting.
        a = np.random.default_rng(k).integers(0, P, size=(k, k))
        x = solver._gauss_jordan(a, P)
        assert x.dtype == np.int64 and ((0 <= x) & (x < P)).all()
        assert is_inverse_mod(a, x)

    @pytest.mark.parametrize("k", [65, 130])
    def test_singular_leading_block_keeps_the_prime(self, k, monkeypatch):
        a = symmetric(np.random.default_rng(k), k, P)
        a[0, :k // 2] = a[:k // 2, 0] = 0  # the leading half has a zero row and column
        with pytest.raises(FactorizationFailedError):
            inverse_mod(a[:k // 2, :k // 2], P)
        sizes = spy_gauss_jordan(monkeypatch)
        assert is_inverse_mod(a, inverse_mod(a, P))
        assert k in sizes  # the whole matrix, by elimination

    @pytest.mark.parametrize("k, p", [(2, 13), (40, P)], ids=["k2-mod13", "k40"])
    def test_zero_pivot_keeps_the_prime(self, k, p, monkeypatch):
        # a[0, 0] = 0 stops the sweep at its first pivot, though a is invertible.
        a = np.array([[0, 1], [1, 0]]) if k == 2 else symmetric(np.random.default_rng(k), k, p)
        a[0, 0] = 0
        sizes = spy_gauss_jordan(monkeypatch)
        x = inverse_mod(a, p)
        assert is_inverse_mod(a, x, p)
        assert sizes  # elimination took over

    def test_zero_pivot_keeps_the_prime_of_the_pseudoinverse(self, monkeypatch):
        # Node 1 of the 12-node path has degree 1 and 1 + 12^-1 = 13 = 0 mod
        # 13, so the first pivot of L + J/n is 0 mod 13; the pivot depends on
        # the labels, and n * tau = 12 does not vanish, so 13 must stay.
        monkeypatch.setattr(solver, "_primes", lambda: (13, 11))
        sizes = spy_gauss_jordan(monkeypatch)
        pinv, p, _ = solver._pinv_mod(path(12))
        assert p == 13 and sizes == [12]
        lap = np.array(laplacian(path(12)), dtype=np.int64)
        assert ((lap @ pinv - np.eye(12, dtype=np.int64) + pow(12, -1, 13)) % 13 == 0).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 80), st.sampled_from([13, 101, P]), st.sampled_from([3, None]),
           st.integers(0, 2**32 - 1))
    def test_block_recursion_matches_gauss_jordan(self, k, p, alphabet, seed):
        # Small primes and a 0/1/2 alphabet make singular leading blocks and
        # zero pivots common.
        a = symmetric(np.random.default_rng(seed), k, alphabet or p)
        x = inverse_or_none(inverse_mod, a, p)
        want = inverse_or_none(solver._gauss_jordan, a, p)
        assert (x is None) == (want is None)
        if x is not None:
            assert x.dtype == np.int64 and (x == want).all()

    @pytest.mark.parametrize("fill", [P - 1, P - 2, None], ids=["p-1", "p-2", "upper-half"])
    def test_products_past_the_exact_inner_dimension(self, fill):
        # 4100 terms near p^2 sum past 2^53, where one float64 product would
        # round the odd sums of the p - 2 and upper-half fills.
        rng = np.random.default_rng(4100)
        x, y = (np.full(shape, fill) if fill else rng.integers(P // 2, P, size=shape)
                for shape in ((2, 4100), (4100, 2)))
        z = solver._mul_mod(x.astype(float), y.astype(float), P)
        exact = [[sum(int(s) * int(t) for s, t in zip(row, col)) % P for col in y.T] for row in x]
        assert (z.astype(np.int64) % P).tolist() == exact
        assert (np.abs(z) < P).all()

    def test_singular_mod_p_only(self):
        a = np.array([[1, 2], [2, 4 + 11]])  # determinant 11
        with pytest.raises(FactorizationFailedError):
            inverse_mod(a, 11)
        assert is_inverse_mod(a, inverse_mod(a, 13), 13)

    def test_primes_walk_down_without_gaps(self):
        primes = list(itertools.islice(solver._primes(), 20))
        assert primes[0] == P < 2**21
        is_prime = lambda q: all(q % d for d in range(2, int(q**0.5) + 1))
        assert all(map(is_prime, primes))
        assert not any(map(is_prime, set(range(primes[-1], 2**21)) - set(primes)))

    def test_primes_dividing_n_are_skipped(self, monkeypatch):
        monkeypatch.setattr(solver, "_primes", lambda: (3, 7))
        before = factorization_count()
        assert solver._pinv_mod(path(3))[1] == 7
        assert factorization_count() - before == 1

    @pytest.mark.parametrize("family, n", [
        ("weighted", 20), ("weighted", 57), ("weighted", 96),
        ("cubic", 20), ("cubic", 48), ("cubic", 96),
    ])
    def test_pinv_identities(self, family, n):
        rng = random.Random(n)
        if family == "cubic":
            g = random_cubic(n, rng)
        else:
            g = random_connected_graph(n, rng, extra_edge_prob=4 / n, weight_range=(0.1, 10))
        pinv, p, residues = solver._pinv_mod(g)
        lap = np.zeros((n, n), dtype=object)
        for (u, v, w), got in zip(g.edges, residues.tolist()):
            f = Fraction(w)
            r = f.numerator * pow(f.denominator, -1, p)
            assert got == r % p
            lap[u - 1, v - 1] -= r
            lap[v - 1, u - 1] -= r
            lap[u - 1, u - 1] += r
            lap[v - 1, v - 1] += r
        assert pinv.dtype == np.int64 and ((0 <= pinv) & (pinv < p)).all()
        assert (pinv == pinv.T).all()
        assert (pinv.astype(object).sum(axis=1) % p == 0).all()
        centring = np.eye(n, dtype=np.int64) - pow(n, -1, p)
        assert ((lap @ pinv.astype(object) - centring) % p == 0).all()

    def test_weight_residues_are_exact(self):
        # The least subnormal, the least normal and the greatest finite float
        # span the whole exponent range, and 500 draws fill it in.
        w = np.concatenate([[0.5, 3.0, 0.1, 1e-300, 1e300, 5e-324, 2.0**-1074 * 3,
                             2.2250738585072014e-308, 1.7976931348623157e308],
                            10.0 ** np.random.default_rng(29).uniform(-300, 300, 500)])
        r = solver._residues(w, P)
        assert r.dtype == np.int64
        for x, got in zip(w.tolist(), r.tolist()):
            exact = Fraction(x)
            assert got == exact.numerator * pow(exact.denominator, -1, P) % P

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=5e-324, allow_infinity=False), st.sampled_from([P, 13]))
    # The least subnormal, the least normal, a deep normal and the greatest
    # finite float: the ends of the table of powers of two and a point inside.
    @example(5e-324, P)
    @example(2.2250738585072014e-308, P)
    @example(1e-300, P)
    @example(1.7976931348623157e308, P)
    @example(5e-324, 13)
    @example(2.2250738585072014e-308, 13)
    @example(1e-300, 13)
    @example(1.7976931348623157e308, 13)
    def test_residue_of_every_positive_finite_float(self, w, p):
        exact = Fraction(w)
        assert solver._residues(np.array([w]), p).tolist() == [
            exact.numerator * pow(exact.denominator, -1, p) % p]


def torus(rows, cols):
    """rows x cols grid with wrap-around: 4-regular, n = rows * cols."""
    node = lambda r, c: (r % rows) * cols + (c % cols) + 1
    return Graph(rows * cols, [
        (node(r, c), other, 1.0)
        for r in range(rows) for c in range(cols)
        for other in (node(r, c + 1), node(r + 1, c))
    ])


class TestLargeSparse:
    def test_torus_100x100(self):
        # n = 10^4: the dense grounded block alone would take 800 MB.
        g = torus(100, 100)
        system = build_system(g)
        # The factor's fill, about 6 * 10^5 entries, against 10^8 for the
        # dense block.
        assert system.factor.L.nnz + system.factor.U.nnz < 2 * 10**6
        for a, b in [(1, 5051), (17, 9999), (4242, 4343)]:
            p = solve_pair(system, a, b)
            assert kcl_residual(g, p) <= 1e-9
            assert abs(effective_resistance(system, a, b)
                       - effective_resistance(system, b, a)) <= 1e-12
            assert len(pair_currents(g, p).currents) == g.m


def _loaded_modules(code):
    env = {**os.environ, "PYTHONPATH": str(Path(kcanon.__file__).parents[1])}
    code += "; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.split()


def test_import_leaves_sparse_solver_unloaded():
    # The sparse solver loads on the first build_system, not at import time.
    loaded = _loaded_modules("import sys, kcanon, kcanon.cli")
    assert "scipy.sparse.linalg" not in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    # Nor does the signature analysis load dense SciPy.  (The pseudoinverse
    # solve runs MINRES, whose module loads scipy.linalg.)
    loaded = _loaded_modules(
        "import sys, kcanon; "
        "g = kcanon.Graph(4, [(1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (4, 1, 0.25), (1, 3, 3.0)]); "
        "kcanon.fingerprint(g).digest(); kcanon.orbit_partition(g); "
        "kcanon.canonical_labeling(g); kcanon.iso_screen(g, g)"
    )
    assert "scipy.linalg" not in loaded


def test_fingerprint_through_the_block_inverse_loads_no_scipy():
    # n = 100 inverts L + J/n through the block recursion and its BLAS products.
    loaded = _loaded_modules(
        "import sys, kcanon; "
        "g = kcanon.Graph(100, [(x, x % 100 + 1, 1.0 + x % 3) for x in range(1, 101)]"
        " + [(x, x + 50, 0.5) for x in range(1, 51)]); "
        "kcanon.fingerprint(g).digest()"
    )
    assert "kcanon.signatures" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
