"""Laplacian construction and unit-current pair solves.

Three strategies for the singular system L v = e_a - e_b:

* grounded:       ground node N, factor the (N-1)x(N-1) reduced system once
                  and back-substitute per pair; the default and fastest.
* pseudoinverse:  spectral decomposition of L with the zero mode deflated.
* universal sink: augment with a sink node tied to every node, which makes the
                  system nonsingular but changes the physical network; the
                  result is approximate and flagged as such.

Two kinds of factor serve them:

* build_system: sparse LU (SuperLU) of the block left by deleting node N's
                row and column (grounding N), sliced from a CSC Laplacian
                built from the edge arrays, with a fill-reducing
                minimum-degree ordering and no pivoting (the block is
                symmetric positive definite).  Memory and per-query work grow
                with the fill and m, not with N^2, so point queries run at
                N >= 10^4.  solve_pair, the grounded solve, uses it.
* _pinv_mod:    the pseudoinverse L+ = (L + J/n)^-1 - J/n modulo a prime
                p < 2^21, J the all-ones matrix; the signature analysis
                reads it.  L + J/n is symmetric, and so is every Schur
                complement of it, so the inverse splits the matrix into
                symmetric 2 x 2 blocks and recurses on the leading block and
                its Schur complement with four block products a level, down
                to blocks of at most 32 rows, which the symmetric sweep
                operator inverts on int64 residues.  Gauss-Jordan
                elimination with row pivoting is the one fallback, for a
                zero pivot or a singular leading block, so neither moves p
                to another prime.  Each block product
                is one float64 matrix product through numpy's BLAS: residues
                below 2^21 over an inner dimension of at most 2047 sum below
                2^53, exactly in any order, so the BLAS thread count changes
                no bit.  Longer products, above 4094 rows, are split.

SciPy loads only when a sparse factor is built, so the signature analysis,
whose products use numpy's own BLAS, never loads it.  All voltage vectors are
gauge-fixed to sum to zero, which makes the (b,a) solution the exact
elementwise negation of the (a,b) solution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (
    EigendecompositionFailedError,
    FactorizationFailedError,
    GraphError,
    GraphMismatchError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SecondEigenvalueNearZeroError,
)
from .graph import Graph, _source_sink, _weight

# Incremented by build_system and each prime _pinv_mod tries; lets callers
# assert the factor-once contract.
_factorization_count = 0


def factorization_count() -> int:
    return _factorization_count


def laplacian(graph: Graph) -> np.ndarray:
    """L = D - A as one dense N x N array; symmetric, rows sum to zero."""
    n = graph.n
    L = np.zeros((n, n))
    u, v, w = graph.arrays
    L[u, v] = L[v, u] = -w
    # Subtracting from the zero diagonal, not assigning -sum, keeps it +0.0
    # where a row has no edge.
    L.flat[::n + 1] -= L.sum(axis=1)
    return L


def _sparse_laplacian(graph: Graph, shift: float = 0.0):
    """L + shift * I as an N x N CSC matrix, built from the edge arrays."""
    import scipy.sparse

    u, v, w = graph.arrays
    n = graph.n
    nodes = np.arange(n)
    diagonal = np.bincount(u, w, n) + np.bincount(v, w, n) + shift
    rows = np.concatenate([u, v, nodes])
    cols = np.concatenate([v, u, nodes])
    values = np.concatenate([-w, -w, diagonal])
    return scipy.sparse.csc_matrix((values, (rows, cols)), shape=(n, n))


def _sparse_lu(a):
    """SuperLU factor of a symmetric positive definite CSC matrix.

    The minimum-degree ordering of A^T + A keeps the fill low, and with
    pivoting off the symmetric ordering is kept on both sides.
    """
    import scipy.sparse.linalg

    try:
        return scipy.sparse.linalg.splu(
            a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise FactorizationFailedError(str(exc))


@dataclass(frozen=True)
class LaplacianSystem:
    """Laplacian grounded at node N plus a reusable factor of it.

    factor is the SuperLU sparse LU of the Laplacian without node N's row and
    column, which solves through factor.solve(B).  Under the sum-zero gauge
    the voltages do not depend on which node is grounded.  Immutable after
    construction; solve calls only read the factor.
    """

    graph: Graph
    factor: Any = field(repr=False)


@dataclass(frozen=True)
class VoltageProfile:
    """Node voltages for a unit current injected at a, withdrawn at b."""

    a: int
    b: int
    v: np.ndarray
    method: str = "grounded"
    approximate: bool = False


@dataclass(frozen=True)
class PairCurrents:
    """Per-edge currents i_uv = w_uv (v_u - v_v), oriented by stored edge order."""

    a: int
    b: int
    currents: np.ndarray  # read-only float64, one per stored edge


def _require_two_nodes(graph: Graph) -> None:
    """GraphError below 2 nodes, where no pair and no signature exists."""
    if graph.n < 2:
        raise GraphError("need at least 2 nodes and 1 edge")


def build_system(graph: Graph) -> LaplacianSystem:
    """Sparse LU of the Laplacian grounded at node N, once, for many queries."""
    global _factorization_count
    _require_two_nodes(graph)
    factor = _sparse_lu(_sparse_laplacian(graph)[:-1, :-1])
    _factorization_count += 1
    return LaplacianSystem(graph, factor)


def _injection(n, a, b):
    """e_a - e_b over nodes 1..n; SameSourceSinkError unless a != b are node ids."""
    a, b = _source_sink(n, a, b)
    rhs = np.zeros(n)
    rhs[a - 1] = 1.0
    rhs[b - 1] -= 1.0
    return rhs


# Primes below 2**21: a product of two residues stays below 2**42, so int64
# elimination adds up to 2**21 such products exactly.
_PRIME_BOUND = 2**21


@functools.cache
def _is_odd_prime(q: int) -> bool:
    return all(q % d for d in range(3, math.isqrt(q) + 1, 2))


def _primes():
    """The odd primes below 2**21, largest first, by trial division."""
    return (q for q in range(_PRIME_BOUND - 1, 2, -2) if _is_odd_prime(q))


def _residues(w: np.ndarray, p: int) -> np.ndarray:
    """Each finite float weight M * 2**E (M integer) as M * 2**E mod p, int64.

    2**E mod p comes from a table over the range of the binary exponents,
    with one pow per exponent present; finite floats span about 2,100
    exponents, so the table stays small.
    """
    mantissa, exponent = np.frexp(w)
    low = int(exponent.min())
    exponent -= low
    present = np.flatnonzero(np.bincount(exponent))
    power = np.zeros(present[-1] + 1, dtype=np.int64)
    power[present] = [pow(2, int(e) + low - 53, p) for e in present]
    return np.ldexp(mantissa, 53).astype(np.int64) % p * power[exponent] % p


# Inverses of at most this many rows are computed by the sweep; larger ones
# split into 2 x 2 blocks, which pays from 33 rows on.
_BASE = 32

# (2**21)**2 * 2047 < 2**53: a float64 product of residues below 2**21 over
# an inner dimension of at most 2047, plus a residue, is an exact integer.
_INNER = 2047


def _gauss_jordan(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p, in [0, p), by Gauss-Jordan elimination with row pivoting.

    Entries are integers in (-p, p), int64 or float64; the result is int64.
    Each pivot is one rank-1 update: with the pivot d, the reduced pivot
    column holds d - 1 at the pivot and the scaled pivot row d^-1 + 1, so
    a -= col * row also leaves the pivot row scaled by d^-1, the pivot column
    times -d^-1 and d^-1 at the pivot.  Only the pivot row and column are
    reduced, so other entries grow by less than p**2 a step and stay exact in
    int64 for any k below 2**21; the whole matrix is reduced once, at the
    end.  Raises FactorizationFailedError when a is singular mod p.

    The one fallback of _inverse_mod, for any square matrix, symmetric or
    not: it inverts a block whose sweep meets a zero pivot or whose leading
    block is singular mod p.
    """
    a = a.astype(np.int64)
    swaps = []
    for j in range(len(a)):
        col = a[:, j] % p
        d = int(col[j])
        if not d:
            nonzero = np.flatnonzero(col[j + 1:])
            if not nonzero.size:
                raise FactorizationFailedError(f"matrix is singular modulo {p}")
            r = j + 1 + nonzero[0]
            a[[j, r]], col[[j, r]] = a[[r, j]], col[[r, j]]
            swaps.append((j, r))
            d = int(col[j])
        d_inv = pow(d, -1, p)
        row = a[j] % p
        row *= d_inv
        row %= p
        row[j] = (d_inv + 1) % p
        col[j] = d - 1
        a -= col[:, None] * row
    for j, r in reversed(swaps):
        a[:, [j, r]] = a[:, [r, j]]
    a %= p
    return a


def _sweep(a: np.ndarray, p: int) -> np.ndarray | None:
    """-a^-1 mod p, in [0, p), of a symmetric matrix by the sweep operator; None at a zero pivot.

    Entries are integers in (-p, p), int64 or float64, and a need only be
    symmetric mod p.  Sweeping pivot j with d = a[j, j] sets a[j, j] to
    -d^-1, scales the pivot row and column by d^-1 and subtracts
    a[i, j] a[j, l] d^-1 from every other entry, which keeps the matrix
    symmetric; after the last pivot it holds -a^-1 (Goodnight 1979).  So
    the reduced pivot row serves as the pivot column, and as in
    _gauss_jordan each sweep is one rank-1 update whose other entries grow by
    less than p**2, reduced once at the end.  There is no pivoting: a leading
    principal minor that is 0 mod p gives a zero pivot, and the caller then
    turns to _gauss_jordan.
    """
    a = a.astype(np.int64)
    for j in range(len(a)):
        col = a[j] % p
        d = int(col[j])
        if not d:
            return None
        d_inv = pow(d, -1, p)
        row = col * d_inv
        row %= p
        # a[j, l] - (d - 1) * row[l] = row[l], a[i, j] - col[i] * (1 - d^-1)
        # = col[i] * d^-1; the pivot itself is set after the update.
        row[j] = 1 - d_inv
        col[j] = d - 1
        a -= col[:, None] * row
        a[j, j] = -d_inv
    a %= p
    return a


def _mul_mod(x: np.ndarray, y: np.ndarray, p: int, z: np.ndarray | None = None) -> np.ndarray:
    """z + x @ y mod p, as residues in (-p, p), for float64 residues in (-p, p).

    One BLAS product per 2047 columns of x, each added to the sum so far,
    which is then reduced by subtracting its nearest multiple of p: its
    quotient by p, computed as xy * (1 / p), is off by less than 2/p, so
    rounding misses that multiple by at most one.
    """
    for s in range(0, x.shape[1], _INNER):
        xy = x[:, s:s + _INNER] @ y[s:s + _INNER]
        if z is not None:
            xy += z
        q = xy * (1 / p)
        np.rint(q, out=q)
        q *= p
        xy -= q
        z = xy
    return z


def _block_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """-a^-1 mod p of a symmetric matrix a, both as float64 residues in (-p, p).

    a = [[A, B], [B^T, D]] with A the leading half: with G = -A^-1 from the
    recursion, M = G B = -A^-1 B, S = D + B^T M (the Schur complement,
    invertible when a is) and H = -S^-1, also from the recursion, the
    symmetric Schur step gives -a^-1 = [[G + U M^T, U], [U^T, H]] with
    U = M H = -M S^-1: four products.  a need only be symmetric mod p, as S
    is; the lower-left block C, congruent to B^T, stands in for it.  Up to
    _BASE rows the sweep inverts a, and when A is singular mod p or a pivot of
    the sweep is 0 mod p, Gauss-Jordan elimination inverts a instead.
    """
    k = len(a)
    if k <= _BASE:
        x = _sweep(a, p)
        return (-_gauss_jordan(a, p) if x is None else x).astype(float)
    h = k // 2
    try:
        g = _block_inverse(a[:h, :h], p)
    except FactorizationFailedError:
        return (-_gauss_jordan(a, p)).astype(float)
    m = _mul_mod(g, a[:h, h:], p)
    x = np.empty_like(a)
    x[h:, h:] = _block_inverse(_mul_mod(a[h:, :h], m, p, a[h:, h:]), p)
    x[:h, h:] = _mul_mod(m, x[h:, h:], p)
    x[:h, :h] = _mul_mod(x[:h, h:], m.T, p, g)
    x[h:, :h] = x[:h, h:].T
    return x


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p, as int64 in [0, p), of a symmetric matrix of residues in (-p, p).

    Entries are int64 or float64.  _block_inverse inverts a on float64
    residues: up to _BASE rows by the sweep, above by the symmetric 2 x 2
    block recursion.  Its products go through BLAS: products of residues
    below 2**21 over at most _INNER = 2047 terms, plus a residue, stay below
    2**53, so they are exact integers in any summation order; _mul_mod splits
    longer inner dimensions, which occur only above 4094 rows.  Gauss-Jordan
    elimination, the one fallback, takes over a block when a pivot is 0 mod p
    or its leading block is singular.  The inverse is unique, so the result
    does not depend on which path computed it.  Raises
    FactorizationFailedError when a is singular mod p.
    """
    x = _block_inverse(a.astype(float, copy=False), p)
    x[x > 0] -= p
    np.negative(x, out=x)
    return x.astype(np.int64)


def _pinv_mod(graph: Graph) -> tuple[np.ndarray, int, np.ndarray]:
    """The Laplacian pseudoinverse L+ modulo a prime p, p, and the weights mod p.

    Every float weight is a dyadic rational, so L+ is a matrix of rationals
    whose image mod p is exact: L+ = (L + J/n)^-1 - J/n, with J the all-ones
    matrix and 1/n read as n^-1 mod p.  det(L + J/n) = n * tau, tau the
    weighted spanning-tree count, so p is the largest odd prime below 2**21
    that divides neither n nor tau; neither depends on labels, and a valid
    graph's tau is a nonzero rational, so the walk ends.  Each prime tried
    counts as one factorization.  Entries are int64 in [0, p).
    """
    global _factorization_count
    n = graph.n
    u, v, w = graph.arrays
    diagonal = np.arange(n)
    for p in _primes():
        if n % p == 0:
            continue
        _factorization_count += 1
        r, n_inv = _residues(w, p), pow(n, -1, p)
        # float64, which the block recursion reads without a copy
        a = np.full((n, n), float(n_inv))
        a[u, v] = a[v, u] = n_inv - r
        a[diagonal, diagonal] = (np.bincount(u, r, n) + np.bincount(v, r, n) + n_inv) % p
        try:
            x = _inverse_mod(a, p)
        except FactorizationFailedError:
            continue
        x -= n_inv
        x[x < 0] += p
        return x, p, r
    raise FactorizationFailedError("every prime tried divides n or the weighted spanning-tree count")


def solve_pair(system: LaplacianSystem, a: int, b: int) -> VoltageProfile:
    """Solve via the grounded reduced factor, zero at node N, then shift to the sum-zero gauge."""
    rhs = _injection(system.graph.n, a, b)
    v = np.zeros(len(rhs))
    v[:-1] = system.factor.solve(rhs[:-1])
    v -= v.mean()
    return VoltageProfile(a, b, v, method="grounded")


def solve_pair_pseudoinverse(graph: Graph, a: int, b: int) -> VoltageProfile:
    """Solve via eigendecomposition of L with the zero eigenvalue deflated."""
    n = graph.n
    rhs = _injection(n, a, b)
    L = laplacian(graph)
    try:
        eigvals, eigvecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailedError(str(exc))
    scale = max(eigvals[-1], 1.0)
    if eigvals[1] < 1e-12 * scale:
        raise SecondEigenvalueNearZeroError(
            f"algebraic connectivity {eigvals[1]} is numerically zero"
        )
    # Range of L+ is orthogonal to the all-ones vector, so v is already
    # sum-zero; the final shift only removes rounding in the gauge.
    v = eigvecs[:, 1:] @ ((eigvecs[:, 1:].T @ rhs) / eigvals[1:])
    v -= v.mean()
    return VoltageProfile(a, b, v, method="pseudoinverse")


def solve_pair_universal_sink(
    graph: Graph, a: int, b: int, sink_weight: float = 1.0
) -> VoltageProfile:
    """Solve the sink-augmented system; approximate by construction.

    sink_weight weighs every node's edge to the sink, so like any edge weight
    it must be a positive, finite real number.  With the sink grounded,
    deleting its row/column leaves L + sink_weight * I, which is positive
    definite without removing any original node.
    """
    sink_weight = _weight(sink_weight)
    if not sink_weight > 0:  # catches zero, negative, and NaN, as Graph does
        raise NonPositiveWeightError(f"sink edges have non-positive weight {sink_weight}")
    if sink_weight == float("inf"):
        raise NonFiniteWeightError("sink edges have infinite weight")
    n = graph.n
    rhs = _injection(n, a, b)
    v = _sparse_lu(_sparse_laplacian(graph, sink_weight)).solve(rhs)
    v -= v.mean()
    return VoltageProfile(a, b, v, method="universal-sink", approximate=True)


def _currents(graph: Graph, profile: VoltageProfile) -> np.ndarray:
    """i_uv = w_uv (v_u - v_v) per stored edge, for a profile of this graph."""
    if profile.v.shape != (graph.n,):
        raise GraphMismatchError(
            f"profile has {profile.v.shape[0]} voltages but graph has {graph.n} nodes"
        )
    u, v, w = graph.arrays
    return w * (profile.v[u] - profile.v[v])


def pair_currents(graph: Graph, profile: VoltageProfile) -> PairCurrents:
    """Edge currents from a voltage profile solved on the same graph."""
    currents = _currents(graph, profile)
    currents.flags.writeable = False
    return PairCurrents(profile.a, profile.b, currents)


def kcl_residual(graph: Graph, profile: VoltageProfile) -> float:
    """max-norm of L v - (e_a - e_b), with L v summed edge by edge."""
    u, v, _ = graph.arrays
    i = _currents(graph, profile)
    lv = np.bincount(u, i, graph.n) - np.bincount(v, i, graph.n)
    return float(np.abs(lv - _injection(graph.n, profile.a, profile.b)).max())


def effective_resistance(system: LaplacianSystem, a: int, b: int) -> float:
    """Two-point resistance v_a - v_b under unit current injection."""
    profile = solve_pair(system, a, b)
    return float(profile.v[a - 1] - profile.v[b - 1])
