"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the library's own computational
paths: ordinary graphs go through dense integer matrices, traces of any
uniformity through the closed-walk trace formula evaluated by brute force,
hyperstars through their known eigenvalue families, the rotation-orbit
sums of m = 3 and m = 4 through their trigonometric closed forms, and the
m-symmetry labelling through a search of every labelling, and
determinants through elimination over the rationals, so a bug in the
trace engine, the root pipeline, the orbit formula or the labelling solver
cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hyperee.hypergraph import UniformHypergraph


def adjacency_matrix(h: UniformHypergraph) -> np.ndarray:
    """Dense integer adjacency matrix of a 2-uniform hypergraph."""
    assert h.m == 2
    a = np.zeros((h.n, h.n), dtype=np.int64)
    for u, v in h.edges:
        a[u - 1, v - 1] = 1
        a[v - 1, u - 1] = 1
    return a


def matrix_power_sums(h: UniformHypergraph, max_d: int) -> list[int]:
    """[trace(A^d) for d = 0..max_d] over exact integers."""
    a = adjacency_matrix(h).astype(object)
    power = np.eye(h.n, dtype=object)
    out = []
    for _ in range(max_d + 1):
        out.append(int(np.trace(power)))
        power = power @ a
    return out


def closed_walk_trace_terms(h: UniformHypergraph, d: int) -> tuple[Fraction, ...]:
    """The n per-vertex shares of Tr_d by the closed-walk trace formula
    (Shao, Qi & Hu, Linear Multilinear Algebra 63 (2015)), by brute force.

    A pick table x gives every vertex u and edge e containing u a count
    x[u,e] >= 0, with d picks in all; each pick adds the arcs u -> w for
    the m-1 other vertices w of e.  With s_u = sum_e x[u,e], a table whose
    arcs balance at every vertex adds

        (m-1)^n s_v * prod_u s_u! / prod x[u,e]! * C(x) / prod_u ((m-1) s_u)!

    to vertex v's share, C(x) being the number of Eulerian circuits of its
    arc multiset with parallel arcs told apart: W prod_arcs c! / outdeg(w),
    W the closed walks from the smallest active vertex w that use every arc
    once, parallel arcs alike.  Every table is visited, as a composition of
    d over the slots (u, e), and every walk is counted one step at a time.
    """
    m, n = h.m, h.n
    if d == 0:
        return (Fraction((m - 1) ** (n - 1)),) * n
    slots = [(u - 1, e) for e in h.edges for u in e]
    shares = [Fraction(0)] * n
    for x in _compositions(d, len(slots)):
        s, indeg, arcs = [0] * n, [0] * n, {}
        for (u, e), c in zip(slots, x):
            if c:
                s[u] += c
                for w in e:
                    if w - 1 != u:
                        arcs[u, w - 1] = arcs.get((u, w - 1), 0) + c
                        indeg[w - 1] += c
        if any(indeg[v] != (m - 1) * s[v] for v in range(n)):
            continue
        start = min(v for v in range(n) if s[v])
        circuits = Fraction(
            _closed_walks(arcs, start) * math.prod(map(math.factorial, arcs.values())),
            (m - 1) * s[start],
        )
        weight = (
            circuits
            * math.prod(map(math.factorial, s))
            / math.prod(map(math.factorial, x))
            / math.prod(math.factorial((m - 1) * sv) for sv in s)
        )
        for v in range(n):
            shares[v] += s[v] * weight
    return tuple((m - 1) ** n * share for share in shares)


def _compositions(total: int, parts: int):
    """Every list of parts nonnegative integers summing to total, by the
    positions of parts - 1 bars among total + parts - 1 places."""
    if parts == 0:
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        x, prev = [], -1
        for b in (*bars, total + parts - 1):
            x.append(b - prev - 1)
            prev = b
        yield x


def _closed_walks(arcs: dict[tuple[int, int], int], start: int) -> int:
    """Closed walks from start that use arc (u, w) exactly arcs[u, w] times,
    parallel arcs alike, counted by memoised consumption of the arcs."""
    keys = list(arcs)
    leaving: dict[int, list[int]] = {}
    for i, (u, _w) in enumerate(keys):
        leaving.setdefault(u, []).append(i)

    @lru_cache(maxsize=None)
    def walks(current: int, remaining: tuple[int, ...]) -> int:
        if not any(remaining):
            return int(current == start)
        total = 0
        for i in leaving.get(current, ()):
            if remaining[i]:
                rest = list(remaining)
                rest[i] -= 1
                total += walks(keys[i][1], tuple(rest))
        return total

    return walks(start, tuple(arcs.values()))


def has_rotation_labelling(h: UniformHypergraph, modulus: int | None = None) -> bool:
    """Whether some labelling phi: V -> Z_modulus (modulus m by default)
    gives every edge the label sum 1, by trying all modulus^n labellings."""
    modulus = modulus or h.m
    return any(
        all(sum(phi[v - 1] for v in e) % modulus == 1 for e in h.edges)
        for phi in itertools.product(range(modulus), repeat=h.n)
    )


def fraction_determinant(a: list[list[int]]) -> Fraction:
    """Determinant of any square matrix by Gaussian elimination over the
    rationals, swapping in a nonzero pivot wherever one is needed."""
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return det


def matrix_estrada(h: UniformHypergraph) -> float:
    """Classical Estrada index of a graph from dense eigenvalues."""
    eigs = np.linalg.eigvalsh(adjacency_matrix(h).astype(float))
    return float(np.sum(np.exp(eigs)))


def star_family_sizes(m: int, q: int) -> list[int]:
    """Multiplicity of the m-th-roots-of-r eigenvalue family, r = 0..q."""
    a = m ** (m - 2)
    b = (m - 1) ** (m - 1) - a
    return [math.comb(q, r) * a**r * b ** (q - r) for r in range(q + 1)]


def star_trace(m: int, q: int, d: int) -> Fraction:
    """Exact d-th power sum of the hyperstar eigenvalue multiset.

    The nonzero eigenvalues are r^(1/m) times the m-th roots of unity,
    whose d-th powers cancel unless m divides d; then each family
    contributes m * c_r * r^(d/m).
    """
    n = q * (m - 1) + 1
    k = n * (m - 1) ** (n - 1)
    if d == 0:
        return Fraction(k)
    if d % m != 0:
        return Fraction(0)
    c = star_family_sizes(m, q)
    return Fraction(m * sum(c[r] * r ** (d // m) for r in range(1, q + 1)))


def orbit_sum_m3(alpha: float, beta: float) -> float:
    """e^z + e^(wz) + e^(w^2 z), w = e^(2 pi i/3), z = alpha + i beta,
    written out in real trigonometric and hyperbolic functions."""
    root3 = math.sqrt(3.0)
    return (
        2.0
        * math.exp(-alpha / 2.0)
        * (
            math.cos(beta / 2.0)
            * math.cos(root3 * alpha / 2.0)
            * math.cosh(root3 * beta / 2.0)
            - math.sin(beta / 2.0)
            * math.sin(root3 * alpha / 2.0)
            * math.sinh(root3 * beta / 2.0)
        )
        + math.exp(alpha) * math.cos(beta)
    )


def orbit_sum_m4(alpha: float, beta: float) -> float:
    """e^z + e^(iz) + e^(-z) + e^(-iz) for z = alpha + i beta."""
    return 2.0 * (
        math.cos(beta) * math.cosh(alpha) + math.cos(alpha) * math.cosh(beta)
    )


def hyperstar_ee_m3(q: int) -> float:
    """EE of the 3-uniform hyperstar with q edges, one term per r = 0..q."""
    total = float(2 ** (2 * q + 1) * q)
    root3 = math.sqrt(3.0)
    for r in range(q + 1):
        c_r = math.comb(q, r) * 3**r
        x = r ** (1.0 / 3.0)
        total += c_r * (
            2.0 * math.exp(-x / 2.0) * math.cos(root3 * x / 2.0)
            + math.exp(x)
            - 2.0
        )
    return total


def hyperstar_ee_m4(q: int) -> float:
    """EE of the 4-uniform hyperstar with q edges, one term per r = 0..q."""
    total = float(3 ** (3 * q + 1) * q)
    for r in range(q + 1):
        c_r = math.comb(q, r) * 16**r * 11 ** (q - r)
        x = r**0.25
        total += c_r * (2.0 * math.cos(x) + math.exp(-x) + math.exp(x) - 3.0)
    return total
