"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the library's own computational
paths: ordinary graphs go through dense integer matrices, hyperstars
through their known eigenvalue families, the rotation-orbit sums of
m = 3 and m = 4 through their trigonometric closed forms, and the
m-symmetry labelling through a search of every labelling, so a bug in the
trace engine, the root pipeline, the orbit formula or the labelling solver
cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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


def has_rotation_labelling(h: UniformHypergraph, modulus: int | None = None) -> bool:
    """Whether some labelling phi: V -> Z_modulus (modulus m by default)
    gives every edge the label sum 1, by trying all modulus^n labellings."""
    modulus = modulus or h.m
    return any(
        all(sum(phi[v - 1] for v in e) % modulus == 1 for e in h.edges)
        for phi in itertools.product(range(modulus), repeat=h.n)
    )


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
