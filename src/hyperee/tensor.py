"""Adjacency-tensor action and spectral-radius estimation.

The adjacency tensor of an m-uniform hypergraph has entries 1/(m-1)! on all
index permutations of each edge.  Its action on a vector collapses to a sum
of edge products, which is all the numerics below ever need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .hypergraph import UniformHypergraph, connected_components, degrees


# target relative width of the power iteration's float ratios, and the
# iterations per component where it stops; the enclosure is proved either way
RADIUS_RTOL = 1e-10
RADIUS_MAX_ITER = 10000


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Certified enclosure lower <= rho <= upper."""

    lower: float
    upper: float
    iterations: int
    method: str  # always "power-iteration"

    @property
    def width(self) -> float:
        return self.upper - self.lower


def apply(h: UniformHypergraph, x: Sequence[float]) -> np.ndarray:
    """Evaluate (A x^{m-1})_i = sum over edges containing i of prod_{v in e, v != i} x_v.

    x is positional: x[i] belongs to vertex i+1.
    """
    vec = np.asarray(x, dtype=float)
    if vec.shape != (h.n,):
        raise ValueError(f"expected a vector of length {h.n}, got shape {vec.shape}")
    return _add_edge_products([[v - 1 for v in e] for e in h.edges], vec, np.zeros(h.n))


def _add_edge_products(
    edges: list[list[int]], x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Add prod_{v in e, v != i} x_v to out[i] for every edge e (0-based
    index lists) and every i in e, and return out.  When the whole product
    is 0 (a zero entry, or underflow), each term is the product over the
    other vertices itself rather than a quotient."""
    for idx in edges:
        prod = float(np.prod(x[idx]))
        for pos, i in enumerate(idx):
            if prod:
                out[i] += prod / x[i]
            else:
                out[i] += float(np.prod(x[idx[:pos] + idx[pos + 1 :]]))
    return out


def rho_upper_degree(h: UniformHypergraph) -> float:
    """Maximum vertex degree; always an upper bound for the spectral radius."""
    return float(degrees(h).max_degree)


def rho_lower_degree(h: UniformHypergraph) -> float:
    """Largest minimum degree over the connected components: the
    Collatz-Wielandt bound of the all-ones vector on each component, so
    always a lower bound for the spectral radius."""
    deg = degrees(h).degrees
    return float(max(min(deg[v - 1] for v in comp) for comp in connected_components(h)))


def spectral_radius(h: UniformHypergraph) -> SpectralRadiusEstimate:
    """Spectral radius of the adjacency tensor with a certified enclosure.

    Power iteration on the diagonally shifted tensor A + I, per connected
    component, until its float Collatz-Wielandt ratios are RADIUS_RTOL
    apart, RADIUS_MAX_ITER iterations have passed, or an entry of x^{m-1}
    underflows to 0.  For any positive x, min_i and max_i of
    (A x^{m-1})_i / x_i^{m-1} enclose rho (Yang & Yang, SIAM J. Matrix
    Anal. Appl. 31 (2010)); the enclosure is those ratios of the last
    iterate with x^{m-1} positive, exact and rounded outward.
    """
    lower = upper = 0.0
    iters = 0
    for comp in connected_components(h):
        local = {v: i for i, v in enumerate(comp)}
        edges_idx = [[local[v] for v in e] for e in h.edges if e[0] in local]
        if edges_idx:  # an isolated vertex contributes rho = 0
            lo, hi, it = _component_enclosure(h.m - 1, edges_idx, len(comp))
            lower, upper, iters = max(lower, lo), max(upper, hi), iters + it
    return SpectralRadiusEstimate(lower, upper, iters, "power-iteration")


def _component_enclosure(
    power: int, edges_idx: list[list[int]], size: int
) -> tuple[float, float, int]:
    x = prev = np.ones(size)
    for it in range(1, RADIUS_MAX_ITER + 1):
        xp = x**power
        if not xp.min() > 0:  # an entry underflowed: the iterate before is positive
            x, it = prev, it - 1
            break
        y = _add_edge_products(edges_idx, x, xp.copy())  # xp: the +I shift
        ratios = y / xp  # in floats: they only decide when to stop
        lo, hi = float(ratios.min()) - 1.0, float(ratios.max()) - 1.0
        if hi - lo <= RADIUS_RTOL * max(hi, 1e-300):
            break
        prev, x = x, y ** (1.0 / power)
        x /= x.max()
    return (*_collatz_wielandt(power, edges_idx, x), it)


def _collatz_wielandt(
    power: int, edges_idx: list[list[int]], x: np.ndarray
) -> tuple[float, float]:
    """min_i and max_i of (A x^power)_i / x_i^power, exactly, rounded outward.

    Each float is an integer times a power of two, so the ratios are
    Fractions of integers once x is scaled by the largest denominator; x
    must be positive.
    """
    pairs = [v.as_integer_ratio() for v in x.tolist()]
    shift = max(den.bit_length() for _, den in pairs)
    big = [num << (shift - den.bit_length()) for num, den in pairs]
    sums = [0] * len(big)
    for idx in edges_idx:
        prod = math.prod(big[v] for v in idx)
        for i in idx:
            sums[i] += prod // big[i]
    ratios = [Fraction(s, b**power) for s, b in zip(sums, big)]
    lo, hi = min(ratios), max(ratios)
    lower, upper = float(lo), float(hi)
    return (math.nextafter(lower, 0.0) if lower > lo else lower,
            math.nextafter(upper, math.inf) if upper < hi else upper)
