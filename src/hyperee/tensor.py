"""Adjacency-tensor action and spectral-radius estimation.

The adjacency tensor of an m-uniform hypergraph has entries 1/(m-1)! on all
index permutations of each edge.  Its action on a vector collapses to a sum
of edge products, which is all the numerics below ever need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypergraph import UniformHypergraph, connected_components, degrees


# target relative width of the power-iteration enclosure, and the number of
# iterations per component after which the degree bound is used instead
RADIUS_RTOL = 1e-10
RADIUS_MAX_ITER = 10000


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Certified enclosure lower <= rho <= upper."""

    lower: float
    upper: float
    iterations: int
    method: str  # "power-iteration" or "degree-bound"

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

    Power iteration on the diagonally shifted tensor A + I, run per connected
    component; min/max Collatz-Wielandt ratios at every step enclose rho + 1,
    so the returned interval is valid even before convergence.  If the
    relative width RADIUS_RTOL is not reached within RADIUS_MAX_ITER
    iterations, the upper bound falls back to the degree bound and the
    method tag says so.
    """
    best_lo = 0.0
    best_hi = 0.0
    iters = 0
    converged = True
    for comp in connected_components(h):
        comp_edges = [e for e in h.edges if e[0] in comp]
        if not comp_edges:
            continue  # isolated vertex: contributes rho = 0
        lo, hi, it, ok = _component_enclosure(h.m, comp, comp_edges)
        iters += it
        converged = converged and ok
        best_lo = max(best_lo, lo)
        best_hi = max(best_hi, hi)
    if converged:
        return SpectralRadiusEstimate(best_lo, best_hi, iters, "power-iteration")
    return SpectralRadiusEstimate(best_lo, rho_upper_degree(h), iters, "degree-bound")


def _component_enclosure(
    m: int,
    comp: tuple[int, ...],
    comp_edges: list[tuple[int, ...]],
) -> tuple[float, float, int, bool]:
    local = {v: i for i, v in enumerate(comp)}
    edges_idx = [[local[v] for v in e] for e in comp_edges]
    size = len(comp)
    x = np.ones(size)
    power = m - 1
    lo_best, hi_best = 0.0, float("inf")
    for it in range(1, RADIUS_MAX_ITER + 1):
        xp = x**power
        y = _add_edge_products(edges_idx, x, xp.copy())  # xp: the +I shift
        ratios = y / xp
        lo_best = max(lo_best, float(ratios.min()) - 1.0)
        hi_best = min(hi_best, float(ratios.max()) - 1.0)
        if hi_best - lo_best <= RADIUS_RTOL * max(hi_best, 1e-300):
            return max(lo_best, 0.0), hi_best, it, True
        x = y ** (1.0 / power)
        x /= x.max()
    return max(lo_best, 0.0), hi_best, RADIUS_MAX_ITER, False
