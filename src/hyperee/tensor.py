"""Adjacency-tensor action and spectral-radius estimation.

The adjacency tensor of an m-uniform hypergraph has entries 1/(m-1)! on all
index permutations of each edge.  Its action on a vector collapses to a sum
of edge products, which is all the numerics below ever need.  The radius
iteration starts a graph power (loose paths, hyperstars, graphs) from its
graph's lifted Perron vector (Zhou, Sun, Wang & Bu, EJC 21(4) 2014).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .hypergraph import UniformHypergraph, _incidence, connected_components, degrees
from .traces import Budget


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
    method: str  # the start vector: "power-lift" or "power-iteration"

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
    return _add_edge_products([list(e) for e in _incidence(h)[0]], vec, np.zeros(h.n))


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
    iterate with x^{m-1} positive, exact and rounded outward.  It starts
    from _lifted_start where that applies, else all ones; method is
    "power-lift" when every component with edges (at least one) started
    lifted.  One pass over the incidence groups the edges by the
    component label of their first vertex, each vertex indexed by its
    place in its component.
    """
    edges, _, label = _incidence(h)
    place, size = [0] * h.n, dict.fromkeys(label, 0)  # per vertex, and per component label
    for v, root in enumerate(label):
        place[v], size[root] = size[root], size[root] + 1
    groups: dict[int, list[list[int]]] = {}
    for e in edges:
        groups.setdefault(label[e[0]], []).append([place[v] for v in e])
    lower = upper = 0.0
    iters, lifted = 0, bool(groups)
    for root, edges_idx in groups.items():  # an isolated vertex has none: rho = 0
        lo, hi, it, lift = _component_enclosure(h.m - 1, edges_idx, size[root])
        lower, upper, iters = max(lower, lo), max(upper, hi), iters + it
        lifted = lifted and lift
    return SpectralRadiusEstimate(
        lower, upper, iters, "power-lift" if lifted else "power-iteration")


def _component_enclosure(
    power: int, edges_idx: list[list[int]], size: int
) -> tuple[float, float, int, bool]:
    start = _lifted_start(power + 1, edges_idx, size)
    x = prev = np.ones(size) if start is None else start
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
    return (*_collatz_wielandt(power, edges_idx, x), it, start is not None)


def _lifted_start(m: int, edges_idx: list[list[int]], size: int) -> np.ndarray | None:
    """The Perron vector of a component that is the m-th power of a graph
    G on at most Budget().max_degree vertices, or None.

    G's edges are each edge's vertices of degree >= 2, at most two and
    padded to two with its degree-1 ones; parallel edges count twice.
    With (lam, y) G's top eigenpair, x_v = y_v^(2/m) on G's vertices and
    (y_u y_v / lam)^(1/m) on the other vertices of edge uv, for rho =
    lam^(2/m) (Zhou, Sun, Wang & Bu, EJC 21(4) 2014).  A regular
    component gets None: all ones is its Perron vector already.
    """
    if len(edges_idx) == 1:  # a lone edge is regular
        return None
    deg = [0] * size
    for idx in edges_idx:
        for v in idx:
            deg[v] += 1
    cap = Budget().max_degree
    if min(deg) == max(deg) or sum(d > 1 for d in deg) > cap:  # each is in G
        return None
    pairs = []
    for idx in edges_idx:
        pair = [v for v in idx if deg[v] > 1]
        if len(pair) > 2:
            return None
        pairs += pair + [v for v in idx if deg[v] == 1][: 2 - len(pair)]
    core, ends = np.unique(pairs, return_inverse=True)
    if len(core) > cap:
        return None
    u, v = ends.reshape(-1, 2).T
    a = np.zeros((len(core), len(core)))
    np.add.at(a, (u, v), 1.0)
    lam, vec = np.linalg.eigh(a + a.T)
    y = np.abs(vec[:, -1])
    x = np.empty(size)
    x[np.array(edges_idx)] = ((y[u] * y[v] / lam[-1]) ** (1.0 / m))[:, None]
    x[core] = y ** (2.0 / m)
    return x if x.min() > 0 else None


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
