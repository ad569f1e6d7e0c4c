"""Correctness oracles for the benchmark.

None of these share code with the hyperee engine: the m=2 checks use dense
numpy linear algebra, and the radius oracle is an independent vectorised
implementation of the shifted NQZ power iteration whose Collatz-Wielandt
ratios enclose the spectral radius of every connected component.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps


def dense_adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    return a


def graph_ee(n: int, edges) -> float:
    """Estrada index of a simple graph: sum of e^lambda over the dense spectrum."""
    return float(np.exp(np.linalg.eigvalsh(dense_adjacency(n, edges))).sum())


def graph_radius(n: int, edges) -> tuple[float, float]:
    lam = float(np.linalg.eigvalsh(dense_adjacency(n, edges))[-1])
    slack = 64 * EPS * n * max(lam, 1.0)
    return lam - slack, lam + slack


def _components(n: int, idx: np.ndarray) -> list[np.ndarray]:
    """Edge-row indices of each connected component that has edges."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for row in idx.tolist():
        r = find(row[0])
        for v in row[1:]:
            parent[find(v)] = r
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(idx.tolist()):
        groups.setdefault(find(row[0]), []).append(i)
    return [np.array(rows) for rows in groups.values()]


def tensor_radius(
    m: int, n: int, edges, tol: float = 1e-12, max_iter: int = 20000
) -> tuple[float, float]:
    """Certified enclosure [lo, hi] of the adjacency-tensor spectral radius.

    Every positive vector gives a valid enclosure, so stopping at max_iter
    only widens it.
    """
    if not edges:
        return 0.0, 0.0
    idx = np.asarray(edges, dtype=np.int64) - 1
    lo_all = hi_all = 0.0
    for rows in _components(n, idx):
        sub = idx[rows]
        verts, local = np.unique(sub, return_inverse=True)
        local = local.reshape(sub.shape)
        size = len(verts)
        x = np.ones(size)
        lo, hi = 0.0, math.inf
        for _ in range(max_iter):
            xp = x ** (m - 1)
            vals = x[local]
            y = xp.copy()
            for j in range(m):
                others = np.prod(np.delete(vals, j, axis=1), axis=1)
                y += np.bincount(local[:, j], weights=others, minlength=size)
            ratios = y / xp
            lo = max(lo, float(ratios.min()) - 1.0)
            hi = min(hi, float(ratios.max()) - 1.0)
            if hi - lo <= tol * hi:
                break
            x = y ** (1.0 / (m - 1))
            x /= x.max()
        lo_all = max(lo_all, lo)
        hi_all = max(hi_all, hi)
    return lo_all, hi_all


def ee_slack(k: int, ref: float) -> float:
    """Float rounding allowance for an exp-sum over k eigenvalues."""
    return 16 * EPS * k * max(1.0, abs(ref))


def check_ee(res, tol: float, ref: float, ref_bound: float, k: int) -> str | None:
    """None when an EstradaResult is a certified answer matching the reference."""
    if not res.converged:
        return "series stopped by the feasibility guard"
    if not res.error_bound <= tol:
        return f"error_bound {res.error_bound:.3g} above tol {tol:g}"
    dev = abs(res.value - ref)
    allowed = res.error_bound + ref_bound + ee_slack(k, ref)
    if not dev <= allowed:
        return f"value {res.value!r} off reference {ref!r} by {dev:.3g} > {allowed:.3g}"
    return None


def check_bounds(payload: dict, rho_ref: tuple[float, float]) -> str | None:
    """None when a `hyperee bounds` report encloses the reference radius and
    its lower bound sits below every upper bound."""
    rel = 1e-9  # the CLI rounds to 10 significant digits
    lo, hi = payload["rho"]["lower"], payload["rho"]["upper"]
    if lo > rho_ref[1] * (1 + rel) + 1e-12 or hi < rho_ref[0] * (1 - rel) - 1e-12:
        return f"radius enclosure [{lo}, {hi}] misses reference {rho_ref}"
    lower = payload["lower_basic"]
    for key in ("upper_basic", "upper_moment", "upper_moment_adjusted",
                "upper_radius", "upper_radius_adjusted"):
        up = payload[key]
        if up is not None and lower > up * (1 + rel):
            return f"lower_basic {lower} exceeds {key} {up}"
    return None
