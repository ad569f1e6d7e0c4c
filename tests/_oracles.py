"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the library's own computational
paths: ordinary graphs go through dense integer matrices, traces of any
uniformity through the closed-walk trace formula evaluated by brute force,
hyperstars through their definition and their known eigenvalue families,
the rotation-orbit sums of m = 3 and m = 4 through their trigonometric
closed forms, the m-symmetry labelling through a search of every
labelling, determinants through elimination over the rationals, the
split sums of pick totals through the whole Laplacian of every split,
the pick totals themselves through a search of every vector,
connected components through union-find over the edges, a graph's odd
closed walks through a breadth-first 2-colouring,
and isomorphism of weighted supports through every bijection of their
edges, so a bug in the trace engine, its class keys, the root pipeline,
the orbit formula, the star test or the labelling solver cannot hide in
its own oracle.  One helper, series_tail, is no oracle: it indexes the
library's own series tail bounds by order, for the tests that check them
against mpmath and use them.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hyperee.estrada import _series_tails
from hyperee.hypergraph import UniformHypergraph


def union_find_components(h: UniformHypergraph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, isolated vertices included,
    each ascending and ordered by their least vertices: union-find with
    path halving, every edge's vertices joined to its first."""
    parent = list(range(h.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in h.edges:
        r = find(e[0])
        for v in e[1:]:
            parent[find(v)] = r
    groups: dict[int, list[int]] = {}
    for v in range(1, h.n + 1):
        groups.setdefault(find(v), []).append(v)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


def is_bipartite(h: UniformHypergraph) -> bool:
    """Whether a graph's vertices 2-colour so that every edge joins both
    colours, by breadth-first search from each uncoloured vertex; a graph
    has an odd closed walk exactly when they do not."""
    assert h.m == 2
    neighbours: list[list[int]] = [[] for _ in range(h.n + 1)]
    for u, v in h.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour: list[int | None] = [None] * (h.n + 1)
    for root in range(1, h.n + 1):
        if colour[root] is not None:
            continue
        colour[root], queue = 0, deque([root])
        while queue:
            u = queue.popleft()
            for v in neighbours[u]:
                if colour[v] is None:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def adjacency_matrix(h: UniformHypergraph) -> np.ndarray:
    """Dense integer adjacency matrix of a 2-uniform hypergraph."""
    assert h.m == 2
    a = np.zeros((h.n, h.n), dtype=np.int64)
    for u, v in h.edges:
        a[u - 1, v - 1] = 1
        a[v - 1, u - 1] = 1
    return a


def matrix_power_diagonals(h: UniformHypergraph, max_d: int) -> list[tuple[int, ...]]:
    """[diagonal of A^d for d = 0..max_d] over exact integers."""
    a = adjacency_matrix(h).astype(object)
    power = np.eye(h.n, dtype=object)
    out = []
    for _ in range(max_d + 1):
        out.append(tuple(int(x) for x in np.diagonal(power)))
        power = power @ a
    return out


def matrix_power_sums(h: UniformHypergraph, max_d: int) -> list[int]:
    """[trace(A^d) for d = 0..max_d] over exact integers."""
    return [sum(diagonal) for diagonal in matrix_power_diagonals(h, max_d)]


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


def full_laplacian_table_sum(
    m: int, n: int, edges: list[tuple[int, ...]], sigma: tuple[int, ...], s: list[int]
) -> int:
    """Sum of trees(x) * prod_e sigma_e! / prod x! over every split x of
    the per-edge totals sigma among the vertices of each edge (0-based),
    x[v,e] picks of e by v, with row sums s_v.

    trees(x) is the determinant, over the rationals, of the split's whole
    out-degree Laplacian with the smallest active vertex's row and column
    removed: diagonal (m-1) s_v, and each pick x[v,e] takes x[v,e] off row
    v in the columns of e's other vertices.  Every active vertex, leaf or
    not, gets its own row and its own share of every split; the recursion
    applies a pick on the way down and takes it back on backtrack."""
    support = [v for v in range(n) if s[v]]
    root = support[0]
    index = {v: i for i, v in enumerate(support[1:])}
    lap = [[0] * len(index) for _ in index]
    for v, i in index.items():
        lap[i][i] = (m - 1) * s[v]
    active = [i for i, se in enumerate(sigma) if se > 0]
    # per active edge, one split step per vertex: the vertex, how much it
    # can still pick from the edges after this one, its reduced Laplacian
    # row and the columns of the edge's other vertices (none for the root)
    steps = []
    running = [0] * n
    for e_idx in reversed(active):
        e = edges[e_idx]
        steps.append([
            (v, running[v], lap[index[v]] if v != root else [],
             [index[u] for u in e if u != v and u != root] if v != root else [])
            for v in e
        ])
        for v in e:
            running[v] += sigma[e_idx]
    steps.reverse()
    remaining = list(s)
    total = 0

    def edge_rec(pos: int, weight: int) -> None:
        nonlocal total
        if pos == len(active):
            total += weight * fraction_determinant(lap)
            return
        owed = sum(remaining[v] for v in edges[active[pos]])
        split_rec(steps[pos], pos, 0, sigma[active[pos]], owed, weight)

    def split_rec(step, pos, vi, left, owed, weight) -> None:
        # left: picks of this edge still to hand out among vertices vi..;
        # owed: what those vertices must still pick in total
        v, cap, row, cols = step[vi]
        need = remaining[v]
        if vi == m - 1:
            if left > need or need - left > cap:
                return
            lo = hi = left
        else:
            owed -= need
            lo, hi = max(0, need - cap, left - owed), min(left, need)
        for x in range(lo, hi + 1):
            remaining[v] = need - x
            for c in cols:
                row[c] -= x
            if vi == m - 1:
                edge_rec(pos + 1, weight)
            else:
                split_rec(step, pos, vi + 1, left - x, owed, weight * math.comb(left, x))
            for c in cols:
                row[c] += x
        remaining[v] = need

    edge_rec(0, 1)
    assert total.denominator == 1
    return int(total)


def sigma_candidates(
    m: int, n: int, edges: list[tuple[int, ...]], lo: int, hi: int, max_selections: int
) -> dict[int, list[tuple[int, ...]]] | int:
    """The sigma candidates of orders lo..hi, by order, each order's in
    lexicographic order: the vectors of per-edge pick totals with that sum
    whose vertex totals are all multiples of m and whose active edges are
    connected.  Every vector with sum at most hi is visited, with no
    pruning.  Or, when the budget refuses an order, the first refused one:
    an order is refused when its closed-form work (n^3 per bit of the
    order for a graph, else its C(d+q-1, q-1) vectors over q edges), or
    the predicted tables prod_e C(sigma_e+m-1, m-1) of its candidates,
    summed, exceed max_selections."""
    q = len(edges)

    def vectors(parts: int, most: int):
        if parts == 0:
            yield ()
            return
        for first in range(most + 1):
            for rest in vectors(parts - 1, most - first):
                yield (first, *rest)

    def connected(active: list[set[int]]) -> bool:
        if not active:
            return False
        seen, rest = set(active[0]), active[1:]
        while rest:
            near = [e for e in rest if e & seen]
            if not near:
                return False
            rest = [e for e in rest if not e & seen]
            for e in near:
                seen |= e
        return True

    found: dict[int, list[tuple[int, ...]]] = {}
    for sigma in vectors(q, hi):
        if sum(sigma) < lo:
            continue
        totals = [sum(s for s, e in zip(sigma, edges) if v in e) for v in range(n)]
        if all(t % m == 0 for t in totals) and connected(
                [set(e) for s, e in zip(sigma, edges) if s]):
            found.setdefault(sum(sigma), []).append(sigma)
    for d in range(lo, hi + 1):
        work = n**3 * d.bit_length() if m == 2 else math.comb(d + q - 1, q - 1)
        tables = sum(math.prod(math.comb(s + m - 1, m - 1) for s in sigma if s)
                     for sigma in found.get(d, []))
        if max(work, tables) > max_selections:
            return d
    return found


def weighted_supports_isomorphic(f, g) -> bool:
    """Whether two weighted edge sets, each a sequence of (total, edge)
    pairs with at most 6 edges, are isomorphic: some bijection of the
    edges keeps every total and comes from a bijection of the vertices.

    Every bijection of the edges is tried.  One comes from a bijection of
    the vertices exactly when, with each vertex described by the set of
    positions of the edges that hold it, the first side's descriptions
    carried through the bijection are the second side's, counted with
    multiplicity: vertices with equal descriptions can be exchanged."""
    assert len(f) <= 6 and len(g) <= 6
    if len(f) != len(g):
        return False

    def holders(side) -> dict:
        seen: dict = {}
        for j, (_total, edge) in enumerate(side):
            for v in edge:
                seen.setdefault(v, set()).add(j)
        return seen

    f_holders, g_holders = holders(f).values(), holders(g).values()
    want = sorted(sorted(h) for h in g_holders)
    for image in itertools.permutations(range(len(g))):
        if all(f[j][0] == g[image[j]][0] for j in range(len(f))):
            if sorted(sorted(image[j] for j in h) for h in f_holders) == want:
                return True
    return False


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


def is_hyperstar(h: UniformHypergraph) -> bool:
    """One vertex lies in every edge, any two edges meet only there, and no
    vertex is isolated; checked on every pair of edges."""
    if not h.edges or set().union(*h.edges) != set(range(1, h.n + 1)):
        return False
    return any(
        all(set(e) & set(f) == {v} for e, f in itertools.combinations(h.edges, 2))
        for v in set(h.edges[0]).intersection(*h.edges)
    )


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


def series_tail(k: int, rho: float, d: int) -> float:
    """The library's upper bound on k * sum_{j >= d} rho^j / j!: item d of
    estrada._series_tails(k, rho)."""
    return next(itertools.islice(_series_tails(k, rho), d, None))
