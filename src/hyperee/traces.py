"""Exact high-order traces of hypergraph adjacency tensors.

The d-th order trace of an order-m tensor reduces, for adjacency tensors of
m-uniform hypergraphs, to a weighted count of closed arc sequences: every
vertex i picks a multiset of incident edges (d_i picks in total across all
vertices, sum d_i = d), each pick contributes the m-1 arcs from i into the
rest of the edge, and the resulting arc multiset must support a closed walk
using every arc exactly once.  Walk counts come from the arborescence form of
the Eulerian-circuit count (matrix-tree determinant, exact integers); the
per-vertex pick multisets are enumerated directly in their balanced form,
which prunes the search to configurations with equal in- and out-degree at
every vertex.  The splits of the picks are summed in integers against a
Laplacian kept up to date pick by pick, and the per-vertex shares are summed
in integers over one common denominator.

Graphs (m = 2) take their traces tr(A^d) from matrix powers instead, taken
in floating point modulo several moduli small enough to keep every product
an exact integer, and put together by the Chinese remainder theorem; the
per-vertex decomposition stays on the Eulerian engine for every m, so the
two routes check each other on graphs.

Every result is exact: Python integers and fractions.Fraction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .hypergraph import UniformHypergraph


class FeasibilityError(RuntimeError):
    """Raised when a computation would exceed its enumeration budget."""


@dataclass(frozen=True)
class Budget:
    """Resource limits for exact computations."""

    max_degree: int = 128  # largest eigenvalue count for full-spectrum work
    # predicted edge-pick configurations per trace order; for graphs, the
    # matrix-power work n^3 per bit of the order
    max_selections: int = 10**9


@dataclass(frozen=True)
class TraceSequence:
    """Traces of orders 0..D; values[d] is the exact d-th order trace."""

    m: int
    n: int
    values: tuple[Fraction, ...]


def trace_d(
    h: UniformHypergraph,
    d: int,
    budget: Budget | None = None,
) -> Fraction:
    """Exact d-th order trace of the adjacency tensor.

    Order 0 is the eigenvalue count n(m-1)^(n-1) by convention.  Orders
    1..m-1 vanish; order m equals m^(m-1) (m-1)^(n-m) |E|.  For graphs
    (m = 2) this is tr(A^d), from exact matrix powers whose work,
    n^3 per bit of d, is charged to the selection budget.

    An order the budget admits that m does not divide is 0 without any
    enumeration when _order_step proves it zero.  The full engine finds
    no candidate there, so values and refusals are the same either way.
    """
    budget = budget or Budget()
    if (d > h.m and d % h.m
            and _closed_form_work(h.m, h.n, len(h.edges), d) <= budget.max_selections
            and _order_step(h, d) == h.m):
        return Fraction(0)
    if h.m == 2 and d >= 0:
        _check_graph_budget(h.n, d, budget)
        return Fraction(_graph_trace(h, d))
    return sum(vertex_trace_terms(h, d, budget), Fraction(0))


def _closed_form_work(m: int, n: int, q: int, d: int) -> int:
    """What the budget charges order d before any enumeration: n^3 per bit
    of d for a graph's matrix powers, and for m >= 3 the C(d+q-1, q-1)
    vectors of per-edge pick totals with sum d over q edges."""
    if m == 2:
        return n**3 * d.bit_length()
    return math.comb(d + q - 1, q - 1) if q else 0


def _max_admitted_order(h: UniformHypergraph, budget: Budget) -> int:
    """The highest order up to budget.max_degree that _closed_form_work
    admits; the work grows with d, so no higher order can be computed."""
    d = 0
    while (d < budget.max_degree
           and _closed_form_work(h.m, h.n, len(h.edges), d + 1) <= budget.max_selections):
        d += 1
    return d


def _check_graph_budget(n: int, d: int, budget: Budget) -> None:
    if _closed_form_work(2, n, 0, d) > budget.max_selections:
        raise FeasibilityError(
            f"trace enumeration infeasible (n={n}, m=2, d={d}): matrix-power "
            f"work n^3*bits(d) exceeds {budget.max_selections}"
        )


def _graph_trace(h: UniformHypergraph, d: int) -> int:
    """tr(A^d) exactly, by the Chinese remainder theorem over float64
    matrix powers modulo pairwise coprime p with n p^2 < 2^53, so every
    matrix product is an exact integer before it is reduced mod p."""
    n = h.n
    adj = np.zeros((n, n))
    for u, v in h.edges:
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1.0
    bound = n * int(adj.sum(axis=0).max(initial=0)) ** d  # tr(A^d) <= n Delta^d
    p = math.isqrt(2**53 // n)
    value, modulus = 0, 1
    while modulus <= bound:
        if math.gcd(p, modulus) == 1:
            power, base, e = np.identity(n), adj, d
            while e:
                if e & 1:
                    power = power @ base % p
                e >>= 1
                if e:
                    base = base @ base % p
            residue = int(np.trace(power))
            value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
            modulus *= p
        p -= 1
    return value


def trace_sequence(
    h: UniformHypergraph,
    max_d: int,
    budget: Budget | None = None,
) -> TraceSequence:
    """Traces of all orders 0..max_d (the spectral power sums, by order).

    The selection budget of every order is checked before any order is
    computed, so a request that some order cannot meet is refused in
    milliseconds rather than after the cheaper orders.  The orders
    _order_step proves zero are 0 without being checked or computed.
    """
    if max_d < 0:
        raise ValueError("max_d must be >= 0")
    budget = budget or Budget()
    step = _order_step(h, min(max_d, _max_admitted_order(h, budget)))
    orders = range(0, max_d + 1, step)
    if h.m == 2:
        _check_graph_budget(h.n, orders[-1], budget)  # the work grows with d
    elif h.edges:
        # trace_d enumerates each order's candidates again: it stays the one
        # per-order entry point, and the enumeration is a small share of an
        # order's work (3-26% on the n=4 inputs, the least on the costliest)
        ctx = _EnumerationContext(h)
        for d in orders[1:]:
            _sigma_candidates(ctx, d, budget)
    values = [Fraction(0)] * (max_d + 1)
    for d in orders:
        values[d] = trace_d(h, d, budget)
    return TraceSequence(h.m, h.n, tuple(values))


def _order_step(h: UniformHypergraph, top: int) -> int:
    """The step between the orders up to top that can be nonzero: m when
    _rotation_labelling finds a labelling, else 1.  None is sought unless
    top > m, because orders 1..m-1 vanish anyway."""
    return h.m if top > h.m and _rotation_labelling(h) is not None else 1


@lru_cache(maxsize=8)  # the series asks at every order, auto on both routes
def _rotation_labelling(h: UniformHypergraph) -> tuple[int, ...] | None:
    """A labelling phi of the vertices by Z_m with sum_{v in e} phi(v) = 1
    (mod m) on every edge e, or None if there is none.

    A labelling proves Tr_d = 0 for every order d that m does not divide.
    Tr_d is a sum over the sigma candidates of order d: per-edge pick totals
    sigma_e with sum_e sigma_e = d whose vertex totals
    t_v = sum_{e containing v} sigma_e are all divisible by m.  For such a
    sigma, 0 = sum_v phi(v) t_v = sum_e sigma_e sum_{v in e} phi(v)
    = sum_e sigma_e = d (mod m), so no order with m not dividing d has a
    candidate.  The spectrum is then m-symmetric.  For m = 2 a labelling is a
    proper 2-colouring, so this is a bipartiteness test.

    Each component is labelled edge by edge in breadth-first order, every
    label an affine form in free parameters.  An edge with unlabelled
    vertices is made to sum to 1 by its last unlabelled vertex, and its
    other unlabelled vertices become parameters; an edge labelled
    throughout already is an equation on the parameters.  Every labelling
    arises this way, so the equations decide existence; a graph component
    has one parameter, and a hypertree no equation (a form can grow with
    the length of a chain of edges, so the work is quadratic in the worst
    case).  The equations are solved exactly (_solve_mod), and the
    labelling is checked edge by edge before it is returned.
    """
    m = h.m
    incident: list[list[tuple[int, ...]]] = [[] for _ in range(h.n + 1)]
    for e in h.edges:
        for v in e:
            incident[v].append(e)
    labels = [0] * (h.n + 1)
    forms: dict[int, dict[int, int]] = {}  # {parameter: coefficient}, constant at -1
    seen: set[tuple[int, ...]] = set()
    for root in range(1, h.n + 1):
        if root in forms:
            continue
        component, params, equations = [], 0, []
        queue = deque([root])
        while queue:
            for e in incident[queue.popleft()]:
                if e in seen:
                    continue
                seen.add(e)
                free = [v for v in e if v not in forms]
                if not free:
                    equations.append(e)
                    continue
                for v in free[:-1]:
                    forms[v] = {params: 1}
                    params += 1
                form = {-1: 1}
                for u in e:
                    if u != free[-1]:
                        for key, c in forms[u].items():
                            form[key] = (form.get(key, 0) - c) % m
                forms[free[-1]] = form
                component += free
                queue.extend(free)
        a = np.zeros((len(equations), params), dtype=np.int64)
        b = np.ones(len(equations), dtype=np.int64)
        for i, e in enumerate(equations):
            for v in e:
                for key, c in forms[v].items():
                    if key < 0:
                        b[i] -= c
                    else:
                        a[i, key] += c
        values = _solve_mod(a, b, m) if equations else np.zeros(params, dtype=np.int64)
        if values is None:
            return None
        for v in component:
            form = forms[v]
            labels[v] = sum(c * int(values[key]) if key >= 0 else c for key, c in form.items()) % m
    labelling = tuple(labels[1:])
    if any(sum(labelling[v - 1] for v in e) % m != 1 for e in h.edges):
        return None  # correctness rests on this check, not on the solver
    return labelling


def _solve_mod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray | None:
    """Some x with a @ x = b (mod m), or None: solved modulo each prime
    power of m and joined by the Chinese remainder theorem."""
    x = np.zeros(a.shape[1], dtype=np.int64)
    p, rest = 2, m
    while rest > 1:
        if rest % p == 0:
            power = 1
            while rest % p == 0:
                rest //= p
                power *= p
            part = _solve_mod_prime_power(a, b, p, power)
            if part is None:
                return None
            cofactor = m // power
            x = (x + part * (cofactor * pow(cofactor, -1, power))) % m
        p += 1
    return x


def _solve_mod_prime_power(
    a: np.ndarray, b: np.ndarray, p: int, modulus: int
) -> np.ndarray | None:
    """Some x with a @ x = b (mod modulus), modulus a power of the prime p,
    or None if there is none.

    Row operations and column swaps bring a to upper triangular form whose
    pivot on row r is u * p^k (u a unit) with every later entry of the row
    divisible by p^k, because each pivot has the least p-adic valuation
    left; this is complete over Z/p^a, where elimination mod p alone is
    not.  Row r is then solvable exactly when p^k divides its right-hand
    side, and the rows past the rank need a zero right-hand side.
    """
    rows, cols = a.shape
    work = np.concatenate([a, b[:, None]], axis=1) % modulus
    columns = np.arange(cols)  # column j of work holds variable columns[j]
    scales = []  # p^k of each pivot
    for r in range(min(rows, cols)):
        block = work[r:, r:cols]
        scale = 1
        while scale < modulus and not (block % (scale * p)).any():
            scale *= p
        if scale == modulus:
            break  # the rest of the coefficients vanish mod p^a
        i, j = (int(t) + r for t in np.argwhere(block % (scale * p))[0])
        work[[r, i]] = work[[i, r]]
        work[:, [r, j]] = work[:, [j, r]]
        columns[[r, j]] = columns[[j, r]]
        unit_inv = pow(int(work[r, r]) // scale, -1, modulus)
        below = r + 1 + np.flatnonzero(work[r + 1:, r])
        factors = (work[below, r] // scale) * unit_inv % modulus
        work[below, r:] = (work[below, r:] - np.outer(factors, work[r, r:])) % modulus
        scales.append(scale)
    rank = len(scales)
    if work[rank:, cols].any():
        return None
    y = np.zeros(cols, dtype=np.int64)
    for r in reversed(range(rank)):
        rhs = int(work[r, cols] - work[r, r + 1:cols] @ y[r + 1:]) % modulus
        if rhs % scales[r]:
            return None
        unit_inv = pow(int(work[r, r]) // scales[r], -1, modulus)
        y[r] = rhs // scales[r] * unit_inv % modulus
    x = np.zeros(cols, dtype=np.int64)
    x[columns] = y
    return x


def vertex_trace_terms(
    h: UniformHypergraph,
    d: int,
    budget: Budget | None = None,
) -> tuple[Fraction, ...]:
    """All n per-vertex trace shares of order d, exactly; entry j-1 is
    vertex j's share.  The shares sum to trace_d, and the order-0 share is
    (m-1)^(n-1) for every vertex.
    """
    if d < 0:
        raise ValueError("trace order d must be >= 0")
    budget = budget or Budget()
    if d == 0:
        share = Fraction((h.m - 1) ** (h.n - 1))
        return tuple([share] * h.n)
    if not h.edges:
        return tuple([Fraction(0)] * h.n)

    ctx = _EnumerationContext(h)
    candidates = _sigma_candidates(ctx, d, budget)
    if not candidates:
        return tuple([Fraction(0)] * h.n)

    acc = _accumulate(ctx, candidates)
    scale = (h.m - 1) ** h.n
    return tuple(a * scale for a in acc)


class _EnumerationContext:
    """Edge/vertex incidence tables shared by the enumeration passes."""

    def __init__(self, h: UniformHypergraph):
        self.m = h.m
        self.n = h.n
        self.edges = [tuple(v - 1 for v in e) for e in h.edges]
        self.incidence: list[list[int]] = [[] for _ in range(h.n)]
        for idx, e in enumerate(self.edges):
            for v in e:
                self.incidence[v].append(idx)
        # last edge index touching each vertex: the point where its pick
        # total is final and divisibility can be checked
        self.last_edge = [inc[-1] if inc else -1 for inc in self.incidence]


def _sigma_candidates(ctx: _EnumerationContext, d: int, budget: Budget) -> list[tuple[int, ...]]:
    """Per-edge pick totals sigma with sum d whose vertex totals are all
    divisible by m (necessary for in/out balance), connected active support,
    and cumulative predicted work within budget."""
    m, edges = ctx.m, ctx.edges
    n_edges = len(edges)
    infeasible = FeasibilityError(
        f"trace enumeration infeasible (n={ctx.n}, m={ctx.m}, d={d}): "
        f"predicted selection count exceeds {budget.max_selections}"
    )
    if _closed_form_work(m, ctx.n, n_edges, d) > budget.max_selections:
        raise infeasible
    finalize_at: list[list[int]] = [[] for _ in range(n_edges)]
    for v, last in enumerate(ctx.last_edge):
        if last >= 0:
            finalize_at[last].append(v)
    vertex_total = [0] * ctx.n
    sigma = [0] * n_edges
    out: list[tuple[int, ...]] = []
    predicted = 0

    def rec(i: int, remaining: int) -> None:
        nonlocal predicted
        if i == n_edges - 1:
            choices = [remaining]
        elif finalize_at[i]:
            # a vertex whose total is final here fixes s modulo m
            choices = range(-vertex_total[finalize_at[i][0]] % m, remaining + 1, m)
        else:
            choices = range(remaining + 1)
        for s in choices:
            sigma[i] = s
            for v in edges[i]:
                vertex_total[v] += s
            if all(vertex_total[v] % m == 0 for v in finalize_at[i]):
                if i == n_edges - 1:
                    if _active_connected(edges, sigma):
                        cand = tuple(sigma)
                        predicted += _predicted_tables(cand, m)
                        if predicted > budget.max_selections:
                            raise infeasible
                        out.append(cand)
                else:
                    rec(i + 1, remaining - s)
            for v in edges[i]:
                vertex_total[v] -= s
        sigma[i] = 0

    rec(0, d)
    return out


def _predicted_tables(sigma: tuple[int, ...], m: int) -> int:
    pred = 1
    for s in sigma:
        if s:
            pred *= math.comb(s + m - 1, m - 1)
    return pred


def _active_connected(edges: list[tuple[int, ...]], sigma: list[int]) -> bool:
    active = [e for e, s in zip(edges, sigma) if s > 0]
    if not active:
        return False
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in active:
        for v in e:
            parent.setdefault(v, v)
        r = find(e[0])
        for v in e[1:]:
            parent[find(v)] = r
    roots = {find(v) for v in parent}
    return len(roots) == 1


def _accumulate(
    ctx: _EnumerationContext,
    candidates: list[tuple[int, ...]],
) -> list[Fraction]:
    """Sum the per-vertex contributions of every pick configuration.

    For a configuration with per-edge totals sigma, vertex v makes
    s_v = (sum of sigma over edges at v)/m picks; each way x of splitting
    the totals (x[v,e] picks of edge e by vertex v, row sums s_v, column
    sums sigma_e) is one balanced arc multiset, weighted by

        s_v! / (prod_e x[v,e]!)           per active vertex (pick orderings)
        1 / ((m-1) s_v)!                  per active vertex (normalisation)
        Eulerian cycle classes of the     (arborescence determinant times
        arc multiset                       prod_v (outdeg(v)-1)!)

    Out-degrees (m-1) s_v depend on sigma alone, so with T the integer
    table sum of _sum_over_tables the configuration contributes

        T * prod_v s_v! / (prod_v (m-1) s_v * prod_e sigma_e!)

    per pick of each active vertex; these are summed over the least common
    denominator.  The caller multiplies the final vector by (m-1)^n: the
    global (m-1)^(n-1) together with one m-1 per start-vertex arc share.
    """
    m, n, edges = ctx.m, ctx.n, ctx.edges
    parts: list[tuple[int, int, list[int]]] = []  # (numerator, denominator, s)
    for sigma in candidates:
        s = [0] * n
        for e_idx, se in enumerate(sigma):
            if se:
                for v in edges[e_idx]:
                    s[v] += se
        for v in range(n):
            s[v] //= m
        table_sum = _sum_over_tables(ctx, sigma, s)
        if table_sum == 0:
            continue
        den = 1
        for se in sigma:
            den *= math.factorial(se)
        for sv in s:
            if sv:
                table_sum *= math.factorial(sv)
                den *= (m - 1) * sv
        parts.append((table_sum, den, s))
    common = math.lcm(*(den for _, den, _ in parts))
    acc = [0] * n
    for num, den, s in parts:
        num *= common // den
        for v in range(n):
            acc[v] += num * s[v]
    return [Fraction(a, common) for a in acc]


def _sum_over_tables(
    ctx: _EnumerationContext,
    sigma: tuple[int, ...],
    s: list[int],
) -> int:
    """Sum of trees(x) * prod_e sigma_e! / prod x! over all splits x
    consistent with sigma and s, in integers.

    trees(x) counts the arborescences of the split's arc multiset towards
    the smallest active vertex: the determinant of its Laplacian with that
    vertex's row and column removed.  The out-degrees (m-1) s_v fix the
    Laplacian's diagonal, so it is set once here, and each pick x[v,e] only
    moves the off-diagonal entries of row v; the recursion applies a pick on
    the way down and takes it back on backtrack.
    """
    m, edges = ctx.m, ctx.edges
    support = [v for v in range(ctx.n) if s[v]]
    index = {v: i for i, v in enumerate(support)}
    lap = [[0] * len(support) for _ in support]
    for i, v in enumerate(support):
        lap[i][i] = (m - 1) * s[v]
    active = [i for i, se in enumerate(sigma) if se > 0]
    # per active edge, one split step per vertex: the vertex, how much it
    # can still pick from the edges after this one, its Laplacian row and
    # the columns of the edge's other vertices
    steps: list[list[tuple[int, int, list[int], list[int]]]] = []
    running = [0] * ctx.n
    for e_idx in reversed(active):
        e = edges[e_idx]
        steps.append([
            (v, running[v], lap[index[v]], [index[u] for u in e if u != v])
            for v in e
        ])
        for v in e:
            running[v] += sigma[e_idx]
    steps.reverse()
    last = m - 1
    remaining = list(s)
    total = 0

    def edge_rec(pos: int, weight: int) -> None:
        nonlocal total
        if pos == len(active):
            total += weight * _det_bareiss([row[1:] for row in lap[1:]])
            return
        e_idx = active[pos]
        owed = sum(remaining[v] for v in edges[e_idx])
        split_rec(steps[pos], pos, 0, sigma[e_idx], owed, weight)

    def split_rec(step, pos, vi, left, owed, weight) -> None:
        # left: picks of this edge still to hand out among vertices vi..;
        # owed: what those vertices must still pick in total.  A vertex
        # takes at least what the later edges cannot supply it, and leaves
        # no more than the edge's later vertices can take.
        v, cap, row, cols = step[vi]
        need = remaining[v]
        owed -= need
        lo = max(0, need - cap, left - owed)
        hi = min(left, need)
        for x in range(lo, hi + 1):
            remaining[v] = need - x
            for c in cols:
                row[c] -= x
            if vi == last:  # x == left here
                edge_rec(pos + 1, weight)
            else:
                split_rec(step, pos, vi + 1, left - x, owed,
                          weight * math.comb(left, x))
            for c in cols:
                row[c] += x
        remaining[v] = need

    edge_rec(0, 1)
    return total


def _det_bareiss(a: list[list[int]]) -> int:
    """Exact determinant of a reduced out-degree Laplacian by fraction-free
    Gaussian elimination; the rows of a are overwritten.

    a is a Z-matrix (off-diagonal entries <= 0) whose rows sum to >= 0:
    the full Laplacian's rows sum to 0, and each row loses only its entry
    <= 0 in the removed column.  Each step replaces the trailing block by
    a positive multiple of its Schur complement at a pivot p > 0, whose
    entries a_ij - a_ik a_kj / p are no larger than a_ij, and whose row
    sums r_i - a_ik r_k / p are no smaller than r_i; so every trailing
    block keeps both properties.  A zero pivot then heads a row whose
    entries are all <= 0 and sum to >= 0, a zero row, and the
    determinant is 0; no row swap is ever needed.
    """
    size = len(a)
    if size == 0:
        return 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return a[size - 1][size - 1]
