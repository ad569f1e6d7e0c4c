"""Exact high-order traces of hypergraph adjacency tensors.

The d-th order trace of an order-m tensor reduces, for adjacency tensors of
m-uniform hypergraphs, to a weighted count of closed arc sequences: every
vertex i picks a multiset of incident edges (d_i picks in total across all
vertices, sum d_i = d), each pick contributes the m-1 arcs from i into the
rest of the edge, and the resulting arc multiset must support a closed walk
using every arc exactly once.  Walk counts come from the arborescence form of
the Eulerian-circuit count (matrix-tree determinant, exact integers, in
closed form up to size 4); the per-vertex pick multisets are enumerated
directly in their balanced form, which prunes the search to configurations
with equal in- and out-degree at every vertex, and to partial ones whose
active edges can still connect.  A vertex in one active edge picks only
from it, so its Laplacian rows are eliminated in closed form (a Schur
complement), and the splits of the picks are summed in integers against
the small matrix left on the shared vertices, kept up to date pick by
pick; the per-vertex shares are summed in integers over one common
denominator.  Each candidate travels as its weighted support, its active
edges with their pick totals, and is analysed once, for the picks and the
degrees of its vertices, which the class key and the split sum read.  The
split sum depends only on the isomorphism class of the weighted support
(the d-subgraph trace formula of Shao, Qi & Hu, Linear Multilinear
Algebra 63 (2015)), so each call forms it once per exact key of the
support, canonical when no two of its edges tie, and keeps nothing after.

trace_d, trace_sequence and vertex_trace_terms are views of one pass that
forms the n per-vertex shares of every order in a range: the sums of the
shares of [d, d] and of [0, max_d], and the shares of [d, d].  An order
proved zero is 0, never charged or refused; every other order is charged
its own work before any share is formed, and the first one refused raises
FeasibilityError for the whole range.  For m >= 3 one depth-first search,
on a stack of its own, finds the pick totals of every order in the range.

Graphs (m = 2) take their shares, the diagonal of A^d, from matrix powers
instead, taken in floating point modulo several moduli small enough to keep
every product an exact integer, carried from order to order, and put
together by the Chinese remainder theorem.

Every result is exact: Python integers and fractions.Fraction.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .hypergraph import UniformHypergraph, _incidence


class FeasibilityError(RuntimeError):
    """Raised when a computation would exceed its enumeration budget."""


@dataclass(frozen=True)
class Budget:
    """Resource limits for exact computations."""

    max_degree: int = 128  # an m >= 3 spectrum's eigenvalue cap; the series' order cap
    # predicted edge-pick configurations per trace order; for graphs, the
    # matrix-power work n^3 per bit of the order, and n^3 for the eigensolver
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
    """Exact d-th order trace of the adjacency tensor: the order range [d, d].

    Order 0 is the eigenvalue count n(m-1)^(n-1) by convention.  Orders
    1..m-1 vanish; order m equals m^(m-1) (m-1)^(n-m) |E|.  For graphs
    (m = 2) this is tr(A^d), from exact matrix powers whose work, n^3 per
    bit of d, is charged to the selection budget.  An order proved zero is
    0 under any budget.
    """
    if d < 0:
        raise ValueError("trace order d must be >= 0")
    shares, denominator = _trace_range(h, d, d, budget or Budget())[0]
    return Fraction(sum(shares), denominator)


def _closed_form_cut(m: int, n: int, q: int, orders: Sequence[int], budget: Budget) -> int:
    """The first of the nonempty ascending orders whose closed-form work the
    budget refuses, or orders[-1] + 1.  That work is what an order d is
    charged before any enumeration: n^3 per bit of d for a graph's matrix
    powers, and for m >= 3 the C(d+q-1, q-1) vectors of per-edge pick
    totals with sum d over q edges."""
    for d in orders:
        work = n**3 * d.bit_length() if m == 2 else math.comb(d + q - 1, q - 1) if q else 0
        if work > budget.max_selections:
            return d
    return orders[-1] + 1


def _infeasible(n: int, m: int, d: int, budget: Budget) -> FeasibilityError:
    work = "matrix-power work n^3*bits(d)" if m == 2 else "predicted selection count"
    return FeasibilityError(
        f"trace enumeration infeasible (n={n}, m={m}, d={d}): "
        f"{work} exceeds {budget.max_selections}"
    )


def _trace_range(h: UniformHypergraph, lo: int, hi: int,
                 budget: Budget) -> list[tuple[list[int], int]]:
    """The per-vertex shares of orders lo..hi from one pass, each order's
    as n integer numerators (vertex j's at j-1) over one denominator.
    Orders 1..m-1, and the orders that _order_step proves zero, are zeros
    and never charged; every other order is charged its own work before
    any share is formed, and the first one refused raises FeasibilityError."""
    m, n = h.m, h.n
    step = _order_step(h, hi)
    orders = [d for d in range(max(lo, m), hi + 1) if d % step == 0]
    shares: dict[int, tuple[list[int], int]] = {}
    if orders and m == 2:
        end = _closed_form_cut(m, n, 0, orders, budget)
        if end <= orders[-1]:
            raise _infeasible(n, m, end, budget)
        shares = {d: (diagonal, 1) for d, diagonal in zip(orders, _graph_trace(h, orders, step))}
    elif orders and h.edges:
        shares = {d: _accumulate(h, c) for d, c in _sigma_range(h, orders, budget).items()}
    start = [(m - 1) ** (n - 1)] * n, 1
    return [start if d == 0 else shares.get(d, ([0] * n, 1)) for d in range(lo, hi + 1)]


def _graph_trace(h: UniformHypergraph, orders: list[int], step: int) -> Iterator[list[int]]:
    """The diagonal of A^d exactly for each of the ascending orders, all
    multiples of step (1 or 2), by the Chinese remainder theorem over float64
    matrix powers modulo pairwise coprime p with n p^2 < 2^53, so every
    matrix product is an exact integer before it is reduced mod p.  Each
    modulus keeps its power of A and multiplies it by A^step from one order
    to the next; a modulus first needed at order d gets A^d by repeated
    squaring.  0 <= (A^d)_vv <= rho^d <= B^(d/2), B the largest d_u d_v over
    the edges uv (Berman and Zhang, J. Combin. Theory Ser. B 83 (2001))."""
    n = h.n
    edges, incident, _ = _incidence(h)
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    b = max((len(incident[u]) * len(incident[v]) for u, v in edges), default=0)
    stride = np.linalg.matrix_power(adj, step)  # exact: entries below n
    p = math.isqrt(2**53 // n)
    powers: list[tuple[int, int, np.ndarray]] = []  # (p, d, A^d mod p)
    for d in orders:
        bound = math.isqrt(b**d)  # each (A^d)_vv is an integer <= B^(d/2)
        values, modulus, i = [0] * n, 1, 0
        while modulus <= bound:
            if i == len(powers):  # modulus is the product of all of them
                while math.gcd(p, modulus) != 1:
                    p -= 1
                powers.append((p, 0, np.identity(n)))
                p -= 1
            prime, e, power = powers[i]
            base, k = stride % prime, (d - e) // step
            while k:  # power @ base^k mod prime, by repeated squaring
                if k & 1:
                    power = power @ base % prime
                k >>= 1
                if k:
                    base = base @ base % prime
            powers[i] = (prime, d, power)
            inverse = pow(modulus, -1, prime)
            values = [value + modulus * ((int(residue) - value) * inverse % prime)
                      for value, residue in zip(values, np.diagonal(power))]
            modulus *= prime
            i += 1
        yield values


def trace_sequence(
    h: UniformHypergraph,
    max_d: int,
    budget: Budget | None = None,
) -> TraceSequence:
    """Traces of all orders 0..max_d (the spectral power sums, by order):
    the order range [0, max_d].

    Every order is charged to the budget before any is computed, so a
    request that some order cannot meet is refused, at the first such
    order, before the cheaper orders are formed.  Orders proved zero are 0
    without being charged or computed.
    """
    if max_d < 0:
        raise ValueError("max_d must be >= 0")
    ranged = _trace_range(h, 0, max_d, budget or Budget())
    return TraceSequence(h.m, h.n, tuple(Fraction(sum(s), den) for s, den in ranged))


def _order_step(h: UniformHypergraph, top: int) -> int:
    """The step between the orders up to top that can be nonzero: m when
    _rotation_labelling finds a labelling, else 1.  None is sought unless
    top > m, because orders 1..m-1 vanish anyway."""
    return h.m if top > h.m and _rotation_labelling(h) is not None else 1


@lru_cache(maxsize=8)  # the series asks for its step, then at each order through trace_d
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
    edges, incident, _ = _incidence(h)
    labels = [0] * h.n
    forms: dict[int, dict[int, int]] = {}  # {parameter: coefficient}, constant at -1
    seen: set[int] = set()  # edge indices
    for root in range(h.n):
        if root in forms:
            continue
        component, params, equations = [], 0, []
        queue = deque([root])
        while queue:
            for i in incident[queue.popleft()]:
                if i in seen:
                    continue
                seen.add(i)
                e = edges[i]
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
    labelling = tuple(labels)
    if any(sum(labelling[v] for v in e) % m != 1 for e in edges):
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
    vertex j's share.  They sum to trace_d, come from its pass and are
    charged, proved zero or refused as it does; the order-0 share is
    (m-1)^(n-1), and on graphs the shares are the diagonal of A^d."""
    if d < 0:
        raise ValueError("trace order d must be >= 0")
    shares, denominator = _trace_range(h, d, d, budget or Budget())[0]
    return tuple(Fraction(s, denominator) for s in shares)


def _sigma_range(
    h: UniformHypergraph, orders: list[int], budget: Budget
) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """The sigma candidates of the ascending orders, by order, from one
    depth-first pass over orders[0]..orders[-1]: per-edge pick totals sigma
    whose sum is the order, whose vertex totals are all divisible by m
    (necessary for in/out balance), and whose active edges are connected.
    Each candidate is emitted as its weighted support, the ascending
    (edge index, total) pairs of its active edges.  Each of the orders is
    charged its closed-form work, then the predicted tables
    prod_e C(sigma_e+m-1, m-1) of its candidates' supports, and the first
    one refused raises FeasibilityError; orders past a refused one leave
    the search as soon as it is found.  The last edge takes every total
    that keeps the sum in range.

    The search keeps its own stack, one level per edge, so the number of
    edges is not bounded by the interpreter's recursion limit: edge i's
    level holds the next total to try on it (following[i]) and the step to
    the one after (stride[i]), the sum of the totals before it (base[i]),
    the components of the active edges before it (parts[i]), each as its
    vertices' bit mask and the last edge holding one of them, and the
    support before it (held[i]).
    A partial sigma is dropped when its vertex totals lack more, to the
    next multiples of m, than the picks left below the end can give, and
    when its active edges form two or more components one of which no
    later edge touches: no completion of it is connected.  Neither drops a
    candidate, so the candidates, their order and the refusals are as
    without them.  The search's tables come from the vertex-to-edge
    lists of h's incidence (_incidence)."""
    m, n = h.m, h.n
    edges, incident, _ = _incidence(h)
    # per edge, the vertices it is the last edge of, whose pick totals are
    # final there and divisibility can be checked; its vertices as a bit
    # mask; and the last edge that holds one of them
    finalize_at = [[v for v in e if incident[v][-1] == i] for i, e in enumerate(edges)]
    masks = [sum(1 << v for v in e) for e in edges]
    reach = [max(incident[v][-1] for v in e) for e in edges]
    last, lo = len(edges) - 1, orders[0]
    end = _closed_form_cut(m, n, len(edges), orders, budget)
    vertex_total = [0] * n
    owed = 0  # what the vertex totals lack to the next multiples of m, summed
    sigma = [0] * len(edges)
    found: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    charged: dict[int, int] = {}
    following = [0] * len(edges)
    stride = [1] * len(edges)
    base = [0] * len(edges)
    parts: list[tuple[tuple[int, int], ...]] = [()] * len(edges)
    held: list[tuple[tuple[int, int], ...]] = [()] * len(edges)
    # the edge to enter, and the sum, components and support before it
    i, total, joined, support = 0, 0, (), ()
    while end > lo:  # else every order is refused, and nothing is left to find
        final = finalize_at[i]  # never empty at the last edge
        if i == last:
            first = max(0, lo - total)
            following[i], stride[i] = first + -(vertex_total[final[0]] + first) % m, m
        elif final:
            # a vertex whose total is final here fixes s modulo m
            following[i], stride[i] = -vertex_total[final[0]] % m, m
        else:
            following[i], stride[i] = 0, 1
        base[i], parts[i], held[i] = total, joined, support
        while i >= 0:  # try the next total on edge i
            total, prev = base[i], sigma[i]
            s = following[i]
            following[i] = s + stride[i]
            done = total + s >= end  # also when an order at or below this sum was refused meanwhile
            if done:
                s = 0  # edge i goes back to 0, and the search to the edge before
            step = s - prev
            if step % m:
                for v in edges[i]:
                    t = vertex_total[v]
                    owed += (-t - step) % m - -t % m
                    vertex_total[v] = t + step
            elif step:  # whole multiples of m leave owed as it is
                for v in edges[i]:
                    vertex_total[v] += step
            sigma[i] = s
            if done:
                i -= 1
                continue
            divisible = True
            for v in finalize_at[i][1:]:  # the first is a multiple of m by the choice of s
                if vertex_total[v] % m:
                    divisible = False
                    break
            if not divisible:
                continue
            # each further pick takes at most m off owed, and the search
            # ends on vertex totals that are multiples of m
            if i < last and total + s + -(-owed // m) >= end:
                continue
            joined = _join(parts[i], masks[i], reach[i]) if s else parts[i]
            if i < last:
                # a component no later edge touches cannot join the others
                if len(joined) < 2:
                    break  # enter edge i + 1
                for _, r in joined:
                    if r <= i:
                        break
                else:
                    break  # each component reaches a later edge: enter edge i + 1
                continue
            if len(joined) == 1:
                d, support = total + s, (*held[i], (i, s)) if s else held[i]
                work = charged.get(d, 0) + math.prod(
                    math.comb(t + m - 1, m - 1) for _, t in support)
                if work > budget.max_selections:
                    end = d
                else:
                    charged[d] = work
                    found.setdefault(d, []).append(support)
        else:
            break  # the search is over
        i, total, support = i + 1, total + s, (*held[i], (i, s)) if s else held[i]

    if end <= orders[-1]:  # the cut, or an order with candidates: one of orders
        raise _infeasible(n, m, end, budget)
    return found


def _join(
    parts: tuple[tuple[int, int], ...], mask: int, reach: int
) -> tuple[tuple[int, int], ...]:
    """The components after an edge with vertex mask and reach joins parts:
    every component that shares a vertex with it merges into one."""
    kept = []
    for part in parts:
        if part[0] & mask:
            mask |= part[0]
            reach = max(reach, part[1])
        else:
            kept.append(part)
    return (*kept, (mask, reach))


def _accumulate(
    h: UniformHypergraph,
    candidates: list[tuple[tuple[int, int], ...]],
) -> tuple[list[int], int]:
    """Sum the per-vertex contributions of every pick configuration.

    A configuration is a weighted support: its active edges e with their
    totals sigma_e.  One pass over its edges gives the record the class
    key and the split sum read: vertex v's picks s_v = (sum of sigma over
    the active edges at v)/m and its degree among them, on the support's
    vertices alone.  Each way x of splitting the totals (x[v,e] picks of
    edge e by vertex v, row sums s_v, column sums sigma_e) is one balanced
    arc multiset, weighted by

        s_v! / (prod_e x[v,e]!)           per active vertex (pick orderings)
        1 / ((m-1) s_v)!                  per active vertex (normalisation)
        Eulerian cycle classes of the     (arborescence determinant times
        arc multiset                       prod_v (outdeg(v)-1)!)

    Out-degrees (m-1) s_v depend on the support alone, so with T the
    integer table sum of _sum_over_tables the configuration contributes

        T * prod_v s_v! / (prod_v (m-1) s_v * prod_e sigma_e!)

    per pick of each active vertex, to the shares of the support's
    vertices alone.  The n sums, times (m-1)^n once (the global
    (m-1)^(n-1) together with one m-1 per start-vertex arc share), are
    returned as n numerators over their least common denominator.

    That weight depends only on the isomorphism class of the weighted
    support: an isomorphism carries the splits of one onto the splits of
    the other, and a balanced digraph has as many arborescences towards
    each of its vertices.  So it is formed once per key of the support
    (_class_key) in this call and reused for the other candidates with
    that key.  Nothing is kept from one call to the next.  The 0-based
    edges are read from h's incidence (_incidence) once per call.
    """
    m, n = h.m, h.n
    edges = _incidence(h)[0]
    weights: dict[tuple, tuple[int, int]] = {}  # class key -> (numerator, denominator)
    parts: list[tuple[int, int, dict[int, int]]] = []  # (numerator, denominator, picks)
    for support in candidates:
        picks: dict[int, int] = {}  # each vertex's total, then its picks
        degree: dict[int, int] = {}
        for i, t in support:
            for v in edges[i]:
                picks[v] = picks.get(v, 0) + t
                degree[v] = degree.get(v, 0) + 1
        for v in picks:
            picks[v] //= m
        key = _class_key(edges, support, degree)
        weight = weights.get(key)
        if weight is None:
            num, den = _sum_over_tables(m, edges, support, picks, degree), 1
            for _, t in support:
                den *= math.factorial(t)
            for sv in picks.values():
                num *= math.factorial(sv)
                den *= (m - 1) * sv
            weight = weights[key] = num, den
        if weight[0]:
            parts.append((*weight, picks))
    common = math.lcm(*(den for _, den, _ in parts))
    acc = [0] * n
    for num, den, picks in parts:
        num *= common // den
        for v, sv in picks.items():
            acc[v] += num * sv
    scale = (m - 1) ** n
    return [a * scale for a in acc], common


def _class_key(edges: Sequence[tuple[int, ...]], support: tuple[tuple[int, int], ...],
               degree: dict[int, int]) -> tuple:
    """An exact key of a weighted support, given the degrees of its
    vertices among its edges.

    Each edge of the support is coloured by its total and the sorted
    degrees of its vertices, and the edges are sorted by colour, ties
    broken by edge index.  In that order, vertex v's membership mask has
    bit j set when v lies in the j-th edge; the sorted masks give the
    support back up to the names of its vertices.  The key is the colours
    in order with the sorted masks, so equal keys mean isomorphic supports:
    the j-th edges correspond, and so do vertices with equal masks.  When
    no two edges of the support share a colour the order is forced, and
    the key is canonical; under ties two isomorphic supports may get
    different keys, which costs a shared sum, never a wrong one."""
    coloured = sorted(((t, *sorted(degree[v] for v in edges[i])), i) for i, t in support)
    mask = dict.fromkeys(degree, 0)
    for j, (_, i) in enumerate(coloured):
        for v in edges[i]:
            mask[v] |= 1 << j
    return tuple(colour for colour, _ in coloured), tuple(sorted(mask.values()))


def _sum_over_tables(
    m: int,
    edges: Sequence[tuple[int, ...]],
    support: tuple[tuple[int, int], ...],
    s: dict[int, int],
    degree: dict[int, int],
) -> int:
    """Sum of trees(x) * prod_e sigma_e! / prod x! over all splits x of
    the weighted support's totals sigma_e with row sums s_v, in integers.
    s and degree, its vertices' picks and degrees among its edges, are
    _accumulate's record, and the caps and needs below are kept on the
    support's vertices alone.

    trees(x) counts the arborescences of the split's arc multiset towards a
    root: the determinant of its Laplacian with the root's row and column
    removed.  A balanced digraph has as many towards each of its vertices,
    so the root is the least vertex in two or more active edges when there
    is one.  A leaf, a vertex w in one active edge e only, takes all its
    s_w picks from e in every split, so its row is s_w ((m-1) e_w - the
    e_u of e's other vertices u) in each.  Eliminating the leaves W other
    than the root (a Kron reduction, Dorfler & Bullo, IEEE TCAS-I 60
    (2013)) gives det L = det L_WW * det L'.  L_WW is one block
    s_w (mI - J) of size k_e = |e & W| per edge, of determinant
    prod_w s_w * prod_e m^(k_e-1) (m-k_e).  L' is the Schur complement over
    the core, the other non-root vertices: its diagonal starts at
    (m-1) s_c, and a pick x of edge e by c takes x m/(m-k_e) off row c in
    the columns of e's other core vertices and x k_e/(m-k_e) off its
    diagonal.  L' is kept times g = lcm(m-k_e), so it stays integral, and
    the sum is divided by g^|C| once at the end, exactly.

    The leaves' picks add sigma_e! / ((sigma_e - sum s_w)! prod s_w!) per
    edge, and the splits branch on the core and the root alone, edge by
    edge; the recursion applies a pick on the way down and takes it back
    on backtrack.  No later edge can supply the last edge's pickers, so
    each of them takes what it still needs there.
    """
    core = sorted(v for v, k in degree.items() if k > 1)
    root = core.pop(0) if core else min(degree)
    index = {v: j for j, v in enumerate(core)}
    leaves = [[w for w in edges[i] if degree[w] == 1 and w != root] for i, _ in support]
    g = math.lcm(*(m - len(ws) for ws in leaves))
    lap = [[0] * len(core) for _ in core]
    for v, j in index.items():
        lap[j][j] = g * (m - 1) * s[v]
    factor = 1  # the leaves' picks and det L_WW
    # per active edge, the picks its leaves leave and one split step per
    # picker: the vertex, how much it can still pick from the edges after
    # this one, its reduced Laplacian row, and the entries each of its
    # picks moves with their coefficients (none for the root)
    steps: list[tuple[int, list[tuple[int, int, list[int], list[tuple[int, int]]]]]] = []
    running = dict.fromkeys(s, 0)
    for (i, t), ws in reversed(list(zip(support, leaves))):
        k, left = len(ws), t - sum(s[w] for w in ws)
        if left < 0:
            return 0
        if k:
            factor *= m ** (k - 1) * (m - k)
        rest = t
        for w in ws:
            factor *= s[w] * math.comb(rest, s[w])
            rest -= s[w]
        pickers = [v for v in edges[i] if v == root or v in index]
        off, own = g * m // (m - k), g * k // (m - k)
        steps.append((left, [
            (v, running[v], [], []) if v == root else
            (v, running[v], lap[index[v]],
             [(index[u], off) for u in pickers if u != v and u != root]
             + ([(index[v], own)] if own else []))
            for v in pickers
        ]))
        for v in pickers:
            running[v] += left
    steps.reverse()
    remaining = dict(s)
    det = _DETERMINANTS[len(lap)] if len(lap) < len(_DETERMINANTS) else _det_bareiss
    total = 0

    def edge_rec(pos: int, weight: int) -> None:
        nonlocal total
        left, step = steps[pos]
        owed = 0
        for v, _, _, _ in step:
            owed += remaining[v]
        if pos < len(steps) - 1:
            split_rec(step, pos, 0, left, owed, weight)
            return
        if owed != left:  # the last edge: each picker takes what it still needs
            return
        for v, _, row, moves in step:
            x = remaining[v]
            weight *= math.comb(left, x)
            left -= x
            for c, a in moves:
                row[c] -= a * x
        total += weight * det(lap)
        for v, _, row, moves in step:
            x = remaining[v]
            for c, a in moves:
                row[c] += a * x

    def split_rec(step, pos, vi, left, owed, weight) -> None:
        # left: picks of this edge still to hand out among pickers vi..;
        # owed: what those pickers must still pick in total.  A picker
        # takes at least what the later edges cannot supply it, and leaves
        # no more than the edge's later pickers can take; the last picker
        # takes what is left.
        v, cap, row, moves = step[vi]
        need = remaining[v]
        if vi == len(step) - 1:
            if left > need or need - left > cap:
                return
            remaining[v] = need - left
            for c, a in moves:
                row[c] -= a * left
            edge_rec(pos + 1, weight)
            for c, a in moves:
                row[c] += a * left
            remaining[v] = need
            return
        owed -= need
        for x in range(max(0, need - cap, left - owed), min(left, need) + 1):
            remaining[v] = need - x
            for c, a in moves:
                row[c] -= a * x
            split_rec(step, pos, vi + 1, left - x, owed, weight * math.comb(left, x))
            for c, a in moves:
                row[c] += a * x
        remaining[v] = need

    edge_rec(0, 1)
    return factor * total // g ** len(core)


def _det3(a: list[list[int]]) -> int:
    (p, q, r), (s, t, u), (v, w, x) = a
    return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)


def _det4(a: list[list[int]]) -> int:
    """Laplace expansion along the first two rows: each 2x2 minor of rows
    0 and 1 times its complementary minor of rows 2 and 3, signed."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


# determinants of sizes 0..4 in closed form, and Bareiss on a copy past
# them; none of them changes its argument
_DETERMINANTS = (
    lambda a: 1,
    lambda a: a[0][0],
    lambda a: a[0][0] * a[1][1] - a[0][1] * a[1][0],
    _det3,
    _det4,
)


def _det_bareiss(a: list[list[int]]) -> int:
    """Exact determinant of a reduced out-degree Laplacian, or of the core
    matrix _sum_over_tables keeps, by fraction-free Gaussian elimination
    on a copy of a.

    a is a Z-matrix (off-diagonal entries <= 0) whose rows sum to >= 0:
    the full Laplacian's rows sum to 0, and each row loses only its entry
    <= 0 in the removed column.  The core matrix is a multiple of a Schur
    complement of that one at the leaves' block, an M-matrix, so it keeps
    both properties: row c sums to g m x/(m-k_e) over its picks x of the
    edges e that hold the root.  Each step replaces the trailing block by
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
    a, prev = [row[:] for row in a], 1
    for k in range(size - 1):
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return a[size - 1][size - 1]
