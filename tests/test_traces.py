"""Exact trace engine, checked against independent references."""

from __future__ import annotations

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from _oracles import (
    closed_walk_trace_terms,
    fraction_determinant,
    has_rotation_labelling,
    matrix_power_diagonals,
    matrix_power_sums,
    star_trace,
    weighted_supports_isomorphic,
)
from conftest import CORPUS
from hyperee import traces
from hyperee.estrada import estrada_index, order_m_trace
from hyperee.hypergraph import _incidence, from_edge_list, gen_empty, gen_hyperpath, gen_hyperstar
from hyperee.traces import (
    Budget,
    FeasibilityError,
    TraceSequence,
    trace_d,
    trace_sequence,
    vertex_trace_terms,
)

# Anchor values


def test_order_zero_is_eigenvalue_count():
    for h in CORPUS.values():
        assert trace_d(h, 0) == h.eigenvalue_count()


def test_low_orders_vanish():
    """Traces of orders 1..m-1 are zero (no closed walk fits)."""
    for name in ["path-3-2", "rand-3-b", "rand-4-a", "star-4-1"]:
        h = CORPUS[name]
        for d in range(1, h.m):
            assert trace_d(h, d) == 0, (name, d)


def test_order_m_counts_edges():
    """Tr_m = m^(m-1) * (m-1)^(n-m) * q."""
    for name in ["path-3-1", "star-3-3", "rand-4-b", "rand-2-a"]:
        h = CORPUS[name]
        m, n = h.m, h.n
        assert trace_d(h, m) == m ** (m - 1) * (m - 1) ** (n - m) * h.q, name


def test_single_edge_sequence():
    """One 3-edge: Tr_d = 9 when 3 | d, else 0 (d >= 1)."""
    ts = trace_sequence(gen_hyperpath(3, 1), 12)
    assert ts.values[0] == 12
    for d in range(1, 13):
        assert ts.values[d] == (9 if d % 3 == 0 else 0)


def test_empty_traces_vanish():
    ts = trace_sequence(gen_empty(3, 4), 6)
    assert ts.values == (Fraction(32),) + (Fraction(0),) * 6


# Independent references


def test_graph_traces_match_matrix_power_sums():
    """m = 2 traces are adjacency-matrix power sums, exactly."""
    for name in ["star-2-3", "path-2-4", "rand-2-a", "rand-2-b"]:
        h = CORPUS[name]
        want = matrix_power_sums(h, 8)
        ts = trace_sequence(h, 8)
        assert list(ts.values) == want, name
    # K_12's traces pass 2^53 at order 16 and have 416 bits at order 120
    k12 = from_edge_list(2, 12, itertools.combinations(range(1, 13), 2))
    assert list(trace_sequence(k12, 120).values) == matrix_power_sums(k12, 120)


def test_hyperstar_traces_match_spectrum_power_sums():
    """Star traces against the closed-form eigenvalue families."""
    cases = [(3, 2, 12), (3, 3, 9), (4, 1, 8), (2, 6, 8)]
    for m, q, dmax in cases:
        h = gen_hyperstar(m, q)
        for d in range(dmax + 1):
            assert trace_d(h, d) == star_trace(m, q, d), (m, q, d)


def test_tight_overlap_pair():
    """Two edges sharing two vertices: nonzero eigenvalues are the cube
    roots of 4, nine in all, so Tr_d = 9 * 4^(d/3) at multiples of 3."""
    h = from_edge_list(3, 4, [(1, 2, 3), (1, 2, 4)])
    for d, want in [(1, 0), (2, 0), (3, 36), (4, 0), (6, 144), (9, 576)]:
        assert trace_d(h, d) == want


# Exact values computed by the arc-multiset engine with per-table Fractions
# and a cached determinant per arc multiset, pinned so that any change to
# the table sums must reproduce them exactly.

PINNED_SEQUENCES = {
    "rand-3-b": [192, 0, 0, 288, 0, 0, 1800, 0, 0, 15840, 0, 0, 156672],
    "rand-4-a": [405, 0, 0, 0, 384, 0, 0, 0, 4224, 0, 0, 0, 32640],
    "tight-pair-3": [32, 0, 0, 36, 0, 0, 144, 0, 0, 576, 0, 0, 2304],
}

PINNED_HIGH_ORDERS = [
    (CORPUS["rand-3-b"], 21, Fraction(189809712)),
    (CORPUS["rand-4-a"], 24, Fraction(16777344)),
    (from_edge_list(3, 5, [(1, 2, 3), (1, 3, 4), (1, 3, 5)]), 30, Fraction(31381059636)),
]


def test_trace_sequence_pinned_values():
    for name, want in PINNED_SEQUENCES.items():
        ts = trace_sequence(CORPUS[name], 12)
        assert ts.values == tuple(Fraction(v) for v in want), name


def test_high_order_pinned_values():
    for h, d, want in PINNED_HIGH_ORDERS:
        assert trace_d(h, d) == want, (h.edges, d)


# Per-vertex decomposition


def test_vertex_terms_sum_to_trace():
    for name in ["star-3-2", "tight-pair-3", "rand-2-b", "rand-4-a"]:
        h = CORPUS[name]
        for d in range(h.m + 2):
            terms = vertex_trace_terms(h, d)
            assert sum(terms) == trace_d(h, d), (name, d)


def test_vertex_term_order_zero_share():
    h = CORPUS["rand-3-a"]
    share = Fraction((h.m - 1) ** (h.n - 1))
    assert vertex_trace_terms(h, 0) == (share,) * h.n


def test_vertex_term_single_index():
    """Vertex j's share is entry j-1: the centre (vertex 1) and the equal
    leaf shares add up to the hyperstar's trace."""
    h = CORPUS["star-3-2"]
    terms = vertex_trace_terms(h, 6)
    assert len(terms) == h.n
    centre, leaf = terms[0], terms[h.n - 1]
    assert centre + (h.n - 1) * leaf == star_trace(3, 2, 6)


def test_vertex_terms_follow_symmetry():
    """All leaves of a hyperstar carry the same share."""
    h = gen_hyperstar(3, 2)
    terms = vertex_trace_terms(h, 6)
    leaf_shares = {terms[v] for v in range(1, h.n)}
    assert len(leaf_shares) == 1


# Brute-force closed-walk oracle


def test_closed_walk_oracle_matches_closed_forms():
    """The brute-force closed-walk oracle reproduces the hyperstar power
    sums, the order-m closed form, the order-0 shares and the pinned
    sequences as far as brute force reaches, before it checks the engine."""
    for m, q, dmax in [(3, 2, 6), (4, 1, 8), (2, 3, 6)]:
        for d in range(dmax + 1):
            assert sum(closed_walk_trace_terms(gen_hyperstar(m, q), d)) == star_trace(m, q, d)
    for name, h in CORPUS.items():
        assert closed_walk_trace_terms(h, 0) == (Fraction((h.m - 1) ** (h.n - 1)),) * h.n
        assert sum(closed_walk_trace_terms(h, h.m)) == order_m_trace(h), name
    for name, dmax in [("tight-pair-3", 12), ("rand-4-a", 8), ("rand-3-b", 6)]:
        want = PINNED_SEQUENCES[name][: dmax + 1]
        got = [sum(closed_walk_trace_terms(CORPUS[name], d)) for d in range(dmax + 1)]
        assert got == want, name


def test_internal_walk_cross_check():
    """Every per-vertex share equals the closed-walk oracle's, which shares
    no code with the engine."""
    for name in ["path-3-2", "tight-pair-3", "rand-2-a"]:
        h = CORPUS[name]
        for d in range(h.m, 2 * h.m + 1):
            assert vertex_trace_terms(h, d) == closed_walk_trace_terms(h, d), (name, d)


# Engine internals exercised through the public surface


def _reduced_balanced_laplacian(rng: random.Random, n: int) -> list[list[int]]:
    """The out-degree Laplacian of a random balanced multi-digraph on n
    vertices, a union of random closed walks that may leave some vertices
    apart, with vertex 0's row and column removed."""
    lap = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(0, n)):
        walk = [rng.randrange(n) for _ in range(rng.randint(2, n + 1))]
        for u, v in zip(walk, walk[1:] + walk[:1]):
            if u != v:
                lap[u][u] += 1
                lap[u][v] -= 1
    return [row[1:] for row in lap[1:]]


def test_graph_range_carries_matrix_powers():
    """Over a range each modulus carries its power of A from order to order
    (A^2 on a bipartite graph), and moduli join as the orders grow, as many
    as B^(d/2) needs, B the largest d_u d_v over the edges; the diagonal of
    A^d stays exact on K_12, on K_8,8, on a graph star (whose centre's entry
    q^(d/2) at even d meets the bound) and on one with a chord (skewed
    degrees, not bipartite), over consecutive orders and over uneven gaps,
    and the traces are its sums."""
    k12 = from_edge_list(2, 12, itertools.combinations(range(1, 13), 2))
    k88 = from_edge_list(2, 16, [(i, j) for i in range(1, 9) for j in range(9, 17)])
    star = gen_hyperstar(2, 30)
    chord = from_edge_list(2, 31, [*star.edges, (2, 3)])
    for h, step, some in ((k12, 1, [5, 6, 17, 40]), (k88, 2, [2, 8, 16, 40]),
                          (star, 2, [2, 8, 10, 40]), (chord, 1, [3, 4, 21, 40])):
        want = matrix_power_diagonals(h, 40)
        assert list(trace_sequence(h, 40).values) == [sum(w) for w in want]
        assert [vertex_trace_terms(h, d) for d in range(41)] == [
            tuple(map(Fraction, w)) for w in want]
        assert list(traces._graph_trace(h, some, step)) == [list(want[d]) for d in some]


def test_graph_shares_are_fast_matrix_power_diagonals():
    """The per-vertex shares of a graph are the diagonal of A^d, from the
    matrix powers of trace_d, not from the Eulerian search: well under a
    second each on K_10 at order 6 and on K_8 at order 8."""
    for n, d in ((10, 6), (8, 8)):
        h = from_edge_list(2, n, itertools.combinations(range(1, n + 1), 2))
        start = time.perf_counter()
        terms = vertex_trace_terms(h, d)
        assert time.perf_counter() - start < 1.0, (n, d)
        assert terms == tuple(map(Fraction, matrix_power_diagonals(h, d)[d]))


def test_vertex_terms_keep_the_trace_refusals_and_zeros():
    """The shares are charged and proved zero as trace_d is: a graph order
    past n^3 * bits(d) is refused with trace_d's message, and an order of a
    loose path that 3 does not divide is zero, uncharged."""
    h = CORPUS["rand-2-b"]
    tight = Budget(max_selections=h.n**3 * 3)  # admits orders up to 7
    with pytest.raises(FeasibilityError) as refused:
        trace_d(h, 8, tight)
    with pytest.raises(FeasibilityError, match=re.escape(str(refused.value))):
        vertex_trace_terms(h, 8, tight)
    assert vertex_trace_terms(gen_hyperpath(3, 20), 16) == (Fraction(0),) * 41


def test_det_bareiss_matches_rational_elimination():
    """Reduced Laplacians of balanced digraphs, disconnected ones included,
    against exact rational elimination; a zero pivot means determinant 0."""
    rng = random.Random(7)
    zeros = 0
    for _ in range(400):
        a = _reduced_balanced_laplacian(rng, rng.randint(1, 8))
        expected = fraction_determinant(a)
        zeros += expected == 0
        assert traces._det_bareiss([list(row) for row in a]) == expected, a
    assert zeros > 50  # singular inputs, where elimination meets a zero pivot
    # the pivot of the second step becomes zero partway through elimination
    assert traces._det_bareiss([[1, -1, 0], [-1, 1, 0], [0, 0, 1]]) == 0


def test_candidate_search_keeps_its_own_stack():
    """The candidate search takes no stack frame per edge, so inputs with
    more edges than the interpreter's recursion limit are answered: a
    995-edge loose path at order 3, and auto on a random 3-uniform input
    with n = 20 and 1,000 edges, whose series sums orders 0..3 and stops
    unconverged because order 4 is past the budget.  The search drops a
    partial sigma once its vertex totals lack more than the picks left can
    give, so neither has to visit every vector of sum 3."""
    path = gen_hyperpath(3, 995)
    assert trace_d(path, 3) == order_m_trace(path)
    pool = list(itertools.combinations(range(1, 21), 3))
    dense = from_edge_list(3, 20, random.Random(1).sample(pool, 1000))
    res = estrada_index(dense)
    assert (res.method, res.terms_used, res.converged) == ("trace-series", 4, False)
    assert res.value == dense.eigenvalue_count() + order_m_trace(dense) / 6
    with pytest.raises(FeasibilityError, match="d=4"):
        trace_d(dense, 4)


def test_search_on_a_long_path_keeps_every_candidate():
    """On the 20-edge loose path every middle vertex lies in one edge, so
    a candidate of orders 3..18 is a run of L consecutive edges with
    totals 3a_e, a_e >= 1 and sum a_e <= 6: (21 - L) positions times
    C(6, L) totals.  The search drops the partial vectors whose active
    edges can no longer connect, and keeps all 1,131 of these."""
    found = traces._sigma_range(gen_hyperpath(3, 20), list(range(3, 19)),
                                Budget(max_selections=10**12))
    assert sum(map(len, found.values())) == sum(
        (21 - run) * math.comb(6, run) for run in range(1, 7)) == 1131


def test_selection_budget_trips():
    h = CORPUS["star-3-3"]
    with pytest.raises(FeasibilityError, match="infeasible"):
        trace_d(h, 6, budget=Budget(max_selections=2))


def test_budget_allows_cheap_orders():
    """A tight budget still admits orders with few configurations."""
    h = gen_hyperpath(3, 1)
    assert trace_d(h, 3, budget=Budget(max_selections=50)) == 9


def test_graph_traces_charged_to_selection_budget():
    """Graph traces cost n^3 per bit of the order against the budget."""
    h = CORPUS["rand-2-b"]
    tight = Budget(max_selections=h.n**3 * 3)
    assert trace_d(h, 7, budget=tight) == matrix_power_sums(h, 7)[7]
    with pytest.raises(FeasibilityError, match="infeasible"):
        trace_d(h, 8, budget=tight)


def test_graph_trace_sequence_refuses_before_any_order(monkeypatch):
    h = CORPUS["rand-2-b"]

    def no_powers(*args):
        raise AssertionError("matrix powers started before the budget check")

    monkeypatch.setattr(traces, "_graph_trace", no_powers)
    tight = Budget(max_selections=h.n**3 * 3)  # admits orders up to 7
    with pytest.raises(FeasibilityError, match="d=8"):
        trace_sequence(h, 8, budget=tight)
    # a range is refused at its first refused order, not at its top
    triangle = from_edge_list(2, 3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(FeasibilityError, match="d=8"):
        trace_sequence(triangle, 9, budget=Budget(max_selections=27 * 3))
    # on a bipartite graph an odd order is proved zero and never charged
    square = from_edge_list(2, 4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert trace_d(square, 9, budget=Budget(max_selections=1)) == 0


def test_rejects_negative_order():
    with pytest.raises(ValueError):
        trace_d(CORPUS["path-3-1"], -1)
    with pytest.raises(ValueError):
        trace_sequence(CORPUS["path-3-1"], -1)


def test_trace_sequence_metadata():
    ts = trace_sequence(CORPUS["rand-2-c"], 4)
    assert isinstance(ts, TraceSequence)
    assert (ts.m, ts.n) == (2, 5)
    assert all(isinstance(v, Fraction) for v in ts.values)
    assert len(ts.values) == 5


def test_graph_traces_are_integers():
    """Ordinary-graph power sums must come out with denominator 1."""
    ts = trace_sequence(CORPUS["rand-2-b"], 7)
    assert all(v.denominator == 1 for v in ts.values)


# m-symmetry certificate


def test_rotation_labelling_is_exact_mod_4():
    """4-uniform inputs that elimination mod 2, or pivots on units alone,
    would decide wrongly: the first two are solvable mod 2 but not mod 4,
    and the third has a labelling that needs a pivot divisible by 2."""
    for n, edges, solvable in (
        (6, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 4, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6)], False),
        (6, [(1, 2, 3, 6), (1, 2, 4, 5), (1, 3, 4, 6), (1, 3, 5, 6), (2, 3, 4, 5), (2, 4, 5, 6)], False),
        (7, [(1, 2, 3, 5), (1, 3, 4, 6), (2, 3, 4, 7), (3, 5, 6, 7)], True),
    ):
        h = from_edge_list(4, n, edges)
        assert has_rotation_labelling(h, 2)
        assert has_rotation_labelling(h) == solvable
        assert (traces._rotation_labelling(h) is not None) == solvable


def test_complete_three_graph_on_four_vertices_is_not_symmetric():
    """K_4^(3) has no labelling, and indeed its order-4 trace is nonzero."""
    h = from_edge_list(3, 4, itertools.combinations(range(1, 5), 3))
    assert traces._rotation_labelling(h) is None
    assert trace_d(h, 4) == 168


def _support(sigma) -> tuple[tuple[int, int], ...]:
    """The weighted support of a vector of per-edge pick totals, as the
    engine carries a candidate: the ascending (edge index, total) pairs
    with total > 0."""
    return tuple((i, t) for i, t in enumerate(sigma) if t)


def _record(m, edges, support) -> tuple[dict[int, int], dict[int, int]]:
    """The picks (vertex total / m) and the degree among the support's
    edges of every vertex of a weighted support."""
    totals, degree = {}, {}
    for i, t in support:
        for v in edges[i]:
            totals[v] = totals.get(v, 0) + t
            degree[v] = degree.get(v, 0) + 1
    return {v: t // m for v, t in totals.items()}, degree


def _key(m, edges, support) -> tuple:
    """The engine's class key of a weighted support."""
    return traces._class_key(edges, support, _record(m, edges, support)[1])


def _engine_trace(h, d, budget=None):
    """Tr_d from the sigma search and the per-vertex accumulation alone, the
    Eulerian engine, which never consults the labelling (graphs included)."""
    if d == 0 or not h.edges:
        return Fraction(h.eigenvalue_count() if d == 0 else 0)
    found = traces._sigma_range(h, [d], budget or Budget())
    shares, denominator = traces._accumulate(h, found.get(d, []))
    return Fraction(sum(shares), denominator)


def test_certified_zero_orders_match_the_engine():
    """Every corpus input with a labelling has zero traces at the orders
    m does not divide, by the engine that never consults the labelling."""
    for name, h in CORPUS.items():
        if traces._rotation_labelling(h) is not None:
            for d in range(1, 13):
                if d % h.m:
                    assert _engine_trace(h, d) == 0, (name, d)
                    assert trace_d(h, d) == 0, (name, d)


def test_certified_orders_keep_the_engine_refusals():
    """An order the labelling proves zero is 0 under any budget, in the
    traces and in the per-vertex shares, while the engine, which never
    consults the labelling, still refuses it past its closed-form budget."""
    h = CORPUS["path-3-3"]
    tight = Budget(max_selections=15 - 1)  # C(4 + 2, 2) = 15 sigma vectors at order 4
    assert traces._rotation_labelling(h) is not None
    assert trace_d(h, 4, tight) == 0
    assert vertex_trace_terms(h, 4, tight) == (Fraction(0),) * h.n
    with pytest.raises(FeasibilityError, match="d=4"):
        _engine_trace(h, 4, tight)
    assert trace_d(h, 4, Budget(max_selections=15)) == 0


def test_trace_sequence_equals_the_engine():
    """Skipping certified orders leaves every value of the sequence as an
    engine that never consults the labelling computes it: the Eulerian
    engine, and dense integer matrix powers for graphs."""
    for name, h in CORPUS.items():
        ts = trace_sequence(h, 12)
        if h.m == 2:
            expected = tuple(Fraction(t) for t in matrix_power_sums(h, 12))
        else:
            expected = tuple(_engine_trace(h, d) for d in range(13))
        assert ts.values == expected, name


def test_trace_sequence_skips_certified_orders(monkeypatch):
    """A labelled input is enumerated in one pass and accumulated only at
    the orders m divides, and it is not charged at the others; a refused
    order stops trace_sequence before any order is accumulated.  An order
    proved zero is never refused, and trace_sequence names the first
    refused order among those it computes."""
    passes, accumulated = [], []
    enumerate_range, accumulate = traces._sigma_range, traces._accumulate

    def record_pass(ctx, orders, budget):
        passes.append(orders)
        return enumerate_range(ctx, orders, budget)

    def record_accumulate(ctx, candidates):
        accumulated.append(sum(t for _, t in candidates[0]))
        return accumulate(ctx, candidates)

    monkeypatch.setattr(traces, "_sigma_range", record_pass)
    monkeypatch.setattr(traces, "_accumulate", record_accumulate)
    h = CORPUS["path-3-2"]
    ts = trace_sequence(h, 12)
    assert passes == [[3, 6, 9, 12]]
    assert accumulated == [3, 6, 9, 12]
    assert ts.values[4] == 0
    # order 12 predicts 2,066 tables and orders 3..9 at most 670
    passes.clear()
    accumulated.clear()
    with pytest.raises(FeasibilityError, match="d=12"):
        trace_sequence(h, 12, budget=Budget(max_selections=1000))
    assert passes == [[3, 6, 9, 12]]
    assert accumulated == []
    # with 10 edges, orders 3 and 4 have 220 and 715 sigma vectors, order 5
    # has 2,002: order 5 would be refused if it were charged, and it is
    # not, alone or in a range
    path = gen_hyperpath(3, 10)
    tight = Budget(max_selections=1000)
    ts = trace_sequence(path, 5, budget=tight)
    assert ts.values == trace_sequence(path, 5).values
    assert ts.values[5] == 0
    assert trace_d(path, 5, budget=tight) == 0
    # order 5 (2,002 vectors) is past this budget too but proved zero; the
    # range is refused at order 6 for its own 5,005 vectors, though it
    # predicts only 1,180 tables
    with pytest.raises(FeasibilityError, match="d=6"):
        trace_sequence(path, 6, budget=Budget(max_selections=2000))
    # the budget plays no part in seeking the labelling: it admits orders
    # up to 3 of a 5-edge path here, and orders 4 and 5 are proved zero
    with pytest.raises(FeasibilityError, match="d=6"):
        trace_sequence(gen_hyperpath(3, 5), 6, budget=Budget(max_selections=60))


def test_rotation_labelling_joins_prime_powers():
    """m = 6 is solved mod 2 and mod 3 and joined; K_7^(6) has no labelling
    (every vertex would carry the same a, with 6a = 1 mod 6)."""
    h = from_edge_list(6, 7, [(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7), (2, 3, 4, 5, 6, 7)])
    assert has_rotation_labelling(h)
    assert traces._rotation_labelling(h) is not None
    complete = from_edge_list(6, 7, itertools.combinations(range(1, 8), 6))
    assert not has_rotation_labelling(complete)
    assert traces._rotation_labelling(complete) is None


# Class keys of weighted supports

# four edges whose six vertices all have degree 2, so every edge has the
# same colour; any two edges of the first meet in one vertex, while the
# second is two pairs of edges that meet in two
PASCH = from_edge_list(3, 6, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
TWO_PAIRS = from_edge_list(3, 6, [(1, 2, 3), (1, 2, 4), (3, 5, 6), (4, 5, 6)])
STAR_AND_EDGE = from_edge_list(3, 7, [*gen_hyperstar(3, 3).edges, (2, 4, 6)])


def _keyed_supports(h, orders):
    """(class key, weighted support) of every sigma candidate of h at the
    orders; a support is a list of (total, edge) pairs."""
    edges = _incidence(h)[0]
    return [
        (_key(h.m, edges, support), [(t, edges[i]) for i, t in support])
        for found in traces._sigma_range(h, orders, Budget()).values()
        for support in found
    ]


def _tie_free(key) -> bool:
    """No two active edges of the keyed support share a colour."""
    return len(set(key[0])) == len(key[0])


def test_class_keys_match_the_isomorphism_oracle():
    """Over every pair of candidates of several inputs, pooled, equal keys
    mean that brute force over the edge bijections finds the weighted
    supports isomorphic, and on pairs with no tied edge colours the keys
    are equal exactly when the supports are.  The pool holds supports that
    differ in their totals alone, and PASCH and TWO_PAIRS, whose edge
    colours are all equal."""
    pool = []
    for h, top in ((PASCH, 12), (TWO_PAIRS, 12), (gen_hyperpath(3, 4), 12),
                   (STAR_AND_EDGE, 9), (CORPUS["rand-3-b"], 9)):
        pool += [(key, support) for key, support in _keyed_supports(h, list(range(3, top + 1)))
                 if len(support) <= 6]
    assert len(pool) > 200
    isomorphic = shared = tie_free = 0
    for (key, f), (other, g) in itertools.combinations(pool, 2):
        if sorted(s for s, _ in f) != sorted(s for s, _ in g):
            assert key != other
            continue
        same = weighted_supports_isomorphic(f, g)
        isomorphic += same
        if key == other:
            shared += 1
            assert same, (f, g)
        if _tie_free(key) and _tie_free(other):
            tie_free += 1
            assert (key == other) == same, (f, g)
    assert isomorphic >= shared > 1000
    assert tie_free > 1000


def test_equal_edge_colours_do_not_make_equal_keys():
    """PASCH and TWO_PAIRS at totals 3 are not isomorphic, and their keys
    differ, though their edges all have the same colour.  A support whose
    edge colours all differ keeps its key under a relabelling of its
    vertices and a reordering of its edges."""
    sigma = (3, 3, 3, 3)
    keys = [_key(3, _incidence(h)[0], _support(sigma))
            for h in (PASCH, TWO_PAIRS)]
    assert keys[0] != keys[1]
    assert keys[0][0] == keys[1][0]  # the colours
    assert not weighted_supports_isomorphic(*(
        [(3, e) for e in h.edges] for h in (PASCH, TWO_PAIRS)))
    path, sigma = gen_hyperpath(3, 3), (3, 6, 9)
    key = _key(3, _incidence(path)[0], _support(sigma))
    assert _tie_free(key)
    perm = [5, 7, 2, 1, 6, 3, 4]
    total = {tuple(sorted(perm[v - 1] - 1 for v in e)): t for e, t in zip(path.edges, sigma)}
    moved = from_edge_list(3, 7, [tuple(perm[v - 1] for v in e) for e in path.edges])
    edges = _incidence(moved)[0]
    assert [total[tuple(sorted(e))] for e in edges] != list(sigma)  # the edges moved
    assert _key(3, edges, _support(total[tuple(sorted(e))] for e in edges)) == key


def test_every_candidate_of_k5_has_a_shared_key():
    """Every candidate of K_5^(3) at orders 3..9 gets a key, and its
    candidates fall into far fewer keys than there are of them."""
    k5 = from_edge_list(3, 5, itertools.combinations(range(1, 6), 3))
    keyed = _keyed_supports(k5, list(range(3, 10)))
    keys = {key for key, _ in keyed}
    assert None not in keys
    assert len(keys) * 5 < len(keyed)


def test_tied_supports_share_their_sums(monkeypatch):
    """K_6^(3), whose supports tie many edge colours, forms few split sums
    at orders up to 6."""
    calls = 0
    sum_over_tables = traces._sum_over_tables

    def counted(*args):
        nonlocal calls
        calls += 1
        return sum_over_tables(*args)

    monkeypatch.setattr(traces, "_sum_over_tables", counted)
    trace_sequence(from_edge_list(3, 6, itertools.combinations(range(1, 7), 3)), 6)
    assert 0 < calls <= 60
