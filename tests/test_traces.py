"""Exact trace engine, checked against independent references."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from _oracles import (
    closed_walk_trace_terms,
    fraction_determinant,
    has_rotation_labelling,
    matrix_power_sums,
    star_trace,
)
from conftest import CORPUS
from hyperee import traces
from hyperee.estrada import order_m_trace
from hyperee.hypergraph import from_edge_list, gen_empty, gen_hyperpath, gen_hyperstar
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
    with pytest.raises(FeasibilityError, match="d=8"):
        trace_sequence(h, 8, budget=Budget(max_selections=h.n**3 * 3))


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


def _engine_trace(h, d):
    """Tr_d from the per-vertex engine, which never consults the labelling."""
    return sum(vertex_trace_terms(h, d), Fraction(0))


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
    """trace_d checks the budget before the labelling, so an order past
    the budget is refused whether or not it is certified zero."""
    h = CORPUS["path-3-3"]
    tight = Budget(max_selections=15 - 1)  # C(4 + 2, 2) = 15 sigma vectors at order 4
    assert traces._rotation_labelling(h) is not None
    with pytest.raises(FeasibilityError):
        trace_d(h, 4, tight)
    assert trace_d(h, 4, Budget(max_selections=15)) == 0


def test_trace_sequence_equals_the_engine():
    """Skipping certified orders leaves every value of the sequence as an
    engine that never consults the labelling computes it: the per-vertex
    engine, and dense integer matrix powers for graphs."""
    for name, h in CORPUS.items():
        ts = trace_sequence(h, 12)
        if h.m == 2:
            expected = tuple(Fraction(t) for t in matrix_power_sums(h, 12))
        else:
            expected = tuple(_engine_trace(h, d) for d in range(13))
        assert ts.values == expected, name


def test_trace_sequence_skips_certified_orders(monkeypatch):
    """A labelled input is neither budget-checked nor traced at the orders
    m does not divide."""
    checked, traced = [], []
    enumerate_orders, trace_order = traces._sigma_candidates, traces.trace_d

    def record_check(ctx, d, budget):
        checked.append(d)
        return enumerate_orders(ctx, d, budget)

    def record_trace(h, d, *args):
        traced.append(d)
        return trace_order(h, d, *args)

    monkeypatch.setattr(traces, "_sigma_candidates", record_check)
    monkeypatch.setattr(traces, "trace_d", record_trace)
    ts = trace_sequence(CORPUS["path-3-2"], 12)
    assert traced == [0, 3, 6, 9, 12]
    assert set(checked) == {3, 6, 9, 12}
    assert ts.values[4] == 0


def test_rotation_labelling_joins_prime_powers():
    """m = 6 is solved mod 2 and mod 3 and joined; K_7^(6) has no labelling
    (every vertex would carry the same a, with 6a = 1 mod 6)."""
    h = from_edge_list(6, 7, [(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7), (2, 3, 4, 5, 6, 7)])
    assert has_rotation_labelling(h)
    assert traces._rotation_labelling(h) is not None
    complete = from_edge_list(6, 7, itertools.combinations(range(1, 8), 6))
    assert not has_rotation_labelling(complete)
    assert traces._rotation_labelling(complete) is None
