"""Property tests of the trace engine on random small inputs."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import (
    closed_walk_trace_terms,
    fraction_determinant,
    full_laplacian_table_sum,
    has_rotation_labelling,
    matrix_power_sums,
    sigma_candidates,
)
from hyperee import traces
from hyperee.hypergraph import (
    UniformHypergraph,
    _incidence,
    from_edge_list,
    gen_hyperpath,
    gen_hyperstar,
)
from hyperee.traces import (
    Budget,
    FeasibilityError,
    _rotation_labelling,
    trace_d,
    trace_sequence,
    vertex_trace_terms,
)
from test_traces import _engine_trace, _record, _support

PROPERTY_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None
)


@st.composite
def hypergraphs(draw, m: int, max_n: int, max_q: int) -> UniformHypergraph:
    n = draw(st.integers(m, max_n))
    pool = list(itertools.combinations(range(1, n + 1), m))
    edges = draw(st.lists(st.sampled_from(pool), max_size=max_q, unique=True))
    return from_edge_list(m, n, edges)


@PROPERTY_SETTINGS
@given(hypergraphs(2, 7, 8), st.integers(0, 7))
def test_graph_routes_agree(h, d):
    """Matrix powers, the Eulerian engine and the dense oracle give the same
    exact graph trace."""
    want = matrix_power_sums(h, d)[d]
    assert trace_d(h, d) == want
    assert _engine_trace(h, d) == want


@PROPERTY_SETTINGS
@given(hypergraphs(2, 16, 60), st.integers(0, 90))
def test_graph_traces_match_matrix_powers(h, d):
    """Orders high enough to need several moduli stay exact."""
    assert trace_d(h, d) == matrix_power_sums(h, d)[d]


@PROPERTY_SETTINGS
@given(
    st.sampled_from([3, 4]).flatmap(lambda m: hypergraphs(m, 6, 3)),
    st.integers(1, 9),
)
# the derandomized draws are mostly edgeless or at orders with trace 0, so
# two inputs with unequal nonzero shares are always tried as well
@example(from_edge_list(3, 5, [(1, 3, 4), (2, 3, 4), (3, 4, 5)]), 9)
@example(from_edge_list(3, 5, [(1, 2, 5), (1, 3, 5), (2, 3, 4)]), 6)
def test_walk_cross_check_agrees(h, d):
    """The engine's per-vertex shares equal the brute-force closed-walk
    oracle's, entry by entry."""
    assert vertex_trace_terms(h, d) == closed_walk_trace_terms(h, d)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.sampled_from([3, 4]).flatmap(lambda m: hypergraphs(m, 6, 6)),
        hypergraphs(2, 8, 12),
    )
)
def test_rotation_labelling_matches_search(h):
    """The solver finds a labelling exactly when a search of all m^n
    labellings does; when it finds one, every order up to 12 that m does
    not divide has trace 0 in the Eulerian engine, which never consults
    the labelling."""
    labels = _rotation_labelling(h)
    assert (labels is not None) == has_rotation_labelling(h)
    if labels is not None:
        assert all(sum(labels[v - 1] for v in e) % h.m == 1 for e in h.edges)
        for d in range(1, 13):
            if d % h.m:
                assert _engine_trace(h, d) == 0
                assert trace_d(h, d) == 0


def _range(h: UniformHypergraph, lo: int, hi: int) -> list[tuple[Fraction, ...]]:
    """The per-vertex shares of orders lo..hi from one pass."""
    return [tuple(Fraction(s, denominator) for s in shares)
            for shares, denominator in traces._trace_range(h, lo, hi, Budget())]


small_hypergraphs = st.sampled_from([3, 4]).flatmap(lambda m: hypergraphs(m, 6, 4))


@PROPERTY_SETTINGS
@given(small_hypergraphs, st.integers(0, 12))
def test_range_equals_per_order_traces(h, lo):
    """One pass over orders lo..12 gives the shares each order alone
    gives, and they sum to the traces."""
    shares = _range(h, lo, 12)
    assert shares == [vertex_trace_terms(h, d) for d in range(lo, 13)]
    assert [sum(s) for s in shares] == [trace_d(h, d) for d in range(lo, 13)]


# the brute-force oracle takes up to half a second per input at order 6
@settings(PROPERTY_SETTINGS, max_examples=10)
@given(small_hypergraphs)
@example(from_edge_list(3, 5, [(1, 3, 4), (2, 3, 4), (3, 4, 5)]))
def test_range_equals_closed_walk_oracle(h):
    """The range's shares up to order 6 are the brute-force closed-walk
    shares, entry by entry."""
    assert _range(h, 0, 6) == [closed_walk_trace_terms(h, d) for d in range(7)]


@PROPERTY_SETTINGS
@given(small_hypergraphs, st.randoms(use_true_random=False))
def test_range_invariant_under_relabelling(h, rng):
    """A relabelling of the vertices moves each share with its vertex."""
    perm = list(range(1, h.n + 1))
    rng.shuffle(perm)
    moved = from_edge_list(h.m, h.n, [tuple(perm[v - 1] for v in e) for e in h.edges])
    assert [tuple(s[p - 1] for p in perm) for s in _range(moved, 0, 12)] == _range(h, 0, 12)


@PROPERTY_SETTINGS
@given(small_hypergraphs, st.integers(1, 9))
@example(from_edge_list(3, 6, [(1, 2, 3), (4, 5, 6), (1, 4, 5)]), 1)
def test_range_candidates_match_brute_force(h, lo):
    """One pass over orders lo..9 finds, order by order, exactly the pick
    totals a search of every vector finds: vertex totals divisible by m and
    the active edges connected (disjoint edges are not, so they are never
    charged to the budget)."""
    assume(h.edges)

    def connected(active):
        seen, stack = set(active[0]), [active[0]]
        while stack:
            e = stack.pop()
            for f in active:
                if f not in stack and set(f) & seen and not set(f) <= seen:
                    seen |= set(f)
                    stack.append(f)
        return seen == set().union(*active)

    want: dict[int, list] = {}
    for sigma in itertools.product(range(10), repeat=len(h.edges)):
        totals = [sum(s for s, e in zip(sigma, h.edges) if v in e) for v in range(1, h.n + 1)]
        active = [e for s, e in zip(sigma, h.edges) if s]
        if lo <= sum(sigma) <= 9 and all(t % h.m == 0 for t in totals) and connected(active):
            want.setdefault(sum(sigma), []).append(_support(sigma))
    found = traces._sigma_range(h, list(range(lo, 10)), Budget())
    assert {d: sorted(c) for d, c in found.items()} == {d: sorted(c) for d, c in want.items()}


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.sampled_from([3, 4]).flatmap(lambda m: hypergraphs(m, 7, 5)),
        hypergraphs(2, 7, 6),
    ),
    st.integers(1, 6),
    st.integers(0, 6),
    st.integers(1, 6),
)
# two disjoint edges that only the last one joins; a chain of four edges;
# a star with a pendant path, whose order-9 tables pass 10^3; and a
# 5-cycle, whose matrix-power work n^3 per bit refuses order 2 at 10^2
@example(from_edge_list(3, 7, [(1, 5, 6), (2, 3, 4), (3, 5, 7)]), 3, 9, 6)
@example(gen_hyperpath(2, 4), 8, 0, 6)
@example(from_edge_list(3, 7, [(1, 2, 3), (1, 4, 5), (5, 6, 7)]), 3, 9, 3)
@example(from_edge_list(2, 5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 2, 8, 2)
def test_search_finds_what_every_vector_finds(h, lo, width, exponent):
    """The pruned search yields the candidates of orders lo..lo+width, and
    in the same order, as a search of every vector that keeps the
    connected ones; under a budget of 10^exponent it refuses at the same
    order with the same message."""
    assume(h.edges)
    hi, budget = lo + width, Budget(max_selections=10**exponent)
    want = sigma_candidates(h.m, h.n, _incidence(h)[0], lo, hi, budget.max_selections)
    if isinstance(want, int):
        with pytest.raises(FeasibilityError) as refusal:
            traces._sigma_range(h, list(range(lo, hi + 1)), budget)
        assert str(refusal.value) == str(traces._infeasible(h.n, h.m, want, budget))
    else:
        assert traces._sigma_range(h, list(range(lo, hi + 1)), budget) == {
            d: [_support(sigma) for sigma in c] for d, c in want.items()}


def _supports(h: UniformHypergraph, d: int):
    """(0-based edges, weighted support) of every sigma candidate of order
    d; none without edges."""
    if not h.edges:
        return
    edges = _incidence(h)[0]
    for support in traces._sigma_range(h, [d], Budget()).get(d, []):
        yield edges, support


# every vertex of the Pasch configuration lies in two edges: no leaf, and a
# core of five vertices past the root; the loose 6-cycle adds a leaf to each
# of those edges
PASCH = from_edge_list(3, 6, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
LOOSE_CYCLE = from_edge_list(3, 12, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9),
                                     (9, 10, 11), (11, 12, 1)])


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.sampled_from([3, 4]).flatmap(lambda m: hypergraphs(m, 7, 5)),
        hypergraphs(2, 7, 7),
    ),
    st.integers(2, 9),
)
@example(gen_hyperpath(3, 1), 6)  # one edge: the root is a leaf, the core empty
@example(gen_hyperpath(4, 1), 8)
@example(gen_hyperpath(2, 3), 6)
@example(gen_hyperstar(3, 3), 9)  # every edge's one non-leaf is the root
@example(gen_hyperstar(4, 2), 8)
# pairs of edges sharing one or two vertices: k_e = 3, and k_e = 2 with g = 2
@example(from_edge_list(4, 7, [(1, 2, 3, 4), (1, 2, 5, 6), (3, 5, 6, 7)]), 8)
@example(PASCH, 12)  # no leaf, and Bareiss on the core of 5
@example(LOOSE_CYCLE, 18)  # leaves beside a core of 5
def test_core_reduction_matches_the_full_laplacian(h, d):
    """The split sum on the core of each support, its leaves eliminated
    in closed form, equals the sum over every split of the whole
    Laplacian's determinant."""
    for edges, support in _supports(h, d):
        picks, degree = _record(h.m, edges, support)
        sigma = [0] * len(edges)  # the oracle reads dense totals and picks
        for i, t in support:
            sigma[i] = t
        assert traces._sum_over_tables(h.m, edges, support, picks, degree) == (
            full_laplacian_table_sum(h.m, h.n, edges, tuple(sigma),
                                     [picks.get(v, 0) for v in range(h.n)])), sigma


def _proved_zero(h: UniformHypergraph, d: int) -> bool:
    """Orders 1..m-1 vanish on every input, and with a labelling (found by
    search over all m^n of them) so do the orders m does not divide."""
    return 0 < d < h.m or (d % h.m != 0 and has_rotation_labelling(h))


def _own_work(h: UniformHypergraph, d: int) -> int:
    """What order d alone is charged: its C(d+q-1, q-1) pick-total
    vectors, or the predicted tables of its candidates, whichever is
    larger (each is held against the budget on its own)."""
    if not h.edges:
        return 0
    found = traces._sigma_range(h, [d], Budget())
    tables = sum(math.prod(math.comb(t + h.m - 1, h.m - 1) for _, t in support)
                 for support in found.get(d, []))
    return max(math.comb(d + len(h.edges) - 1, len(h.edges) - 1), tables)


@PROPERTY_SETTINGS
@given(small_hypergraphs, st.integers(1, 2000), st.integers(0, 12))
# a labelled fan whose orders 3..6 are charged 40, 35, 56 and 712: order 5
# is proved zero past the budget, and order 6 is refused
@example(from_edge_list(3, 6, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)]), 50, 5)
@example(from_edge_list(3, 6, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)]), 50, 6)
@example(from_edge_list(3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]), 40, 9)
def test_one_admission_rule(h, selections, d):
    """An order proved zero is never charged or refused; every other order
    is refused exactly when its own work exceeds the budget; and a range
    is refused exactly when one of its orders is, naming the first."""
    budget = Budget(max_selections=selections)
    refused = [e for e in range(1, d + 1)
               if not _proved_zero(h, e) and _own_work(h, e) > selections]
    if d in refused:
        with pytest.raises(FeasibilityError, match=rf"d={d}\)"):
            trace_d(h, d, budget)
    else:
        assert trace_d(h, d, budget) == trace_d(h, d)
    if refused:
        with pytest.raises(FeasibilityError, match=rf"d={refused[0]}\)"):
            trace_sequence(h, d, budget)
    else:
        assert trace_sequence(h, d, budget) == trace_sequence(h, d)


@st.composite
def class_inputs(draw) -> UniformHypergraph:
    """A small random input as drawn, relabelled, or beside a second one
    on vertices of its own."""
    m = draw(st.sampled_from([3, 4]))
    h = draw(hypergraphs(m, 6, 4))
    kind = draw(st.sampled_from(["drawn", "relabelled", "disconnected"]))
    if kind == "relabelled":
        perm = draw(st.permutations(range(1, h.n + 1)))
        return from_edge_list(m, h.n, [tuple(perm[v - 1] for v in e) for e in h.edges])
    if kind == "disconnected":
        g = draw(hypergraphs(m, 5, 2))
        return from_edge_list(m, h.n + g.n, [*h.edges, *(tuple(v + h.n for v in e) for e in g.edges)])
    return h


def _keyless(h: UniformHypergraph, max_d: int):
    """The traces to max_d and the per-vertex shares of each order, with
    every candidate summed on its own instead of once per class: keyed by
    its own totals, as no two candidates of one order share them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_class_key", lambda edges, support, degree: support)
        return trace_sequence(h, max_d), [vertex_trace_terms(h, d) for d in range(max_d + 1)]


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(class_inputs())
# symmetric inputs, whose candidates fall into few classes: loose paths, a
# star plus an edge between its leaves, K_5^(3), whose supports tie many
# edge colours and are keyed in edge-index order, and two four-edge
# components whose edges all have one colour, though they are not
# isomorphic (any two edges of the first meet in one vertex)
@example(from_edge_list(3, 12, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6),
                                (7, 8, 9), (7, 8, 10), (9, 11, 12), (10, 11, 12)]))
@example(gen_hyperpath(3, 4))
@example(gen_hyperpath(4, 3))
@example(from_edge_list(3, 7, [*gen_hyperstar(3, 3).edges, (2, 4, 6)]))
@example(from_edge_list(3, 5, itertools.combinations(range(1, 6), 3)))
def test_class_sums_equal_per_candidate_sums(h):
    """Summing once per class of weighted support leaves every trace up
    to order 12 (9 on K_5^(3), whose order 12 takes seconds) and every
    per-vertex share as a sum over the candidates one by one gives them,
    and the traces up to order 6 (4 past twelve pick slots, m per edge) as
    the brute-force closed-walk oracle gives them."""
    top = 12 if len(h.edges) <= 8 else 9
    ts = trace_sequence(h, top)
    keyless, shares = _keyless(h, top)
    assert ts == keyless
    assert [vertex_trace_terms(h, d) for d in range(top + 1)] == shares
    oracle_top = 6 if h.m * len(h.edges) <= 12 else 4
    assert list(ts.values[:oracle_top + 1]) == [
        sum(closed_walk_trace_terms(h, d)) for d in range(oracle_top + 1)]


@st.composite
def reduced_laplacians(draw, size: int) -> list[list[int]]:
    """The out-degree Laplacian of a random multi-digraph on size + 1
    vertices with vertex 0's row and column removed: a Z-matrix whose rows
    sum to >= 0."""
    n = size + 1
    arcs = [[0 if u == v else draw(st.integers(0, 3)) for v in range(n)] for u in range(n)]
    lap = [[(sum(row) if u == v else -row[v]) for v in range(n)] for u, row in enumerate(arcs)]
    return [row[1:] for row in lap[1:]]


@pytest.mark.parametrize("size", range(7))
@settings(PROPERTY_SETTINGS, max_examples=15)
@given(data=st.data())
def test_determinants_match_rational_elimination(size, data):
    """The closed forms (sizes 0..4) and Bareiss (every size) agree with
    elimination over the rationals and leave their argument unchanged."""
    a = data.draw(reduced_laplacians(size))
    want = fraction_determinant(a)
    kept = [row[:] for row in a]
    if size < len(traces._DETERMINANTS):
        assert traces._DETERMINANTS[size](a) == want
    assert traces._det_bareiss(a) == want
    assert a == kept
