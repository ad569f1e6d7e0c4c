"""Property tests of the trace engine on random small inputs."""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import closed_walk_trace_terms, has_rotation_labelling, matrix_power_sums
from hyperee.hypergraph import UniformHypergraph, from_edge_list
from hyperee.traces import _rotation_labelling, trace_d, vertex_trace_terms

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
    """Matrix powers, the Eulerian per-vertex engine and the dense oracle
    give the same exact graph trace."""
    want = matrix_power_sums(h, d)[d]
    assert trace_d(h, d) == want
    assert sum(vertex_trace_terms(h, d)) == want


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
    not divide has trace 0 in the per-vertex engine, which never consults
    the labelling."""
    labels = _rotation_labelling(h)
    assert (labels is not None) == has_rotation_labelling(h)
    if labels is not None:
        assert all(sum(labels[v - 1] for v in e) % h.m == 1 for e in h.edges)
        for d in range(1, 13):
            if d % h.m:
                assert sum(vertex_trace_terms(h, d)) == 0
                assert trace_d(h, d) == 0
