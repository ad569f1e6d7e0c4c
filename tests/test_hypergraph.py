"""Data model, file format, and generators."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import is_hyperstar, union_find_components
from hyperee.hypergraph import (
    HypergraphFormatError,
    UniformHypergraph,
    VertexDegreeProfile,
    _incidence,
    connected_components,
    degrees,
    detect_hyperstar,
    from_edge_list,
    gen_empty,
    gen_hyperpath,
    gen_hyperstar,
    parse_hypergraph,
    serialize_hypergraph,
)
from hyperee.tensor import spectral_radius

# Construction and canonicalization


def test_edges_are_canonicalized():
    """Edges come out vertex-sorted and lexicographically ordered."""
    h = UniformHypergraph(3, 5, ((5, 4, 3), (3, 2, 1)))
    assert h.edges == ((1, 2, 3), (3, 4, 5))


def test_q_and_eigenvalue_count():
    h = gen_hyperstar(3, 2)
    assert h.q == 2
    assert h.n == 5
    assert h.eigenvalue_count() == 5 * 2**4


def test_eigenvalue_count_graph_case():
    """For ordinary graphs the eigenvalue count is just n."""
    assert gen_hyperpath(2, 4).eigenvalue_count() == 5


def test_rejects_wrong_arity():
    with pytest.raises(ValueError, match="arity"):
        UniformHypergraph(3, 5, ((1, 2),))


def test_rejects_repeated_vertex_in_edge():
    with pytest.raises(ValueError, match="repeats"):
        UniformHypergraph(3, 5, ((1, 2, 2),))


def test_rejects_vertex_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        UniformHypergraph(3, 4, ((2, 3, 5),))


def test_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        UniformHypergraph(3, 4, ((1, 2, 3), (3, 2, 1)))


def test_rejects_bad_m_and_n():
    with pytest.raises(ValueError):
        UniformHypergraph(1, 4, ())
    with pytest.raises(ValueError):
        UniformHypergraph(3, 0, ())


def test_empty_allows_n_below_m():
    """Without edges, n < m is legitimate."""
    assert gen_empty(4, 2).n == 2


def test_from_edge_list_accepts_any_iterables():
    h = from_edge_list(3, 4, [[1, 2, 3], (2, 3, 4)])
    assert h.edges == ((1, 2, 3), (2, 3, 4))


# File format


def test_parse_basic():
    h = parse_hypergraph("3 4 2\n1 2 3\n2 3 4\n")
    assert (h.m, h.n, h.q) == (3, 4, 2)
    assert h.edges == ((1, 2, 3), (2, 3, 4))


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n3 4 1   # header\n\n1 2 3\n# done\n"
    assert parse_hypergraph(text).edges == ((1, 2, 3),)


def test_parse_roundtrip():
    """serialize then parse is the identity on canonical form."""
    h = from_edge_list(3, 6, [(4, 5, 6), (1, 2, 3), (2, 4, 6)])
    assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_parse_reports_line_numbers():
    with pytest.raises(HypergraphFormatError, match="line 3"):
        parse_hypergraph("# intro\n3 4 2\n1 2\n2 3 4\n")


def test_parse_rejects_non_integer():
    with pytest.raises(HypergraphFormatError, match="non-integer"):
        parse_hypergraph("3 4 1\n1 2 x\n")


def test_parse_rejects_bad_header():
    with pytest.raises(HypergraphFormatError, match="header"):
        parse_hypergraph("3 4\n")


def test_parse_rejects_vertex_out_of_range():
    with pytest.raises(HypergraphFormatError, match="outside"):
        parse_hypergraph("3 4 1\n1 2 9\n")


def test_parse_rejects_duplicate_edge_with_both_lines():
    with pytest.raises(HypergraphFormatError, match="first seen on line 2"):
        parse_hypergraph("3 4 2\n1 2 3\n3 2 1\n")


def test_parse_is_linear_in_edges():
    """20,000 edges parse in under 2 s, and a duplicate on the last line
    still names the line its edge first appeared on."""
    text = serialize_hypergraph(gen_hyperpath(3, 20_000))
    start = time.perf_counter()
    h = parse_hypergraph(text)
    assert time.perf_counter() - start < 2.0
    assert h.q == 20_000
    rest = text.split("\n", 1)[1]
    dup = f"3 40001 20001\n{rest}3 2 1\n"
    start = time.perf_counter()
    with pytest.raises(HypergraphFormatError, match="line 20002.*first seen on line 2"):
        parse_hypergraph(dup)
    assert time.perf_counter() - start < 2.0


def test_parse_rejects_edge_count_mismatch():
    with pytest.raises(HypergraphFormatError, match="expected 2 edges"):
        parse_hypergraph("3 4 2\n1 2 3\n")
    with pytest.raises(HypergraphFormatError, match="more than the declared"):
        parse_hypergraph("3 4 1\n1 2 3\n2 3 4\n")


def test_parse_rejects_empty_input():
    with pytest.raises(HypergraphFormatError, match="line 1"):
        parse_hypergraph("# nothing here\n")


def test_serialize_empty():
    assert serialize_hypergraph(gen_empty(3, 4)) == "3 4 0\n"


# Generators


def test_gen_hyperstar_shape():
    h = gen_hyperstar(3, 3)
    assert h.n == 7
    assert all(1 in e for e in h.edges)
    assert degrees(h).degrees == (3, 1, 1, 1, 1, 1, 1)


def test_gen_hyperpath_shape():
    """Consecutive edges of a loose path overlap in exactly one vertex."""
    h = gen_hyperpath(4, 3)
    assert h.n == 10
    for a, b in zip(h.edges, h.edges[1:]):
        assert len(set(a) & set(b)) == 1


def test_gen_rejects_zero_edges():
    with pytest.raises(ValueError):
        gen_hyperstar(3, 0)
    with pytest.raises(ValueError):
        gen_hyperpath(3, 0)


def test_two_uniform_generators_are_graphs():
    star = gen_hyperstar(2, 4)
    assert star.edges == ((1, 2), (1, 3), (1, 4), (1, 5))
    path = gen_hyperpath(2, 3)
    assert path.edges == ((1, 2), (2, 3), (3, 4))


# Structure queries


def test_degrees_sum():
    h = from_edge_list(3, 6, [(1, 2, 3), (1, 4, 5), (2, 4, 6)])
    prof = degrees(h)
    assert isinstance(prof, VertexDegreeProfile)
    assert sum(prof.degrees) == 3 * h.q
    assert prof.max_degree == 2


def test_degrees_empty():
    assert degrees(gen_empty(3, 3)).max_degree == 0


def test_connected_components_with_isolated_vertex():
    h = from_edge_list(3, 7, [(1, 2, 3), (4, 5, 6)])
    assert connected_components(h) == [(1, 2, 3), (4, 5, 6), (7,)]


def test_connected_components_single():
    assert connected_components(gen_hyperpath(3, 3)) == [tuple(range(1, 8))]


def test_detect_hyperstar_on_generated_stars():
    for m, q in [(2, 5), (3, 1), (3, 4), (4, 2)]:
        assert detect_hyperstar(gen_hyperstar(m, q)) == q


def test_detect_hyperstar_accepts_relabelled_centre():
    """A two-edge loose path is a hyperstar centred on the shared vertex."""
    assert detect_hyperstar(gen_hyperpath(3, 2)) == 2


def test_detect_hyperstar_rejects_non_stars():
    assert detect_hyperstar(gen_hyperpath(3, 3)) is None
    assert detect_hyperstar(gen_empty(3, 4)) is None
    # right vertex count, wrong overlap pattern
    assert detect_hyperstar(from_edge_list(3, 5, [(1, 2, 3), (1, 2, 4)])) is None
    # star plus an isolated vertex is not a star
    assert detect_hyperstar(from_edge_list(3, 4, [(1, 2, 3)])) is None


@st.composite
def near_stars(draw) -> UniformHypergraph:
    """A random hypergraph, or a relabelled hyperstar, possibly with one
    isolated vertex or one edge added, or one edge moved (which keeps n and
    q, so only the degrees tell); m in {2, 3, 4} and n <= 9."""
    m = draw(st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(["random", "star", "+vertex", "+edge", "moved"]))
    if kind == "random":
        n = draw(st.integers(m, 9))
        pool = list(itertools.combinations(range(1, n + 1), m))
        edges = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    else:
        q = draw(st.integers(1, (9 - (kind == "+vertex") - 1) // (m - 1)))
        star = gen_hyperstar(m, q)
        n, edges = star.n + (kind == "+vertex"), list(star.edges)
        others = [e for e in itertools.combinations(range(1, n + 1), m)
                  if e not in star.edges]
        if kind in ("+edge", "moved") and others:
            if kind == "moved":
                edges.pop(draw(st.integers(0, q - 1)))
            edges.append(draw(st.sampled_from(others)))
    label = draw(st.permutations(range(1, n + 1)))
    return from_edge_list(m, n, [[label[v - 1] for v in e] for e in edges])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_stars())
def test_detect_hyperstar_matches_its_definition(h):
    """The degree-sequence test agrees with a check of the definition
    edge pair by edge pair, and a star's q is its edge count."""
    assert detect_hyperstar(h) == (h.q if is_hyperstar(h) else None)


def _scatter(h: UniformHypergraph, copies: int, order) -> UniformHypergraph:
    """Disjoint copies of h on copies * n vertices, spread in the order
    given: order lists, for each new vertex, the copy it belongs to, and
    each copy takes its vertices in ascending order, so every copy keeps
    the order of its vertices and edges."""
    vertex: list[list[int]] = [[] for _ in range(copies)]
    for new, copy in enumerate(order, start=1):
        vertex[copy].append(new)
    return from_edge_list(h.m, copies * h.n, [[vertex[c][v - 1] for v in e]
                                              for c in range(copies) for e in h.edges])


@st.composite
def scattered(draw) -> tuple[UniformHypergraph, int, UniformHypergraph]:
    """(h, c, the union of c copies of h): h is m-uniform, m in {2, 3, 4},
    on at most 12 vertices, with random edges on one to three disjoint
    blocks and the rest of its vertices isolated, under a random
    relabelling; the copies of the union are interleaved."""
    m = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(m, 12))
    edges, start = [], 1
    for size in draw(st.lists(st.integers(m, 6), min_size=1, max_size=3)):
        block = range(start, min(start + size, n + 1))
        start += size
        pool = list(itertools.combinations(block, m))
        if pool:
            edges += draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5,
                                   unique=True))
    label = draw(st.permutations(range(1, n + 1)))
    h = from_edge_list(m, n, [[label[v - 1] for v in e] for e in edges])
    c = draw(st.integers(2, 3))
    order = draw(st.permutations([copy for copy in range(c) for _ in range(n)]))
    return h, c, _scatter(h, c, order)


# two components of three edges each, and an isolated vertex
TWO_BLOCKS = from_edge_list(3, 13, [(1, 5, 9), (5, 7, 11), (7, 9, 12),
                                    (2, 3, 4), (3, 6, 8), (3, 4, 10)])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(scattered())
@example((TWO_BLOCKS, 3, _scatter(TWO_BLOCKS, 3, [2, 0, 1] * 13)))
def test_incidence_matches_its_definition(case):
    """The degrees and components read from the incidence are the edge
    counts and the union-find components; vertex v lists edge i exactly
    when v lies in edge i; and the radius of interleaved disjoint copies
    of h is h's own enclosure, bit for bit, after c times its
    iterations.  Labels are the least vertices of the components."""
    h, c, union = case
    for g in (h, union):
        edges, incident, label = _incidence(g)
        assert edges == tuple(tuple(v - 1 for v in e) for e in g.edges)
        assert incident == tuple(tuple(i for i, e in enumerate(edges) if v in e)
                                 for v in range(g.n))
        assert degrees(g).degrees == tuple(sum(v in e for e in g.edges)
                                           for v in range(1, g.n + 1))
        components = union_find_components(g)
        assert connected_components(g) == components
        assert all(label[v - 1] == comp[0] - 1 for comp in components for v in comp)
    alone, together = spectral_radius(h), spectral_radius(union)
    assert (together.lower, together.upper) == (alone.lower, alone.upper)
    assert together.iterations == c * alone.iterations
