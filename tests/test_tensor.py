"""Tensor action and spectral-radius enclosures."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import adjacency_matrix
from conftest import CORPUS
from hyperee import tensor
from hyperee.hypergraph import from_edge_list, gen_empty, gen_hyperpath, gen_hyperstar
from hyperee.tensor import apply, rho_lower_degree, rho_upper_degree, spectral_radius
from hyperee.traces import Budget

PROPERTY_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None
)

# Tensor action


def test_apply_single_edge():
    """(A x^{m-1})_i is the product of the other edge entries."""
    h = gen_hyperpath(3, 1)
    out = apply(h, [1.0, 2.0, 3.0])
    assert out == pytest.approx([6.0, 3.0, 2.0])


def test_apply_handles_zero_entries():
    h = gen_hyperpath(3, 1)
    out = apply(h, [0.0, 1.0, 1.0])
    assert out == pytest.approx([1.0, 0.0, 0.0])


def test_apply_survives_an_underflowing_edge_product():
    """The edge product 1e-400 underflows to 0, but the products over the
    other vertices do not."""
    out = apply(gen_hyperpath(3, 1), [1e-200, 1e-200, 1.0])
    assert list(out) == [1e-200, 1e-200, 0.0]


def test_apply_two_uniform_is_matrix_vector():
    h = gen_hyperpath(2, 3)
    a = np.zeros((4, 4))
    for u, v in h.edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    x = np.array([0.3, -1.2, 2.0, 0.7])
    assert apply(h, x) == pytest.approx(list(a @ x))


def test_apply_empty_is_zero():
    assert apply(gen_empty(3, 4), [1.0, 2.0, 3.0, 4.0]) == pytest.approx([0.0] * 4)


def test_apply_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 3"):
        apply(gen_hyperpath(3, 1), [1.0, 2.0])


# Spectral radius


def test_radius_single_edge_is_one():
    est = spectral_radius(gen_hyperpath(3, 1))
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    assert est.upper == pytest.approx(1.0, abs=1e-12)
    assert est.method == "power-iteration"


def test_radius_hyperstar_is_mth_root_of_q():
    """The largest hyperstar eigenvalue is q^(1/m)."""
    for m, q in [(2, 4), (3, 2), (3, 4), (4, 3)]:
        est = spectral_radius(gen_hyperstar(m, q))
        exact = q ** (1.0 / m)
        assert est.lower <= exact + 1e-12
        assert est.upper >= exact - 1e-12
        assert est.width <= 1e-8


def test_radius_graph_path():
    """P5 has spectral radius 2 cos(pi/6) = sqrt(3)."""
    est = spectral_radius(gen_hyperpath(2, 4))
    assert est.lower <= math.sqrt(3.0) <= est.upper
    assert est.width <= 1e-8


def test_radius_empty_is_zero():
    est = spectral_radius(gen_empty(3, 5))
    assert (est.lower, est.upper) == (0.0, 0.0)
    assert est.iterations == 0


def test_radius_disconnected_takes_max():
    h = from_edge_list(2, 5, [(1, 2), (3, 4), (4, 5)])  # K2 + P3
    est = spectral_radius(h)
    assert est.lower <= math.sqrt(2.0) <= est.upper
    assert est.width <= 1e-8


def test_radius_isolated_vertices_ignored():
    h = from_edge_list(3, 6, [(1, 2, 3)])
    est = spectral_radius(h)
    assert est.lower <= 1.0 <= est.upper


def test_degree_bound_dominates():
    for h in CORPUS.values():
        assert spectral_radius(h).upper <= rho_upper_degree(h) + 1e-9


def test_component_min_degree_is_a_lower_bound():
    """Largest per-component minimum degree never exceeds the radius."""
    for h in [*CORPUS.values(), from_edge_list(3, 7, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])]:
        assert rho_lower_degree(h) <= spectral_radius(h).upper + 1e-9
    disjoint = from_edge_list(2, 7, [(1, 2), (3, 4), (4, 5), (5, 3), (6, 7)])
    assert rho_lower_degree(disjoint) == 2.0  # the triangle, not the edges


def test_starved_enclosure_is_valid_and_no_tighter(monkeypatch):
    """With one iteration allowed, the enclosure is the exact
    Collatz-Wielandt interval of the second iterate: it still contains
    rho, and it is no tighter than the converged one.  K_4^(3) minus an
    edge is neither regular nor a graph power, so it starts from all
    ones; x = (a, b, b, b) gives 3b^2 = rho a^2 and 2ab = rho b^2, so
    rho = 12^(1/3), below the maximum degree 3."""
    h = from_edge_list(3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    converged = spectral_radius(h)
    monkeypatch.setattr(tensor, "RADIUS_MAX_ITER", 1)
    est = spectral_radius(h)
    assert est.method == "power-iteration" and est.iterations == 1
    assert est.lower <= converged.lower <= 12 ** (1.0 / 3.0)
    assert 12 ** (1.0 / 3.0) <= converged.upper <= est.upper < 3.0


def test_starved_loose_path_keeps_its_upper_end(monkeypatch):
    """Cut off at 50 iterations (2,390 uncapped), the 20-edge loose path
    with one more edge on the middle vertex of its second edge keeps the
    iteration's own upper end, not the degree bound 2, and still contains
    rho, which the converged enclosure holds.  That edge holds three
    vertices of degree 2, so the input is no graph power."""
    path = gen_hyperpath(3, 20)
    h = from_edge_list(3, 43, [*path.edges, (4, 42, 43)])
    converged = spectral_radius(h)
    monkeypatch.setattr(tensor, "RADIUS_MAX_ITER", 50)
    est = spectral_radius(h)
    assert est.iterations == 50
    assert est.lower <= converged.lower <= converged.upper <= est.upper < 2.0


def test_loose_path_is_proved_at_the_first_iterate():
    """p3-85 is the cube of the path on 86 vertices, so it starts from the
    lifted Perron vector: the float test accepts it at iteration 1 (the
    all-ones start stopped at the 10,000-iteration cap, 8.2e-10 wide),
    and the exact pass proves (2cos(pi/87))^(2/3) within 1e-13."""
    est = spectral_radius(gen_hyperpath(3, 85))
    assert (est.iterations, est.method) == (1, "power-lift")
    with mpmath.workdps(50):
        rho = (2 * mpmath.cos(mpmath.pi / 87)) ** (mpmath.mpf(2) / 3)
        assert est.lower <= rho <= est.upper
    assert est.width < 1e-13


def test_lift_stops_at_the_eigenvalue_cap():
    """The hyperstar with q edges lifts from the star on q + 1 vertices,
    each edge's core pair padded with one of its leaves.  At q + 1 =
    Budget().max_degree it is proved at iteration 1; one edge more, and
    it keeps the all-ones start."""
    cap = Budget().max_degree
    inside, past = (spectral_radius(gen_hyperstar(3, q)) for q in (cap - 1, cap))
    assert (inside.iterations, inside.method) == (1, "power-lift")
    assert past.iterations > 1 and past.method == "power-iteration"
    with mpmath.workdps(50):
        for est, q in ((inside, cap - 1), (past, cap)):
            assert est.lower <= mpmath.mpf(q) ** (mpmath.mpf(1) / 3) <= est.upper


def test_mixed_components_name_the_all_ones_start():
    """method reads "power-lift" only when every component with edges
    started from a lifted vector: a loose path beside K_4^(3) minus an
    edge, which is no graph power, reads "power-iteration"."""
    lifted = [(1, 2, 3), (3, 4, 5)]
    ones = [(6, 7, 8), (6, 7, 9), (6, 8, 9)]
    assert spectral_radius(from_edge_list(3, 9, lifted)).method == "power-lift"
    assert spectral_radius(from_edge_list(3, 9, ones)).method == "power-iteration"
    assert spectral_radius(from_edge_list(3, 9, lifted + ones)).method == "power-iteration"
    assert spectral_radius(gen_empty(3, 4)).method == "power-iteration"


def test_regular_enclosure_is_exact():
    """On K_n the all-ones vector is the Perron vector, so both ends are
    n - 1 exactly, with no outward step."""
    for n in (3, 7, 12):
        h = from_edge_list(2, n, itertools.combinations(range(1, n + 1), 2))
        est = spectral_radius(h)
        assert (est.lower, est.upper) == (n - 1, n - 1)


@PROPERTY_SETTINGS
@given(
    st.integers(2, 4).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.lists(st.integers(0, 7), min_size=m, max_size=m, unique=True),
                 min_size=1, max_size=10),
        st.lists(st.floats(1e-30, 1.0), min_size=8, max_size=8))))
def test_exact_ratios_match_an_independent_evaluation(case):
    """_collatz_wielandt against Fractions of the float entries on random
    positive vectors: both ends are the nearest floats on the outer side
    of the exact min and max of (A x^{m-1})_i / x_i^{m-1}."""
    m, edges, xs = case
    used = sorted({v for e in edges for v in e})
    local = {v: i for i, v in enumerate(used)}
    edges_idx = [[local[v] for v in e] for e in edges]
    x = np.array([xs[v] for v in used])
    sums = [Fraction(0)] * len(used)
    for e in edges_idx:
        for i in e:
            sums[i] += math.prod(Fraction(x[v]) for v in e if v != i)
    ratios = [s / Fraction(x[i]) ** (m - 1) for i, s in enumerate(sums)]
    lower, upper = tensor._collatz_wielandt(m - 1, edges_idx, x)
    assert lower <= min(ratios) < math.nextafter(lower, math.inf)
    assert math.nextafter(upper, 0.0) < max(ratios) <= upper


def test_exact_ratios_survive_an_underflowed_entry():
    """K_8^(3) with a 150-edge loose path attached: its Perron vector spans
    more than float range, so an entry of x^2 underflows to 0.  The
    iteration stops there, with no warning, and takes the exact ratios of
    the iterate before.  rho is at least the proved lower end for the
    60-edge tail, a subhypergraph, and at most C(7, 2) plus a little."""
    core = list(itertools.combinations(range(1, 9), 3))

    def tailed(p):
        return from_edge_list(3, 8 + 2 * p, core + [(v, v + 1, v + 2) for v in range(8, 8 + 2 * p, 2)])

    sub, est = spectral_radius(tailed(60)), spectral_radius(tailed(150))
    assert est.iterations < tensor.RADIUS_MAX_ITER
    assert est.lower <= sub.lower <= est.upper < 21.0003


def test_radius_stops_at_the_first_underflowed_iterate():
    """K_30 with a 250-vertex path attached: the Perron vector falls by a
    factor of about 29 per path vertex, so the iterate underflows long
    before the float ratios settle.  The enclosure of the last iterate
    before that contains rho (dense eigvalsh) tightly, with no warning."""
    edges = list(itertools.combinations(range(1, 31), 2)) + [(v, v + 1) for v in range(30, 280)]
    h = from_edge_list(2, 280, edges)
    est = spectral_radius(h)
    rho = np.linalg.eigvalsh(adjacency_matrix(h))[-1]
    assert est.iterations < tensor.RADIUS_MAX_ITER
    assert est.lower <= rho <= est.upper <= 29.0013


@st.composite
def radius_cases(draw) -> tuple[str, object]:
    """A random graph with n <= 8, the 3rd or 4th power of one (parallel
    core pairs allowed), a loose path or a star."""
    kind = draw(st.sampled_from(["graph", "power", "path", "star"]))
    if kind in ("graph", "power"):
        n = draw(st.integers(2, 8))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        if kind == "graph":
            edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
            return kind, from_edge_list(2, n, edges)
        m = draw(st.integers(3, 4))
        core = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
        added = iter(range(n + 1, n + 1 + (m - 2) * len(core)))
        edges = [(u, v, *itertools.islice(added, m - 2)) for u, v in core]
        return kind, from_edge_list(m, n + (m - 2) * len(core), edges)
    m, size = draw(st.integers(2, 5)), draw(st.integers(1, 12))
    return kind, (gen_hyperpath if kind == "path" else gen_hyperstar)(m, size)


def _exact_radius(kind, h):
    """rho at 50 digits: mpmath's symmetric eigensolver on A for graphs,
    lambda_max(G)^(2/m) on the m-th power of G, (2cos(pi/(p+2)))^(2/m) on
    loose paths, q^(1/m) on stars."""
    m, q = h.m, len(h.edges)
    if kind in ("graph", "power"):
        n = h.n - (m - 2) * q  # G's vertices come first, each edge's pair first
        a = mpmath.zeros(n)
        for u, v, *_ in h.edges:
            a[u - 1, v - 1] += 1
            a[v - 1, u - 1] += 1
        lam = max(abs(lam) for lam in mpmath.eigsy(a, eigvals_only=True))
        return lam ** (mpmath.mpf(2) / m)
    if kind == "path":
        return (2 * mpmath.cos(mpmath.pi / (q + 2))) ** (mpmath.mpf(2) / m)
    return mpmath.mpf(q) ** (mpmath.mpf(1) / m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2, 5, tensor.RADIUS_MAX_ITER]), radius_cases())
def test_enclosure_contains_the_radius_at_50_digits(max_iter, case):
    """Whatever the iteration cap, the enclosure contains rho.  The slack
    1e-40 covers only the eigensolver's own error at 50 digits; it is far
    below an ulp of either end."""
    kind, h = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "RADIUS_MAX_ITER", max_iter)
        est = spectral_radius(h)
    assert est.iterations <= max_iter * len(h.edges)
    with mpmath.workdps(50):
        slack = mpmath.mpf(10) ** -40
        assert est.lower - slack <= _exact_radius(kind, h) <= est.upper + slack
