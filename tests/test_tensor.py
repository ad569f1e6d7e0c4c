"""Tensor action and spectral-radius enclosures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import CORPUS
from hyperee import tensor
from hyperee.hypergraph import from_edge_list, gen_empty, gen_hyperpath, gen_hyperstar
from hyperee.tensor import apply, rho_lower_degree, rho_upper_degree, spectral_radius

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


def test_degree_bound_fallback_when_starved(monkeypatch):
    """With one iteration allowed, the upper end falls back to max degree."""
    monkeypatch.setattr(tensor, "RADIUS_MAX_ITER", 1)
    est = spectral_radius(gen_hyperstar(3, 4))
    assert est.method == "degree-bound"
    assert est.upper == 4.0
    assert est.lower <= 4 ** (1.0 / 3.0)
