"""Estrada-index computations and bounds."""

from __future__ import annotations

import math
import sys
import time

import pytest

from _oracles import (
    hyperstar_ee_m3,
    hyperstar_ee_m4,
    matrix_estrada,
    orbit_sum_m3,
    orbit_sum_m4,
)
from conftest import CORPUS
from hyperee import traces
from hyperee._poly import ConvergenceError
from hyperee.estrada import (
    bounds_basic,
    bounds_refined,
    ee_from_spectrum,
    ee_hyperstar,
    ee_symmetric,
    ee_trace_series,
    estrada_index,
    order_m_trace,
)
from hyperee.hypergraph import from_edge_list, gen_empty, gen_hyperpath, gen_hyperstar
from hyperee.spectrum import (
    Spectrum,
    hyperstar_spectrum,
    spectrum,
    symmetric_representatives,
)
from hyperee.tensor import spectral_radius
from hyperee.traces import Budget, FeasibilityError, trace_d

# Closed forms


def test_single_edge_value():
    """One 3-edge: EE = 3 + 3e + 6 e^(-1/2) cos(sqrt(3)/2)."""
    want = 3.0 + 3.0 * math.e + 6.0 * math.exp(-0.5) * math.cos(math.sqrt(3.0) / 2.0)
    res = ee_hyperstar(3, 1)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.method == "hyperstar-closed-form"
    assert res.error_bound == 0.0


def test_four_uniform_single_edge_value():
    """One 4-edge: EE = 44 + 32 cosh(1) + 32 cos(1)."""
    want = 44.0 + 32.0 * math.cosh(1.0) + 32.0 * math.cos(1.0)
    assert ee_hyperstar(4, 1).value == pytest.approx(want, rel=1e-12)


def test_graph_star_value():
    """K_{1,q}: EE = (q - 1) + 2 cosh(sqrt(q))."""
    for q in range(1, 11):
        want = (q - 1) + 2.0 * math.cosh(math.sqrt(q))
        assert ee_hyperstar(2, q).value == pytest.approx(want, rel=1e-12)


def test_graph_star_example():
    assert ee_hyperstar(2, 4).value == pytest.approx(3.0 + 2.0 * math.cosh(2.0))


def test_fast_paths_match_general_form():
    """The rotation sum matches the m = 3 and m = 4 trigonometric oracles."""
    for m, oracle in ((3, hyperstar_ee_m3), (4, hyperstar_ee_m4)):
        for q in range(1, 7):
            got = ee_hyperstar(m, q).value
            want = oracle(q)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (m, q)


def test_closed_form_matches_spectrum_sum():
    for m, q in [(2, 3), (3, 2), (4, 1), (3, 4)]:
        a = ee_hyperstar(m, q).value
        b = ee_from_spectrum(hyperstar_spectrum(m, q)).value
        assert a == pytest.approx(b, rel=1e-10)


# Spectrum summation


def test_graph_corpus_matches_dense_eigensolver():
    """m = 2 values agree with numpy's symmetric eigensolver."""
    for name, h in CORPUS.items():
        if h.m != 2:
            continue
        res = ee_from_spectrum(spectrum(h))
        assert res.value == pytest.approx(matrix_estrada(h), rel=1e-8), name


def test_spectrum_sum_flags_conjugate_violation():
    s = Spectrum(k=2, entries=((1j, 1), (0.5j, 1)), provenance="test")
    with pytest.raises(ValueError, match="conjugate"):
        ee_from_spectrum(s)


def test_spectrum_sum_error_scales_with_residual():
    s = Spectrum(
        k=2, entries=((1 + 0j, 1), (-1 + 0j, 1)),
        provenance="test", residual=1e-12,
    )
    res = ee_from_spectrum(s)
    assert res.error_bound == pytest.approx(2.0 * math.e * 1e-12)


# Trace series


def test_series_on_empty_is_exact():
    h = gen_empty(3, 4)
    res = ee_trace_series(h)
    assert res.value == 32.0
    assert res.converged
    assert res.error_bound <= 1e-6


def test_series_matches_closed_form_single_edge():
    res = ee_trace_series(gen_hyperpath(3, 1), 1e-8)
    assert res.method == "trace-series"
    assert res.converged
    assert res.value == pytest.approx(ee_hyperstar(3, 1).value, abs=2e-8)


def test_series_tail_is_honest():
    """Coarse and fine truncations differ by less than the coarse bound."""
    h = CORPUS["tight-pair-3"]
    coarse = ee_trace_series(h, 1e-1)
    fine = ee_trace_series(h, 1e-9)
    assert abs(coarse.value - fine.value) <= coarse.error_bound
    assert coarse.terms_used < fine.terms_used


def test_series_accepts_explicit_radius_majorant():
    h = CORPUS["tight-pair-3"]
    res = ee_trace_series(h, 1e-6, rho_hat=2.0)
    assert res.value == pytest.approx(ee_trace_series(h, 1e-6).value, abs=1e-5)


def test_series_partial_when_budget_starves_selection():
    h = CORPUS["tight-pair-3"]
    res = ee_trace_series(h, 1e-6, budget=Budget(max_selections=100))
    assert not res.converged
    assert res.error_bound > 1e-6  # the honest unreached tail


def test_series_partial_when_budget_starves_graph_powers():
    """Orders 0..3 of a 7-vertex graph fit 7^3 * 2 units; order 4 needs 7^3 * 3."""
    h = CORPUS["rand-2-b"]
    res = ee_trace_series(h, 1e-6, budget=Budget(max_selections=h.n**3 * 2))
    assert not res.converged
    assert res.terms_used == 4
    assert res.error_bound > 1e-6


def test_series_partial_when_order_cap_hits():
    res = ee_trace_series(CORPUS["path-3-3"], 1e-12, budget=Budget(max_degree=4))
    assert not res.converged
    assert res.terms_used == 5


def test_series_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        ee_trace_series(gen_hyperpath(3, 1), 0.0)


# Rotation-symmetric evaluation


def test_symmetric_formula_on_stars():
    for m, q in [(3, 2), (3, 3), (4, 2)]:
        s = hyperstar_spectrum(m, q)
        n0, reps = symmetric_representatives(s, m)
        res = ee_symmetric(reps, n0, m, k=s.k)
        assert res.method == "symmetric-formula"
        assert res.value == pytest.approx(ee_from_spectrum(s).value, rel=1e-10)


def test_symmetric_formula_fast_vs_general():
    """The rotation sum matches the trigonometric orbit oracles."""
    for m, oracle in ((3, orbit_sum_m3), (4, orbit_sum_m4)):
        s = hyperstar_spectrum(m, 3)
        n0, reps = symmetric_representatives(s, m)
        got = ee_symmetric(reps, n0, m, k=s.k).value
        want = n0 + sum(mult * oracle(alpha, beta) for alpha, beta, mult in reps)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), m


def test_symmetric_formula_checks_coverage():
    with pytest.raises(ValueError, match="cover"):
        ee_symmetric([(1.0, 0.0, 2)], 3, 3, k=12)
    with pytest.raises(ValueError):
        ee_symmetric([(1.0, 0.0, 0)], 3, 3)
    with pytest.raises(ValueError):
        ee_symmetric([], -1, 3)


# Method agreement and dispatch


def test_methods_agree_on_newton_sized_instances():
    for name in ["tight-pair-3", "rand-2-a", "rand-2-b", "rand-2-c"]:
        h = CORPUS[name]
        a = ee_from_spectrum(spectrum(h))
        b = ee_trace_series(h, 1e-8)
        gap = a.error_bound + b.error_bound + 1e-6
        assert abs(a.value - b.value) <= gap, name


def test_symmetric_method_via_dispatch():
    h = CORPUS["tight-pair-3"]
    res = estrada_index(h, "symmetric")
    want = estrada_index(h, "spectrum")
    assert res.method == "symmetric-formula"
    assert res.value == pytest.approx(want.value, rel=1e-9)


def test_auto_prefers_star_form():
    assert estrada_index(gen_hyperstar(3, 3)).method == "hyperstar-closed-form"


def test_auto_uses_spectrum_for_small_k():
    assert estrada_index(CORPUS["tight-pair-3"]).method == "spectrum-sum"


def test_auto_uses_series_for_large_k():
    res = estrada_index(CORPUS["path-3-3"], tol=1e-4)
    assert res.method == "trace-series"
    assert res.converged


def test_auto_falls_back_when_spectrum_budget_trips():
    """k fits the degree budget, but the trace orders do not: auto must
    degrade to the series rather than fail."""
    h = CORPUS["tight-pair-3"]
    res = estrada_index(h, budget=Budget(max_degree=128, max_selections=100))
    assert res.method == "trace-series"
    assert not res.converged


def test_root_failure_is_a_refusal_and_auto_falls_back(monkeypatch):
    def stuck(*args, **kwargs):
        raise ConvergenceError("root iteration did not converge")

    # the package exports a function named spectrum over the submodule
    monkeypatch.setattr(sys.modules["hyperee.spectrum"], "aberth_roots", stuck)
    h = CORPUS["tight-pair-3"]
    with pytest.raises(FeasibilityError, match="did not converge"):
        spectrum(h)
    res = estrada_index(h)
    assert res.method == "trace-series"
    assert res.converged


def test_spectrum_refuses_before_any_table_work(monkeypatch):
    """k = 80 fits the degree budget, order 63 does not fit the selection
    budget, and order 80 has no candidates at all: the refusal must come
    from checking every order before any order is computed."""
    h = from_edge_list(3, 5, [(1, 2, 3), (1, 3, 4), (1, 3, 5)])

    def no_tables(*args):
        raise AssertionError("table work started before the budget check")

    with monkeypatch.context() as patch:
        patch.setattr(traces, "_sum_over_tables", no_tables)
        with pytest.raises(FeasibilityError, match="d=63"):
            spectrum(h)
    res = estrada_index(h)
    assert res.method == "trace-series"
    assert res.converged


def test_explicit_star_method_rejects_non_star():
    with pytest.raises(ValueError, match="not a hyperstar"):
        estrada_index(CORPUS["path-3-3"], "star")


def test_explicit_spectrum_method_raises_past_budget():
    with pytest.raises(FeasibilityError):
        estrada_index(CORPUS["path-3-3"], "spectrum")


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        estrada_index(gen_hyperpath(3, 1), "magic")


# Bounds


def test_order_m_trace_closed_form():
    for name in ["path-3-2", "star-4-1", "rand-2-b", "empty-3-4"]:
        h = CORPUS[name]
        assert order_m_trace(h) == trace_d(h, h.m), name


def test_bounds_single_edge_reference_points():
    """The moment bounds hit 11 + e^3 and 1/2 + e^3 on one 3-edge."""
    h = gen_hyperpath(3, 1)
    rep = bounds_refined(spectrum(h), h)
    assert rep.k == 12
    assert rep.lower_basic == pytest.approx(13.5, abs=1e-12)
    assert rep.upper_basic == pytest.approx(12.0 * math.e, rel=1e-10)
    assert rep.upper_moment == pytest.approx(11.0 + math.e**3, abs=1e-9)
    assert rep.upper_moment_adjusted == pytest.approx(0.5 + math.e**3, abs=1e-9)
    assert rep.upper_radius == pytest.approx(11.0 + math.exp(math.sqrt(24.0)), rel=1e-9)
    assert rep.modulus_sq_sum == pytest.approx(9.0, abs=1e-9)


def test_bounds_without_spectrum_skip_moment_family():
    h = CORPUS["path-3-3"]
    rep = bounds_refined(None, h)
    assert rep.upper_moment is None
    assert rep.upper_moment_adjusted is None
    assert rep.modulus_sq_sum is None
    assert rep.upper_radius > rep.lower_basic


def test_bounds_collapse_on_empty():
    h = gen_empty(3, 3)
    rep = bounds_refined(spectrum(h), h)
    for value in (
        rep.lower_basic, rep.upper_basic, rep.upper_moment,
        rep.upper_moment_adjusted, rep.upper_radius, rep.upper_radius_adjusted,
    ):
        assert value == pytest.approx(12.0, abs=1e-9)


def test_bounds_basic_sandwich_on_graph():
    h = CORPUS["rand-2-b"]
    lower, upper = bounds_basic(h, spectral_radius(h))
    ee = ee_from_spectrum(spectrum(h)).value
    assert lower < ee < upper


def test_bounds_use_radius_upper_end():
    """Bounds evaluated at a degraded enclosure stay valid, just looser."""
    h = gen_hyperstar(3, 4)
    sharp = bounds_refined(spectrum(h), h)
    loose = bounds_refined(spectrum(h), h, rho=spectral_radius(h, max_iter=1))
    ee = ee_hyperstar(3, 4).value
    assert sharp.upper_basic <= loose.upper_basic
    assert ee <= sharp.upper_basic <= loose.upper_basic


def test_bounds_moment_dominates_ee_on_tight_pair():
    h = CORPUS["tight-pair-3"]
    rep = bounds_refined(spectrum(h), h)
    ee = ee_from_spectrum(spectrum(h)).value
    assert rep.lower_basic < ee
    for upper in (
        rep.upper_basic, rep.upper_moment, rep.upper_moment_adjusted,
        rep.upper_radius, rep.upper_radius_adjusted,
    ):
        assert ee < upper


# Eigenvalue counts beyond float range


@pytest.mark.parametrize(
    "h",
    [gen_empty(3, 2000), gen_hyperstar(3, 600), gen_hyperpath(3, 600)],
    ids=["empty-3-2000", "star-3-600", "path-3-600"],
)
def test_count_beyond_float_range_is_refused_fast(h):
    start = time.perf_counter()
    with pytest.raises(FeasibilityError, match="beyond float range"):
        estrada_index(h)
    with pytest.raises(FeasibilityError, match="beyond float range"):
        ee_trace_series(h)
    with pytest.raises(FeasibilityError, match="beyond float range"):
        bounds_refined(None, h)
    with pytest.raises(FeasibilityError, match="beyond float range"):
        bounds_basic(h, spectral_radius(gen_hyperstar(3, 1)))
    assert time.perf_counter() - start < 1.0


def test_hyperstar_beyond_float_range_is_refused():
    with pytest.raises(FeasibilityError, match="beyond float range"):
        ee_hyperstar(3, 600)
    assert math.isfinite(ee_hyperstar(3, 500).value)  # k = 1001 * 4^500 fits
