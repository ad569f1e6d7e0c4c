"""Estrada-index computations and bounds."""

from __future__ import annotations

import itertools
import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    adjacency_matrix,
    hyperstar_ee_m3,
    hyperstar_ee_m4,
    matrix_estrada,
    matrix_power_sums,
    orbit_sum_m3,
    orbit_sum_m4,
    series_tail,
)
from conftest import CORPUS, _random_instance
from hyperee import estrada, tensor, traces
from hyperee._poly import ConvergenceError
from hyperee.estrada import (
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
    hyperstar_multiplicities,
    hyperstar_spectrum,
    spectrum,
    symmetric_representatives,
)
from hyperee.tensor import SpectralRadiusEstimate, spectral_radius
from hyperee.traces import Budget, FeasibilityError, trace_d, trace_sequence

# Closed forms


def test_single_edge_value():
    """One 3-edge: EE = 3 + 3e + 6 e^(-1/2) cos(sqrt(3)/2)."""
    want = 3.0 + 3.0 * math.e + 6.0 * math.exp(-0.5) * math.cos(math.sqrt(3.0) / 2.0)
    res = ee_hyperstar(3, 1)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.method == "hyperstar-closed-form"
    assert 0.0 < res.error_bound <= 1e-13 * res.value


@pytest.mark.parametrize("m, q", [(3, 4), (3, 30), (4, 12), (3, 200)])
def test_hyperstar_bound_covers_its_rounding(m, q):
    """Against a 50-digit sum over the star's closed-form orbits, the
    answer is a few ulps off, and error_bound covers that."""
    res = ee_hyperstar(m, q)
    c = hyperstar_multiplicities(m, q)
    n = q * (m - 1) + 1
    k = n * (m - 1) ** (n - 1)
    with mpmath.workdps(50):
        roots = [mpmath.root(1, m, l) for l in range(m)]
        want = (k - m * sum(c[1:])) + mpmath.fsum(
            c[r] * mpmath.re(mpmath.exp(mpmath.root(r, m) * w))
            for r in range(1, q + 1) for w in roots)
        assert abs(mpmath.mpf(res.value) - want) <= res.error_bound
    assert res.error_bound <= 1e-12 * res.value


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
    # sum of e^(Re z) * (expm1(residual) + gamma_{N+8}), N = 2 entries
    want = (math.e + 1.0 / math.e) * (math.expm1(1e-12) + 10 * 2.0**-53)
    assert res.error_bound == pytest.approx(want, rel=1e-9)


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
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError):
            ee_trace_series(gen_hyperpath(3, 4), tol)
        with pytest.raises(ValueError):
            estrada_index(gen_hyperpath(3, 4), "series", tol=tol)


def _mp_remainder(k: int, rho: float, d: int) -> mpmath.mpf:
    """k * sum_{j >= d} rho^j / j! at 50 digits, term by term."""
    with mpmath.workdps(50):
        r = mpmath.mpf(rho)
        term, total, j = r**d / mpmath.factorial(d), mpmath.mpf(0), d
        while term > total * mpmath.mpf(10) ** -55:
            total += term
            j += 1
            term = term * r / j
        return k * total


@pytest.mark.parametrize("k", [1, 80, 1114112, 3**200])
def test_series_tail_bounds_the_remainder(k):
    """Both forms of the tail bound, and the switch between them, stay at
    or above the exact remainder; rho straddles d + 1 on purpose."""
    for rho in (0.0, 1e-3, 0.5, 1.0, 1.5874, 2.0, 3.99, 7.999999, 8.0, 8.000001, 20.0):
        for d in (0, 1, 2, 3, 6, 7, 8, 9, 12, 21, 40, 90):
            got = series_tail(k, rho, d)
            assert mpmath.mpf(got) >= _mp_remainder(k, rho, d), (rho, d)


def test_series_tail_is_sharp_past_the_peak():
    """Past the largest term the geometric form replaces the factor e^rho."""
    k, rho, d = 448, 3.0, 18
    first = k * rho**d / math.factorial(d)
    assert series_tail(k, rho, d) == pytest.approx(first * (d + 1) / (d + 1 - rho))
    assert series_tail(k, rho, d) < first * math.exp(rho) / 10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2**80), st.floats(0.0, 200.0), st.integers(0, 150))
@example(6, 4.0, 1)
def test_series_tail_never_grows_with_the_order(k, rho, d):
    """The remainder from order d + 1 is part of the one from d, and so
    is its bound, also while d is below rho."""
    assert series_tail(k, rho, d + 1) <= series_tail(k, rho, d)


def test_series_cut_short_below_rho_keeps_the_least_bound():
    """A budget of 100 selections admits only orders 0 and 1 of this
    6-vertex graph, so the series stops at order 2 with rho at the degree
    bound 4.  Its bound is k e^rho = 6e^4 (rounded up), the least over the
    orders passed, not the Taylor form at order 2, 6 * 4^2/2! * e^4."""
    h = from_edge_list(2, 6, [(1, 2), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4)])
    res = ee_trace_series(h, budget=Budget(max_selections=100))
    assert res.terms_used == 2 and not res.converged
    assert 6 * math.exp(4) <= res.error_bound <= 6 * math.exp(4) * (1 + 1e-14)
    assert abs(matrix_estrada(h) - res.value) <= res.error_bound


def test_series_enumerates_only_orders_that_can_be_nonzero(monkeypatch):
    """On an input with an m-symmetry labelling, trace_d is asked once for
    every order summed, but the engine enumerates and accumulates only the
    multiples of m (orders 1..m-1 vanish on every input); the labelling is
    found once for the whole series."""
    asked, passes, accumulated = [], [], []
    enumerate_range, accumulate = traces._sigma_range, traces._accumulate

    def record(h, d, **kwargs):
        asked.append(d)
        return trace_d(h, d, **kwargs)

    def record_pass(ctx, orders, budget):
        passes.append(orders)
        return enumerate_range(ctx, orders, budget)

    def record_accumulate(ctx, candidates):
        accumulated.append(sum(t for _, t in candidates[0]))
        return accumulate(ctx, candidates)

    monkeypatch.setattr(sys.modules["hyperee.estrada"], "trace_d", record)
    monkeypatch.setattr(traces, "_sigma_range", record_pass)
    monkeypatch.setattr(traces, "_accumulate", record_accumulate)
    monkeypatch.setattr(
        sys.modules["hyperee.estrada"], "spectral_radius",
        lambda h: SpectralRadiusEstimate(1.5, 1.5, 0, "power-iteration"),
    )
    traces._rotation_labelling.cache_clear()
    h = CORPUS["path-3-3"]
    res = ee_trace_series(h, 1e-8)
    assert traces._rotation_labelling.cache_info().misses == 1
    assert res.converged and asked == list(range(res.terms_used))
    assert passes == [[d] for d in asked if d and d % 3 == 0]
    assert accumulated == [d for d in asked if d and d % 3 == 0]
    # the tail is taken at the next order that can be nonzero
    nxt = res.terms_used + (-res.terms_used % 3)
    assert nxt > res.terms_used
    # the bound adds the rounding of the exact sum to the float value
    tail = series_tail(h.eigenvalue_count(), 1.5, nxt)
    assert tail <= res.error_bound <= tail + math.ulp(res.value)
    assert res.error_bound < series_tail(h.eigenvalue_count(), 1.5, res.terms_used)


@pytest.mark.parametrize("n", [20, 30, 40])
def test_series_bound_covers_its_own_rounding(n):
    """The series' error bound covers the rounding of its exact sum to a
    float, against EE(K_n) = e^(n-1) + (n-1)/e at 50 digits.  On K_30 and
    K_40 that rounding alone (up to 2^-53 k e^rho) exceeds the target, so
    the series stops once its tail is below it, unconverged."""
    h = from_edge_list(2, n, itertools.combinations(range(1, n + 1), 2))
    res = estrada_index(h, "series")
    with mpmath.workdps(50):
        exact = mpmath.e ** (n - 1) + (n - 1) / mpmath.e
        assert abs(mpmath.mpf(res.value) - exact) <= res.error_bound
    assert res.converged == (n == 20)
    assert res.error_bound <= 2.0**-51 * n * math.exp(n - 1)
    k, rho, d = h.eigenvalue_count(), spectral_radius(h).upper, res.terms_used
    # the bound is the tail plus the exact rounding of the partial sum
    acc = sum(Fraction(t) / math.factorial(j)
              for j, t in enumerate(trace_sequence(h, d - 1).values))
    assert res.error_bound >= series_tail(k, rho, d) + abs(Fraction(res.value) - acc)
    rounding = k * 2.0**-53 * math.exp(rho)
    if rounding < 1e-6:  # the tail leaves the rounding room under the target
        assert series_tail(k, rho, d) <= 1e-6 - rounding < series_tail(k, rho, d - 1)
    else:  # the rounding alone exceeds it: stop once the tail is below it
        assert series_tail(k, rho, d) < rounding <= series_tail(k, rho, d - 1)


# ee_trace_series(h, 1e-8) before orders certified zero were skipped and
# the tail bound sharpened: (value, error_bound)
SERIES_BEFORE_SKIP = {
    "empty-2-5": (5.0, 0.0),
    "empty-3-4": (32.0, 0.0),
    "empty-4-4": (108.0, 0.0),
    "path-2-4": (9.915316149348888, 8.862179792932653e-09),
    "path-3-1": (13.512524820376383, 5.238360845287129e-09),
    "path-3-2": (92.17564578072391, 6.901080826121479e-09),
    "path-3-3": (521.2054414772562, 1.167611734103219e-09),
    "path-4-1": (110.66825410186522, 3.367517686256011e-09),
    "path-4-2": (5247.136527979045, 8.966038985305169e-10),
    "rand-2-a": (12.610552651714992, 1.8152611619016613e-09),
    "rand-2-b": (20.430982058754825, 6.158022161326608e-09),
    "rand-2-c": (8.6357338373478, 2.6598422947121736e-09),
    "rand-3-a": (229.67379645198508, 4.804721427715447e-09),
    "rand-3-b": (242.54397912333468, 6.790871825485208e-09),
    "rand-3-c": (521.5101484010368, 1.4018335805339192e-09),
    "rand-4-a": (421.10483005903194, 3.939238633439468e-09),
    "rand-4-b": (1530.6920992252249, 3.6267987732190693e-09),
    "rand-4-c": (5247.943470531288, 4.393409972244257e-09),
    "star-2-3": (7.829154879718496, 7.089743834682535e-09),
    "star-2-6": (16.668772819617356, 2.0150499030068453e-09),
    "star-3-2": (92.17564578072391, 6.901080826121479e-09),
    "star-3-3": (521.5079033810518, 2.6931319918821156e-09),
    "star-4-1": (110.66825410186522, 3.367517686256011e-09),
    "tight-pair-3": (38.20159211863974, 1.1354140520724968e-09),
}


def test_series_agrees_with_values_before_the_skip():
    for name, (value, bound) in SERIES_BEFORE_SKIP.items():
        res = ee_trace_series(CORPUS[name], 1e-8)
        assert res.converged and res.error_bound <= 1e-8, name
        assert abs(res.value - value) <= res.error_bound + bound, name


def test_series_on_a_long_path_answers_fast_and_honestly():
    """Orders past 4 are out of the selection budget on a 200-edge loose
    path, and even the radius lower bound 1 leaves the tail above tol
    there, so the power iteration (which stalls on this input) is skipped
    and the partial sum comes back at the degree bound 2."""
    h = gen_hyperpath(3, 200)
    start = time.perf_counter()
    res = estrada_index(h)
    assert time.perf_counter() - start < 1.0
    assert res.method == "trace-series" and not res.converged
    # |Tr_j| <= k 2^j, and Tr_j = 0 unless 3 divides j
    nxt = res.terms_used + (-res.terms_used % 3)
    assert mpmath.mpf(res.error_bound) >= _mp_remainder(h.eigenvalue_count(), 2.0, nxt)


def test_series_refused_in_its_first_pass_skips_the_power_iteration(monkeypatch):
    """With 10^5 selections the engine refuses order 12 of the 8-edge loose
    path, where even the radius lower bound 1 leaves the tail above tol.
    The series is then unconverged whatever the radius, so it takes the
    degree bound 2 at that order and never runs the power iteration."""
    def no_radius(h):
        raise AssertionError("the power iteration ran")

    h, budget = gen_hyperpath(3, 8), Budget(max_selections=10**5)
    with pytest.raises(FeasibilityError):
        trace_d(h, 12, budget=budget)
    full = ee_trace_series(h, 1e-6)
    monkeypatch.setattr(estrada, "spectral_radius", no_radius)
    res = ee_trace_series(h, 1e-6, budget=budget)
    assert res.terms_used == 12 and not res.converged
    assert res.error_bound >= series_tail(h.eigenvalue_count(), 2.0, 12)
    assert abs(res.value - full.value) <= res.error_bound + full.error_bound


def test_series_refused_after_its_first_pass_keeps_the_radius(monkeypatch):
    """With 1,000 selections the engine refuses order 12 of the tight pair.
    The tail at the radius lower bound 1 meets the goal before that order,
    so the refusal comes in the second pass, after the power iteration,
    and the bound is the tail at the radius, not at the degree bound 2."""
    h, radii = CORPUS["tight-pair-3"], []

    def radius(h):
        radii.append(spectral_radius(h))
        return radii[-1]

    monkeypatch.setattr(estrada, "spectral_radius", radius)
    res = ee_trace_series(h, 1e-6, budget=Budget(max_selections=1000))
    k = h.eigenvalue_count()
    assert res.terms_used == 12 and not res.converged and len(radii) == 1
    assert series_tail(k, 1.0, 12) <= 1e-6  # the first pass stopped below 12
    tail = series_tail(k, radii[0].upper, 12)
    assert tail <= res.error_bound <= tail + math.ulp(res.value)
    assert res.error_bound < series_tail(k, 2.0, 12)


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_series_stops_at_the_first_order_whose_tail_meets_its_goal(tol):
    """On every corpus input terms_used is the first order whose tail at
    the power-iteration radius, taken from the next order that can be
    nonzero, leaves room for the rounding, or the order cap; the budget
    plays no part."""
    cap = Budget().max_degree
    for name, h in CORPUS.items():
        k, rho, step = h.eigenvalue_count(), spectral_radius(h).upper, traces._order_step(h, cap)
        rounding = k * 2.0**-53 * math.exp(rho)
        goal = tol - rounding if rounding < tol else math.nextafter(rounding, 0.0)
        want = next((d for d in range(cap + 1)
                     if series_tail(k, rho, d + -d % step) <= goal), cap + 1)
        assert ee_trace_series(h, tol).terms_used == want, name


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


def test_symmetric_method_carries_the_spectrum_error():
    """The rotation-orbit route reports the spectrum's residual propagated
    through the exponentials plus the orbit sum's own rounding.  On a
    closed-form spectrum, whose residual is 0, only that rounding is left."""
    h = CORPUS["tight-pair-3"]
    s = spectrum(h)
    n0, reps = symmetric_representatives(s, h.m)
    own = ee_symmetric(reps, n0, h.m, k=s.k).error_bound
    moved = sum(mult * math.exp(z.real) for z, mult in s.entries) * math.expm1(s.residual)
    assert moved > 0 and own > 0
    assert estrada_index(h, "symmetric").error_bound == pytest.approx(moved + own, rel=1e-9)
    for name in ("star-3-2", "star-3-3", "star-4-1"):
        res = estrada_index(CORPUS[name], "symmetric")
        assert 0.0 < res.error_bound <= 1e-13 * res.value, name


def test_spectrum_sum_bound_covers_the_path_graph_on_31_vertices():
    """The path graph P_31 has eigenvalues 2cos(pi j/32), j = 1..31; the
    trace-Newton-Aberth route was 4.2e-8 off against a bound of 9.5e-31."""
    res = estrada_index(gen_hyperpath(2, 30), "spectrum")
    with mpmath.workdps(50):
        want = mpmath.fsum(
            mpmath.exp(2 * mpmath.cos(mpmath.pi * j / 32)) for j in range(1, 32)
        )
        assert abs(mpmath.mpf(res.value) - want) <= res.error_bound


def _check_graph(h):
    """Against 50-digit eigenvalues of the adjacency matrix: every "eigh"
    entry lies within the residual of its own eigenvalue (sorted, as the
    proven matching can be), auto's value lies within its error_bound, and
    "symmetric" answers on a bipartite input within its bound."""
    s = spectrum(h)
    with mpmath.workdps(50):
        if h.edges:
            ref = sorted(mpmath.eigsy(mpmath.matrix(adjacency_matrix(h).tolist()),
                                      eigvals_only=True))
        else:
            ref = [mpmath.mpf(0)] * h.n
        want = mpmath.fsum(mpmath.exp(x) for x in ref)
        if s.provenance == "eigh":
            got = sorted(z.real for z, mult in s.entries for _ in range(mult))
            assert all(abs(x - y) <= s.residual for x, y in zip(got, ref))
        answers = [estrada_index(h)]
        if not any(matrix_power_sums(h, h.n)[1::2]):  # no odd closed walk
            answers.append(estrada_index(h, "symmetric"))
        for res in answers:
            assert abs(mpmath.mpf(res.value) - want) <= res.error_bound, res.method


def test_graphs_never_reach_the_trace_engine_or_aberth(monkeypatch):
    """Within the eigenvalue cap a graph's spectrum, and auto's and the
    rotation-orbit answers, come from one symmetric eigensolver."""

    def banned(*args, **kwargs):
        raise AssertionError("a graph reached the trace-Newton-Aberth pipeline")

    module = sys.modules["hyperee.spectrum"]
    for name in ("trace_sequence", "charpoly_from_traces", "roots", "aberth_roots"):
        monkeypatch.setattr(module, name, banned)
    monkeypatch.setattr(traces, "_trace_range", banned)
    graphs = [h for h in CORPUS.values() if h.m == 2 and h.edges]
    assert {spectrum(h).provenance for h in graphs} == {"closed-form", "eigh"}
    for h in graphs:
        _check_graph(h)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2)))))))
@example((7, {(1, 2), (3, 4)}))  # two components and three isolated vertices
@example((9, {(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (7, 8)}))
@example((13, {(j, j + 1) for j in range(1, 13)}))  # a path with a zero eigenvalue
def test_graph_answers_meet_their_bounds(graph):
    n, edges = graph
    _check_graph(from_edge_list(2, n, sorted(edges)))


@pytest.mark.parametrize("n, q, seed", [(30, 60, 1), (40, 80, 1), (40, 80, 2)])
def test_random_graph_answers_meet_their_bounds(n, q, seed):
    """G(30, 60) was 8.1e-12 off on the trace-Newton-Aberth route, against
    a bound of 6.9e-20, and a G(40, 80) 1.2e-8 against 1.2e-31."""
    _check_graph(_random_instance(2, n, q, seed))


@pytest.mark.parametrize("h, bound", [(gen_hyperpath(2, 30), 1.2e-11),
                                      (_random_instance(2, 128, 400, 1), 1.0e-8)],
                         ids=["P_31", "G(128,400)"])
def test_graph_bounds_take_the_rounding_entry_by_entry(h, bound):
    """The rounding of AV - V diag(lam) is bounded entry by entry, by
    |A||V| + |V||diag(lam)|: the answers are 1.8e-15 and 2.1e-12 off, and
    their bounds fall below the norm-wise ones, 1.2e-11 and 1.0e-8, yet
    still cover the 50-digit eigenvalues."""
    assert estrada_index(h).error_bound < bound
    _check_graph(h)


@pytest.mark.parametrize("p", [60, 127])
def test_long_path_graphs_take_the_eigensolver(p):
    """P_61 stalled Aberth (a refusal); P_128 fell back to the series."""
    res = estrada_index(gen_hyperpath(2, p))
    assert res.method == "spectrum-sum"
    assert res.error_bound <= 1e-6
    with mpmath.workdps(50):
        want = mpmath.fsum(mpmath.exp(2 * mpmath.cos(mpmath.pi * j / (p + 2)))
                           for j in range(1, p + 2))
        assert abs(mpmath.mpf(res.value) - want) <= res.error_bound


def test_bounds_round_outward():
    """On edgeless inputs EE = k exactly.  For k = 40 * 3^39 the nearest
    float lies above k and for 41 * 3^40 below it, so lower_basic must be
    rounded down and each upper field up."""
    for q in (40, 41):
        h = gen_empty(4, q)
        k = h.eigenvalue_count()
        rep = bounds_refined(spectrum(h), h)
        assert Fraction(rep.lower_basic) <= k
        uppers = (rep.upper_basic, rep.upper_moment, rep.upper_moment_adjusted,
                  rep.upper_radius, rep.upper_radius_adjusted)
        assert all(Fraction(u) >= k for u in uppers), q


def test_auto_prefers_star_form():
    assert estrada_index(gen_hyperstar(3, 3)).method == "hyperstar-closed-form"


def test_auto_uses_spectrum_for_graphs():
    assert estrada_index(CORPUS["rand-2-b"]).method == "spectrum-sum"


def test_auto_uses_series_for_small_k_hypergraphs():
    """m >= 3 and k = 32: auto goes straight to the certified series."""
    res = estrada_index(CORPUS["tight-pair-3"])
    assert res.method == "trace-series"
    assert res.error_bound <= 1e-6


def test_auto_uses_series_for_large_k():
    res = estrada_index(CORPUS["path-3-3"], tol=1e-4)
    assert res.method == "trace-series"
    assert res.converged


def test_auto_never_asks_a_hypergraph_for_its_spectrum(monkeypatch):
    """On m = 3 the spectrum is a dominated route: every corpus input with
    edges and k <= 128 is answered, converged, without it."""

    def no_spectrum(*args, **kwargs):
        raise AssertionError("auto asked for the spectrum of an m = 3 input")

    monkeypatch.setattr(estrada, "spectrum", no_spectrum)
    cases = [h for h in CORPUS.values()
             if h.m == 3 and h.edges and h.eigenvalue_count() <= 128]
    assert len(cases) == 4
    for h in cases:
        assert estrada_index(h).converged


@pytest.mark.parametrize("q", [1, 2, 3])
def test_auto_agrees_with_the_spectrum_on_four_vertices(q):
    """Every 3-uniform input on 4 vertices with q edges (none is a star):
    auto's series and the Newton spectrum agree within the sum of their
    bounds.  K_4^(3), q = 4, is left out: its spectrum takes seconds."""
    for edges in itertools.combinations(itertools.combinations(range(1, 5), 3), q):
        h = from_edge_list(3, 4, list(edges))
        auto, newton = estrada_index(h), estrada_index(h, "spectrum")
        assert (auto.method, newton.method) == ("trace-series", "spectrum-sum")
        assert abs(auto.value - newton.value) <= auto.error_bound + newton.error_bound


def test_auto_falls_back_when_spectrum_budget_trips():
    """A graph whose k fits the degree budget, but whose trace orders do
    not: auto must degrade to the series rather than fail."""
    h = CORPUS["rand-2-b"]
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
    rep = bounds_refined(None, h, spectral_radius(h))
    ee = ee_from_spectrum(spectrum(h)).value
    assert rep.lower_basic < ee < rep.upper_basic


def test_bounds_use_radius_upper_end(monkeypatch):
    """Bounds evaluated at a starved enclosure stay valid, just looser.
    K_4^(3) minus an edge is neither regular nor a graph power, so its
    radius starts from all ones and needs 9 iterations uncapped."""
    h = from_edge_list(3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    sharp = bounds_refined(spectrum(h), h)
    monkeypatch.setattr(tensor, "RADIUS_MAX_ITER", 1)
    loose = bounds_refined(spectrum(h), h, rho=spectral_radius(h))
    assert loose.rho_used.iterations == 1
    assert sharp.rho_used.upper <= loose.rho_used.upper
    ee = ee_from_spectrum(spectrum(h)).value
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


def test_bounds_take_tr2_without_the_trace_engine(monkeypatch):
    """Tr_2 is 2|E| for graphs and 0 for m >= 3, so every bound on the
    corpus is the same with the trace engine switched off."""
    cases = []
    for h in CORPUS.values():
        assert trace_d(h, 2) == (order_m_trace(h) if h.m == 2 else 0)
        try:
            cases.append((spectrum(h), h))
        except FeasibilityError:
            pass
        cases.append((None, h))
    want = [bounds_refined(s, h) for s, h in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("bounds_refined called the trace engine")

    monkeypatch.setattr(estrada, "trace_d", refuse)
    assert [bounds_refined(s, h) for s, h in cases] == want


def test_moment_bounds_past_float_range_are_inf():
    """r = sum |lambda|^2 of the 480-edge hyperstar puts e^sqrt(r) and
    r^(3/2) past float range: both moment bounds are inf, not an error."""
    rep = bounds_refined(hyperstar_spectrum(3, 480), gen_hyperstar(3, 480))
    assert rep.upper_moment == rep.upper_moment_adjusted == math.inf
    assert rep.upper_radius == rep.upper_radius_adjusted == math.inf
    assert math.isfinite(rep.lower_basic)


def test_radius_bounds_past_float_range_are_inf():
    """(sqrt(2) * rho)^100 overflows at rho = 1000; the adjusted radius
    bound is inf like the unadjusted one, not an error."""
    rho = SpectralRadiusEstimate(0.0, 1000.0, 0, "power-iteration")
    rep = bounds_refined(None, gen_hyperstar(100, 1), rho=rho)
    assert rep.upper_radius == rep.upper_radius_adjusted == math.inf
    assert rep.upper_moment is None and rep.upper_moment_adjusted is None


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
        bounds_refined(None, h, spectral_radius(gen_hyperstar(3, 1)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("h", [gen_hyperpath(3, 507), gen_hyperstar(3, 507)])
def test_lower_bound_beyond_float_range_is_refused_before_the_radius(h, monkeypatch):
    """k = 1015 * 2^1014 fits in a float but k + Tr_3/3! does not, and the
    refusal comes before the power iteration, which stalls on the path."""
    def no_radius(h):
        raise AssertionError("radius sought before the float-range check")

    monkeypatch.setattr(estrada, "spectral_radius", no_radius)
    with pytest.raises(FeasibilityError, match="beyond float range"):
        bounds_refined(None, h)


def test_hyperstar_beyond_float_range_is_refused():
    with pytest.raises(FeasibilityError, match="beyond float range"):
        ee_hyperstar(3, 600)
    assert math.isfinite(ee_hyperstar(3, 500).value)  # k = 1001 * 4^500 fits


def test_hyperstar_refusal_comes_before_the_multiplicities():
    """k is checked before the c_r, 5,001 integers of up to 15,000 bits,
    are formed."""
    start = time.perf_counter()
    with pytest.raises(FeasibilityError, match="beyond float range"):
        ee_hyperstar(3, 5000)
    assert time.perf_counter() - start < 0.5
