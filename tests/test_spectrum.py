"""Characteristic polynomials, root extraction, and spectra."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import star_family_sizes
from conftest import CORPUS
from hyperee.hypergraph import from_edge_list, gen_empty, gen_hyperpath, gen_hyperstar
from hyperee.spectrum import (
    CharPoly,
    Spectrum,
    charpoly_from_traces,
    hyperstar_multiplicities,
    hyperstar_spectrum,
    roots,
    spectrum,
    symmetric_representatives,
)
from hyperee.traces import Budget, FeasibilityError, trace_sequence


def _match(entries, want, tol=1e-8):
    """Compare an eigenvalue multiset against (value, multiplicity) pairs."""
    assert len(entries) == len(want)
    used = [False] * len(want)
    for z, mult in entries:
        for i, (zw, mw) in enumerate(want):
            if not used[i] and abs(z - zw) <= tol * (1.0 + abs(zw)) and mult == mw:
                used[i] = True
                break
        else:
            raise AssertionError(f"unexpected eigenvalue {z} x{mult}")


# Newton's identities


def test_charpoly_single_edge_exact():
    """One 3-edge: phi(x) = x^3 (x^3 - 1)^3, checked coefficient by
    coefficient from the exact traces."""
    ts = trace_sequence(gen_hyperpath(3, 1), 12)
    cp = charpoly_from_traces(ts)
    want = [Fraction(0)] * 13
    want[3], want[6], want[9], want[12] = (
        Fraction(-1), Fraction(3), Fraction(-3), Fraction(1),
    )
    assert cp.k == 12
    assert list(cp.coeffs) == want


def test_charpoly_path_graph():
    """P3 has phi(x) = x^3 - 2x."""
    ts = trace_sequence(gen_hyperpath(2, 2), 3)
    cp = charpoly_from_traces(ts)
    assert list(cp.coeffs) == [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]


def test_charpoly_needs_all_orders():
    ts = trace_sequence(gen_hyperpath(2, 2), 2)
    with pytest.raises(ValueError, match="orders 0..3"):
        charpoly_from_traces(ts)


def test_charpoly_validation():
    with pytest.raises(ValueError, match="k \\+ 1"):
        CharPoly(2, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match="monic"):
        CharPoly(1, (Fraction(0), Fraction(2)))


# Root extraction


def test_roots_single_edge():
    cp = charpoly_from_traces(trace_sequence(gen_hyperpath(3, 1), 12))
    entries, residual = roots(cp)
    w = cmath.exp(2j * cmath.pi / 3)
    _match(entries, [(0j, 3), (1 + 0j, 3), (w, 3), (w.conjugate(), 3)])
    assert residual <= 1e-10


def test_roots_simple_graph():
    cp = charpoly_from_traces(trace_sequence(gen_hyperpath(2, 2), 3))
    entries, _ = roots(cp)
    s = math.sqrt(2.0)
    _match(entries, [(complex(-s), 1), (0j, 1), (complex(s), 1)], tol=1e-12)


def test_roots_repeated_real_roots():
    """(x - 1)^4 (x + 2)^2: multiplicities recovered exactly."""
    desc = np.polymul([1, -4, 6, -4, 1], [1, 4, 4])
    coeffs = tuple(Fraction(int(c)) for c in desc[::-1])
    entries, _ = roots(CharPoly(6, coeffs))
    _match(entries, [(1 + 0j, 4), (-2 + 0j, 2)], tol=1e-10)


def test_roots_conjugate_closure():
    """Complex roots come out in exactly conjugate pairs."""
    cp = charpoly_from_traces(trace_sequence(gen_hyperpath(3, 1), 12))
    entries, _ = roots(cp)
    multiset = sorted((z.real, z.imag) for z, mult in entries for _ in range(mult))
    mirrored = sorted((re, -im) for re, im in multiset)
    assert multiset == mirrored


# Hyperstar closed forms


def test_hyperstar_multiplicities_total():
    """The nonzero families and c_0 together account for (m-1)^(q(m-1))."""
    for m, q in [(3, 5), (4, 3), (2, 4)]:
        c = hyperstar_multiplicities(m, q)
        assert c == star_family_sizes(m, q)
        assert sum(c) == (m - 1) ** (q * (m - 1))


def test_hyperstar_multiplicities_one_pass_matches_binomial_form():
    """The one-pass recurrence gives C(q, r) a^r b^(q-r) exactly, with
    a = m^(m-2) and b = (m-1)^(m-1) - a, also for m = 2, where b = 0."""
    for m in range(2, 6):
        a = m ** (m - 2)
        b = (m - 1) ** (m - 1) - a
        for q in range(1, 61):
            want = [math.comb(q, r) * a**r * b ** (q - r) for r in range(q + 1)]
            assert hyperstar_multiplicities(m, q) == want, (m, q)


def test_hyperstar_multiplicities_rejects_bad_args():
    with pytest.raises(ValueError):
        hyperstar_multiplicities(1, 3)
    with pytest.raises(ValueError):
        hyperstar_multiplicities(3, 0)


def test_hyperstar_spectrum_graph_case():
    """K_{1,q} keeps its classical spectrum {±sqrt(q), 0^(q-1)}."""
    s = hyperstar_spectrum(2, 4)
    _match(s.entries, [(complex(2.0), 1), (complex(-2.0), 1), (0j, 3)], tol=1e-12)


def test_hyperstar_spectrum_mass_balance():
    for m, q in [(3, 2), (3, 4), (4, 2)]:
        s = hyperstar_spectrum(m, q)
        assert sum(mult for _, mult in s.entries) == s.k
        assert max(abs(z) for z, _ in s.entries) == pytest.approx(q ** (1.0 / m))
        assert s.provenance == "closed-form"


def test_newton_route_agrees_with_closed_form_star():
    """Full pipeline on the 80-eigenvalue star reproduces the closed form."""
    h = gen_hyperstar(3, 2)
    cp = charpoly_from_traces(trace_sequence(h, h.eigenvalue_count()))
    entries, residual = roots(cp)
    want = [(z, mult) for z, mult in hyperstar_spectrum(3, 2).entries]
    _match(entries, want)
    assert residual <= 1e-9


# Dispatch


def test_spectrum_empty():
    s = spectrum(gen_empty(3, 3))
    assert s.entries == ((0j, 12),)
    assert s.provenance == "closed-form"


def test_spectrum_detects_stars():
    s = spectrum(gen_hyperstar(3, 3))
    assert s.provenance == "closed-form"
    assert s.k == 7 * 2**6


def test_spectrum_newton_on_general_input():
    h = CORPUS["tight-pair-3"]
    s = spectrum(h)
    assert s.provenance == "newton-aberth"
    r = 4.0 ** (1.0 / 3.0)
    w = cmath.exp(2j * cmath.pi / 3)
    _match(s.entries, [(0j, 23), (complex(r), 3), (r * w, 3), (r * w.conjugate(), 3)])


def test_spectrum_power_sums_close_loop():
    """Numeric eigenvalues reproduce the exact traces they came from."""
    h = CORPUS["rand-2-b"]
    s = spectrum(h)
    ts = trace_sequence(h, 6)
    for d in range(7):
        ps = sum(mult * z**d for z, mult in s.entries)
        assert abs(ps - complex(ts.values[d])) <= 1e-7 * (1.0 + abs(ts.values[d]))


def test_spectrum_refuses_large_k():
    with pytest.raises(FeasibilityError, match="trace-series"):
        spectrum(gen_hyperpath(3, 3))


def test_spectrum_budget_is_configurable():
    with pytest.raises(FeasibilityError):
        spectrum(CORPUS["tight-pair-3"], budget=Budget(max_degree=8))


def test_spectrum_validation():
    with pytest.raises(ValueError, match="multiplicities sum"):
        Spectrum(k=3, entries=((0j, 1),), provenance="test")
    with pytest.raises(ValueError, match="positive"):
        Spectrum(k=0, entries=((0j, 1), (1 + 0j, -1)), provenance="test")


# Rotation symmetry


def _orbits_cover(s: Spectrum, m: int) -> bool:
    """symmetric_representatives accepts s, and its orbits cover all k."""
    n0, reps = symmetric_representatives(s, m)
    return n0 + m * sum(mult for _, _, mult in reps) == s.k


def test_star_spectra_are_m_symmetric():
    for m, q in [(3, 2), (4, 2), (2, 5)]:
        assert _orbits_cover(hyperstar_spectrum(m, q), m)


def test_tight_pair_spectrum_is_3_symmetric():
    assert _orbits_cover(spectrum(CORPUS["tight-pair-3"]), 3)


def test_graph_spectrum_not_3_symmetric():
    with pytest.raises(ValueError, match="not 3-fold"):
        symmetric_representatives(hyperstar_spectrum(2, 4), 3)


def test_triangle_not_2_symmetric():
    """C3 has spectrum {2, -1, -1}, which no rotation pairs up."""
    h = from_edge_list(2, 3, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="not 2-fold"):
        symmetric_representatives(spectrum(h), 2)


def test_symmetric_representatives_star():
    s = hyperstar_spectrum(3, 2)
    n0, reps = symmetric_representatives(s, 3)
    assert n0 == 35
    assert sorted(mult for _, _, mult in reps) == [6, 9]
    radii = sorted(math.hypot(a, b) for a, b, _ in reps)
    assert radii == pytest.approx([1.0, 2.0 ** (1.0 / 3.0)])
    assert n0 + 3 * sum(mult for _, _, mult in reps) == s.k


def test_symmetric_representatives_rejects_low_order():
    with pytest.raises(ValueError, match="at least 2"):
        symmetric_representatives(hyperstar_spectrum(3, 1), 1)
