"""Estrada index of uniform hypergraphs, by two evaluations, with bounds.

EE = sum of e^lambda over all k = n*(m-1)^(n-1) adjacency-tensor
eigenvalues.  It is evaluated one of two ways:

* the exponential sum over an explicit eigenvalue multiset, whose
  residual and rounding make up the error bound.  spectrum-sum sums
  spectrum()'s multiset, hyperstar-closed-form the hyperstar's closed
  form, and symmetric-formula the rotation orbits lambda e^(2*pi*i*l/m)
  of one representative each, expanded into their members.
* trace-series: partial sums of sum_d Tr_d / d! in exact rational
  arithmetic, truncated once a certified tail bound drops below the
  target tolerance (|Tr_d| <= k * rho^d bounds the tail by k times a
  remainder of the series of e^rho); orders certified zero by an
  m-symmetry labelling cost no enumeration.

The module also evaluates spectral bounds on EE: an exact lower bound
from the order-m trace, and a family of upper bounds driven by the
spectral radius and the second spectral moment.  All of them are tight
exactly for edgeless hypergraphs.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .hypergraph import UniformHypergraph, detect_hyperstar
from .spectrum import (
    Rep,
    Spectrum,
    _down,
    _gamma,
    _orbit_spectrum,
    _up,
    hyperstar_spectrum,
    spectrum,
    symmetric_representatives,
)
from .tensor import (
    SpectralRadiusEstimate,
    rho_lower_degree,
    rho_upper_degree,
    spectral_radius,
)
from .traces import (
    Budget,
    FeasibilityError,
    _order_step,
    trace_d,
)

IMAG_DISCARD_LIMIT = 1e-8


@dataclass(frozen=True)
class EstradaResult:
    """One computed Estrada index value.

    error_bound is certified for trace-series (a true tail bound).  The
    other methods answer by one exponential sum over a spectrum, and their
    bound is its rounding plus the spectrum's residual carried through the
    exponentials: a proof for "eigh" and the closed forms, an estimate for
    Newton.  imag_discard records the imaginary mass
    dropped when realizing the value.  converged is False only for a
    trace series whose error_bound, which honestly covers the missing
    tail and the float rounding, exceeds its target: the budget or the cap
    cut it short, or that rounding alone may exceed the target.
    terms_used, for trace-series, is the number of orders summed (orders
    0..terms_used-1), orders certified zero included.
    """

    value: float
    method: str
    error_bound: float
    terms_used: int | None = None
    imag_discard: float = 0.0
    converged: bool = True


def _checked_float(x: int | Fraction | float, what: str) -> float:
    """x as a float, refused with FeasibilityError when it has no finite
    one: an answer past float range has no float to report."""
    try:
        if math.isfinite(value := float(x)):
            return value
    except OverflowError:
        pass
    raise FeasibilityError(f"{what} beyond float range")


def _checked_count(k: int) -> int:
    """The eigenvalue count k, refused when it does not fit in a float:
    every EE route and bound mixes k with floats."""
    _checked_float(k, f"eigenvalue count n(m-1)^(n-1) has {k.bit_length()} bits,")
    return k


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ee_from_spectrum(s: Spectrum) -> EstradaResult:
    """EE as the direct sum of exponentials over the eigenvalue multiset."""
    return _exp_sum(s, "spectrum-sum")


def _exp_sum(s: Spectrum, method: str) -> EstradaResult:
    """The sum of mult * e^z over s, reported as method; every route but
    the series answers by it, and a term or sum past float range is refused.

    error_bound is W (expm1(residual) + gamma_{N+8}), W the sum of
    mult e^(Re z) over the N entries: the eigenvalues' error, as |e^w - e^z|
    <= e^(Re z) expm1(|w - z|), plus N terms mult e^x cos y each within
    gamma_7 (exp and cos within one ulp) and their sum's gamma_{N-1}.
    Widening by gamma_{2N+8} covers W's and expm1's rounding."""
    total = 0j
    try:
        for z, mult in s.entries:
            total += mult * cmath.exp(z)
    except OverflowError:
        raise FeasibilityError("a term mult * e^z lies beyond float range") from None
    value = _checked_float(total.real, "the Estrada index lies")
    discard = abs(total.imag)
    if discard > IMAG_DISCARD_LIMIT * max(1.0, abs(value)):
        raise ValueError(f"eigenvalue multiset is not conjugate-closed: discarding "
                         f"imaginary mass {discard:.3e} against value {value:.6g}")
    weight = sum(mult * _safe_exp(z.real) for z, mult in s.entries)
    part = _up(weight * _up(math.expm1(s.residual) + _gamma(len(s.entries) + 8)))
    bound = _up(part + _up(part * _gamma(2 * len(s.entries) + 8)))
    return EstradaResult(value, method, bound, imag_discard=discard)


def ee_trace_series(
    h: UniformHypergraph,
    target_tol: float = 1e-6,
    *,
    budget: Budget | None = None,
) -> EstradaResult:
    """EE as the exact series sum_d Tr_d / d!, certified truncation.

    Orders 0..D-1 are accumulated as exact rationals, and the sum is
    rounded to the nearest float; error_bound is the tail, item D' of
    _series_tails(k, rho), plus that rounding, rounded up.  D' is the
    first order >= D that can be nonzero, and the tail bounds everything
    left because |Tr_d| <= k * rho^d.  The rounding is within 2^-53 k e^rho,
    so the tail's goal is target_tol less that, or just under the rounding
    once it reaches target_tol.  A first pass sums each order whose tail at
    the degree lower bound on rho is above the goal at both degree bounds:
    it is needed whatever rho is, as the tail grows with rho and the goal
    falls, then rises.  If the cap budget.max_degree + 1, or an order that
    trace_d refuses, stops that pass where even the lower bound's tail is
    above target_tol, rho is the degree upper bound, chosen at the order
    where the engine refused, without spectral_radius.  Otherwise rho is
    the upper end of spectral_radius's enclosure, and a second pass sums
    on to the first order whose tail meets the goal, the cap or a refusal.
    Orders that _order_step proves zero cost trace_d no enumeration.  A
    sum past float range is refused."""
    if not target_tol > 0:
        raise ValueError("target_tol must be positive")
    budget = budget or Budget()
    k = _checked_count(h.eigenvalue_count())
    cap, terms = budget.max_degree, []  # terms[d] is Tr_d / d!
    step = _order_step(h, cap)

    def goal(rho: float) -> float:  # the float nearest the sum is within 2^-53 k e^rho of it
        rounding = k * 2.0**-53 * _safe_exp(rho)
        return target_tol - rounding if rounding < target_tol else math.nextafter(rounding, 0.0)

    def sum_while(tail: Callable[[int], float], above: float) -> bool:
        """Sum on while the tail is above `above`; False if the cap or a refusal stops it."""
        try:
            while (d := len(terms)) <= cap and tail(d) > above:
                terms.append(trace_d(h, d, budget=budget) / math.factorial(d))
        except FeasibilityError:
            return False
        return d <= cap

    rho_lo, rho_up = rho_lower_degree(h), rho_upper_degree(h)
    tail_lo = _tail_from(k, rho_lo, step)
    whole = sum_while(tail_lo, max(goal(rho_lo), goal(rho_up)))
    cut_short = not whole and target_tol < k and tail_lo(len(terms)) > target_tol
    rho = rho_up if cut_short else spectral_radius(h).upper
    tail = _tail_from(k, rho, step)
    if whole:
        sum_while(tail, goal(rho))
    acc, d = sum(terms, Fraction(0)), len(terms)
    value = _checked_float(acc, "the Estrada index lies")
    bound = tail(d) if value == acc else _up(tail(d) + _up(float(abs(acc - Fraction(value)))))
    return EstradaResult(value, "trace-series", bound, terms_used=d, converged=bound <= target_tol)


def _tail_from(k: int, rho: float, step: int) -> Callable[[int], float]:
    """d -> item d' of _series_tails(k, rho), d' the first multiple of step >= d."""
    tails, known = _series_tails(k, rho), []  # known[d] is item d

    def tail(d: int) -> float:
        d += -d % step
        while len(known) <= d:
            known.append(next(tails))
        return known[d]

    return tail


def _series_tails(k: int, rho: float) -> Iterator[float]:
    """Upper bounds on k * sum_{j >= d} rho^j / j! for d = 0, 1, 2, ...

    The sum from d is part of the sum from any j <= d, which the Taylor
    remainder of e^rho bounds by rho^j/j! * e^rho: the least over j is
    taken.  Once d + 1 > rho every term is at most rho/(d+1) times the one
    before, so the geometric series bounds the sum by rho^d/d! *
    (d+1)/(d+1-rho).  The smaller bound is yielded.  The term rho^d/d!
    and the least so far are carried from one d to the next.  Each float
    operation is rounded to nearest and moved one float up (the divisor
    d+1-rho one float down), so every partial result bounds its exact
    value, through underflow and overflow alike; math.exp is within one
    ulp.
    """
    first = least = _up(float(k))
    growth = _up(_safe_exp(rho))
    for d in itertools.count():
        if d:
            first = _up(_up(first * rho) / d)
            least = min(least, first)
        tail = _up(least * growth)
        gap = math.nextafter(d + 1 - rho, 0.0)
        if gap > 0:
            tail = min(tail, _up(_up(first * (d + 1)) / gap))
        yield tail


def ee_symmetric(nonzero_reps: list[Rep], n0: int, m: int, k: int | None = None) -> EstradaResult:
    """EE of an m-fold rotation-symmetric spectrum from orbit data.

    nonzero_reps lists one (alpha, beta, multiplicity) per rotation
    orbit; the value returned covers all m members of each orbit plus n0
    zeros.  With k supplied, n0 + m * (total multiplicity) == k is
    enforced.  The orbits are expanded into their members, the rotations'
    rounding carried in the residual (_orbit_spectrum), and summed as in
    ee_from_spectrum: members that are not conjugate-closed are a ValueError.
    """
    return _exp_sum(_orbit_spectrum(nonzero_reps, n0, m, k), "symmetric-formula")


def ee_hyperstar(m: int, q: int) -> EstradaResult:
    """EE of the m-uniform hyperstar with q edges, in closed form.

    The exponential sum over hyperstar_spectrum, whose nonzero eigenvalues
    are the rotation orbits of the m-th roots of r = 1..q.  An eigenvalue
    count beyond float range is refused before the multiplicities, which
    take O(q^2) bits, are formed.
    """
    n = q * (m - 1) + 1
    _checked_count(n * (m - 1) ** (n - 1))
    return _exp_sum(hyperstar_spectrum(m, q), "hyperstar-closed-form")


def order_m_trace(h: UniformHypergraph) -> Fraction:
    """Exact order-m trace: every edge contributes m^(m-1)*(m-1)^(n-m)."""
    if not h.edges:
        return Fraction(0)
    return Fraction(
        h.m ** (h.m - 1) * (h.m - 1) ** (h.n - h.m) * len(h.edges)
    )


@dataclass(frozen=True)
class BoundsReport:
    """Estrada-index bounds, each rounded outward; every upper field dominates EE.

    lower_basic/upper_basic come from the order-m trace and the spectral
    radius (k + Tr_m/m! <= EE <= k*e^rho).  The moment bounds use
    r = sum |lambda|^2: Tr_2 = 2|E| for a graph, and for m >= 3, where
    Tr_2 = 0, 2*sum(Re lambda)^2 from an explicit spectrum, None without
    one.  The radius bounds replace sqrt(r) by its radius-only majorant
    rho*sqrt(2k) and are always available.  All bounds are evaluated at
    the upper end of rho_used, valid for any enclosure of the true radius.
    """

    k: int
    lower_basic: float
    upper_basic: float
    upper_moment: float | None
    upper_moment_adjusted: float | None
    upper_radius: float
    upper_radius_adjusted: float
    modulus_sq_sum: float | None
    rho_used: SpectralRadiusEstimate


def bounds_refined(s: Spectrum | None, h: UniformHypergraph,
                   rho: SpectralRadiusEstimate | None = None) -> BoundsReport:
    """Evaluate the full family of EE bounds for h.

    For m >= 3 the moment-based upper bounds require the spectrum s (pass
    None to skip them); a graph's read r = Tr_2 = 2|E| whether or not s
    is passed, and the basic and radius-based bounds never need it.  An
    adjusted bound whose unadjusted bound is inf is inf too.
    """
    k = _checked_count(h.eigenvalue_count())
    m = h.m
    tr_m = order_m_trace(h)
    # a refusal comes before the radius
    lower_basic = _down(_checked_float(k + tr_m / math.factorial(m),
                                       "the lower bound k + Tr_m/m! lies"))
    if rho is None:
        rho = spectral_radius(h)
    upper_basic = _up(_up(float(k)) * _up(_safe_exp(rho.upper)))

    def pair(x: float, base: float, power: float) -> tuple[float, float]:
        """k - 1 + e^x, and that plus Tr_m/m! minus the sum of
        base^(l*power)/l! over l = 1..m, rounded up from an upper x and a
        lower base."""
        upper = _up(_up(float(k - 1)) + _up(_safe_exp(x)))
        if math.isinf(upper):
            return upper, upper
        cut = sum(Fraction(_down(base ** (l * power))) / math.factorial(l) for l in range(1, m + 1))
        return upper, _up(float(Fraction(upper) + tr_m / math.factorial(m) - cut))

    root_2k = _up(math.sqrt(2.0 * _up(float(k))))
    upper_radius, upper_radius_adjusted = pair(
        _up(rho.upper * root_2k), _down(_down(math.sqrt(2.0)) * rho.upper), 1)
    upper_moment = upper_moment_adjusted = r_val = None
    if m == 2 or s is not None:
        # sum |lambda|^2 = 2 sum (Re lambda)^2 - Tr_2: Tr_2 on real spectra, and Tr_2 = 0 for m >= 3
        r_val = float(tr_m) if m == 2 else 2.0 * sum(mult * z.real**2 for z, mult in s.entries)
        upper_moment, upper_moment_adjusted = pair(_up(math.sqrt(r_val)), r_val, 0.5)
    return BoundsReport(k=k, lower_basic=lower_basic, upper_basic=upper_basic,
                        upper_moment=upper_moment, upper_moment_adjusted=upper_moment_adjusted,
                        upper_radius=upper_radius, upper_radius_adjusted=upper_radius_adjusted,
                        modulus_sq_sum=r_val, rho_used=rho)


def estrada_index(h: UniformHypergraph, method: str = "auto", *, tol: float = 1e-6,
                  budget: Budget | None = None, threads: int = 1) -> EstradaResult:
    """Front door: compute EE by the requested or cheapest valid method.

    "auto" picks its route from the input: the closed form for a
    hyperstar; the spectrum sum for a graph (by eigh) or an edgeless
    input; the certified trace series for every other input.  Explicit
    methods: "star", "spectrum", "series", "symmetric" (spectrum +
    rotation-orbit formula).  A graph whose eigensolver work n^3 exceeds
    budget.max_selections, or a k beyond float range, is a FeasibilityError.

    threads is accepted and ignored: every computation runs in the
    calling process.  It goes once the benchmark harness, which passes
    it on every call, stops passing it.
    """
    budget = budget or Budget()
    _checked_count(h.eigenvalue_count())
    if method in ("auto", "star"):
        star_q = detect_hyperstar(h)
        if star_q is not None:
            return ee_hyperstar(h.m, star_q)
        if method == "star":
            raise ValueError("input is not a hyperstar")
        method = "spectrum" if h.m == 2 or not h.edges else "series"
    if method == "spectrum":
        return ee_from_spectrum(spectrum(h, budget=budget))
    if method == "series":
        return ee_trace_series(h, tol, budget=budget)
    if method == "symmetric":
        s = spectrum(h, budget=budget)
        n0, reps = symmetric_representatives(s, h.m)
        return _exp_sum(_orbit_spectrum(reps, n0, h.m, s.k, s.residual), "symmetric-formula")
    raise ValueError(f"unknown method: {method!r}")
