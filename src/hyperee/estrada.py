"""Estrada index of uniform hypergraphs, by four methods, with bounds.

EE = sum of e^lambda over all k = n*(m-1)^(n-1) adjacency-tensor
eigenvalues.  Each method carries its own error story:

* spectrum-sum: exponentiate an explicit eigenvalue multiset; the
  spectrum's root residual propagates into the error bound.
* trace-series: partial sums of sum_d Tr_d / d! in exact rational
  arithmetic, truncated once a certified tail bound drops below the
  target tolerance (|Tr_d| <= k * rho^d bounds the tail by k times a
  remainder of the series of e^rho); orders certified zero by an
  m-symmetry labelling cost no enumeration.
* symmetric-formula: for spectra invariant under rotation by
  e^(2*pi*i/m), the exponential sum over each rotation orbit collapses
  to a real trigonometric expression in one representative.
* hyperstar-closed-form: the rotation-orbit formula applied to the
  hyperstar's known orbits, the m-th roots of r = 1..q.

The module also evaluates spectral bounds on EE: an exact lower bound
from the order-m trace, and a family of upper bounds driven by the
spectral radius and the second spectral moment.  All of them are tight
exactly for edgeless hypergraphs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .hypergraph import UniformHypergraph, detect_hyperstar
from .spectrum import (
    Spectrum,
    hyperstar_multiplicities,
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
    _max_admitted_order,
    _order_step,
    trace_d,
)

IMAG_DISCARD_LIMIT = 1e-8

Rep = tuple[float, float, int]


@dataclass(frozen=True)
class EstradaResult:
    """One computed Estrada index value.

    error_bound is certified for trace-series (a true tail bound),
    residual-propagated for spectrum-sum and for symmetric-formula on a
    numeric spectrum, and 0 for the closed forms (exact up to float
    rounding).  imag_discard records the magnitude of the imaginary mass
    dropped when realizing the value.  converged is False only for a
    trace series stopped early by the feasibility guard, in which case
    error_bound still honestly covers the missing tail.  terms_used, for trace-series, is the number of orders summed
    (orders 0..terms_used-1); orders certified zero count as summed,
    though trace_d returns them without any enumeration.
    """

    value: float
    method: str
    error_bound: float
    terms_used: int | None = None
    imag_discard: float = 0.0
    converged: bool = True


def _checked_count(k: int) -> int:
    """The eigenvalue count k, refused when it does not fit in a float:
    every EE route and bound mixes k with floats."""
    try:
        float(k)
    except OverflowError:
        raise FeasibilityError(
            f"eigenvalue count n(m-1)^(n-1) has {k.bit_length()} bits, "
            f"beyond float range"
        ) from None
    return k


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ee_from_spectrum(s: Spectrum) -> EstradaResult:
    """EE as the direct sum of exponentials over the eigenvalue multiset."""
    total = 0j
    for z, mult in s.entries:
        total += mult * cmath.exp(z)
    value = total.real
    discard = abs(total.imag)
    if discard > IMAG_DISCARD_LIMIT * max(1.0, abs(value)):
        raise ValueError(
            f"eigenvalue multiset is not conjugate-closed: discarding "
            f"imaginary mass {discard:.3e} against value {value:.6g}"
        )
    return EstradaResult(
        value=value,
        method="spectrum-sum",
        error_bound=_spectrum_error(s),
        imag_discard=discard,
    )


def _spectrum_error(s: Spectrum) -> float:
    """k * e^rho times the spectrum's root residual; 0 in closed form."""
    return s.k * _safe_exp(s.rho) * s.residual


def ee_trace_series(
    h: UniformHypergraph,
    target_tol: float = 1e-6,
    *,
    budget: Budget | None = None,
) -> EstradaResult:
    """EE as the exact series sum_d Tr_d / d!, certified truncation.

    Orders 0..D-1 are accumulated as exact rationals; truncation happens
    once _series_tail(k, rho, D') <= target_tol, D' being the first
    order >= D that can be nonzero, which bounds everything left because
    |Tr_d| <= k * rho^d; rho is the power-iteration upper end of the
    spectral radius.  Orders that _order_step proves zero cost trace_d no
    enumeration.  If the trace enumeration becomes infeasible first, the
    partial sum is returned with converged=False and the same honest tail
    bound.  When no order the budget admits could bring the tail under
    target_tol, that happens at the degree bound, without the power
    iteration.
    """
    if target_tol <= 0:
        raise ValueError("target_tol must be positive")
    budget = budget or Budget()
    k = _checked_count(h.eigenvalue_count())
    top = _max_admitted_order(h, budget)
    step = _order_step(h, top)
    last = top + 1 + (-(top + 1) % step)
    # the tail bound grows with rho; before its largest term it is at
    # least k, and past it, it falls with the order.  So if even a lower
    # bound on rho leaves it above target_tol at the first order out of
    # reach, the series stops unconverged whatever the radius, and the
    # degree bound serves in place of the power iteration
    if target_tol < k and _series_tail(k, rho_lower_degree(h), last) > target_tol:
        rho = rho_upper_degree(h)
    else:
        rho = spectral_radius(h).upper
    acc = Fraction(0)
    factorial_d = 1  # d!
    d = 0
    while True:
        # the tail from the first order >= d that can be nonzero
        tail = _series_tail(k, rho, d + (-d % step))
        if tail <= target_tol:
            return EstradaResult(
                float(acc), "trace-series", tail, terms_used=d
            )
        if d > budget.max_degree:
            return EstradaResult(
                float(acc), "trace-series", tail, terms_used=d,
                converged=False,
            )
        try:
            tr = trace_d(h, d, budget=budget)
        except FeasibilityError:
            return EstradaResult(
                float(acc), "trace-series", tail, terms_used=d,
                converged=False,
            )
        acc += tr / factorial_d
        d += 1
        factorial_d *= d


def _series_tail(k: int, rho: float, d: int) -> float:
    """An upper bound on k * sum_{j >= d} rho^j / j!.

    The Taylor remainder of e^rho bounds the sum by rho^d/d! * e^rho.
    Once d + 1 > rho every term is at most rho/(d+1) times the one before,
    so the geometric series bounds it by rho^d/d! * (d+1)/(d+1-rho).  The
    smaller bound is returned.  Each float operation is rounded to nearest
    and then moved one float up (the divisor d+1-rho one float down), so
    every partial result bounds its exact value, through underflow and
    overflow alike; math.exp is within one ulp.
    """
    first = _up(float(k))
    for j in range(1, d + 1):
        first = _up(_up(first * rho) / j)
    tail = _up(first * _up(_safe_exp(rho)))
    gap = math.nextafter(d + 1 - rho, 0.0)
    if gap > 0:
        tail = min(tail, _up(_up(first * (d + 1)) / gap))
    return tail


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _orbit_sum(alpha: float, beta: float, m: int) -> float:
    """Real part of sum over the m rotations of e^((alpha+i*beta)*w^r)."""
    total = 0.0
    for r in range(1, m + 1):
        c = math.cos(2.0 * math.pi * r / m)
        s = math.sin(2.0 * math.pi * r / m)
        total += math.exp(alpha * c - beta * s) * math.cos(
            beta * c + alpha * s
        )
    return total


def ee_symmetric(
    nonzero_reps: list[Rep],
    n0: int,
    m: int,
    k: int | None = None,
) -> EstradaResult:
    """EE of an m-fold rotation-symmetric spectrum from orbit data.

    nonzero_reps lists one (alpha, beta, multiplicity) per rotation
    orbit; the value returned covers all m members of each orbit plus n0
    zeros.  With k supplied, n0 + m * (total multiplicity) == k is
    enforced.
    """
    if m < 2:
        raise ValueError("uniformity must be at least 2")
    if n0 < 0 or any(mult < 1 for _, _, mult in nonzero_reps):
        raise ValueError("multiplicities must be positive and n0 >= 0")
    if k is not None:
        covered = n0 + m * sum(mult for _, _, mult in nonzero_reps)
        if covered != k:
            raise ValueError(
                f"representatives cover {covered} eigenvalues, expected {k}"
            )
    value = float(n0)
    for alpha, beta, mult in nonzero_reps:
        value += mult * _orbit_sum(alpha, beta, m)
    return EstradaResult(value=value, method="symmetric-formula", error_bound=0.0)


def ee_hyperstar(m: int, q: int) -> EstradaResult:
    """EE of the m-uniform hyperstar with q edges, in closed form.

    The nonzero eigenvalues are the m-th roots of r = 1..q with known
    multiplicities c_r, so EE is the rotation-orbit formula over the
    representatives (r^(1/m), 0, c_r).
    """
    c = hyperstar_multiplicities(m, q)
    n = q * (m - 1) + 1
    k = _checked_count(n * (m - 1) ** (n - 1))
    reps = [(r ** (1.0 / m), 0.0, c[r]) for r in range(1, q + 1) if c[r]]
    n0 = k - m * sum(c[1:])
    value = ee_symmetric(reps, n0, m).value
    return EstradaResult(
        value=value, method="hyperstar-closed-form", error_bound=0.0
    )


def order_m_trace(h: UniformHypergraph) -> Fraction:
    """Exact order-m trace: every edge contributes m^(m-1)*(m-1)^(n-m)."""
    if not h.edges:
        return Fraction(0)
    return Fraction(
        h.m ** (h.m - 1) * (h.m - 1) ** (h.n - h.m) * len(h.edges)
    )


@dataclass(frozen=True)
class BoundsReport:
    """Estrada-index bounds; every upper field dominates EE.

    lower_basic/upper_basic come from the order-m trace and the spectral
    radius (k + Tr_m/m! <= EE <= k*e^rho).  The moment bounds use
    r = sum |lambda|^2 = 2*sum(Re lambda)^2 - Tr_2 and need an explicit
    spectrum, so they are None without one; the radius bounds replace
    sqrt(r) by its radius-only majorant rho*sqrt(2k) and are always
    available.  All bounds are evaluated at the upper end of rho_used,
    which keeps them valid for any enclosure of the true radius.
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


def bounds_basic(
    h: UniformHypergraph, rho: SpectralRadiusEstimate
) -> tuple[float, float]:
    """(k + Tr_m/m!, k*e^rho): lower and upper bounds on EE.

    Both are tight exactly for edgeless hypergraphs.  The upper bound is
    evaluated at rho.upper so it stays an upper bound for any enclosure.
    """
    k = _checked_count(h.eigenvalue_count())
    lower = float(k + order_m_trace(h) / math.factorial(h.m))
    upper = k * _safe_exp(rho.upper)
    return lower, upper


def bounds_refined(
    s: Spectrum | None,
    h: UniformHypergraph,
    rho: SpectralRadiusEstimate | None = None,
) -> BoundsReport:
    """Evaluate the full family of EE bounds for h.

    The moment-based upper bounds require the spectrum s (pass None to
    skip them); the basic and radius-based bounds never do.  Tr_2 enters
    the moment bounds exactly from its closed form: 2|E| for graphs, 0
    for m >= 3, where orders 1..m-1 vanish.  An adjusted bound whose
    unadjusted bound is inf is inf too.
    """
    k = _checked_count(h.eigenvalue_count())
    if rho is None:
        rho = spectral_radius(h)
    lower_basic, upper_basic = bounds_basic(h, rho)
    m = h.m
    adj = float(order_m_trace(h) / math.factorial(m))
    ru = rho.upper
    x = ru * math.sqrt(2.0 * k)
    upper_radius = k - 1 + _safe_exp(x)
    upper_radius_adjusted = math.inf if math.isinf(upper_radius) else (
        upper_radius + adj - sum(
            (math.sqrt(2.0) * ru) ** l / math.factorial(l)
            for l in range(1, m + 1)
        )
    )
    upper_moment = upper_moment_adjusted = r_val = None
    if s is not None:
        alpha_sq = sum(mult * z.real**2 for z, mult in s.entries)
        tr2 = float(order_m_trace(h)) if m == 2 else 0.0
        r_val = max(2.0 * alpha_sq - tr2, 0.0)
        sq = math.sqrt(r_val)
        upper_moment = k - 1 + _safe_exp(sq)
        upper_moment_adjusted = math.inf if math.isinf(upper_moment) else (
            upper_moment + adj - sum(
                r_val ** (l / 2.0) / math.factorial(l) for l in range(1, m + 1)
            )
        )
    return BoundsReport(
        k=k,
        lower_basic=lower_basic,
        upper_basic=upper_basic,
        upper_moment=upper_moment,
        upper_moment_adjusted=upper_moment_adjusted,
        upper_radius=upper_radius,
        upper_radius_adjusted=upper_radius_adjusted,
        modulus_sq_sum=r_val,
        rho_used=rho,
    )


def estrada_index(
    h: UniformHypergraph,
    method: str = "auto",
    *,
    tol: float = 1e-6,
    budget: Budget | None = None,
    threads: int = 1,
) -> EstradaResult:
    """Front door: compute EE by the requested or cheapest valid method.

    "auto" prefers the hyperstar closed form, then the full spectrum
    while k fits the budget (falling back when the spectrum's trace
    orders overrun the enumeration budget), then the certified trace
    series.  Explicit methods: "star", "spectrum", "series",
    "symmetric" (spectrum + rotation-orbit formula).  An eigenvalue
    count beyond float range is refused with FeasibilityError.

    threads is accepted and ignored: every computation runs in the
    calling process.  It goes once the benchmark harness, which passes
    it on every call, stops passing it.
    """
    budget = budget or Budget()
    _checked_count(h.eigenvalue_count())
    if method == "auto":
        star_q = detect_hyperstar(h)
        if star_q is not None:
            return ee_hyperstar(h.m, star_q)
        if not h.edges or h.eigenvalue_count() <= budget.max_degree:
            try:
                return ee_from_spectrum(spectrum(h, budget=budget))
            except FeasibilityError:
                pass  # the series needs far fewer trace orders than k
        return ee_trace_series(h, tol, budget=budget)
    if method == "star":
        star_q = detect_hyperstar(h)
        if star_q is None:
            raise ValueError("input is not a hyperstar")
        return ee_hyperstar(h.m, star_q)
    if method == "spectrum":
        return ee_from_spectrum(spectrum(h, budget=budget))
    if method == "series":
        return ee_trace_series(h, tol, budget=budget)
    if method == "symmetric":
        s = spectrum(h, budget=budget)
        n0, reps = symmetric_representatives(s, h.m)
        result = ee_symmetric(reps, n0, h.m, k=s.k)
        return replace(result, error_bound=_spectrum_error(s))
    raise ValueError(f"unknown method: {method!r}")
