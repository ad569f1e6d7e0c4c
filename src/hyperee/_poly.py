"""Exact univariate polynomial helpers and an all-roots finder.

Polynomials are lists of coefficients in ascending power order.  The exact
routines work over Fraction/int; the numeric root finder (Aberth-Ehrlich
simultaneous iteration) is only ever handed square-free factors, where all
roots are simple and convergence is fast and accurate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FPoly = list[Fraction]
IPoly = list[int]


# Aberth iteration: converged at relative step ABERTH_TOL; a stalled
# iteration is accepted when its best step stayed below ABERTH_STALL_TOL.
ABERTH_TOL = 1e-13
ABERTH_STALL_TOL = 1e-8
ABERTH_MAX_ITER = 600


class ConvergenceError(RuntimeError):
    """Numeric root iteration failed to reach its tolerance."""


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list) -> int:
    return len(p) - 1


def derivative(p: FPoly) -> FPoly:
    return [c * i for i, c in enumerate(p)][1:]


def divmod_exact(a: FPoly, b: FPoly) -> tuple[FPoly, FPoly]:
    """Long division over the rationals."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    if not trim(list(b)):
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    rem = a[:]
    db = degree(b)
    lead = b[-1]
    while degree(trim(rem)) >= db and any(rem):
        rem = trim(rem)
        shift = degree(rem) - db
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = rem[:-1]
    return trim(quot) or [Fraction(0)], trim(rem)


def div_exact(a: FPoly, b: FPoly) -> FPoly:
    q, r = divmod_exact(a, b)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def monic(p: FPoly) -> FPoly:
    lead = p[-1]
    return [Fraction(c) / lead for c in p]


def to_int_primitive(p: FPoly) -> IPoly:
    """Clear denominators and content; leading coefficient made positive."""
    denom = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * denom) for c in p]
    content = math.gcd(*(abs(c) for c in ints))
    if content:
        ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _pseudo_rem(a: IPoly, b: IPoly) -> IPoly:
    """Integer remainder associate: scale by lc(b) each step so the
    elimination stays in the integers.  Only used inside the primitive
    PRS, where any scalar multiple of the remainder is as good."""
    db = degree(b)
    lb = b[-1]
    r = trim(a[:])
    while r and degree(r) >= db:
        lead = r[-1]
        shift = degree(r) - db
        r = [lb * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= lead * c
        r = trim(r[:-1])
    return r


def gcd_int(a: IPoly, b: IPoly) -> IPoly:
    """Primitive-PRS polynomial gcd over the integers (positive leading coeff)."""
    a, b = trim(a[:]), trim(b[:])
    if not a:
        return _primitive(b)
    if not b:
        return _primitive(a)
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return a if a[-1] > 0 else [-c for c in a]


def _primitive(p: IPoly) -> IPoly:
    p = trim(p[:])
    if not p:
        return p
    content = math.gcd(*(abs(c) for c in p))
    return [c // content for c in p]


def gcd_frac(a: FPoly, b: FPoly) -> FPoly:
    """Monic gcd over the rationals, via the integer primitive PRS."""
    a, b = trim(list(a)), trim(list(b))
    if not a:
        return monic(b) if b else []
    if not b:
        return monic(a)
    g = gcd_int(to_int_primitive(a), to_int_primitive(b))
    return monic([Fraction(c) for c in g])


def squarefree_decomposition(p: FPoly) -> list[tuple[FPoly, int]]:
    """Yun's algorithm: p = prod factor^multiplicity with square-free,
    pairwise-coprime monic factors.  p must be nonconstant."""
    p = monic(trim([Fraction(c) for c in p]))
    dp = derivative(p)
    g = gcd_frac(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    b = div_exact(p, g)
    c = div_exact(dp, g)
    d = [ci - bi for ci, bi in _padded(c, derivative(b))]
    d = trim(d)
    out: list[tuple[FPoly, int]] = []
    i = 1
    while degree(b) > 0:
        a = gcd_frac(b, d) if d else monic(b)
        if degree(a) > 0:
            out.append((a, i))
        b = div_exact(b, a)
        c = div_exact(d, a) if d else []
        db = derivative(b)
        d = trim([ci - bi for ci, bi in _padded(c, db)])
        i += 1
    return out


def _padded(a: list, b: list) -> list[tuple]:
    length = max(len(a), len(b))
    return list(zip(a + [0] * (length - len(a)), b + [0] * (length - len(b))))


def _log2_abs(x: Fraction) -> float:
    """log2|x|, robust to magnitudes far outside float range."""
    num, den = abs(x.numerator), x.denominator
    if num == 0:
        return float("-inf")
    ns = max(0, num.bit_length() - 53)
    ds = max(0, den.bit_length() - 53)
    return (math.log2(num >> ns) + ns) - (math.log2(den >> ds) + ds)


def aberth_roots(monic_ascending: list[float]) -> np.ndarray:
    """All roots of a monic real polynomial by Aberth-Ehrlich iteration.

    Meant for square-free inputs (simple roots).  Stops at ABERTH_TOL
    relative step size; if the iteration stalls at the double-precision
    floor of an ill-conditioned input, the best iterate is accepted as long
    as its step stayed below ABERTH_STALL_TOL.  Raises ConvergenceError
    otherwise.
    """
    deg = len(monic_ascending) - 1
    if deg <= 0:
        return np.array([], dtype=complex)
    coeffs_desc = np.array(monic_ascending[::-1], dtype=complex)
    if deg == 1:
        return np.array([-coeffs_desc[1]], dtype=complex)
    dcoeffs_desc = coeffs_desc[:-1] * np.arange(deg, 0, -1)
    # Fujiwara root bound; far tighter than 1 + max|c| when coefficients
    # are large, which keeps the starting circle near the root annulus.
    mags = np.abs(coeffs_desc[1:])
    radius = 2.0 * float(np.max(mags ** (1.0 / np.arange(1, deg + 1))))
    if not (radius > 0.0 and np.isfinite(radius)):
        radius = 1.0
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = radius * np.exp(1j * angles)
    best_rel = math.inf
    best_z = z
    stalled = 0
    for _ in range(ABERTH_MAX_ITER):
        pv = np.polyval(coeffs_desc, z)
        dv = np.polyval(dcoeffs_desc, z)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        step = w / denom
        z = z - step
        rel = float(np.max(np.abs(step))) / (1.0 + float(np.max(np.abs(z))))
        if rel <= ABERTH_TOL:
            return z
        if rel < 0.5 * best_rel:
            best_rel, best_z, stalled = rel, z.copy(), 0
        else:
            stalled += 1
            if stalled >= 80:
                break
    if best_rel <= ABERTH_STALL_TOL:
        return best_z
    residual = float(np.max(np.abs(np.polyval(coeffs_desc, best_z))))
    raise ConvergenceError(
        f"root iteration did not converge: degree {deg}, residual {residual:.3e}"
    )
