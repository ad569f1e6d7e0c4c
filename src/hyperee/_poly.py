"""Exact univariate polynomial helpers and an all-roots finder.

Polynomials are lists of coefficients in ascending power order.  The exact
routines work over the integers; the numeric root finder (Aberth-Ehrlich
simultaneous iteration) is only ever handed square-free factors, where all
roots are simple and convergence is fast and accurate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

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


def derivative(p: IPoly) -> IPoly:
    return [c * i for i, c in enumerate(p)][1:]


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
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a if not a or a[-1] > 0 else [-c for c in a]


def _primitive(p: IPoly) -> IPoly:
    p = trim(p[:])
    if not p:
        return p
    content = math.gcd(*p)
    return [c // content for c in p]


def _div_exact(a: IPoly, b: IPoly) -> IPoly:
    """The quotient a / b in Z[x]; raises unless b divides a there."""
    r = a[:]
    db, lead = degree(b), b[-1]
    q = [0] * max(0, len(a) - db)
    for shift in reversed(range(len(q))):
        q[shift] = r[shift + db] // lead
        for i, c in enumerate(b):
            r[shift + i] -= q[shift] * c
    if any(r):
        raise ArithmeticError("division was not exact")
    return q


def squarefree_decomposition(p: list) -> list[tuple[IPoly, int]]:
    """Yun's algorithm over Z[x]: p = const * prod factor^multiplicity with
    square-free, pairwise-coprime primitive integer factors.

    p has rational coefficients and must be nonconstant; it is cleared of
    denominators and content once.  Every divisor below is a primitive
    gcd that divides its dividend over Q, so by Gauss's lemma the division
    is exact over Z.  Scaling b and c by the same constant scales d by it
    too, so the integer factors are the rational ones up to a constant.
    """
    denom = math.lcm(*(c.denominator for c in p))
    f = _primitive([int(c * denom) for c in p])
    df = derivative(f)
    g = gcd_int(f, df)
    b, c = _div_exact(f, g), _div_exact(df, g)
    out: list[tuple[IPoly, int]] = []
    i = 1
    while degree(b) > 0:
        d = trim([x - y for x, y in itertools.zip_longest(
            c, derivative(b), fillvalue=0)])
        a = gcd_int(b, d)
        if degree(a) > 0:
            out.append((a, i))
        b, c = _div_exact(b, a), _div_exact(d, a)
        i += 1
    return out


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
