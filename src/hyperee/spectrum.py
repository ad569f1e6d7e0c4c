"""Characteristic polynomial and eigenvalue multiset of the adjacency tensor.

The full spectrum of an m-uniform hypergraph on n vertices has
k = n*(m-1)^(n-1) eigenvalues (with multiplicity).  For small k it can be
recovered exactly-in-structure from the power traces: Newton's identities
turn the trace sequence into the monic characteristic polynomial over the
rationals, and the root pipeline then factors out zero eigenvalues exactly,
splits the rest into square-free factors (so every numeric root is simple),
and finds those roots to near machine precision.

Hyperstars get a closed-form spectrum instead: the nonzero eigenvalues are
the m-th roots of integers r = 1..q with explicit multiplicities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._poly import (
    ConvergenceError,
    IPoly,
    _log2_abs,
    aberth_roots,
    degree,
    squarefree_decomposition,
)
from .hypergraph import UniformHypergraph, detect_hyperstar
from .traces import Budget, FeasibilityError, TraceSequence, trace_sequence

Entry = tuple[complex, int]
# one rotation orbit: (alpha, beta, multiplicity) for alpha + i*beta
Rep = tuple[float, float, int]

# The root pipeline sets an imaginary part within SNAP_ATOL * (1 + |z|) of
# a numeric root z to 0; Spectrum.residual does not cover that move yet.
SNAP_ATOL = 1e-8
# how far, times 1 + |z|, a rotated eigenvalue may sit from its orbit partner
ROTATION_TOL = 1e-8


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial, coefficients ascending by power.

    coeffs[j] multiplies lambda^j; len(coeffs) == k + 1 and coeffs[-1] == 1.
    """

    k: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.k + 1:
            raise ValueError("coefficient count must be k + 1")
        if self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset: (value, multiplicity) pairs summing to k.

    residual is max |p(root)| over the scaled square-free factors the
    numeric roots were extracted from (0.0 for closed-form spectra); it is
    the quality handle downstream error bounds are expressed in.
    """

    k: int
    entries: tuple[Entry, ...]
    provenance: str
    residual: float = 0.0

    def __post_init__(self) -> None:
        total = sum(mult for _, mult in self.entries)
        if total != self.k:
            raise ValueError(
                f"multiplicities sum to {total}, expected {self.k}"
            )
        if any(mult <= 0 for _, mult in self.entries):
            raise ValueError("multiplicities must be positive")

    @property
    def rho(self) -> float:
        """Largest eigenvalue modulus."""
        return max(abs(z) for z, _ in self.entries)


def charpoly_from_traces(ts: TraceSequence) -> CharPoly:
    """Newton's identities: power sums 0..k -> monic charpoly, exactly.

    ts must carry trace orders 0..k where k = n*(m-1)^(n-1) = ts.values[0].
    """
    k = int(ts.values[0])
    if len(ts.values) < k + 1:
        raise ValueError(
            f"need trace orders 0..{k}, got only 0..{len(ts.values) - 1}"
        )
    p = ts.values
    c = [Fraction(0)] * k + [Fraction(1)]
    for j in range(1, k + 1):
        c[k - j] = -sum(c[k - j + i] * p[i] for i in range(1, j + 1)) / j
    return CharPoly(k=k, coeffs=tuple(c))


def _scaled_floats(factor: IPoly) -> tuple[list[float], int]:
    """Make an integer factor monic and balance it for float evaluation.

    Substituting x = 2^t * y keeps every non-leading coefficient of the
    monic polynomial in y at magnitude <= 1, so huge exact coefficients
    never overflow a double.  Returns (float coefficients of q(y), t); each
    is the correctly rounded quotient of two integers.
    """
    d, lead = degree(factor), factor[-1]
    logs = [
        (_log2_abs(Fraction(c, lead)), j)
        for j, c in enumerate(factor[:-1]) if c != 0
    ]
    t = max(0, math.ceil(max(lg / (d - j) for lg, j in logs))) if logs else 0
    return [c / (lead << t * (d - j)) for j, c in enumerate(factor)], t


def _snap_real(z: complex) -> complex:
    if abs(z.imag) <= SNAP_ATOL * (1.0 + abs(z)):
        return complex(z.real, 0.0)
    return z


def _symmetrize_conjugates(roots: list[complex]) -> list[complex]:
    """Average conjugate partners so pairs come out exactly symmetric."""
    pos = [z for z in roots if z.imag > 0]
    neg = [z for z in roots if z.imag < 0]
    real = [z for z in roots if z.imag == 0]
    out = list(real)
    for z in pos:
        if not neg:
            out.append(z)
            continue
        partner = min(neg, key=lambda w: abs(w - z.conjugate()))
        neg.remove(partner)
        avg = (z + partner.conjugate()) / 2
        out.append(avg)
        out.append(avg.conjugate())
    out.extend(neg)
    return out


def roots(cp: CharPoly) -> tuple[tuple[Entry, ...], float]:
    """Eigenvalue multiset of a characteristic polynomial.

    Zero eigenvalues are read off exactly from the vanishing low-order
    coefficients.  The remaining part is split by Yun's square-free
    decomposition over the integers, so each numeric solve sees only
    simple roots; the multiplicity of every root of the i-th square-free
    factor is exactly i.  Returns (entries, residual).
    """
    coeffs = list(cp.coeffs)
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    entries: list[Entry] = []
    if zero_mult:
        entries.append((0j, zero_mult))
    residual = 0.0
    if degree(coeffs) >= 1:
        for factor, mult in squarefree_decomposition(coeffs):
            scaled, t = _scaled_floats(factor)
            ys = aberth_roots(scaled)
            desc = np.array(scaled[::-1], dtype=complex)
            if len(ys):
                residual = max(
                    residual, float(np.max(np.abs(np.polyval(desc, ys))))
                )
            zs = _symmetrize_conjugates([_snap_real(z * (2.0**t)) for z in ys])
            entries.extend((_snap_real(z), mult) for z in zs)
    total = sum(mult for _, mult in entries)
    if total != cp.k:
        raise RuntimeError(
            f"root multiplicities sum to {total}, expected {cp.k}"
        )
    entries.sort(key=lambda it: (-abs(it[0]), cmath.phase(it[0])))
    return tuple(entries), residual


def hyperstar_multiplicities(m: int, q: int) -> list[int]:
    """c_r for r = 0..q: multiplicity of each m-th root of r in a hyperstar.

    Each nonzero eigenvalue family {r^(1/m) * e^(2*pi*i*l/m) : l} occurs
    with multiplicity c_r = C(q, r) a^r b^(q-r), a = m^(m-2) and
    b = (m-1)^(m-1) - a; c_0 counts one block of zeros, and the rest of the
    zero multiplicity is whatever remains of k.  They are formed in one
    pass down from c_q = a^q by c_{r-1} = c_r r b / ((q-r+1) a), where
    every division is exact (b = 0 for m = 2 just zeroes the rest).
    """
    if m < 2 or q < 1:
        raise ValueError("hyperstar needs m >= 2 and q >= 1")
    a = m ** (m - 2)
    b = (m - 1) ** (m - 1) - a
    c = [a**q]
    for r in range(q, 0, -1):
        c.append(c[-1] * r * b // ((q - r + 1) * a))
    return c[::-1]


def _hyperstar_orbits(m: int, q: int) -> tuple[int, int, list[Rep]]:
    """(k, n0, reps) of the hyperstar with q edges: its eigenvalue count,
    its zero multiplicity, and one representative (r^(1/m), 0, c_r) per
    rotation orbit of nonzero eigenvalues."""
    c = hyperstar_multiplicities(m, q)
    n = q * (m - 1) + 1
    k = n * (m - 1) ** (n - 1)
    reps = [(r ** (1.0 / m), 0.0, c[r]) for r in range(1, q + 1) if c[r]]
    return k, k - m * sum(c[1:]), reps


def hyperstar_spectrum(m: int, q: int) -> Spectrum:
    """Closed-form spectrum of the hyperstar with q edges."""
    k, n0, reps = _hyperstar_orbits(m, q)
    entries: list[Entry] = []
    for alpha, _, mult in reps:
        for l in range(m):
            z = alpha * cmath.exp(2j * cmath.pi * l / m)
            if abs(z.imag) < 1e-15:
                z = complex(z.real, 0.0)
            entries.append((z, mult))
    if n0:
        entries.append((0j, n0))
    entries.sort(key=lambda it: (-abs(it[0]), cmath.phase(it[0])))
    return Spectrum(k=k, entries=tuple(entries), provenance="closed-form")


def spectrum(
    h: UniformHypergraph,
    budget: Budget | None = None,
) -> Spectrum:
    """Full eigenvalue multiset of h's adjacency tensor.

    Hyperstars (and edgeless hypergraphs) are answered in closed form.
    Everything else goes through exact traces + Newton's identities, which
    is only feasible while k = n*(m-1)^(n-1) stays small; past the budget,
    or when the roots do not converge in double precision, a
    FeasibilityError points at the trace-series route instead.
    """
    budget = budget or Budget()
    k = h.eigenvalue_count()
    if not h.edges:
        return Spectrum(k=k, entries=((0j, k),), provenance="closed-form")
    star_q = detect_hyperstar(h)
    if star_q is not None:
        return hyperstar_spectrum(h.m, star_q)
    if k > budget.max_degree:
        raise FeasibilityError(
            f"eigenvalue count {k} exceeds the characteristic-polynomial "
            f"budget ({budget.max_degree}); use the trace-series method"
        )
    ts = trace_sequence(h, k, budget=budget)
    cp = charpoly_from_traces(ts)
    try:
        entries, residual = roots(cp)
    except ConvergenceError as exc:
        raise FeasibilityError(f"{exc}; use the trace-series method") from exc
    return Spectrum(
        k=k, entries=entries, provenance="newton-aberth", residual=residual
    )


def symmetric_representatives(s: Spectrum, m: int) -> tuple[int, list[Rep]]:
    """Split an m-fold rotation-symmetric spectrum into orbit data.

    Returns (n0, reps) where n0 is the zero multiplicity and each rep
    (alpha, beta, mult) stands for the full orbit
    {(alpha + i*beta) * e^(2*pi*i*l/m) : l = 0..m-1}, every member carrying
    multiplicity mult.  Raises ValueError when the spectrum is not
    m-fold rotation symmetric within ROTATION_TOL.
    """
    if m < 2:
        raise ValueError("rotation order must be at least 2")
    remaining: list[list] = [
        [z, mult] for z, mult in s.entries if z != 0
    ]
    n0 = s.k - sum(mult for _, mult in remaining)
    omega = cmath.exp(2j * cmath.pi / m)
    reps: list[Rep] = []
    while remaining:
        z0 = remaining[0][0]
        matches: list[list] = []
        target = z0
        for _ in range(m):
            hit = None
            for item in remaining:
                if any(item is mch for mch in matches):
                    continue
                if abs(item[0] - target) <= ROTATION_TOL * (1.0 + abs(z0)):
                    hit = item
                    break
            if hit is None:
                raise ValueError(
                    f"spectrum is not {m}-fold rotation symmetric: no "
                    f"partner for {target:.6g}"
                )
            matches.append(hit)
            target = target * omega
        count = min(item[1] for item in matches)
        reps.append((z0.real, z0.imag, count))
        for item in matches:
            item[1] -= count
        remaining = [item for item in remaining if item[1] > 0]
    return n0, reps
