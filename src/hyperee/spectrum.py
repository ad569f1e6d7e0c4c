"""Characteristic polynomial and eigenvalue multiset of the adjacency tensor.

The full spectrum of an m-uniform hypergraph on n vertices has
k = n*(m-1)^(n-1) eigenvalues (with multiplicity).  A graph's come from
a symmetric eigensolver at any n.  For m >= 3 and small k they are
recovered exactly-in-structure from the power traces: Newton's identities
turn the trace sequence into the monic characteristic polynomial over the
rationals, and the root pipeline then factors out zero eigenvalues
exactly, splits the rest into square-free factors (so every numeric root
is simple), and finds those roots to near machine precision.

Hyperstars get a closed-form spectrum instead: the nonzero eigenvalues are
the m-th roots of integers r = 1..q with explicit multiplicities, listed
orbit by orbit with the float rounding of each entry as a proven residual.
"""

from __future__ import annotations

import bisect
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
from .hypergraph import UniformHypergraph, _incidence, detect_hyperstar
from .traces import Budget, FeasibilityError, TraceSequence, trace_sequence

Entry = tuple[complex, int]
# one rotation orbit: (alpha, beta, multiplicity) for alpha + i*beta
Rep = tuple[float, float, int]

# The root pipeline sets an imaginary part within SNAP_ATOL * (1 + |z|) of
# a numeric root z to 0; Spectrum.residual does not cover that move yet.
SNAP_ATOL = 1e-8
# how far, times 1 + |z|, a rotated eigenvalue may sit from its orbit partner
ROTATION_TOL = 1e-8


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _gamma(j: int) -> float:
    """Higham's gamma_j = j*u / (1 - j*u), u = 2^-53, rounded up."""
    return _up(j * 2.0**-53 / math.nextafter(1.0 - j * 2.0**-53, 0.0))


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

    residual is what error bounds downstream build on.  For "eigh" and
    "closed-form" it is a proven radius: each true eigenvalue lies within
    it of its own listed one.  A closed form's covers the float rounding
    of its entries, r^(1/m) and the rotation factors (_orbit_spectrum).
    For "newton-aberth" it is max |p(root)| over the scaled square-free
    factors of the roots, an estimate.
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


def _orbit_spectrum(reps: list[Rep], n0: int, m: int, k: int | None = None,
                    residual: float = 0.0) -> Spectrum:
    """The spectrum of n0 zeros and, per rep (alpha, beta, mult), the
    orbit {(alpha + i*beta) w^l : l < m}, w = e^(2*pi*i/m), each member
    of multiplicity mult; with k supplied, the multiplicities must sum to it.

    If each rep lies within residual of a true eigenvalue whose orbit is in
    the spectrum, each member lies within residual + nu gamma_25 of its
    own, nu the largest |rep|; for m = 2 the rotations, 1 and -1, are
    exact.  Any other w^l is cmath.exp of an angle below 2 pi and within
    gamma_3 of 2 pi l/m relatively, with cos and sin within one ulp: within
    (6 pi + 2 sqrt 2) u of w^l.  The product with the rep adds sqrt(2)
    gamma_2 (Higham, Lemma 3.5), 24.5 u |rep| in all, and gamma_25 nu
    covers that and nu's own rounding.
    """
    if m < 2:
        raise ValueError("uniformity must be at least 2")
    covered = n0 + m * sum(mult for _, _, mult in reps)
    if k is not None and covered != k:
        raise ValueError(f"representatives cover {covered} eigenvalues, expected {k}")
    rotations = [-1 if 2 * l == m else cmath.exp(2j * cmath.pi * l / m) for l in range(m)]
    entries = [(complex(alpha, beta) * w, mult) for alpha, beta, mult in reps for w in rotations]
    if n0:
        entries.append((0j, n0))
    entries.sort(key=lambda it: (-abs(it[0]), cmath.phase(it[0])))
    nu = max((abs(complex(alpha, beta)) for alpha, beta, _ in reps), default=0.0)
    return Spectrum(covered, tuple(entries), "closed-form",
                    _up(residual + _up(nu * _gamma(25 if m > 2 else 0))))


def hyperstar_spectrum(m: int, q: int) -> Spectrum:
    """Closed-form spectrum of the hyperstar with q edges: the rotation
    orbits of r^(1/m) with multiplicity c_r (hyperstar_multiplicities)
    for r = 1..q, and the rest of k as zeros.  Its residual is proven:
    r ** (1/m) is a pow within one ulp at an exponent within u of 1/m, so
    within (2 + ln(r)/m) u of r^(1/m) and a little more; gamma_{4 + bit
    length of q} times the largest rep covers that, plus the rotations'.
    """
    c = hyperstar_multiplicities(m, q)
    n = q * (m - 1) + 1
    k = n * (m - 1) ** (n - 1)
    reps = [(r ** (1.0 / m), 0.0, c[r]) for r in range(1, q + 1) if c[r]]
    return _orbit_spectrum(reps, k - m * sum(c[1:]), m, k,
                           _up(reps[-1][0] * _gamma(4 + q.bit_length())))


def spectrum(h: UniformHypergraph, budget: Budget | None = None) -> Spectrum:
    """Full eigenvalue multiset of h's adjacency tensor.

    Hyperstars (and edgeless hypergraphs) are answered in closed form.  A
    graph's comes from _graph_spectrum at any n whose eigensolver work n^3
    fits budget.max_selections; for m >= 3 from exact traces + Newton's
    identities, within k = n*(m-1)^(n-1) <= budget.max_degree.  Past either
    budget, or when the roots do not converge in double precision, a
    FeasibilityError is raised; for m >= 3 it points at the trace series.
    """
    budget = budget or Budget()
    k = h.eigenvalue_count()
    if not h.edges:
        return Spectrum(k=k, entries=((0j, k),), provenance="closed-form")
    star_q = detect_hyperstar(h)
    if star_q is not None:
        return hyperstar_spectrum(h.m, star_q)
    if h.m == 2:
        if h.n**3 > budget.max_selections:
            raise FeasibilityError(f"eigensolver work n^3 = {h.n**3} exceeds the selection "
                                   f"budget ({budget.max_selections})")
        return _graph_spectrum(h)
    if k > budget.max_degree:
        raise FeasibilityError(
            f"eigenvalue count, a {k.bit_length()}-bit integer, exceeds the characteristic-"
            f"polynomial budget ({budget.max_degree}); use the trace-series method")
    ts = trace_sequence(h, k, budget=budget)
    cp = charpoly_from_traces(ts)
    try:
        entries, residual = roots(cp)
    except ConvergenceError as exc:
        raise FeasibilityError(f"{exc}; use the trace-series method") from exc
    return Spectrum(k=k, entries=entries, provenance="newton-aberth", residual=residual)


def _graph_spectrum(h: UniformHypergraph) -> Spectrum:
    """numpy.linalg.eigh of the adjacency matrix A, with a proven radius.

    Each true eigenvalue lies within delta = ||R||_2 / sqrt(1 - alpha) of
    its own lam_i, R = AV - V diag(lam) and alpha >= ||V^T V - I||_2 (Kahan;
    Rump, Acta Numerica 19 (2010)).  Each norm is a Frobenius norm plus
    its rounding, gamma_{n+1} times that of the absolute values: for R the
    norm of |A||V| + |V||diag(lam)|, itself computed in floats, and for
    V^T V - I at most ||V||_F^2 + n.  A lam_i within delta of 0 is listed
    as 0; the residual is then 2 delta.
    """
    n = h.n
    a = np.zeros((n, n))
    a[tuple(zip(*_incidence(h)[0]))] = 1.0
    a += a.T
    lam, vec = np.linalg.eigh(a)
    # numpy's Frobenius norm of N entries is within gamma_{N+1}
    widen, gamma = _up(1.0 + _gamma(2 * n * n + 2)), _gamma(n + 1)
    v, r, g, s = (_up(float(np.linalg.norm(x)) * widen)
                  for x in (vec, a @ vec - vec * lam, vec.T @ vec - np.identity(n),
                            a @ np.abs(vec) + np.abs(vec * lam)))
    # each entry of the float |A||V| + |V||lam| is at least (1 - gamma) times the exact one
    r = _up(r + _up(gamma * _up(s / math.nextafter(1.0 - gamma, 0.0))))
    alpha = _up(g + _up(gamma * _up(_up(v * v) + n)))
    delta = _up(r / math.nextafter(math.sqrt(math.nextafter(1.0 - alpha, 0.0)), 0.0))
    zero = np.abs(lam) <= delta
    entries = [(0j if z else complex(x), 1) for x, z in zip(lam.tolist(), zero)]
    entries.sort(key=lambda it: (-abs(it[0]), cmath.phase(it[0])))
    return Spectrum(n, tuple(entries), "eigh", 2.0 * delta if zero.any() else delta)


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
    items = [[z, mult] for z, mult in s.entries if z != 0]
    n0 = s.k - sum(mult for _, mult in items)
    omega = cmath.exp(2j * cmath.pi / m)
    # partners of z0 lie within tol of |z0| in modulus, up to rounding far below tol
    order = sorted(range(len(items)), key=lambda j: abs(items[j][0]))
    moduli = [abs(items[j][0]) for j in order]
    reps: list[Rep] = []
    for first in items:
        while first[1] > 0:  # the first entry left starts the next orbit
            z0 = first[0]
            tol = ROTATION_TOL * (1.0 + abs(z0))
            window = order[bisect.bisect_left(moduli, abs(z0) - 2.0 * tol):
                           bisect.bisect_right(moduli, abs(z0) + 2.0 * tol)]
            matches: list[int] = []
            target = z0
            for _ in range(m):
                hit = min((j for j in window if items[j][1] > 0 and j not in matches
                           and abs(items[j][0] - target) <= tol), default=None)
                if hit is None:
                    raise ValueError(f"spectrum is not {m}-fold rotation symmetric: "
                                     f"no partner for {target:.6g}")
                matches.append(hit)
                target = target * omega
            count = min(items[j][1] for j in matches)
            reps.append((z0.real, z0.imag, count))
            for j in matches:
                items[j][1] -= count
    return n0, reps
