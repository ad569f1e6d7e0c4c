"""Acceptance checks.

Every test prints one verdict line, ``CRITERION n (...) ... PASS|FAIL``,
and fails with the collected reasons when any sub-check misses.  The
checks cross independent computation routes wherever one exists: closed
forms against published values, the series against closed forms, numeric
roots against exact traces, and the m = 2 case against dense matrices.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

from _oracles import matrix_power_sums, orbit_sum_m3, orbit_sum_m4, star_trace
from conftest import CORPUS
from hyperee.estrada import (
    bounds_refined,
    ee_from_spectrum,
    ee_hyperstar,
    ee_symmetric,
    ee_trace_series,
)
from hyperee.hypergraph import detect_hyperstar, gen_hyperpath
from hyperee.spectrum import (
    Spectrum,
    charpoly_from_traces,
    hyperstar_spectrum,
    roots,
    spectrum,
    symmetric_representatives,
)
from hyperee.traces import (
    FeasibilityError,
    trace_d,
    trace_sequence,
    vertex_trace_terms,
)


def _criterion(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {num} ({label}) ... {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _guard(failures: list[str], body) -> None:
    try:
        body()
    except Exception as exc:  # keep the verdict line even on a crash
        failures.append(f"unexpected {type(exc).__name__}: {exc}")


def test_criterion_1_hyperstar_closed_form_reference_values():
    failures: list[str] = []

    def body() -> None:
        cases = [  # (q, reference, kind, tolerance)
            (1, 13.5125, "rel", 1e-3),
            (2, 92.1756, "rel", 1e-3),
            (3, 521.5079, "rel", 1e-3),
            (4, 2698.5, "abs", 0.5),
        ]
        t0 = time.perf_counter()
        values = {q: ee_hyperstar(3, q).value for q, *_ in cases}
        elapsed = time.perf_counter() - t0
        for q, ref, kind, tol in cases:
            dev = abs(values[q] - ref)
            if kind == "rel":
                dev /= abs(ref)
            if dev > tol:
                failures.append(f"q={q}: {values[q]:.6f} vs {ref} ({kind} dev {dev:.2e})")
        if elapsed > 1.0:
            failures.append(f"closed forms took {elapsed:.2f}s, expected milliseconds")

    _guard(failures, body)
    _criterion(1, "hyperstar closed-form reference values", failures)


def test_criterion_2_certified_series_on_loose_paths():
    failures: list[str] = []

    def body() -> None:
        # reference values are printed to 5 significant digits; their own
        # rounding slack joins the certified truncation bound
        for p, ref, print_slack in [(3, 521.21, 0.005), (4, 2694.8, 0.05)]:
            res = ee_trace_series(gen_hyperpath(3, p), 1e-6)
            if not res.converged:
                failures.append(f"p={p}: series did not converge")
                continue
            if res.error_bound > 1e-6:
                failures.append(f"p={p}: tail bound {res.error_bound:.2e} above target")
            rel = abs(res.value - ref) / ref
            if rel > 5e-3:
                failures.append(f"p={p}: {res.value:.6f} vs {ref} (rel {rel:.2e})")
            if abs(res.value - ref) > res.error_bound + print_slack:
                failures.append(
                    f"p={p}: deviation {abs(res.value - ref):.2e} exceeds "
                    f"certified bound + reference rounding"
                )

    _guard(failures, body)
    _criterion(2, "certified series on loose paths", failures)


def test_criterion_3_single_edge_newton_pipeline():
    failures: list[str] = []

    def body() -> None:
        h = gen_hyperpath(3, 1)
        ts = trace_sequence(h, 12)
        entries, residual = roots(charpoly_from_traces(ts))
        w = cmath.exp(2j * cmath.pi / 3)
        expected = [(0j, 3), (1 + 0j, 3), (w, 3), (w.conjugate(), 3)]
        matched: set[int] = set()
        for z, mult in entries:
            hit = next(
                (
                    i
                    for i, (zw, mw) in enumerate(expected)
                    if i not in matched and abs(z - zw) <= 1e-8 and mult == mw
                ),
                None,
            )
            if hit is None:
                failures.append(f"unexpected eigenvalue {z:.8f} x{mult}")
            else:
                matched.add(hit)
        if len(matched) != 4:
            failures.append("eigenvalue families incomplete")
        s = Spectrum(k=12, entries=entries, provenance="newton-aberth",
                     residual=residual)
        rep = bounds_refined(s, h)
        for got, want, tag in [
            (rep.upper_moment, 11.0 + math.e**3, "moment bound"),
            (rep.upper_moment_adjusted, 0.5 + math.e**3, "adjusted moment bound"),
        ]:
            if got is None or abs(got - want) > 1e-9:
                failures.append(f"{tag}: {got} vs {want}")

    _guard(failures, body)
    _criterion(3, "single-edge exact spectral pipeline", failures)


def test_criterion_4_corpus_low_order_traces():
    failures: list[str] = []

    def body() -> None:
        if len(CORPUS) < 20:
            failures.append(f"corpus has {len(CORPUS)} instances, need >= 20")
        if {h.m for h in CORPUS.values()} != {2, 3, 4}:
            failures.append("corpus must span m = 2, 3, 4")
        if any(h.n > 7 for h in CORPUS.values()):
            failures.append("corpus instance exceeds n = 7")
        t0 = time.perf_counter()
        for name, h in CORPUS.items():
            for d in range(1, h.m):
                if trace_d(h, d) != 0:
                    failures.append(f"{name}: order {d} trace nonzero")
            want = h.m ** (h.m - 1) * (h.m - 1) ** (h.n - h.m) * h.q
            got = trace_d(h, h.m)
            if got != want:
                failures.append(f"{name}: order-m trace {got} != {want}")
        elapsed = time.perf_counter() - t0
        if elapsed > 60.0:
            failures.append(f"corpus sweep took {elapsed:.1f}s, limit 60s")

    _guard(failures, body)
    _criterion(4, "corpus low-order traces, exact", failures)


def test_criterion_5_per_vertex_trace_decomposition():
    failures: list[str] = []

    def body() -> None:
        for name, h in CORPUS.items():
            star_q = detect_hyperstar(h)
            for d in range(1, h.m + 4):
                terms = vertex_trace_terms(h, d)
                total = sum(terms, Fraction(0))
                if total != trace_d(h, d):
                    failures.append(f"{name}: vertex shares diverge at order {d}")
                # anchor the total against independent references where
                # one exists
                if h.m == 2:
                    want = matrix_power_sums(h, d)[d]
                    if total != want:
                        failures.append(
                            f"{name}: order {d} total {total} != matrix {want}"
                        )
                elif star_q is not None:
                    want = star_trace(h.m, star_q, d)
                    if total != want:
                        failures.append(
                            f"{name}: order {d} total {total} != star form {want}"
                        )

    _guard(failures, body)
    _criterion(5, "per-vertex trace decomposition", failures)


def _corpus_spectrum(h):
    if not h.edges or detect_hyperstar(h) is not None:
        return spectrum(h)
    if h.eigenvalue_count() <= 128:
        try:
            return spectrum(h)
        except FeasibilityError:
            return None
    return None


def test_criterion_6_bound_ordering_across_corpus():
    failures: list[str] = []

    def body() -> None:
        for name, h in CORPUS.items():
            s = _corpus_spectrum(h)
            res = ee_from_spectrum(s) if s is not None else ee_trace_series(h, 1e-5)
            ee = res.value
            rep = bounds_refined(s, h)
            eps = res.error_bound + 1e-9 * max(1.0, abs(ee))
            uppers = [("basic", rep.upper_basic),
                      ("radius", rep.upper_radius),
                      ("radius adjusted", rep.upper_radius_adjusted)]
            if s is not None:
                uppers += [("moment", rep.upper_moment),
                           ("moment adjusted", rep.upper_moment_adjusted)]
            if not h.edges:
                for tag, up in uppers + [("lower", rep.lower_basic)]:
                    if abs(up - ee) > 1e-9:
                        failures.append(f"{name}: {tag} bound not tight on empty")
            else:
                if not rep.lower_basic < ee - eps:
                    failures.append(f"{name}: lower bound not strictly below EE")
                for tag, up in uppers:
                    if not ee + eps < up:
                        failures.append(f"{name}: {tag} bound not strictly above EE")

    _guard(failures, body)
    _criterion(6, "bound ordering across the corpus", failures)


def test_criterion_7_rotation_orbit_evaluation():
    failures: list[str] = []

    def body() -> None:
        for m in (3, 4):
            for q in range(1, 5):
                s = hyperstar_spectrum(m, q)
                direct = ee_from_spectrum(s).value
                n0, reps = symmetric_representatives(s, m)
                folded = ee_symmetric(reps, n0, m, k=s.k).value
                if abs(folded - direct) > 1e-8 * max(1.0, abs(direct)):
                    failures.append(f"m={m} q={q}: {folded!r} vs {direct!r}")
                oracle = orbit_sum_m3 if m == 3 else orbit_sum_m4
                trig = n0 + sum(mult * oracle(a, b) for a, b, mult in reps)
                if abs(folded - trig) > 1e-10 * max(1.0, abs(trig)):
                    failures.append(
                        f"m={m} q={q}: orbit formula drifts from the "
                        f"trigonometric oracle"
                    )

    _guard(failures, body)
    _criterion(7, "rotation-orbit evaluation matches direct summation", failures)


def test_criterion_8_ordinary_graph_reduction():
    failures: list[str] = []

    def body() -> None:
        for q in range(1, 11):
            want = (q - 1) + math.exp(math.sqrt(q)) + math.exp(-math.sqrt(q))
            got = ee_hyperstar(2, q).value
            if abs(got - want) > 1e-8 * max(1.0, want):
                failures.append(f"star q={q}: {got!r} vs {want!r}")
        for name, h in CORPUS.items():
            if h.m != 2:
                continue
            want_seq = matrix_power_sums(h, 8)
            got_seq = list(trace_sequence(h, 8).values)
            if got_seq != want_seq:
                failures.append(f"{name}: traces {got_seq} != {want_seq}")

    _guard(failures, body)
    _criterion(8, "ordinary-graph reduction", failures)
