"""Command-line front end.

Subcommands: gen, ee, traces, spectrum, bounds, table1.  Every analysis
command takes its instance from exactly one of --input FILE, --star M Q,
--path M P, --empty M N, and reports in human, json, or csv form.

Exit codes: 0 success, 1 argument/parse errors, 2 feasibility refusals,
3 reference-table mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .estrada import (
    BoundsReport,
    EstradaResult,
    bounds_refined,
    estrada_index,
)
from .hypergraph import (
    HypergraphFormatError,
    UniformHypergraph,
    gen_empty,
    gen_hyperpath,
    gen_hyperstar,
    parse_hypergraph,
    serialize_hypergraph,
)
from .spectrum import spectrum
from .traces import Budget, FeasibilityError, trace_sequence

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_TABLE = 3

# Reference values for the six benchmark instances, with per-row
# acceptance tolerances.  Two of the published values are given in
# scientific notation with fewer digits, hence the looser tolerances.
TABLE_ROWS = (
    ("3-uniform hyperpath, 1 edge", "path", 1, 13.5125, "rel", 1e-3),
    ("3-uniform hyperpath, 2 edges", "path", 2, 92.1756, "rel", 1e-3),
    ("3-uniform hyperstar, 3 edges", "star", 3, 521.5079, "rel", 1e-3),
    ("3-uniform hyperpath, 3 edges", "path", 3, 521.21, "rel", 5e-3),
    ("3-uniform hyperstar, 4 edges", "star", 4, 2698.5, "abs", 0.5),
    ("3-uniform hyperpath, 4 edges", "path", 4, 2694.8, "rel", 5e-3),
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose own errors use the parse exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _sig(x: float | None) -> float | None:
    """Round to 10 significant digits for stable, readable reports."""
    if x is None:
        return None
    return float(f"{x:.10g}")


def _fraction_json(v: Fraction) -> int | str:
    return int(v) if v.denominator == 1 else str(v)


def _positive(kind):
    """argparse type: a number of the given kind that must be positive."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="FILE", help="edge-list file")
    p.add_argument(
        "--star", nargs=2, type=int, metavar=("M", "Q"),
        help="m-uniform hyperstar with q edges",
    )
    p.add_argument(
        "--path", nargs=2, type=int, metavar=("M", "P"),
        help="m-uniform hyperpath with p edges",
    )
    p.add_argument(
        "--empty", nargs=2, type=int, metavar=("M", "N"),
        help="edgeless m-uniform hypergraph on n vertices",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_positive(float), default=1e-6,
                   help="target tolerance for series truncation")
    p.add_argument("--budget-degree", type=_positive(int),
                   default=Budget().max_degree,
                   help="max eigenvalue count for full-spectrum work")
    p.add_argument("--budget-selections", type=_positive(int),
                   default=Budget().max_selections,
                   help="max predicted enumeration size per trace order "
                        "(graphs: n^3 per bit of the order)")
    p.add_argument("--format", choices=("human", "json", "csv"),
                   default="human", help="output format")


def _resolve_input(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> UniformHypergraph:
    chosen = [
        name
        for name in ("input", "star", "path", "empty")
        if getattr(args, name) is not None
    ]
    if len(chosen) != 1:
        parser.error("exactly one of --input/--star/--path/--empty is required")
    try:
        if args.input is not None:
            with open(args.input, encoding="utf-8") as fh:
                return parse_hypergraph(fh.read())
        if args.star is not None:
            return gen_hyperstar(*args.star)
        if args.path is not None:
            return gen_hyperpath(*args.path)
        return gen_empty(*args.empty)
    except (OSError, HypergraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(
        max_degree=args.budget_degree,
        max_selections=args.budget_selections,
    )


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _ee_payload(res: EstradaResult) -> dict:
    return {
        "value": _sig(res.value),
        "method": res.method,
        "error_bound": _sig(res.error_bound),
        "terms_used": res.terms_used,
        "imag_discard": _sig(res.imag_discard),
        "converged": res.converged,
    }


def cmd_ee(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    h = _resolve_input(args, parser)
    try:
        res = estrada_index(h, args.method, tol=args.tol, budget=_budget(args))
    except ValueError as exc:  # the method does not apply to this input
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    payload = _ee_payload(res)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        header = list(payload)
        _emit_csv(header, [[payload[kk] for kk in header]])
    else:
        print(f"EE = {res.value:.10g}  (method: {res.method})")
        print(f"error bound: {res.error_bound:.10g}")
        if res.terms_used is not None:
            print(f"series orders used: {res.terms_used}")
        if not res.converged:
            print("warning: series stopped by the feasibility guard; "
                  "the error bound covers the missing tail")
    return EXIT_OK


def cmd_traces(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    h = _resolve_input(args, parser)
    if args.max_d < 0:
        print("error: --max-d must be nonnegative", file=sys.stderr)
        return EXIT_PARSE
    ts = trace_sequence(h, args.max_d, budget=_budget(args))
    if args.format == "json":
        payload = {
            "m": ts.m,
            "n": ts.n,
            "traces": [
                {"d": d, "value": _fraction_json(v)}
                for d, v in enumerate(ts.values)
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _emit_csv(
            ["d", "trace"],
            [[d, _fraction_json(v)] for d, v in enumerate(ts.values)],
        )
    else:
        for d, v in enumerate(ts.values):
            print(f"Tr_{d} = {v}")
    return EXIT_OK


def cmd_spectrum(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    h = _resolve_input(args, parser)
    s = spectrum(h, budget=_budget(args))
    if args.format == "json":
        payload = {
            "k": s.k,
            "provenance": s.provenance,
            "residual": _sig(s.residual),
            "entries": [
                {"re": _sig(z.real), "im": _sig(z.imag), "multiplicity": mult}
                for z, mult in s.entries
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _emit_csv(
            ["re", "im", "multiplicity"],
            [[_sig(z.real), _sig(z.imag), mult] for z, mult in s.entries],
        )
    else:
        print(f"k = {s.k} eigenvalues ({s.provenance}, residual {s.residual:.3g})")
        for z, mult in s.entries:
            print(f"  {z.real:+.10g} {z.imag:+.10g}i   x{mult}")
    return EXIT_OK


def _bounds_payload(rep: BoundsReport) -> dict:
    return {
        "k": rep.k,
        "lower_basic": _sig(rep.lower_basic),
        "upper_basic": _sig(rep.upper_basic),
        "upper_moment": _sig(rep.upper_moment),
        "upper_moment_adjusted": _sig(rep.upper_moment_adjusted),
        "upper_radius": _sig(rep.upper_radius),
        "upper_radius_adjusted": _sig(rep.upper_radius_adjusted),
        "modulus_sq_sum": _sig(rep.modulus_sq_sum),
        "rho": {
            "lower": _sig(rep.rho_used.lower),
            "upper": _sig(rep.rho_used.upper),
            "iterations": rep.rho_used.iterations,
            "method": rep.rho_used.method,
        },
    }


def cmd_bounds(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    h = _resolve_input(args, parser)
    budget = _budget(args)
    s = None
    if not h.edges or h.eigenvalue_count() <= budget.max_degree:
        try:
            s = spectrum(h, budget=budget)
        except FeasibilityError:
            s = None
    rep = bounds_refined(s, h, budget=budget)
    rho = rep.rho_used
    payload = _bounds_payload(rep)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        flat = {
            kk: vv for kk, vv in payload.items() if kk != "rho"
        }
        flat["rho_lower"] = payload["rho"]["lower"]
        flat["rho_upper"] = payload["rho"]["upper"]
        header = list(flat)
        _emit_csv(header, [["" if flat[kk] is None else flat[kk]
                            for kk in header]])
    else:
        print(f"k = {rep.k}")
        print(f"spectral radius in [{rho.lower:.10g}, {rho.upper:.10g}] "
              f"({rho.method})")
        print(f"lower bound (order-m trace): {rep.lower_basic:.10g}")
        print(f"upper bound (radius, basic): {rep.upper_basic:.10g}")
        if rep.upper_moment is not None:
            print(f"upper bound (moment):          {rep.upper_moment:.10g}")
            print(f"upper bound (moment, adjusted): "
                  f"{rep.upper_moment_adjusted:.10g}")
        else:
            print("upper bound (moment): n/a (no spectrum within budget)")
        print(f"upper bound (radius):          {rep.upper_radius:.10g}")
        print(f"upper bound (radius, adjusted): "
              f"{rep.upper_radius_adjusted:.10g}")
    return EXIT_OK


def cmd_table1(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    budget = _budget(args)
    rows = []
    all_ok = True
    for label, kind, edges, reference, tol_kind, tol in TABLE_ROWS:
        h = gen_hyperpath(3, edges) if kind == "path" else gen_hyperstar(3, edges)
        try:
            res = estrada_index(h, "auto", tol=args.tol, budget=budget)
            if not res.converged:
                raise FeasibilityError(
                    f"series stopped by the feasibility guard after "
                    f"{res.terms_used} orders (remaining tail <= "
                    f"{res.error_bound:.3g})"
                )
        except FeasibilityError as exc:
            rows.append({
                "instance": label, "method": None, "computed": None,
                "reference": reference, "abs_dev": None, "rel_dev": None,
                "tolerance": f"{tol_kind} {tol:g}", "status": "SKIPPED",
                "reason": str(exc),
            })
            all_ok = False
            continue
        abs_dev = abs(res.value - reference)
        rel_dev = abs_dev / abs(reference)
        ok = abs_dev <= tol if tol_kind == "abs" else rel_dev <= tol
        all_ok = all_ok and ok
        rows.append({
            "instance": label, "method": res.method,
            "computed": _sig(res.value), "reference": reference,
            "abs_dev": _sig(abs_dev), "rel_dev": _sig(rel_dev),
            "tolerance": f"{tol_kind} {tol:g}",
            "status": "OK" if ok else "FAIL",
        })
    if args.format == "json":
        print(json.dumps({"rows": rows, "all_ok": all_ok}, indent=2))
    elif args.format == "csv":
        header = ["instance", "method", "computed", "reference",
                  "abs_dev", "rel_dev", "tolerance", "status"]
        _emit_csv(header, [[r.get(kk, "") if r.get(kk) is not None else ""
                            for kk in header] for r in rows])
    else:
        widths = (34, 22, 14, 10, 10, 10, 9)
        print(f"{'instance':<{widths[0]}}{'method':<{widths[1]}}"
              f"{'computed':>{widths[2]}}{'reference':>{widths[3]}}"
              f"{'abs dev':>{widths[4]}}{'rel dev':>{widths[5]}}"
              f"{'status':>{widths[6]}}")
        for r in rows:
            computed = "-" if r["computed"] is None else f"{r['computed']:.6g}"
            abs_dev = "-" if r["abs_dev"] is None else f"{r['abs_dev']:.2g}"
            rel_dev = "-" if r["rel_dev"] is None else f"{r['rel_dev']:.2g}"
            method = r["method"] or "-"
            print(f"{r['instance']:<{widths[0]}}{method:<{widths[1]}}"
                  f"{computed:>{widths[2]}}{r['reference']:>{widths[3]}}"
                  f"{abs_dev:>{widths[4]}}{rel_dev:>{widths[5]}}"
                  f"{r['status']:>{widths[6]}}")
        if not all_ok:
            print("some rows deviate beyond tolerance or were skipped")
    return EXIT_OK if all_ok else EXIT_TABLE


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    h = _resolve_input(args, parser)
    text = serialize_hypergraph(h)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hyperee",
        description="Estrada indices, traces, spectra, and bounds of "
                    "m-uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a generated instance as an "
                                       "edge-list file")
    _add_input_flags(p_gen)
    p_gen.add_argument("-o", "--output", metavar="FILE",
                       help="write here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_ee = sub.add_parser("ee", help="compute the Estrada index")
    _add_input_flags(p_ee)
    _add_common_flags(p_ee)
    p_ee.add_argument(
        "--method", default="auto",
        choices=("auto", "spectrum", "series", "symmetric", "star"),
    )
    p_ee.set_defaults(func=cmd_ee)

    p_tr = sub.add_parser("traces", help="exact power-sum traces 0..D")
    _add_input_flags(p_tr)
    _add_common_flags(p_tr)
    p_tr.add_argument("--max-d", type=int, required=True, metavar="D")
    p_tr.set_defaults(func=cmd_traces)

    p_sp = sub.add_parser("spectrum", help="full eigenvalue multiset")
    _add_input_flags(p_sp)
    _add_common_flags(p_sp)
    p_sp.set_defaults(func=cmd_spectrum)

    p_bd = sub.add_parser("bounds", help="lower/upper Estrada-index bounds")
    _add_input_flags(p_bd)
    _add_common_flags(p_bd)
    p_bd.set_defaults(func=cmd_bounds)

    p_tb = sub.add_parser(
        "table1",
        help="recompute the six published benchmark values",
    )
    _add_common_flags(p_tb)
    p_tb.set_defaults(func=cmd_table1, tol=1e-3)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
