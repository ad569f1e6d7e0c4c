"""Command-line front end.

Subcommands: gen, ee, traces, spectrum, bounds, table1.  Every analysis
command takes its instance from exactly one of --input FILE, --star M Q,
--path M P, --empty M N.  Each reporting command builds one report and
prints it in human, json, or csv form.

Exit codes: 0 success, 1 argument/parse errors, 2 feasibility refusals,
3 reference-table mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .estrada import bounds_refined, estrada_index
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


def _sig(x):
    """Round a float to 10 significant digits for stable, readable
    reports; any other value passes through."""
    return float(f"{x:.10g}") if isinstance(x, float) else x


def _fields(obj) -> dict:
    """A result dataclass as a report dict, floats rounded by _sig."""
    return {name: _sig(value) for name, value in vars(obj).items()}


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


def _emit(
    args: argparse.Namespace, document: dict, rows: list[dict],
    human: list[str],
) -> None:
    """Print one report in the --format asked for: the JSON document, its
    CSV rows, or the human lines.  The CSV columns are the keys every row
    carries, so a key only some rows have (table1's reason) stays in the
    JSON; None is written as an empty field."""
    if args.format == "json":
        print(json.dumps(document, indent=2))
    elif args.format == "csv":
        columns = [key for key in rows[0] if all(key in row for row in rows)]
        writer = csv.DictWriter(sys.stdout, columns, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        print("\n".join(human))


def cmd_ee(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    h = _resolve_input(args, parser)
    try:
        res = estrada_index(h, args.method, tol=args.tol, budget=_budget(args))
    except ValueError as exc:  # the method does not apply to this input
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    human = [f"EE = {res.value:.10g}  (method: {res.method})",
             f"error bound: {res.error_bound:.10g}"]
    if res.terms_used is not None:
        human.append(f"series orders used: {res.terms_used}")
    if not res.converged:
        human.append("warning: series stopped by the feasibility guard; "
                     "the error bound covers the missing tail")
    document = _fields(res)
    _emit(args, document, [document], human)
    return EXIT_OK


def cmd_traces(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    h = _resolve_input(args, parser)
    if args.max_d < 0:
        print("error: --max-d must be nonnegative", file=sys.stderr)
        return EXIT_PARSE
    ts = trace_sequence(h, args.max_d, budget=_budget(args))
    rows = [{"d": d, "trace": _fraction_json(v)} for d, v in enumerate(ts.values)]
    document = {"m": ts.m, "n": ts.n, "traces": [
        {"d": row["d"], "value": row["trace"]} for row in rows
    ]}
    _emit(args, document, rows,
          [f"Tr_{d} = {v}" for d, v in enumerate(ts.values)])
    return EXIT_OK


def cmd_spectrum(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    h = _resolve_input(args, parser)
    s = spectrum(h, budget=_budget(args))
    rows = [{"re": _sig(z.real), "im": _sig(z.imag), "multiplicity": mult}
            for z, mult in s.entries]
    human = [f"k = {s.k} eigenvalues ({s.provenance}, residual {s.residual:.3g})"]
    human += [f"  {z.real:+.10g} {z.imag:+.10g}i   x{mult}"
              for z, mult in s.entries]
    document = {"k": s.k, "provenance": s.provenance,
                "residual": _sig(s.residual), "entries": rows}
    _emit(args, document, rows, human)
    return EXIT_OK


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
    rep = bounds_refined(s, h)
    rho = rep.rho_used
    human = [
        f"k = {rep.k}",
        f"spectral radius in [{rho.lower:.10g}, {rho.upper:.10g}] "
        f"({rho.method})",
        f"lower bound (order-m trace): {rep.lower_basic:.10g}",
        f"upper bound (radius, basic): {rep.upper_basic:.10g}",
    ]
    if rep.upper_moment is not None:
        human += [
            f"upper bound (moment):          {rep.upper_moment:.10g}",
            f"upper bound (moment, adjusted): {rep.upper_moment_adjusted:.10g}",
        ]
    else:
        human.append("upper bound (moment): n/a (no spectrum within budget)")
    human += [
        f"upper bound (radius):          {rep.upper_radius:.10g}",
        f"upper bound (radius, adjusted): {rep.upper_radius_adjusted:.10g}",
    ]
    fields = _fields(rep)
    rho_fields = _fields(fields.pop("rho_used"))
    _emit(args, {**fields, "rho": rho_fields},
          [{**fields, "rho_lower": rho_fields["lower"],
            "rho_upper": rho_fields["upper"]}], human)
    return EXIT_OK


def cmd_table1(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    budget = _budget(args)
    rows = []
    for label, kind, edges, reference, tol_kind, tol in TABLE_ROWS:
        h = gen_hyperpath(3, edges) if kind == "path" else gen_hyperstar(3, edges)
        row = {"instance": label, "method": None, "computed": None,
               "reference": reference, "abs_dev": None, "rel_dev": None,
               "tolerance": f"{tol_kind} {tol:g}", "status": "SKIPPED"}
        rows.append(row)
        try:
            res = estrada_index(h, "auto", tol=args.tol, budget=budget)
            if not res.converged:
                raise FeasibilityError(
                    f"series stopped by the feasibility guard after "
                    f"{res.terms_used} orders (remaining tail <= "
                    f"{res.error_bound:.3g})"
                )
        except FeasibilityError as exc:
            row["reason"] = str(exc)
            continue
        abs_dev = abs(res.value - reference)
        rel_dev = abs_dev / abs(reference)
        ok = abs_dev <= tol if tol_kind == "abs" else rel_dev <= tol
        row.update(method=res.method, computed=_sig(res.value),
                   abs_dev=_sig(abs_dev), rel_dev=_sig(rel_dev),
                   status="OK" if ok else "FAIL")
    all_ok = all(row["status"] == "OK" for row in rows)

    def line(*cells) -> str:
        return "".join(f"{cell:{align}{width}}" for cell, align, width
                       in zip(cells, "<<>>>>>", (34, 22, 14, 10, 10, 10, 9)))

    def shown(value, spec: str) -> str:
        return "-" if value is None else format(value, spec)

    human = [line("instance", "method", "computed", "reference", "abs dev",
                  "rel dev", "status")]
    human += [line(r["instance"], r["method"] or "-",
                   shown(r["computed"], ".6g"), r["reference"],
                   shown(r["abs_dev"], ".2g"), shown(r["rel_dev"], ".2g"),
                   r["status"]) for r in rows]
    if not all_ok:
        human.append("some rows deviate beyond tolerance or were skipped")
    _emit(args, {"rows": rows, "all_ok": all_ok}, rows, human)
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
    p_ee.add_argument("--tol", type=_positive(float), default=1e-6,
                      help="target tolerance for series truncation")
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
    p_tb.add_argument("--tol", type=_positive(float), default=1e-3,
                      help="target tolerance for series truncation")
    _add_common_flags(p_tb)
    p_tb.set_defaults(func=cmd_table1)
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
