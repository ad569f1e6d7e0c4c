"""hyperee benchmark: seeded closed-loop solve workloads with checked answers.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --list-metrics
    python3 bench/run.py --summary --workload NAME --seed N

One caller makes one call into the public API at a time (estrada_index or
hyperee.cli.main) and waits for the answer; only those calls are timed.  A
run repeats rounds of fresh inputs (bench/workloads.py) until the next round
would end after --seconds; each call position of a round counts as the mean
of the faster half of its times in the run.  Every answer is checked
afterwards, outside the timed region (bench/oracles.py).  With --trace 1 the
run then repeats its first round, followed by the workload's traced-only
inputs, with every public hyperee function wrapped (bench/tracer.py) and
reports per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object; progress goes to standard error.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # set-up is timed this many times, in fresh processes


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list-metrics", action="store_true",
                   help="print every metric with its unit and exit")
    p.add_argument("--summary", action="store_true",
                   help="print the instance summary of one round and exit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _execute(op, threads: int, tol: float | None):
    """Make one timed call; returns (seconds, status, answer)."""
    if op.argv is None:
        api = sys.modules["hyperee"]
        feasibility = sys.modules["hyperee.traces"].FeasibilityError
        kwargs = {"threads": threads} if tol is None else {"threads": threads, "tol": tol}
        t = time.perf_counter()
        try:
            res = api.estrada_index(op.h, **kwargs)
            status = "ok"
        except feasibility as exc:
            res, status = repr(exc), "refused"
        except Exception as exc:  # counted as a failed operation
            res, status = repr(exc), "error"
        return time.perf_counter() - t, status, res
    cli = sys.modules["hyperee.cli"]
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        status = "ok" if code == 0 else "refused" if code == 2 else f"exit {code}"
        res = out.getvalue()
    except Exception as exc:  # counted as a failed operation
        res, status = repr(exc), "error"
    return time.perf_counter() - t, status, res


def _run_round(ops, threads: int, tol: float | None):
    t = time.perf_counter()
    calls = [_execute(op, threads, tol) for op in ops]
    return time.perf_counter() - t, calls


def _clear_cache() -> None:
    from tracer import cycle_cache

    cache = cycle_cache()
    if cache is not None:
        cache.cache_clear()


def _answers(calls) -> list:
    """What two passes over the same inputs must agree on exactly."""
    return [(status, res) for _, status, res in calls]


def _check(op, status: str, res, tol: float) -> str | None:
    """None for a correct answer; otherwise why the operation failed."""
    import oracles

    if status != "ok":
        return f"{status}: {res}"
    if op.oracle == "exit0":
        return None
    if op.argv is None:
        if op.oracle == "dense":
            ref, ref_bound = oracles.graph_ee(op.h.n, op.h.edges), 0.0
        else:
            ref, ref_bound = op.ref
        return oracles.check_ee(res, tol, ref, ref_bound, op.k)
    if op.oracle == "dense":
        rho = oracles.graph_radius(op.h.n, op.h.edges)
    elif op.oracle == "radius":
        rho = oracles.tensor_radius(op.h.m, op.h.n, op.h.edges)
    else:
        rho = op.ref
    return oracles.check_bounds(json.loads(res), rho)


def _setup_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "hyperee" / "__init__.py").is_file():
        print(f"error: no hyperee sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.list_metrics:
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                print(f"{kind:10} {m['name']:34} {m['unit']:6} {m['better']}")
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hyperee  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    for name in ("hyperee.cli", "hyperee.traces"):
        importlib.import_module(name)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        gen = workloads.Generator(args.workload, args.seed, Path(tmp))
        rounds = [gen.round(0)]
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(setup_s)
            return 0
        if args.summary:
            print(json.dumps(workloads.summary(args.workload, rounds[0]), indent=1))
            return 0
        return _measure(args, spec, wl, gen, rounds, setup_s)


def _measure(args, spec, wl, gen, rounds, setup_s: float) -> int:
    import workloads

    # half the repeat set-ups before the rounds and half after, so that
    # their median spans the run rather than one moment of it
    setups = [setup_s] + [_setup_child(args) for _ in range(SETUP_REPEATS // 2)]
    tol = wl.tol if wl.tol is not None else workloads.DEFAULT_TOL
    round_s, calls = [], []
    start = time.perf_counter()
    while True:
        _clear_cache()
        took, got = _run_round(rounds[-1], 1, wl.tol)
        round_s.append(took)
        calls.append(got)
        print(f"round {len(round_s)}: {took:.3f} s", file=sys.stderr)
        if time.perf_counter() - start + statistics.median(round_s) > args.seconds:
            break
        try:
            rounds.append(gen.round(len(rounds)))
        except workloads.Exhausted:
            print("stopping early: inputs exhausted", file=sys.stderr)
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [_setup_child(args) for _ in range(SETUP_REPEATS - len(setups))]

    metrics, same = {}, True
    if args.trace:
        metrics, same, extra_ops, extra_calls = _traced(args, wl, gen, rounds[0], calls[0],
                                                        round_s[0])
        rounds, calls = rounds + [extra_ops], calls + [extra_calls]

    attempted = failed = refused = wrong = 0
    for ops, got in zip(rounds, calls):
        for op, (_, status, res) in zip(ops, got):
            attempted += 1
            refused += status == "refused"
            problem = None if status == "refused" else _check(op, status, res, tol)
            if problem is not None:
                failed += 1
                print(f"FAILED {op.slot}: {problem}", file=sys.stderr)
                wrong += status == "ok"
    correct = wrong == 0

    if args.trace:
        correct = correct and same
        metrics["ops_failed_frac"] = failed / attempted
        metrics["ops_refused_frac"] = refused / attempted
        kind = "per_layer"
    else:
        # each call position of a round as the mean of the faster half of its
        # times in the run: interference from other tenants only adds time and
        # comes in spells of several seconds, so the slower half is where it
        # sat, while the faster half still averages over the run's quiet spells
        typical = [statistics.fmean(sorted(got[i][0] for got in calls)[:max(1, len(calls) // 2)])
                   for i in range(len(calls[0]))]
        metrics = {
            "wall_s": sum(typical),
            "hardest_solve_s": max(typical),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


def _traced(args, wl, gen, ops, untraced_calls, untraced_s: float):
    """Repeat round 0 traced, then solve the traced-only inputs (and, on
    spectrum-small, repeat round 0 untraced with threads=2); returns
    (per-layer metrics, answers identical, traced-only inputs, their calls)."""
    from tracer import Tracer, cycle_cache, layer_metrics

    tr = Tracer()
    cache = cycle_cache()
    extra_ops = gen.traced_only()
    _clear_cache()
    tr.install()
    try:
        traced_s, traced_calls = _run_round(ops, 1, wl.tol)
        extra_s, extra_calls = _run_round(extra_ops, 1, wl.tol)
    finally:
        tr.uninstall()
    info = cache.cache_info() if cache is not None else None
    same = _answers(traced_calls) == _answers(untraced_calls)
    if not same:
        print("FAILED traced answers differ from untraced ones", file=sys.stderr)
    metrics = layer_metrics(tr, traced_s + extra_s,
                            (info.hits, info.misses) if info else (0, 0))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.slow_inputs_s"] = extra_s
    metrics["hypergraph.serialize_s"] = gen.serialize_s[0]
    efficiency = 0.0
    if args.workload == "spectrum-small":
        # the only pass that runs the trace engine's process-pool dispatch
        _clear_cache()
        t2_s, t2_calls = _run_round(ops, 2, wl.tol)
        efficiency = untraced_s / (2.0 * t2_s)
        if _answers(t2_calls) != _answers(untraced_calls):
            print("FAILED answers differ between thread counts", file=sys.stderr)
            same = False
    metrics["traces.parallel_efficiency"] = efficiency
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps(tr.records()))
    print(f"spans written to {spans}", file=sys.stderr)
    return metrics, same, extra_ops, extra_calls


if __name__ == "__main__":
    sys.exit(main())
