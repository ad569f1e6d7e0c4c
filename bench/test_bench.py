"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hyperee import detect_hyperstar, estrada_index, parse_hypergraph  # noqa: E402
from hyperee.hypergraph import UniformHypergraph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROUNDS = 3


def _rounds(workload: str, seed: int, tmp: Path):
    gen = workloads.Generator(workload, seed, tmp)
    return [gen.round(r) for r in range(ROUNDS)]


def _key(op):
    return (op.slot, op.h.edges if op.h is not None else None, op.argv and op.argv[0])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    a = _rounds(workload, 7, tmp_path / "a")
    b = _rounds(workload, 7, tmp_path / "b")
    c = _rounds(workload, 8, tmp_path / "c")
    assert [[_key(op) for op in ops] for ops in a] == [[_key(op) for op in ops] for ops in b]
    assert [[_key(op) for op in ops] for ops in a] != [[_key(op) for op in ops] for ops in c]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_distinct_and_on_their_route(workload, tmp_path):
    seen = set()
    for ops in _rounds(workload, 11, tmp_path):
        for op in ops:
            if op.h is None:
                assert op.argv == ["table1", "--format", "json"]
                continue
            key = (op.h.m, op.h.n, op.h.edges)
            assert key not in seen
            seen.add(key)
            assert op.h.edges and detect_hyperstar(op.h) is None
            if workload == "spectrum-small":
                assert op.k <= 128 and op.argv is None
                assert op.route in ("spectrum", "spectrum->series")
            elif workload == "series-hyper":
                assert op.k > 128 and op.route == "series"
            else:
                assert op.route == "bounds" and op.h.n >= 51
                text = Path(op.argv[2]).read_text()
                assert parse_hypergraph(text) == op.h


def test_small_classes_recur_only_after_every_labelling_is_used(tmp_path):
    gen = workloads.Generator("spectrum-small", 3, tmp_path)
    seen: dict[tuple, int] = {}
    for r in range(8):
        ops = gen.round(r)
        keys = [(op.h.m, op.h.n, op.h.edges) for op in ops]
        assert len(keys) == len(set(keys))
        for op, key in zip(ops, keys):
            if key in seen:
                assert op.h.m == 3 and op.h.n == 4 and r >= 4
            seen[key] = r


def test_traced_only_inputs_cover_the_slow_defects(tmp_path):
    slow = workloads.Generator("spectrum-small", 1, tmp_path).traced_only()
    assert [(op.slot, op.route) for op in slow] == [("s3n5q3", "spectrum->series")]
    stall = workloads.Generator("bounds-large", 1, tmp_path).traced_only()
    assert [(op.slot, op.h.n, op.oracle) for op in stall] == [("p3-85", 171, "reference")]
    assert Path(stall[0].argv[2]).is_file()
    assert workloads.Generator("series-hyper", 1, tmp_path).traced_only() == []


def test_bounds_large_crosses_the_overflow_size(tmp_path):
    ops = workloads.Generator("bounds-large", 1, tmp_path).round(0)
    assert any(op.h.m == 3 and op.k.bit_length() > 1024 for op in ops)
    assert any(op.h.m == 3 and op.k.bit_length() < 1000 for op in ops)


def test_metric_names_and_units():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"wall_s", "setup_s"}
    empty = tracer.layer_metrics(tracer.Tracer(), 1.0, (0, 0))
    extra = {"ops_failed_frac", "ops_refused_frac", "trace.overhead_frac",
             "trace.slow_inputs_s", "hypergraph.serialize_s", "traces.parallel_efficiency"}
    assert set(empty) | extra == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_list_metrics_prints_every_metric_with_unit():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--list-metrics"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    lines = out.splitlines()
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert any(line.split()[1:3] == [m["name"], m["unit"]] for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-hyper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_oracles_agree_with_the_engine_on_small_inputs():
    g = UniformHypergraph(2, 5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)))
    res = estrada_index(g)
    assert oracles.check_ee(res, 1e-6, oracles.graph_ee(g.n, g.edges), 0.0, g.n) is None
    lo, hi = oracles.tensor_radius(2, g.n, g.edges)
    glo, ghi = oracles.graph_radius(g.n, g.edges)
    assert glo - 1e-9 <= lo <= hi <= ghi + 1e-9
    wrong = estrada_index(UniformHypergraph(2, 5, g.edges[:-1]))
    assert oracles.check_ee(wrong, 1e-6, oracles.graph_ee(g.n, g.edges), 0.0, g.n)


def test_tracer_wraps_every_call_site_and_restores_them():
    est = sys.modules["hyperee.estrada"]  # `import hyperee.estrada` binds the function
    originals = (est.trace_d, sys.modules["hyperee.traces"].trace_d)
    h = UniformHypergraph(3, 7, ((1, 2, 3), (3, 4, 5), (5, 6, 7)))
    plain = estrada_index(h, tol=1e-8)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = sys.modules["hyperee"].estrada_index(h, tol=1e-8)
    finally:
        tr.uninstall()
    assert (est.trace_d, sys.modules["hyperee.traces"].trace_d) == originals
    assert traced == plain
    m = tracer.layer_metrics(tr, sum(s.duration for s in tr.spans if s.parent is None), (0, 0))
    assert m["traces.orders"] == plain.terms_used
    assert m["estrada.route_series"] == 1
    assert abs(sum(m[f"{lay}.self_s"] for lay in tracer.LAYERS.values())
               + m["trace.unattributed_s"] - m["trace.wall_s"]) < 1e-9
