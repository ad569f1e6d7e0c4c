"""Seeded instances for the three benchmark workloads.

A workload is a fixed list of slots; one round fills every slot with a
fresh input.  Each slot holds a fixed isomorphism class, and the input is a
random relabelling of it drawn from (seed, round, slot), so every round of
every seed costs about the same.  The random graphs and random sparse
hypergraphs are drawn once from a stream named after their slot, not from
the seed; the small 3- and 4-uniform classes are listed in reference.json
(every class of a pool in every round) with their reference values.  No
input repeats within a run, with one exception: the 3-uniform n=4 classes
have only 4 to 6 labellings each, so once a class has used them all they
recur (the benchmark clears the trace engine's cache before every round, so
a recurring input starts cold).  Any other slot that cannot find an unused
input raises Exhausted.  A workload may also name slots that only the
traced pass solves, once per run: inputs whose single call lasts so long
that a timed run would hold too few of them for a steady figure.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from hyperee.hypergraph import (
    UniformHypergraph,
    detect_hyperstar,
    gen_hyperpath,
    serialize_hypergraph,
)

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
DEFAULT_TOL = 1e-6  # estrada_index's default tol

SPECTRUM_SMALL = [
    *(("graph", n, q) for n, q in
      ((6, 6), (6, 8), (7, 8), (7, 10), (8, 9), (8, 11), (9, 10), (9, 12))),
    ("template", "s3n4q1"), ("template", "s3n4q2"), ("template", "s3n4q3"),
]
# the spectrum route trips the selection budget, then auto falls back to the
# series (known defect); its one call lasts 7-9 s, so the traced pass solves it
SPECTRUM_SMALL_TRACED = [("template", "s3n5q3")]
SERIES_HYPER = [
    *(("template", p) for p in ("p3-3", "p3-4", "p3-5", "p3-6", "p3-8", "p4-3")),
    *(("template", p) for p in ("r3-6-3", "r3-6-4", "r3-7-3", "r3-7-4",
                                "r4-6-2", "r4-6-3", "r4-7-3")),
    ("table1",),
]
BOUNDS_LARGE = [
    ("sparse", 3, 300, 300),
    # past n ~ 1,030 the eigenvalue count leaves float range (known defect)
    ("sparse", 3, 1200, 120),
    ("sparse", 4, 300, 300),
    ("sparse", 2, 300, 1000),
    # a loose path whose power iteration converges slowly (1,200 iterations)
    ("path", 3, 25),
]
# a loose path that exhausts the power-iteration cap (known defect); its one
# call lasts 6-7 s, so the traced pass solves it
BOUNDS_LARGE_TRACED = [("file-template", "p3-85")]


@dataclass(frozen=True)
class Workload:
    why: str
    slots: list
    tol: float | None = None
    traced_slots: list = field(default_factory=list)


WORKLOADS = {
    "spectrum-small": Workload(
        "auto on small non-star inputs (k<=128): trace engine at every order up to k, "
        "Newton and Aberth; the traced run adds the slow spectrum refusal on n=5, q=3",
        SPECTRUM_SMALL, traced_slots=SPECTRUM_SMALL_TRACED),
    "series-hyper": Workload(
        "auto with tol=1e-8 on 3- and 4-uniform inputs with k>128, plus table1: "
        "low consecutive trace orders, exact series sums, one radius per input",
        SERIES_HYPER, tol=1e-8),
    "bounds-large": Workload(
        "hyperee bounds on .uhg files of 51 to 1,200 vertices: parsing and power "
        "iteration, never the trace engine; the traced run adds a path that stalls",
        BOUNDS_LARGE, traced_slots=BOUNDS_LARGE_TRACED),
}


class Exhausted(RuntimeError):
    """No unused input is left for some slot."""


@dataclass
class Op:
    slot: str
    h: UniformHypergraph | None  # None for table1
    route: str  # the auto route the input is meant to take
    argv: list[str] | None = None  # set for CLI calls
    ref: tuple | None = None  # (ee, ee_bound) or a radius enclosure
    oracle: str = "reference"  # "reference", "dense", "radius" or "exit0"

    @property
    def k(self) -> int:
        return self.h.eigenvalue_count()


def _relabel(m: int, n: int, edges, rng: random.Random) -> UniformHypergraph:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return UniformHypergraph(m, n, tuple(tuple(perm[v - 1] for v in e) for e in edges))


def _fixed(slot: tuple) -> random.Random:
    """The stream a slot's class is drawn from; the same for every seed."""
    return random.Random("class/" + "/".join(map(str, slot)))


def _sparse(m: int, n: int, q: int, rng: random.Random) -> UniformHypergraph:
    edges: set[tuple[int, ...]] = set()
    while len(edges) < q:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), m))))
    return UniformHypergraph(m, n, tuple(edges))


class Generator:
    """Inputs of one workload and seed, round by round, never repeating."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.taken: set[tuple] = set()
        self.serialize_s: list[float] = []  # per round

    def _draw(self, make, rng: random.Random, recur: bool = False) -> UniformHypergraph:
        for _ in range(100):
            h = make(rng)
            key = (h.m, h.n, h.edges)
            if key not in self.taken:
                self.taken.add(key)
                return h
        if recur:  # every labelling of the class is taken
            return h
        raise Exhausted("no unused input left")

    def round(self, r: int) -> list[Op]:
        ops, serialize_s = self._fill(self.spec.slots, r)
        self.serialize_s.append(serialize_s)
        return ops

    def traced_only(self) -> list[Op]:
        """Inputs of the workload's traced-only slots."""
        return self._fill(self.spec.traced_slots, "traced")[0]

    def _fill(self, slots: list, r) -> tuple[list[Op], float]:
        ops = []
        serialize_s = 0.0
        for i, slot in enumerate(slots):
            rng = random.Random(f"{self.workload}/{self.seed}/{r}/{i}")
            kind = slot[0]
            if kind == "graph":
                _, n, q = slot
                pairs = list(itertools.combinations(range(1, n + 1), 2))
                c = UniformHypergraph(2, n, tuple(_fixed(slot).sample(pairs, q)))
                h = self._draw(lambda g: _relabel(2, n, c.edges, g), rng)
                ops.append(Op(f"graph-{n}-{q}", h, "spectrum", oracle="dense"))
            elif kind == "template":
                # every class of the pool, each in a fresh labelling
                for t in REFERENCE["pools"][slot[1]]:
                    h = self._draw(lambda g: _relabel(t["m"], t["n"], t["edges"], g), rng,
                                   recur=t["n"] <= 4)
                    route = "series" if h.eigenvalue_count() > 128 else "spectrum"
                    if slot[1] == "s3n5q3":
                        route = "spectrum->series"
                    ops.append(Op(slot[1], h, route, ref=(t["ee"], t["ee_bound"])))
            elif kind == "table1":
                ops.append(Op("table1", None, "table1",
                              argv=["table1", "--format", "json"], oracle="exit0"))
            else:
                if kind == "sparse":
                    _, m, n, q = slot
                    c = _sparse(m, n, q, _fixed(slot))
                    h = self._draw(lambda g: _relabel(m, n, c.edges, g), rng)
                    name, ref = f"sparse-{m}-{n}-{q}", None
                    oracle = "dense" if m == 2 else "radius"
                elif kind == "path":
                    _, m, p = slot
                    t = gen_hyperpath(m, p)
                    h = self._draw(lambda g: _relabel(m, t.n, t.edges, g), rng)
                    name, ref, oracle = f"path-{m}-{p}", None, "radius"
                else:
                    t = REFERENCE["pools"][slot[1]][0]
                    h = self._draw(lambda g: _relabel(t["m"], t["n"], t["edges"], g), rng)
                    name, ref, oracle = slot[1], tuple(t["rho"]), "reference"
                t0 = time.perf_counter()
                text = serialize_hypergraph(h)
                serialize_s += time.perf_counter() - t0
                path = self.workdir / f"r{r}-{i}.uhg"
                path.write_text(text)
                ops.append(Op(name, h, "bounds", ref=ref, oracle=oracle,
                              argv=["bounds", "--input", str(path), "--format", "json"]))
        return ops, serialize_s


def summary(workload: str, ops: list[Op]) -> dict:
    """Instance summary of one round: count, m, n, k range and route shares."""
    inputs = [op for op in ops if op.h is not None]
    ks = [op.k for op in inputs]
    routes: dict[str, int] = {}
    for op in ops:
        routes[op.route] = routes.get(op.route, 0) + 1

    def magnitude(k: int) -> str:
        return str(k) if k < 10**6 else f"~10^{math.log10(k):.0f}"

    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "calls_per_round": len(ops),
        "m": sorted({op.h.m for op in inputs}),
        "n": [min(op.h.n for op in inputs), max(op.h.n for op in inputs)],
        "k": [magnitude(min(ks)), magnitude(max(ks))],
        "stars": sum(detect_hyperstar(op.h) is not None for op in inputs),
        "route_share": {r: round(c / len(ops), 3) for r, c in sorted(routes.items())},
    }
