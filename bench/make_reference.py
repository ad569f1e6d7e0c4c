"""Regenerate bench/reference.json: template hypergraphs and reference values.

Run from the repository root:  python3 bench/make_reference.py

Templates are isomorphism classes; the benchmark relabels them at random per
seed, so one reference value serves every labelling.  Estrada-index
references come from the certified trace series at tol 1e-12 (for inputs
whose benchmarked route is the spectrum, this is an independent route);
radius references come from the vectorised oracle in bench/oracles.py.
Takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hyperee import (  # noqa: E402
    detect_hyperstar,
    estrada_index,
    from_edge_list,
    gen_hyperpath,
    spectral_radius,
)

import oracles  # noqa: E402

REF_TOL = 1e-12
CLASSES_PER_POOL = 3

# pool name -> fixed edge lists (isomorphism classes chosen by hand)
FIXED = {
    "s3n4q1": (3, 4, [(1, 2, 3)]),
    "s3n4q2": (3, 4, [(1, 2, 3), (1, 2, 4)]),
    "s3n4q3": (3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)]),
    # an n=5, q=3 class whose spectrum attempt trips the selection budget
    # after several seconds.  Of the other three classes, K4^(3) minus an
    # edge takes tens of seconds, and two cost about the same as this one
    # but vary more with the labelling.
    "s3n5q3": (3, 5, [(1, 2, 3), (1, 2, 4), (1, 2, 5)]),
}
PATHS = {"p3-3": (3, 3), "p3-4": (3, 4), "p3-5": (3, 5), "p3-6": (3, 6),
         "p3-8": (3, 8), "p4-3": (4, 3)}
RANDOM_POOLS = {"r3-6-3": (3, 6, 3), "r3-6-4": (3, 6, 4), "r3-7-3": (3, 7, 3),
                "r3-7-4": (3, 7, 4), "r4-6-2": (4, 6, 2), "r4-6-3": (4, 6, 3),
                "r4-7-3": (4, 7, 3)}
# long enough to exhaust the 10,000-iteration power-iteration cap
RADIUS_PATHS = {"p3-85": (3, 85)}


def canonical(n: int, edges) -> tuple:
    return min(
        tuple(sorted(tuple(sorted(p[v - 1] for v in e)) for e in edges))
        for p in itertools.permutations(range(1, n + 1))
    )


def ee_reference(m: int, n: int, edges) -> dict:
    h = from_edge_list(m, n, edges)
    t = time.perf_counter()
    res = estrada_index(h, "series", tol=REF_TOL)
    if not res.converged:
        raise RuntimeError(f"reference series did not converge on {edges}")
    print(f"  m={m} n={n} q={len(edges)} ee={res.value!r} "
          f"bound={res.error_bound:.2g} ({time.perf_counter() - t:.1f} s)",
          flush=True)
    return {"m": m, "n": n, "edges": [list(e) for e in h.edges],
            "ee": res.value, "ee_bound": res.error_bound}


def main() -> None:
    rng = random.Random("hyperee-bench-templates")
    pools: dict[str, list[dict]] = {}
    for name, (m, n, edges) in FIXED.items():
        print(name, flush=True)
        pools[name] = [ee_reference(m, n, edges)]
    for name, (m, p) in PATHS.items():
        print(name, flush=True)
        h = gen_hyperpath(m, p)
        pools[name] = [ee_reference(m, h.n, h.edges)]
    for name, (m, n, q) in RANDOM_POOLS.items():
        print(name, flush=True)
        all_edges = list(itertools.combinations(range(1, n + 1), m))
        seen: set[tuple] = set()
        pools[name] = []
        for _ in range(200):  # some (m, n, q) have fewer classes
            if len(pools[name]) == CLASSES_PER_POOL:
                break
            edges = sorted(rng.sample(all_edges, q))
            if detect_hyperstar(from_edge_list(m, n, edges)) is not None:
                continue
            key = canonical(n, edges)
            if key in seen:
                continue
            seen.add(key)
            pools[name].append(ee_reference(m, n, edges))
    for name, (m, p) in RADIUS_PATHS.items():
        h = gen_hyperpath(m, p)
        lo, hi = oracles.tensor_radius(m, h.n, h.edges, tol=1e-13,
                                       max_iter=2_000_000)
        est = spectral_radius(h)
        print(f"{name}: rho in [{lo!r}, {hi!r}]; hyperee: {est}", flush=True)
        pools[name] = [{"m": m, "n": h.n, "edges": [list(e) for e in h.edges],
                        "rho": [lo, hi]}]
    out = HERE / "reference.json"
    out.write_text(json.dumps({"ref_tol": REF_TOL, "pools": pools}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
