"""Engine hot-path benchmark: the level sweep vs the scalar reference.

Measures single-query wall-clock of ``ALAE(use_vectorized=True)`` (the
level-synchronous sweep) against the per-fork, depth-first reference path
(``use_vectorized=False``) on the paper's Sec. 7 workload shape —
homologous queries sampled from an n≈320k synthetic text — for both
alphabets the paper evaluates:

* DNA (sigma = 4), default scheme ``<1,-3,-5,-2>``;
* protein (sigma = 20), scheme ``<1,-3,-11,-1>`` (Sec. 7.5).

Every timed query is also checked for *bit-identical* results between the
two engines (hits, ordering, t_start, and the x1/x2/x3 cost counters), so
the benchmark doubles as an equivalence gate: a speedup obtained by
diverging from the reference is reported as a hard failure, not a win.

Timings alternate the two engines rep by rep (one pass of the query
batch each) and take each engine's median over the reps, so a machine
that drifts during the run slows both alike; engine construction and the
dominate-index build are excluded (warmed before timing).

The JSON report seeds the repo's perf trajectory (``BENCH_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py \\
        --out BENCH_engine.json

CI regression gate (machine-independent: compares the *relative* speedup,
not absolute times, and fails on a >30% drop vs the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --quick \\
        --check BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

from repro import ALAE
from repro.alphabet import DNA, PROTEIN
from repro.obs import maybe_record_bench
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme
from repro.workloads.generator import make_workload

#: Schema version of the emitted JSON.
BENCH_SCHEMA = 1

#: CI fails when a component's speedup drops below this fraction of the
#: committed baseline speedup (>30% throughput regression).  The gate
#: compares like against like: a ``--quick`` run is checked against the
#: baseline's ``quick_components`` (measured at the same workload size),
#: since the speedup is machine-independent but not size-independent.
REGRESSION_FLOOR = 0.70

QUICK_CONFIG = dict(n=60_000, queries=4, reps=3)

COMPONENTS = [
    {
        "name": "dna",
        "alphabet": DNA,
        "scheme": DEFAULT_SCHEME,
        "query_length": 80,
        "thresholds": (25, 40),
    },
    {
        "name": "protein",
        "alphabet": PROTEIN,
        "scheme": ScoringScheme(1, -3, -11, -1),
        "query_length": 80,
        "thresholds": (15, 25),
    },
]


def stats_signature(stats):
    return (
        stats.calculated_x1, stats.calculated_x2, stats.calculated_x3,
        stats.reused, stats.emr_assigned, stats.forks_seeded,
        stats.forks_skipped_domination, stats.forks_skipped_global,
        stats.grams_absent_in_text, stats.nodes_visited,
    )


def time_engines(engines, queries, threshold, reps):
    """Each engine's median per-query seconds over ``reps`` batch passes.

    Every rep times one pass per engine, in turn, so drift hits all alike.
    """
    samples = [[] for _ in engines]
    for _ in range(reps):
        for engine, own in zip(engines, samples):
            started = time.perf_counter()
            for query in queries:
                engine.search(query, threshold=threshold)
            own.append((time.perf_counter() - started) / len(queries))
    return [statistics.median(own) for own in samples]


def run_component(spec, n, query_count, reps):
    workload = make_workload(
        n, spec["query_length"], query_count=query_count,
        alphabet=spec["alphabet"], cached=False,
    )
    vec = ALAE(
        workload.text, spec["alphabet"], spec["scheme"], use_vectorized=True
    )
    ref = ALAE(
        workload.text, spec["alphabet"], spec["scheme"], use_vectorized=False
    )

    # Equivalence gate + warmup (builds the dominate index on both).
    hits_total = 0
    for threshold in spec["thresholds"]:
        for query in workload.queries:
            a = vec.search(query, threshold=threshold)
            b = ref.search(query, threshold=threshold)
            if a.hits.hits() != b.hits.hits():
                raise SystemExit(
                    f"[{spec['name']}] vectorized engine diverged from the "
                    f"reference on threshold={threshold}"
                )
            if stats_signature(a.stats) != stats_signature(b.stats):
                raise SystemExit(
                    f"[{spec['name']}] cost accounting diverged on "
                    f"threshold={threshold}"
                )
            hits_total += len(a.hits)

    rows = []
    for threshold in spec["thresholds"]:
        ref_s, vec_s = time_engines(
            (ref, vec), workload.queries, threshold, reps
        )
        rows.append(
            {
                "threshold": threshold,
                "ref_ms_per_query": round(ref_s * 1e3, 3),
                "vec_ms_per_query": round(vec_s * 1e3, 3),
                "speedup": round(ref_s / vec_s, 3),
            }
        )
    speedup = statistics.median(row["speedup"] for row in rows)
    return {
        "name": spec["name"],
        "sigma": spec["alphabet"].size,
        "scheme": str(spec["scheme"]),
        "n": n,
        "query_length": spec["query_length"],
        "query_count": query_count,
        "hits_checked": hits_total,
        "thresholds": rows,
        "speedup": speedup,
    }


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=320_000)
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (n=60k, 4 queries, 3 reps)",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline BENCH_engine.json to gate regressions against",
    )
    args = parser.parse_args()
    if args.quick:
        args.n = QUICK_CONFIG["n"]
        args.queries = QUICK_CONFIG["queries"]
        args.reps = QUICK_CONFIG["reps"]

    components = [
        run_component(spec, args.n, args.queries, args.reps)
        for spec in COMPONENTS
    ]
    overall = geometric_mean([c["speedup"] for c in components])
    report = {
        "schema": BENCH_SCHEMA,
        "bench": "engine_hotpath",
        "n": args.n,
        "components": components,
        "speedup_geometric_mean": round(overall, 3),
    }

    if args.out is not None and not args.quick:
        # A full baseline also carries quick-sized reference speedups so
        # the CI gate compares equal workload sizes (the speedup shrinks
        # with n; comparing a quick run against full-size numbers would
        # silently eat most of the advertised tolerance).
        print("measuring quick-sized reference components for the CI gate…")
        report["quick_components"] = [
            run_component(
                spec, QUICK_CONFIG["n"], QUICK_CONFIG["queries"],
                QUICK_CONFIG["reps"],
            )
            for spec in COMPONENTS
        ]

    print(f"engine hot path: n={args.n}, {args.queries} queries/component")
    for comp in components:
        print(f"  [{comp['name']}] sigma={comp['sigma']} scheme={comp['scheme']}")
        for row in comp["thresholds"]:
            print(
                f"    H={row['threshold']:>4}  ref {row['ref_ms_per_query']:8.2f} ms"
                f"  vec {row['vec_ms_per_query']:8.2f} ms"
                f"  speedup {row['speedup']:.2f}x"
            )
        print(f"    component speedup: {comp['speedup']:.2f}x")
    print(f"  geometric-mean speedup: {overall:.2f}x")

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")

    bench_id = maybe_record_bench(
        "engine_hotpath",
        {
            "n": args.n,
            "speedup_geometric_mean": report["speedup_geometric_mean"],
            "components": [
                {"name": c["name"], "speedup": c["speedup"]} for c in components
            ],
        },
    )
    if bench_id is not None:
        print(f"recorded as bench #{bench_id} (REPRO_CATALOG)")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        base_components = baseline["components"]
        if args.quick and "quick_components" in baseline:
            base_components = baseline["quick_components"]
        failed = False
        for base_comp in base_components:
            current = next(
                (c for c in components if c["name"] == base_comp["name"]), None
            )
            if current is None:
                print(f"REGRESSION CHECK: component {base_comp['name']} missing")
                failed = True
                continue
            floor = base_comp["speedup"] * REGRESSION_FLOOR
            status = "ok" if current["speedup"] >= floor else "REGRESSED"
            print(
                f"  check [{base_comp['name']}]: speedup {current['speedup']:.2f}x "
                f"vs baseline {base_comp['speedup']:.2f}x (floor {floor:.2f}x) "
                f"-> {status}"
            )
            if current["speedup"] < floor:
                failed = True
        if failed:
            print("engine hot-path benchmark REGRESSED vs committed baseline")
            return 1
        print("regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
