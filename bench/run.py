"""Catalog benchmark of ``ises``: B-model, A-model and graded-GW workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run times set-up, then makes whole passes of the workload
until the passes have taken ``--seconds`` of wall time (the last pass may
run over).  It checks every pass's outputs and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are read from a :class:`clock.ReferenceClock`, which discounts the
slowdowns that other load on the machine causes.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run, whose spans are written to ``bench/out/trace-<workload>-<seed>.json``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9

LAYER_TIMES = (
    "isespoly.load_catalog",
    "pfsolve.weight_report",
    "jacobi.groebner",
    "jacobi.algebra",
    "jacobi.flat",
    "jacobi.fourpoint_table",
    "numcore.solve_linear",
    "numcore.nullspace",
    "fjrw.theory",
    "fjrw.table_seed",
    "fjrw.words",
    "wdvv.seed",
    "wdvv.propagate",
    "wdvv.check_residuals",
)
LAYER_COUNTS = (
    "pfsolve.rows_certified",
    "jacobi.flats",
    "jacobi.groebner_size",
    "numcore.elim_calls",
    "numcore.elim_cells",
    "fjrw.words_resolved",
    "wdvv.keys_solved",
    "wdvv.keys_unresolved",
    "wdvv.residuals_checked",
)


def setup_seconds(clock) -> float:
    """Median time for a fresh interpreter to import ises and load and
    validate the catalog."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ises; ises.load_catalog()"
    env = {k: v for k, v in os.environ.items() if k not in ("ISES_CATALOG", "PYTHONPATH")}
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock.now()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(clock.now() - start)
    return statistics.median(times)


class Verdicts:
    """Check results by operation; a later pass whose output equals the
    one already checked for the same operation reuses the verdict."""

    def __init__(self):
        self._seen: dict = {}
        self.attempted = 0
        self.failed: Counter = Counter()

    def record(self, ops) -> None:
        for op, output, check in ops:
            seen = self._seen.get(op)
            if seen is None or seen[0] != output:
                seen = (output, bool(check()))
                self._seen[op] = seen
            self.attempted += 1
            if not seen[1]:
                self.failed[op] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ises" / "__init__.py").is_file():
        print(f"bench: no ises package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ises import load_catalog
    import workloads
    from clock import ReferenceClock
    from tracing import NO_TRACE, Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    with ReferenceClock().ticking() as clock:
        setup = None if args.trace else setup_seconds(clock)
        tracer = Tracer(clock.now) if args.trace else NO_TRACE
        tracer.start_pass()
        with tracer.span("isespoly.load_catalog"):
            catalog = load_catalog()
        if args.trace:
            workloads.install_wrappers(tracer)
        try:
            walls, raw_walls, verdicts, resolved, counts = run_passes(
                workload, workload.items(catalog), tracer, clock, args.seed, args.seconds
            )
        finally:
            if args.trace:
                tracer.unwrap_all()

    if args.trace:
        counts = [c + tracer.counts[i + 1] for i, c in enumerate(counts)]
    unexpected = set(verdicts.failed) - workloads.KNOWN_FAULTS
    for op in sorted(verdicts.failed, key=repr):
        print(f"failed: {op!r} ({verdicts.failed[op]}x)", file=sys.stderr)
    repeatable = len(set(resolved)) == 1 and all(c == counts[0] for c in counts)
    wall = statistics.median(walls)
    correct = not unexpected and repeatable

    if args.trace:
        metrics = layer_metrics(tracer, counts[0], len(walls))
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"trace-{workload.name}-{args.seed}.json",
            {
                "workload": workload.name,
                "seed": args.seed,
                "pass_wall_s": walls,
                "wall_s": wall,
            },
        )
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "values_resolved": (resolved[0], "count"),
        }
    print(
        f"passes: {len(walls)}; pass wall_s: {', '.join(f'{w:.3f}' for w in walls)}; "
        f"unscaled: {', '.join(f'{w:.3f}' for w in raw_walls)}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdicts.attempted,
                "failed": sum(verdicts.failed.values()),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_passes(workload, items, tracer, clock, seed, seconds):
    """Whole passes over ``items``, each in an order shuffled with ``seed``,
    until the passes have taken ``seconds`` of wall time.  Returns each
    pass's time on ``clock`` and in wall seconds, the verdicts of the
    checks, and each pass's resolved values and counts."""
    rng = random.Random(seed)
    order = list(range(len(items)))
    verdicts = Verdicts()
    walls, raw_walls, resolved, counts = [], [], [], []
    while sum(raw_walls) < seconds:
        rng.shuffle(order)
        tracer.start_pass()
        results = []
        raw_start, start = time.perf_counter(), clock.now()
        for i in order:
            results.append(workload.run_item(items[i], tracer))
        walls.append(clock.now() - start)
        raw_walls.append(time.perf_counter() - raw_start)
        verdicts.record(workload.ops(results))
        resolved.append(workload.resolved(results))
        counts.append(Counter(workload.counts(results)))
        del results
    return walls, raw_walls, verdicts, resolved, counts


def layer_metrics(tracer, counts, passes) -> dict:
    """Per-layer self times (median over passes; the catalog load happens
    once, before the first pass) and the counts of one pass."""
    selfs = [tracer.self_times(i) for i in range(passes + 1)]
    metrics = {}
    for name in LAYER_TIMES:
        if name == "isespoly.load_catalog":
            value = selfs[0][name]
        else:
            value = statistics.median(s[name] for s in selfs[1:])
        metrics[f"{name}_s"] = (value, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts[name], "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
