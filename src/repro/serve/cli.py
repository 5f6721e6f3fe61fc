"""``python -m repro serve`` — offered-load sweep of the query service.

Runs the seeded open-loop workload at each requested load level,
prints the latency/hit-rate table, writes the ``BENCH_query.json``
sidecar, and (with ``--baseline``) guards the sweep against the
committed baseline via the perf-regression harness.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path
from typing import Optional

from repro.experiments.report import format_table, fmt_pct
from repro.perf.bench import add_baseline_args, guard_baseline, write_record
from repro.serve.bench import BENCH_CONFIG, DEFAULT_LOADS, bench_query
from repro.serve.config import ServeConfig

__all__ = ["main"]


def main(argv: Optional[list] = None) -> int:
    """Run the offered-load sweep CLI; returns a process exit code."""
    ap = argparse.ArgumentParser(
        prog="repro serve",
        description="query-serving subsystem: offered-load sweep",
    )
    ap.add_argument(
        "--loads", type=float, nargs="+", default=list(DEFAULT_LOADS),
        metavar="QPS", help="offered-load levels to sweep (queries/s)",
    )
    ap.add_argument(
        "--duration", type=float, default=2.0,
        help="sim seconds of arrivals per load point (default 2.0)",
    )
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument(
        "--nshards", type=int, default=ServeConfig.nshards,
        help="index shards (staging-node owners)",
    )
    ap.add_argument(
        "--out", type=Path, default=Path("."),
        help="directory for the BENCH_query.json sidecar",
    )
    add_baseline_args(ap)
    args = ap.parse_args(argv)

    # same pressure config the committed baseline was recorded with,
    # so `--baseline default` compares like with like
    config = dataclasses.replace(BENCH_CONFIG, nshards=args.nshards)
    record = bench_query(
        loads=tuple(args.loads), duration=args.duration,
        seed=args.seed, config=config,
    )
    rows = [
        [
            f"{p['offered_qps']:g}",
            p["issued"],
            p["completed"],
            p["degraded"],
            p["shed"],
            f"{p['p50'] * 1e3:.3f}",
            f"{p['p99'] * 1e3:.3f}",
            fmt_pct(p["hit_rate"]),
        ]
        for p in record["points"]
    ]
    print(
        format_table(
            ["offered q/s", "issued", "done", "degraded", "shed",
             "p50 ms", "p99 ms", "hit rate"],
            rows,
            title=f"query serving sweep ({config.nshards} shards, "
            f"seed {args.seed})",
        )
    )
    path = write_record("query", record, args.out)
    print(f"[serve] wrote {path}")
    problems = guard_baseline(
        "query", record, args.baseline, args.tolerance, "[serve]"
    )
    return 1 if problems else 0
