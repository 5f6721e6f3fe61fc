"""``python -m repro stream`` — the coupled-workflow streaming scenario.

Runs the seeded producer + three-reader scenario, prints the per-group
delivery table, writes the ``BENCH_stream.json`` sidecar, and (with
``--baseline``) guards the run against the committed baseline via the
perf-regression harness.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.experiments.report import format_table
from repro.perf.bench import add_baseline_args, guard_baseline, int_at_least, write_record
from repro.stream.bench import BENCH_PARAMS, bench_stream

__all__ = ["main"]


def main(argv: Optional[list] = None) -> int:
    """Run the streaming scenario CLI; returns a process exit code."""
    ap = argparse.ArgumentParser(
        prog="repro stream",
        description="pub/sub step streaming: coupled-workflow scenario",
    )
    ap.add_argument(
        "--steps", type=int_at_least(2), default=BENCH_PARAMS["nsteps"],
        help="producer steps to publish (at least 2)",
    )
    ap.add_argument(
        "--consumers", type=int, default=BENCH_PARAMS["analysis_members"],
        help="members of the in-transit analysis group",
    )
    ap.add_argument(
        "--period", type=float, default=BENCH_PARAMS["step_period"],
        help="producer step period (sim seconds)",
    )
    ap.add_argument(
        "--credit-steps", type=int, default=BENCH_PARAMS["credit_steps"],
        help="slow consumer's credit budget in steps",
    )
    ap.add_argument(
        "--redeliver", type=float, default=BENCH_PARAMS["redeliver_rate"],
        help="seeded lost-ack redelivery probability",
    )
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument(
        "--out", type=Path, default=Path("."),
        help="directory for the BENCH_stream.json sidecar",
    )
    add_baseline_args(ap)
    args = ap.parse_args(argv)

    record = bench_stream(
        seed=args.seed,
        nsteps=args.steps,
        analysis_members=args.consumers,
        step_period=args.period,
        credit_steps=args.credit_steps,
        redeliver_rate=args.redeliver,
    )
    run = record["run"]
    rows = [
        [
            g["name"],
            g["members"],
            g["first_step"] if g["first_step"] is not None else "-",
            g["entitled"],
            g["delivered"],
            g["deduped"],
            g["consumed"],
            g["max_lag"],
            f"{g['throughput']:.2f}",
            f"{g['notify_p99'] * 1e3:.3f}",
        ]
        for g in run["groups"].values()
    ]
    print(
        format_table(
            ["group", "members", "first step", "entitled", "delivered",
             "deduped", "consumed", "max lag", "steps/s", "p99 ms"],
            rows,
            title=f"step streaming ({run['published']} steps published, "
            f"seed {args.seed})",
        )
    )
    if run["violations"]:
        for v in run["violations"]:
            print(f"[stream] CONSERVATION VIOLATION {v}")
    else:
        print("[stream] conservation check clean "
              "(sent == delivered + deduped, exactly-once)")
    path = write_record("stream", record, args.out)
    print(f"[stream] wrote {path}")
    problems = guard_baseline(
        "stream", record, args.baseline, args.tolerance, "[stream]"
    )
    return 1 if problems or run["violations"] else 0
