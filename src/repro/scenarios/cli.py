"""``python -m repro scenarios`` — the adversarial scenario library.

Three verbs:

- ``list``            — registered scenarios with threat + invariants
- ``run <name>``      — one scenario against the chaos workload
- ``sweep``           — every scenario twice (the chaos matrix),
  writing ``BENCH_chaos_matrix.json`` and optionally guarding against
  the committed baseline
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.experiments.report import format_table
from repro.perf.bench import add_baseline_args, guard_baseline, write_record

__all__ = ["main"]


def _cmd_list() -> int:
    from .base import get, names

    rows = []
    for name in names():
        spec = get(name)
        rows.append(
            [
                name,
                "yes" if spec.needs_regions else "-",
                spec.summary,
                str(len(spec.invariants)),
            ]
        )
    print(
        format_table(
            ["scenario", "regional", "summary", "invariants"],
            rows,
            title="registered adversarial scenarios (see THREATS.md)",
        )
    )
    return 0


def _cmd_run(args) -> int:
    from .runner import run_named

    result = run_named(
        args.name, seed=args.seed, intensity=args.intensity, fast=args.fast
    )
    print(f"scenario      : {', '.join(result.scenarios)}")
    print(f"seed          : {result.seed}   intensity: {args.intensity}")
    print(f"complete      : {'yes' if result.complete else 'NO'}"
          + (f"  (missing steps {result.missing_steps})"
             if result.missing_steps else ""))
    print(f"wall          : {result.wall_seconds:.3f} s")
    print(f"faults fired  : {result.faults_fired} "
          f"({', '.join(result.fault_kinds) or 'none'})")
    print(f"fetch retries : {result.fetch_retries}   "
          f"restarts: {result.restarts}")
    print(f"invariants    : {', '.join(result.invariants)}")
    if result.violations:
        for v in result.violations:
            print(f"VIOLATION     : {v}")
    else:
        print("violations    : none (all ledgers balance)")
    print(f"schedule hash : {result.schedule_hash}")
    print(f"fingerprint   : {result.fingerprint}")
    return 0 if result.surviving else 1


def _cmd_sweep(args) -> int:
    from .runner import sweep

    record = sweep(
        args.names or None,
        seed=args.seed,
        intensity=args.intensity,
        fast=args.fast,
        repeats=args.repeats,
    )
    rows = [
        [
            r["scenario"],
            "yes" if r["complete"] else "NO",
            r["faults_fired"],
            r["fetch_retries"],
            r["restarts"],
            "yes" if r["deterministic"] else "NO",
            "none" if not r["violations"] else f"{len(r['violations'])}!",
            f"{r['wall_seconds']:.3f}",
        ]
        for r in record["rows"]
    ]
    print(
        format_table(
            ["scenario", "complete", "faults", "retries", "restarts",
             "deterministic", "violations", "wall s"],
            rows,
            title=f"chaos matrix (seed {args.seed}, "
            f"intensity {args.intensity}, x{args.repeats})",
        )
    )
    g = record["guards"]
    print(
        f"[scenarios] registered={g['scenarios_registered']} "
        f"complete={g['complete_fraction']:.2f} "
        f"clean={g['invariant_clean_fraction']:.2f} "
        f"deterministic={g['determinism_fraction']:.2f}"
    )
    path = write_record("chaos_matrix", record, args.out)
    print(f"[scenarios] wrote {path}")
    bad = (
        g["complete_fraction"] < 1.0
        or g["invariant_clean_fraction"] < 1.0
        or g["determinism_fraction"] < 1.0
    )
    problems = guard_baseline(
        "chaos_matrix", record, args.baseline, args.tolerance, "[scenarios]"
    )
    return 1 if problems or bad else 0


def main(argv: Optional[list] = None) -> int:
    """Run the scenarios CLI; returns a process exit code."""
    ap = argparse.ArgumentParser(
        prog="repro scenarios",
        description="adversarial scenario library (threat model: THREATS.md)",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    sub.add_parser("list", help="registered scenarios")

    run_p = sub.add_parser("run", help="run one scenario by name")
    run_p.add_argument("name", help="registered scenario name")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--intensity", type=float, default=1.0)
    run_p.add_argument(
        "--fast", action="store_true",
        help="trimmed workload (128 logical ranks, 2 steps)",
    )

    sweep_p = sub.add_parser("sweep", help="run the full chaos matrix")
    sweep_p.add_argument(
        "names", nargs="*", help="scenario subset (default: all registered)"
    )
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--intensity", type=float, default=1.0)
    sweep_p.add_argument("--fast", action="store_true")
    sweep_p.add_argument(
        "--repeats", type=int, default=2,
        help="runs per scenario for the determinism guard (default 2)",
    )
    sweep_p.add_argument(
        "--out", type=Path, default=Path("."),
        help="directory for the BENCH_chaos_matrix.json sidecar",
    )
    add_baseline_args(sweep_p)
    args = ap.parse_args(argv)

    if args.verb == "list":
        return _cmd_list()
    if args.verb == "run":
        return _cmd_run(args)
    return _cmd_sweep(args)
