"""End-to-end benchmark of the PreDatA simulator (host time and memory).

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload gtc-ops --seed 0 --seconds 20 --trace 0

Each workload runs in its own fresh single-threaded process
(``worker.py``) through the public experiment APIs; every simulation
point's output is checked against a recorded digest.  ``--trace 0``
reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` for the workloads, the metrics and the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: fresh interpreters timed for set-up (not counted in --seconds)
SETUP_PROBES = 15
#: every worker is killed once the whole command has run this long
DEADLINE_S = 170

#: per-layer metrics: name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def child_env():
    """The caller's environment with default program flags and one BLAS/OpenMP thread."""
    env = dict(os.environ)
    for name in ("REPRO_KERNELS", "REPRO_ENGINE_QUEUE", "REPRO_KERNEL_WORKERS"):
        env.pop(name, None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args, deadline, *, setup_only=False):
    """Start one worker process, wait for it, return its JSON record."""
    spawned = time.time()
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawned-at", repr(spawned),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def point_medians(sweeps, scaled=True):
    """Per-point median seconds over sweeps, summed over points.

    *scaled* picks seconds at reference host speed; otherwise raw host
    seconds.
    """
    samples = {}
    for sweep in sweeps:
        for label, seconds, at_reference in sweep["points"]:
            samples.setdefault(label, []).append(at_reference if scaled else seconds)
    return sum(statistics.median(v) for v in samples.values())


def setup_sample(args, deadline):
    """One set-up-only interpreter's set-up seconds, at reference host speed."""
    before = calib.probe()
    seconds = run_worker(args, deadline, setup_only=True)["setup_s"]
    return calib.rescale(seconds, [before, calib.probe()])


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(rec, setup_samples):
    walls = [s["wall"] for s in rec["sweeps"]]
    t = tail(walls)
    tail_text = (
        f"p{t[0]:.0f} {t[1]:.3f} s" if t else f"no tail percentile: {len(walls)} < 11 sweeps"
    )
    notes = {
        "wall_s": f"sum of per-point medians over {len(walls)} sweeps, at reference "
                  f"host speed; raw host seconds {point_medians(rec['sweeps'], False):.3f}; "
                  f"raw sweep totals median {statistics.median(walls):.3f} s, {tail_text}",
        "setup_s": f"median of {len(setup_samples)} fresh interpreters, at reference "
                   f"host speed",
        "peak_rss_mb": "ru_maxrss of the workload process after its first sweep",
    }
    metrics = {
        "wall_s": {"value": point_medians(rec["sweeps"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
    }
    return metrics, notes, []


def per_layer(rec):
    """Per-layer metrics of a traced record; counts must repeat exactly."""
    snaps = rec["layers"]
    problems = []
    values = {}
    for name in set().union(*snaps):
        series = [s.get(name, 0.0) for s in snaps]
        if name.endswith("self_s") or name == "unattributed_s":
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            if any(v != series[0] for v in series):
                problems.append(f"count {name} differs between traced sweeps: {series}")
    get = lambda k: values.get(k, 0.0)  # noqa: E731
    untraced = point_medians(rec["sweeps"])
    traced = point_medians(rec["traced_sweeps"])
    derived = {
        "engine.events_per_s": get("engine.events") / untraced,
        "resources.live_wakeup_frac":
            get("resources.live_wakeups") / get("resources.wakeups") if get("resources.wakeups") else 0.0,
        "dataspaces.intersect_hit_frac":
            get("dataspaces.intersect_hits") / get("dataspaces.intersect_calls")
            if get("dataspaces.intersect_calls") else 0.0,
        "trace_overhead_frac": traced / untraced - 1.0,
    }
    metrics = {
        name: {"value": derived[name] if name in derived else get(name), "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    notes = {
        "trace_overhead_frac": f"traced {traced:.3f} s vs untraced {untraced:.3f} s "
                               f"({len(rec['traced_sweeps'])}/{len(rec['sweeps'])} sweeps)",
        "unattributed_s": f"spans kept: {rec['spans']} ({rec['spans_dropped']} dropped), "
                          f"written to {rec['spans_file']}",
    }
    return metrics, notes, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="PreDatA simulator end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = []
        if not args.trace:
            setup_samples = [setup_sample(args, deadline) for _ in range(SETUP_PROBES)]
        rec = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes, problems = per_layer(rec)
    else:
        metrics, notes, problems = end_to_end(rec, setup_samples)

    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("provenance: " + json.dumps(rec["provenance"], sort_keys=True))
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:30s} {m['value']:16.6g} {m['unit']:6s}" + (f"  ({note})" if note else ""))
    print(f"  operations: {rec['attempted']} attempted, {rec['failed']} failed")
    for line in rec["failures"] + problems:
        print(f"  FAILED {line}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = dict(rec, metrics=metrics, setup_samples=setup_samples, problems=problems)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": rec["failed"] == 0 and not problems,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
