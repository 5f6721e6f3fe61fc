"""One workload process: runs sweeps, checks digests, prints one JSON line.

Started by ``run.py`` as::

    python3 e2ebench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at EPOCH [--setup-only]

``--spawned-at`` is the parent's ``time.time()`` just before it started
this interpreter; the time from there to the first simulation point is
the set-up sample.  Untraced (``--trace 0``) it repeats full sweeps while
another one fits in ``--seconds``.  Traced, it alternates an untraced
and a traced sweep (the difference is the tracing overhead), keeps the
spans of the first traced sweep and writes them to ``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
FLAG_VARS = ("REPRO_KERNELS", "REPRO_ENGINE_QUEUE", "REPRO_KERNEL_WORKERS")


class PointRecord:
    """Host seconds and model outputs of one simulation point.

    ``scaled`` is ``seconds`` at reference host speed (see ``calib.py``).
    ``sims``/``nbytes`` are each simulation's final simulated time and
    interconnect bytes (digested, never reported); ``counts`` holds the
    layer counters read off the model objects the point built.
    """

    __slots__ = ("label", "seconds", "scaled", "sims", "nbytes", "counts", "digest", "invariant_ok")

    def __init__(self, label, seconds, scaled, live):
        nets = live.get("Network", ())
        inst = lambda name: live.get(name, ())  # noqa: E731
        self.label = label
        self.seconds = seconds
        self.scaled = scaled
        self.sims = tuple(net.env.now for net in nets)
        self.nbytes = tuple(net.total_bytes() for net in nets)
        engines = {id(net.env): net.env for net in nets}.values()
        self.counts = {
            "engine.events": float(sum(e._seq for e in engines)),
            "network.bytes": float(sum(self.nbytes)),
            "core.defer_sim_s": float(sum(s.total_defer_seconds for s in inst("MovementScheduler"))),
            "flow.unspills": float(sum(p.unspills for p in inst("BufferPool"))),
            "flow.pool_wait_sim_s": float(sum(p.wait_seconds for p in inst("BufferPool"))),
            "faults.restarts": float(sum(s.restarts for s in inst("StagingService"))),
        }
        self.digest = None
        self.invariant_ok = False


class Meter:
    """Times each simulation point and reads the model objects it builds.

    The ``__init__`` of each captured class is wrapped for the life of
    the process, so the instances a point creates can be read once it
    returns; they are released with the point.  Points are timed by a
    ``calib.Clock``; in traced sweeps it runs no probes inside a point,
    so that no probe is billed to a layer.
    """

    def __init__(self, elasticity):
        from repro.core.scheduler import MovementScheduler
        from repro.core.staging import StagingService
        from repro.flow.pool import BufferPool
        from repro.machine.network import Network

        self.points = []
        self.errors = []
        self.tracer = None
        self.clock = calib.Clock(elasticity)
        self._live = None
        for cls in (Network, MovementScheduler, BufferPool, StagingService):
            self._capture(cls)

    def _capture(self, cls):
        original = cls.__init__
        meter = self

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if meter._live is not None:
                meter._live.setdefault(cls.__name__, []).append(obj)

        cls.__init__ = init

    def call(self, label, fn, *args, **kwargs):
        """Run one point and record its host seconds and model outputs."""
        self._live = {}
        tracer = self.tracer
        self.clock.start(ticks=tracer is None)
        if tracer is not None:
            tracer.begin_point(len(self.points))
        try:
            return fn(*args, **kwargs)
        finally:
            if tracer is not None:
                tracer.end_point()
            seconds, scaled = self.clock.stop()
            live, self._live = self._live, None
            self.points.append(PointRecord(label, seconds, scaled, live))

    def error(self, exc):
        self.errors.append(f"{type(exc).__name__}: {exc}")


def _git_sha():
    """HEAD of the checkout, read from ``.git`` (None outside a git tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy

    from repro.perf.registry import kernel_variant
    from repro.sim.engine import Engine

    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "flags": {name: os.environ.get(name) for name in FLAG_VARS},
        "kernel_variant": kernel_variant(),
        "engine_queue": Engine().queue_backend,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": platform.machine(),
    }


def expected_digests(workload, seed):
    """label -> recorded digest for this seed (empty if none recorded)."""
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    out = dict(table.get("any", {}))
    out.update(table.get(str(seed), {}))
    return out


def check_sweep(recs, expected_n, expected, reference):
    """Failed points of one sweep, with one message each.

    A point fails if it raised, broke an invariant or never ran, or if
    its digest differs from the recorded one.  A point without a
    recorded digest must match the same point of the process's first
    sweep (*reference*), so traced and untraced sweeps agree whatever
    the seed.
    """
    failures = []
    for rec in recs:
        want = expected.get(rec.label, reference.get(rec.label))
        if rec.digest is None:
            failures.append(f"{rec.label}: raised")
        elif not rec.invariant_ok:
            failures.append(f"{rec.label}: invariant violated")
        elif want is not None and rec.digest != want:
            failures.append(f"{rec.label}: digest {rec.digest[:12]} != {want[:12]}")
    missing = max(expected_n - len(recs), 0)
    failures += ["point never ran"] * missing
    return failures


class Runner:
    """Sweeps of one workload in this process, with their failure tally.

    *expected* maps point labels to recorded digests; by default it is
    read from ``digests.json``.
    """

    def __init__(self, workload, seed, expected=None):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]()
        self.meter = Meter(self.workload.speed_elasticity)
        self.workload.prepare(self.meter)
        self.seed = seed
        self.expected = expected_digests(workload, seed) if expected is None else expected
        self.reference = {}
        self.attempted = 0
        self.failures = []
        self.failed = 0

    def sweep(self, tracer=None):
        """One pass over every point; returns (point records, wall seconds)."""
        meter = self.meter
        meter.points, meter.errors, meter.tracer = [], [], tracer
        meter.clock.last = None
        t0 = time.perf_counter()
        n = self.workload.sweep(meter, self.seed)
        wall = time.perf_counter() - t0
        recs = meter.points
        failures = check_sweep(recs, n, self.expected, self.reference)
        if not self.reference:
            self.reference = {r.label: r.digest for r in recs if r.digest}
        self.attempted += n
        self.failed += len(failures)
        self.failures.extend(meter.errors + failures)
        return recs, wall


def _sweep_record(recs, wall):
    return {"wall": wall, "points": [[r.label, r.seconds, r.scaled] for r in recs]}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(runner, seconds):
    """Full sweeps while another fits; peak RSS is read after the first."""
    sweeps = []
    start = time.perf_counter()
    while True:
        recs, wall = runner.sweep()
        sweeps.append(_sweep_record(recs, wall))
        if len(sweeps) == 1:
            peak = _peak_rss_mb()
        if time.perf_counter() - start + wall > seconds:
            return {"sweeps": sweeps, "peak_rss_mb": peak}


def run_traced(runner, seconds, workload, seed):
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        recs, wall = runner.sweep()
        untraced.append(_sweep_record(recs, wall))
        tracer.reset_totals()
        tracer.keep[0] = not traced  # spans of the first traced sweep only
        tracer.install()
        try:
            t0 = time.perf_counter()
            recs, twall = runner.sweep(tracer)
        finally:
            tracer.uninstall()
            tracer.keep[0] = False
        traced.append(_sweep_record(recs, twall))
        snap = tracer.snapshot()
        for rec in recs:
            for name, value in rec.counts.items():
                snap[name] = snap.get(name, 0.0) + value
        layers.append(snap)
        pair = time.perf_counter() - t0 + wall
        if time.perf_counter() - start + pair > seconds:
            break
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.npz"
    import numpy as np

    np.savez_compressed(spans, **tracer.span_arrays())
    return {
        "sweeps": untraced, "traced_sweeps": traced, "layers": layers,
        "peak_rss_mb": _peak_rss_mb(),
        "spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.span_start),
        "spans_dropped": tracer.dropped,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    runner = Runner(a.workload, a.seed)
    setup_s = time.time() - a.spawned_at
    out = {"setup_s": setup_s}
    if not a.setup_only:
        if a.trace:
            out.update(run_traced(runner, a.seconds, a.workload, a.seed))
        else:
            out.update(run_untraced(runner, a.seconds))
        out.update(
            attempted=runner.attempted, failed=runner.failed,
            failures=runner.failures[:20],
            provenance=provenance(a.seed),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
