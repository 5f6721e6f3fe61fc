"""The benchmark's workloads: paper experiments driven through public APIs.

A workload is a fixed list of *simulation points* (one ``run_gtc`` /
``run_pixie3d`` call, one Fig. 9 query scale, one chaos seed).  Each
point's output is reduced to a digest over its rendered result row, its
simulated seconds and its interconnect bytes; these model outputs are
checked, never reported as metrics.

Why each workload exists (which layer it stresses) is in ``README.md``
and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import math

GTC_SCALES = (512, 2048, 16384)
GTC_KW = dict(ndumps=1, iterations_per_dump=2, compute_seconds_per_iteration=10.0)
PIXIE3D_SCALES = (256, 1024, 4096)
FIG9_QUERY_CORES = (32, 64, 128, 256)
CHAOS_KW = dict(
    logical_ranks=1024, rep_ranks=16, nsteps=6,
    flow_fraction=0.25, fetch_pipeline_depth=6,
)
CHAOS_SEEDS = 40



def point_digest(rec, row, extra=""):
    """sha256 over a point's result row, simulated seconds and bytes."""
    text = f"{rec.label}|{row!r}|sim={rec.sims!r}|bytes={rec.nbytes!r}|{extra}"
    return hashlib.sha256(text.encode()).hexdigest()


def _finite_positive(*values):
    return all(math.isfinite(v) and v > 0 for v in values)


class Workload:
    """One workload: ``prepare`` once per process, then ``sweep`` repeatedly.

    ``sweep(meter, seed)`` runs every point through ``meter.call`` and
    sets each point record's ``digest`` and ``invariant_ok``; a point
    that raised keeps ``digest=None``.
    """

    name = ""
    #: how strongly the workload's host time follows host speed as the
    #: calibration probe sees it (see ``calib.rescale``)
    speed_elasticity = 1.0

    def prepare(self, meter):
        """Import the experiment modules and route points through *meter*."""

    def sweep(self, meter, seed):
        raise NotImplementedError

    @staticmethod
    def _run_group(meter, fn):
        """Run one experiment call; a raise fails its recorded points."""
        start = len(meter.points)
        try:
            return fn(), meter.points[start:]
        except Exception as exc:  # a failed operation, reported not raised
            meter.error(exc)
            return None, meter.points[start:]


class GTCOps(Workload):
    name = "gtc-ops"
    # About half of its host time is numpy folding allreduce payloads of
    # hundreds of MB, which the host's slow spells barely slow.  Regressing
    # log point time on log probe speed on a 2-vCPU x86_64 VM gave 0.41-0.52, against
    # 0.74-0.83 for the interpreter-bound workloads, whose true value is 1.
    speed_elasticity = 0.5

    def prepare(self, meter):
        from repro.experiments import fig7, runner

        def run_gtc(cores, placement, operation="sort", **kw):
            return meter.call(
                f"{operation}:{cores}:{placement}",
                runner.run_gtc, cores, placement, operation, **kw,
            )

        fig7.run_gtc = run_gtc
        self.fig7 = fig7

    def sweep(self, meter, seed):
        for op in self.fig7.OPERATIONS:
            rows, recs = self._run_group(
                meter, lambda op=op: self.fig7.run_fig7(op, list(GTC_SCALES), **GTC_KW)
            )
            for row, rec in zip(rows or (), recs):
                rec.digest = point_digest(rec, row)
                rec.invariant_ok = _finite_positive(row.total, row.latency)
        return 2 * len(GTC_SCALES) * len(self.fig7.OPERATIONS)


class Pixie3DMHD(Workload):
    name = "pixie3d-mhd"

    def prepare(self, meter):
        from repro.experiments import fig10, runner

        def run_pixie3d(cores, placement, **kw):
            return meter.call(f"{cores}:{placement}", runner.run_pixie3d, cores, placement, **kw)

        fig10.run_pixie3d = run_pixie3d
        self.fig10 = fig10

    def sweep(self, meter, seed):
        rows, recs = self._run_group(meter, lambda: self.fig10.run_fig10(list(PIXIE3D_SCALES)))
        # each row covers two points: in-compute then staging
        for i, rec in enumerate(recs if rows else ()):
            row = rows[i // 2]
            rec.digest = point_digest(rec, row)
            rec.invariant_ok = _finite_positive(row.total_incompute, row.total_staging)
        return 2 * len(PIXIE3D_SCALES)


class DataSpacesQuery(Workload):
    name = "dataspaces-query"

    def prepare(self, meter):
        from repro.experiments import fig9

        original = fig9._one_scale

        def one_scale(q, index_seconds_per_cell, seed):
            return meter.call(f"q={q}", original, q, index_seconds_per_cell, seed)

        fig9._one_scale = one_scale
        self.fig9 = fig9

    def sweep(self, meter, seed):
        rows, recs = self._run_group(
            meter, lambda: self.fig9.run_fig9(list(FIG9_QUERY_CORES), seed=seed)
        )
        for row, rec in zip(rows or (), recs):
            rec.digest = point_digest(rec, row)
            rec.invariant_ok = (
                row.n_servers == max(4, row.n_query_cores // 8)
                and _finite_positive(
                    row.setup_seconds, row.query_seconds,
                    row.index_seconds, row.all_queries_seconds,
                )
                and sum(rec.nbytes) > 0
            )
        return len(FIG9_QUERY_CORES)


class ChaosFlow(Workload):
    name = "chaos-flow"

    def prepare(self, meter):
        from repro.experiments import chaos

        self.chaos = chaos

    def sweep(self, meter, seed):
        chaos = self.chaos
        for s in range(seed, seed + CHAOS_SEEDS):
            label = f"seed={s}"
            run, recs = self._run_group(
                meter, lambda s=s: meter.call(label, chaos.run_once, seed=s, **CHAOS_KW)
            )
            if run is None:
                continue
            rec = recs[0]
            spilled = run.flow_spill_bytes > 0
            extra = f"{chaos.fingerprint(run)}|{run.complete}|{run.restarts}|{spilled}"
            rec.digest = point_digest(rec, None, extra)
            rec.invariant_ok = run.complete and run.restarts >= 1 and spilled
            run = None  # release this simulation before the next one starts
        return CHAOS_SEEDS


WORKLOADS = {w.name: w for w in (GTCOps, Pixie3DMHD, DataSpacesQuery, ChaosFlow)}
NAMES = tuple(WORKLOADS)
