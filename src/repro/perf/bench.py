"""Micro-benchmarks for the hot-path layer + regression guard.

Benchmark groups, one ``BENCH_*.json`` sidecar each:

- :func:`bench_kernels` — every registered kernel, ``naive`` vs
  ``vectorized``, on adversarially dense inputs (default 1M elements);
- :func:`bench_ffs` — FFS packing, allocate-per-step ``encode`` vs
  zero-copy ``encode_into`` with a warm :class:`~repro.ffs.PackBuffer`;
- :func:`bench_engine` — event-queue backends (``heap`` vs
  ``calendar``) on a bursty same-timestamp workload;
- :func:`repro.perf.scale.bench_scale` — 10k/50k/100k-rank weak
  scaling of the engine + scheduler stack, each point cross-checked
  bit-for-bit between the calendar and the heap queue.

Each record carries a ``guards`` dict.  Guards are in-process ratios
(fast path relative to the reference path, on the same host) or
deterministic simulated outcomes, so they hold across host speeds —
except the weak-scaling ``events_per_sec_*`` guard, which is absolute
events/second and so depends on the host.  :func:`compare` fails a run
when any guard falls more than ``tolerance`` (default 20 %) below the
committed baseline in ``benchmarks/perf/baselines/``; wall seconds are
recorded for humans but never compared.  A record may additionally
carry ``floors`` — ``{metric: {floor, measured}}`` acceptance criteria
enforced by :func:`check_floors` on *every* run, baseline or not
(e.g. fingerprint equality in the weak-scaling cross-check).

``python -m repro perf`` drives everything from the command line
(``python -m repro perf scale`` runs the weak-scaling sweep alone).
The ``serve``, ``stream`` and ``scenarios`` CLIs share its baseline
guard: :func:`add_baseline_args` adds ``--baseline``/``--tolerance``
and :func:`guard_baseline` resolves, loads, compares and reports.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.perf import kernels as K
from repro.perf.registry import REGISTRY

__all__ = [
    "bench_kernels",
    "bench_ffs",
    "bench_engine",
    "compare",
    "check_floors",
    "write_record",
    "default_baseline_dir",
    "add_baseline_args",
    "guard_baseline",
    "int_at_least",
    "positive_float",
    "main",
]

#: kernels whose vectorized speedup is an acceptance criterion
HOT_KERNELS = ("histogram1d", "histogram2d", "wah_encode")


def _best_of(fn: Callable[[], Any], repeat: int = 3) -> float:
    """Best wall time of *repeat* calls (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_cases(n: int, rng: np.random.Generator) -> dict[str, tuple]:
    """Argument tuples per kernel, sized to *n* elements."""
    values = rng.normal(size=n)
    edges = np.linspace(-4.0, 4.0, 1001)
    x, y = rng.normal(size=n), rng.normal(size=n)
    ex, ey = np.linspace(-4.0, 4.0, 257), np.linspace(-4.0, 4.0, 257)
    # encode: run-heavy mask (the compressible case WAH exists for);
    # decode/count: literal-heavy words, where per-word bit extraction
    # is the hot loop
    mask = np.repeat(rng.random(max(n // 31, 1)) < 0.5, 31)[:n]
    dense = rng.random(n) < 0.5
    words = K.wah_encode(dense)
    pool = rng.normal(size=min(n, 1 << 16))
    splitters = np.sort(rng.normal(size=63))
    keys = rng.normal(size=n)
    buckets = K.partition_rows(keys, splitters)
    rows = rng.normal(size=(n // 8, 4))
    row_buckets = np.asarray(buckets[: n // 8])
    side = max(int(round((n // 16) ** (1 / 3))), 4)
    piece = rng.normal(size=(side, side, side))
    pieces = [((i * side, 0, 0), piece) for i in range(4)]
    return {
        "histogram1d": (values, edges),
        "histogram2d": (x, y, ex, ey),
        "wah_encode": (mask,),
        "wah_decode": (words, dense.size),
        "wah_count": (words,),
        "select_splitters": (pool, 64),
        "partition_rows": (keys, splitters),
        "group_rows": (rows, row_buckets),
        "paste_pieces": ((4 * side, side, side), np.float64, pieces, 0),
    }


def bench_kernels(n: int = 1_000_000, repeat: int = 3, seed: int = 11) -> dict:
    """Time every kernel in both variants; guards are the speedups.

    The ``speedup:*`` guards (naive vs vectorized) are ratio metrics
    compared against the committed baseline.
    """
    cases = _kernel_cases(n, np.random.default_rng(seed))
    results: dict[str, dict] = {}
    guards: dict[str, float] = {}
    for name in REGISTRY.names():
        args = cases[name]
        t_naive = _best_of(lambda: REGISTRY.get(name, "naive")(*args), repeat)
        t_vec = _best_of(lambda: REGISTRY.get(name, "vectorized")(*args), repeat)
        speedup = t_naive / max(t_vec, 1e-9)
        results[name] = {
            "naive_seconds": t_naive,
            "vectorized_seconds": t_vec,
            "speedup": speedup,
        }
        guards[f"speedup:{name}"] = speedup
    return {"bench": "kernels", "n": n, "kernels": results, "guards": guards}


def bench_ffs(
    nelems: int = 1_000_000, nfields: int = 4, repeat: int = 5, seed: int = 12
) -> dict:
    """Allocate-per-step ``encode`` vs zero-copy ``encode_into``."""
    from repro.ffs import Field, PackBuffer, Schema, encode, encode_into

    rng = np.random.default_rng(seed)
    per = nelems // nfields
    schema = Schema(
        "bench", tuple(Field(f"f{i}", "<f8", (-1,)) for i in range(nfields))
    )
    values = {f"f{i}": rng.normal(size=per) for i in range(nfields)}
    nbytes = sum(v.nbytes for v in values.values())
    # warm the allocator until large-block reuse kicks in (glibc adapts
    # its mmap threshold over several alloc/free cycles): the guard
    # should compare steady-state packing, not first-touch page faults
    for _ in range(8):
        encode(schema, values)
    t_bytes = _best_of(lambda: encode(schema, values), repeat)
    scratch = PackBuffer()
    encode_into(schema, values, scratch)  # warm the scratch to capacity
    grows_warm = scratch.grows
    t_zero = _best_of(lambda: encode_into(schema, values, scratch), repeat)
    ratio = t_bytes / max(t_zero, 1e-9)
    return {
        "bench": "ffs",
        "payload_bytes": nbytes,
        "encode_seconds": t_bytes,
        "encode_into_seconds": t_zero,
        "encode_mb_per_s": nbytes / 1e6 / max(t_bytes, 1e-9),
        "encode_into_mb_per_s": nbytes / 1e6 / max(t_zero, 1e-9),
        "scratch_grows_after_warmup": scratch.grows - grows_warm,
        "guards": {
            "speedup:encode_into": ratio,
            "no_growth_after_warmup": 1.0
            if scratch.grows == grows_warm
            else 0.0,
        },
    }


def _engine_burst(queue: str, nbacklog: int, nworkers: int, nhops: int) -> float:
    """Seconds to drain a bursty workload on one queue backend.

    ``nbacklog`` processes park on far-future timeouts (the standing
    deadline/monitor population of a long pipeline); ``nworkers`` then
    cascade ``nhops`` zero-delay event hops each at one shared instant —
    the same-timestamp burst shape the calendar queue buckets.
    """
    from repro.sim.engine import Engine

    eng = Engine(queue=queue)

    def sleeper(i):
        yield eng.timeout(1e6 + i)

    def worker():
        yield eng.timeout(1000.0)
        for _ in range(nhops):
            ev = eng.event()
            ev.succeed()
            yield ev

    for i in range(nbacklog):
        eng.process(sleeper(i))
    for _ in range(nworkers):
        eng.process(worker())
    t0 = time.perf_counter()
    eng.run(until=2000.0)
    return time.perf_counter() - t0


def bench_engine(
    nbacklog: int = 10_000, nworkers: int = 100, nhops: int = 300,
    repeat: int = 3,
) -> dict:
    """Queue backends on a bursty same-timestamp load."""
    t_heap = _best_of(
        lambda: _engine_burst("heap", nbacklog, nworkers, nhops), repeat
    )
    t_cal = _best_of(
        lambda: _engine_burst("calendar", nbacklog, nworkers, nhops), repeat
    )
    nevents = nbacklog + nworkers * nhops
    return {
        "bench": "engine",
        "burst_events": nevents,
        "heap_seconds": t_heap,
        "calendar_seconds": t_cal,
        "calendar_events_per_s": nevents / max(t_cal, 1e-9),
        "guards": {"ratio:calendar_vs_heap": t_heap / max(t_cal, 1e-9)},
    }


# ---------------------------------------------------------------------
# sidecars + regression guard
# ---------------------------------------------------------------------

def write_record(name: str, record: dict, out_dir: Path) -> Path:
    """Write one ``BENCH_<name>.json`` sidecar; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def default_baseline_dir() -> Path:
    """The committed baseline directory (benchmarks/perf/baselines)."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "baselines"


def compare(record: dict, baseline: dict, tolerance: float = 0.2) -> list[str]:
    """Regressions of *record* against *baseline* (empty when clean).

    Only ``guards`` entries present in the *baseline* are enforced: a
    guard regresses when it falls more than ``tolerance`` below the
    baseline value.  Wall seconds outside ``guards`` are never
    compared.
    """
    problems = []
    base_guards = baseline.get("guards", {})
    cur_guards = record.get("guards", {})
    for key, base_val in base_guards.items():
        cur = cur_guards.get(key)
        if cur is None:
            problems.append(f"guard {key!r} missing from current run")
            continue
        floor = base_val * (1.0 - tolerance)
        if cur < floor:
            problems.append(
                f"guard {key!r} regressed: {cur:.3g} < floor {floor:.3g} "
                f"(baseline {base_val:.3g}, tolerance {tolerance:.0%})"
            )
    return problems


def check_floors(record: dict) -> list[str]:
    """Unmet acceptance floors of *record* (empty when clean).

    Unlike :func:`compare`, floors need no baseline: each entry of
    ``record["floors"]`` carries its own bound and measurement, so
    hard acceptance criteria (weak-scaling fingerprint equality) fail
    the CLI on any run that can measure them.
    """
    return [
        f"floor {key!r} not met: {v['measured']:.3g} < {v['floor']:.3g}"
        for key, v in record.get("floors", {}).items()
        if v["measured"] < v["floor"]
    ]


def int_at_least(lo: int) -> Callable[[str], int]:
    """argparse ``type=`` accepting integers >= *lo*.

    A violation is an argparse error (exit 2) naming the flag, instead
    of a traceback from deep inside the run it would configure.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value

    return parse


def positive_float(text: str) -> float:
    """argparse ``type=`` accepting floats > 0 (see :func:`int_at_least`)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def add_baseline_args(ap: argparse.ArgumentParser) -> None:
    """Add the shared ``--baseline``/``--tolerance`` options to *ap*."""
    ap.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline dir to guard against ('default' for the "
        "committed benchmarks/perf/baselines)",
    )
    ap.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional guard regression (default 0.2)",
    )


def guard_baseline(
    name: str, record: dict, baseline: Optional[Path], tolerance: float,
    tag: str,
) -> list[str]:
    """Guard *record* against ``BENCH_<name>.json`` in *baseline*.

    *baseline* ``None`` means no guard was asked for; ``default`` means
    :func:`default_baseline_dir`.  A missing baseline file is reported
    and skipped.  Every outcome is printed behind *tag*; the return is
    :func:`compare`'s problem list (empty when skipped or clean).
    """
    if baseline is None:
        return []
    base_dir = default_baseline_dir() if str(baseline) == "default" else baseline
    base_path = base_dir / f"BENCH_{name}.json"
    if not base_path.exists():
        print(f"{tag} no baseline at {base_path}; skipping guard")
        return []
    problems = compare(record, json.loads(base_path.read_text()), tolerance)
    for p in problems:
        print(f"{tag} REGRESSION {p}")
    if not problems:
        print(f"{tag} all guards clean")
    return problems


def _bench_query() -> dict:
    # lazy: repro.serve pulls in repro.query/operators, which must not
    # load just because the perf module was imported
    from repro.serve.bench import bench_query

    return bench_query()


def _bench_stream() -> dict:
    # lazy for the same reason: repro.stream pulls in the machine and
    # dataspaces layers
    from repro.stream.bench import bench_stream

    return bench_stream()


def _bench_scale(ranks: Optional[list[int]] = None) -> dict:
    # lazy: repro.perf.scale pulls in the engine and scheduler layers
    from repro.perf.scale import bench_scale

    return bench_scale(ranks=ranks)


_BENCHES: dict[str, Callable[..., dict]] = {
    "kernels": bench_kernels,
    "ffs": bench_ffs,
    "engine": bench_engine,
    "query": _bench_query,
    "stream": _bench_stream,
    "scale": _bench_scale,
}


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: run benchmarks, write sidecars, optionally guard vs baseline."""
    ap = argparse.ArgumentParser(
        prog="repro perf", description="hot-path micro-benchmarks"
    )
    ap.add_argument(
        "benches", nargs="*", choices=[*_BENCHES, "all"], default=["all"],
        help="benchmark groups to run (default: all)",
    )
    ap.add_argument(
        "--out", type=Path, default=Path("."), help="sidecar output directory"
    )
    ap.add_argument(
        "--n", type=int_at_least(1), default=1_000_000,
        help="kernel benchmark element count (default 1M)",
    )
    ap.add_argument(
        "--scale-ranks", type=int_at_least(1), nargs="+", default=None, metavar="N",
        help="weak-scaling rank counts (default 10000 50000 100000)",
    )
    add_baseline_args(ap)
    args = ap.parse_args(argv)
    names = list(_BENCHES) if "all" in args.benches else list(dict.fromkeys(args.benches))
    failures = []
    for name in names:
        if name == "kernels":
            record = _BENCHES[name](args.n)
        elif name == "scale":
            record = _BENCHES[name](args.scale_ranks)
        else:
            record = _BENCHES[name]()
        path = write_record(name, record, args.out)
        print(f"[perf] {name}: wrote {path}")
        for key, val in sorted(record["guards"].items()):
            print(f"[perf]   {key} = {val:.3g}")
        for key, bound in sorted(record.get("floors", {}).items()):
            print(
                f"[perf]   floor {key}: {bound['measured']:.3g} "
                f"(required >= {bound['floor']:.3g})"
            )
        floor_problems = check_floors(record)
        for p in floor_problems:
            print(f"[perf]   FAILED {p}")
        failures.extend(floor_problems)
        failures.extend(
            guard_baseline(name, record, args.baseline, args.tolerance, "[perf]  ")
        )
    if failures:
        print(f"[perf] FAILED: {len(failures)} regression(s)")
        return 1
    print("[perf] all guards clean")
    return 0
