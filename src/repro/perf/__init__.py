"""Hot-path performance layer: selectable operator kernels + benchmarks.

Three hot paths of the reproduction have dedicated fast
implementations, all selectable and all locked to their reference
counterparts by differential tests:

- :mod:`repro.perf.kernels` — vectorized numpy kernels for histogram
  binning, WAH bitmap coding, sample-sort splitter selection /
  partitioning, and array-merge chunk stitching, registered in
  :data:`REGISTRY` as the ``vectorized`` variant next to their
  ``naive`` reference twins (the only two :data:`VARIANTS`;
  ``REPRO_KERNELS`` picks one at import);
- zero-copy FFS packing (:class:`repro.ffs.PackBuffer`,
  :func:`repro.ffs.encode_into`) used by the compute-side client;
- the bucketed calendar queue in :class:`repro.sim.engine.Engine` and
  batched :meth:`~repro.core.scheduler.MovementScheduler.wait_clear`
  wakeups.

:mod:`repro.perf.bench` drives micro-benchmarks over all of them and
emits ``BENCH_*.json`` sidecars consumed by the perf-regression test
harness (``tests/test_perf_regression.py``) and CI.
"""

from repro.perf.registry import (
    REGISTRY,
    VARIANTS,
    KernelRegistry,
    kernel_variant,
    use_kernels,
)
from repro.perf import kernels  # noqa: E402  (registers naive + vectorized)

__all__ = [
    "kernels",
    "REGISTRY",
    "VARIANTS",
    "KernelRegistry",
    "kernel_variant",
    "use_kernels",
]
