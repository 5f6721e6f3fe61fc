"""FFS packing benchmark: allocate-per-step encode vs zero-copy
``encode_into`` with a warm scratch, guarded.

``no_growth_after_warmup`` is a hard invariant, not a timing: once the
scratch reached capacity, steady-state packing must never reallocate.
"""

from __future__ import annotations

import pytest

from repro.perf import bench

pytestmark = pytest.mark.perf


def test_encode_into_packing_holds(bench_guard):
    record = bench_guard("ffs", bench.bench_ffs())
    assert record["scratch_grows_after_warmup"] == 0
