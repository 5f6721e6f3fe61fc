"""Event-engine benchmark: queue backends, guarded.

The calendar queue is guarded near parity with the C-implemented heap
(it wins on same-timestamp bursts, which is what staged pipelines
produce, and must never fall far behind elsewhere).
"""

from __future__ import annotations

import pytest

from repro.perf import bench

pytestmark = pytest.mark.perf


def test_engine_fast_paths_hold(bench_guard):
    record = bench_guard("engine", bench.bench_engine())
    assert record["burst_events"] > 0
