"""Tests of the benchmark itself: exact counters, attribution, workload choice.

Each workload is run traced twice, in two fresh processes, through the
benchmark command.  Run from the root of a checkout (a few minutes)::

    python3 -m pytest e2ebench/test_e2ebench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from tracer import LAYER_NAMES
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: counters that must be identical in two traced processes
EXACT = (
    "engine.events", "network.bytes", "mpi.reduce_bytes", "resources.wakeups",
    "dataspaces.intersect_calls",
    "flow.acquires", "flow.unspills", "flow.pool_wait_sim_s",
)
#: host time no layer claims, as a share of the traced wall time
UNATTRIBUTED_MAX_SHARE = 0.10


def bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def traced(workload):
    proc = bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def runs():
    return {w: (traced(w), traced(w)) for w in NAMES}


def self_times(metrics):
    return {layer: metrics[f"{layer}.self_s"] for layer in LAYER_NAMES}


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]
    for name in EXACT:
        assert first[name] == second[name], name
    assert first["engine.events"] > 0 and first["network.bytes"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_unattributed_share_is_small(runs, workload):
    for metrics in runs[workload]:
        wall = sum(self_times(metrics).values()) + metrics["unattributed_s"]
        assert metrics["unattributed_s"] <= UNATTRIBUTED_MAX_SHARE * wall


def test_each_workload_stresses_its_layer(runs):
    gtc = self_times(runs["gtc-ops"][0])
    assert max(gtc, key=gtc.get) == "mpi"

    pixie = self_times(runs["pixie3d-mhd"][0])
    assert pixie["resources"] + pixie["engine"] > 0.5 * sum(pixie.values())

    for workload, (metrics, _) in runs.items():
        busy = metrics["dataspaces.self_s"] > 0
        assert busy == (workload == "dataspaces-query"), workload

    chaos = runs["chaos-flow"][0]
    assert chaos["faults.restarts"] > 0 and chaos["flow.unspills"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("out"))
    proc = bench(tmp_path, "chaos-flow", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
