"""Tests for the pub/sub step-streaming subsystem (repro.stream)."""

import json
from pathlib import Path

import numpy as np
import pytest

from tests.helpers import assert_cli_rejects
from repro.apps.readers import InTransitAnalysisReader, ParticleTrackingFollower
from repro.check.stream import StreamChecker
from repro.dataspaces import DataSpaces, Region
from repro.machine import Machine, TESTING_TINY
from repro.obs import Observability
from repro.perf.bench import compare
from repro.sim import Engine
from repro.stream import (
    ConsumerGroup,
    StepStream,
    StreamConfig,
    member_charge_bytes,
    member_pieces,
)
from repro.stream.bench import bench_stream
from repro.stream.scenario import make_field, run_stream

GRID = 32
DOMAIN = Region((0, 0), (GRID, GRID))


def build_stream(
    *, nservers=2, nconsumers=4, redeliver=0.0, seed=5, checker=None
):
    eng = Engine()
    machine = Machine(
        eng, 4 + nconsumers, nservers, spec=TESTING_TINY, fs_interference=False
    )
    ds = DataSpaces(eng, machine, list(machine.staging_node_ids))
    ds.declare("field", (GRID, GRID))
    checker = checker if checker is not None else StreamChecker()
    stream = StepStream(
        eng, machine, ds,
        StreamConfig(redeliver_rate=redeliver, seed=seed),
        checker=checker,
    )
    return eng, ds, stream, checker


def put_step(ds, stream, step, *, close=False):
    """Process body: write one full-domain step and publish it."""
    data = make_field(step, GRID, 3)
    yield from ds.put(0, "field", DOMAIN, data)
    stream.publish("field", step)
    if close:
        stream.close()


# ------------------------------------------------------- delivery basics
def test_subscriber_receives_each_step_exactly_once():
    eng, ds, stream, checker = build_stream()
    group = ConsumerGroup(
        eng, stream, "field", DOMAIN, [4, 5], catchup="none", name="g"
    )
    group.start()

    def driver():
        for s in range(4):
            yield eng.timeout(0.1)
            yield from put_step(ds, stream, s, close=(s == 3))

    eng.process(driver())
    eng.run()
    for m in range(2):
        assert group.sub.seen[m] == {0, 1, 2, 3}
        assert group.sub.stats[m].consumed_steps == [0, 1, 2, 3]
    assert checker.violations() == []


def test_mid_run_join_catches_up_from_latest_committed():
    eng, ds, stream, checker = build_stream()
    group = ConsumerGroup(
        eng, stream, "field", DOMAIN, [4], catchup="latest", name="late"
    )

    def driver():
        for s in range(3):
            yield eng.timeout(0.1)
            yield from put_step(ds, stream, s)
        group.start()  # joins mid-run: steps 0-2 already committed
        for s in (3, 4):
            yield eng.timeout(0.1)
            yield from put_step(ds, stream, s, close=(s == 4))

    eng.process(driver())
    eng.run()
    # catch-up starts from the latest committed step, then every
    # subsequent step arrives exactly once
    assert group.sub.feed[0].step == 2
    assert group.sub.seen[0] == {2, 3, 4}
    assert group.sub.stats[0].consumed_steps == [2, 3, 4]
    assert checker.violations() == []


def test_catchup_none_skips_history():
    eng, ds, stream, checker = build_stream()
    group = ConsumerGroup(
        eng, stream, "field", DOMAIN, [4], catchup="none", name="fresh"
    )

    def driver():
        yield from put_step(ds, stream, 0)
        group.start()
        yield eng.timeout(0.1)
        yield from put_step(ds, stream, 1, close=True)

    eng.process(driver())
    eng.run()
    assert group.sub.seen[0] == {1}
    assert checker.violations() == []


def test_unsubscribed_group_stops_receiving():
    eng, ds, stream, checker = build_stream()
    group = ConsumerGroup(
        eng, stream, "field", DOMAIN, [4, 5], catchup="none", name="quitter"
    )
    group.start()

    def driver():
        for s in range(2):
            yield eng.timeout(0.1)
            yield from put_step(ds, stream, s)
        yield eng.timeout(0.2)  # let deliveries drain
        group.leave()
        for s in (2, 3):
            yield eng.timeout(0.1)
            yield from put_step(ds, stream, s)
        stream.close()

    eng.process(driver())
    eng.run()
    # steps published after the unsubscribe never reach the group, and
    # everything entitled before it was delivered and consumed
    for m in range(2):
        assert group.sub.seen[m] == {0, 1}
    assert all(t is not None for t in group.finished)
    assert checker.violations() == []


def test_at_least_once_redelivery_is_deduplicated():
    eng, ds, stream, checker = build_stream(redeliver=0.6, seed=9)
    group = ConsumerGroup(
        eng, stream, "field", DOMAIN, [4, 5], catchup="none", name="lossy"
    )
    group.start()

    def driver():
        for s in range(5):
            yield eng.timeout(0.05)
            yield from put_step(ds, stream, s, close=(s == 4))

    eng.process(driver())
    eng.run()
    # the lossy-ack channel really resends...
    assert group.deduped > 0
    assert group.sent == group.delivered + group.deduped
    # ...but each subscriber observes every step exactly once
    for m in range(2):
        assert group.sub.seen[m] == set(range(5))
    assert checker.violations() == []


# ------------------------------------------------------- partitioning
@pytest.mark.parametrize("nmembers", [1, 2, 3, 5])
def test_member_partition_is_disjoint_and_covers(nmembers):
    eng, ds, _stream, _ = build_stream()
    idx = ds.index("field")
    region = Region((3, 5), (29, 31))
    cells = set()
    for m in range(nmembers):
        for piece in member_pieces(idx, region, nmembers, m):
            for off in np.ndindex(*piece.shape):
                cell = tuple(o + lo for o, lo in zip(off, piece.lb))
                assert cell not in cells, "partitions overlap"
                cells.add(cell)
    assert len(cells) == region.cells
    total = sum(
        member_charge_bytes(idx, region, nmembers, m)
        for m in range(nmembers)
    )
    assert total == pytest.approx(region.cells * 8.0)


def test_group_fetches_reconstruct_the_data():
    # merged analysis histograms across members == offline histogram of
    # the produced fields (each cell fetched exactly once per step)
    eng, ds, stream, checker = build_stream(nconsumers=3)
    edges = np.linspace(-0.5, 1.5, 9)
    group = ConsumerGroup(
        eng, stream, "field", DOMAIN, [4, 5, 6],
        reader_factory=lambda m: InTransitAnalysisReader(edges),
        catchup="none", name="hist",
    )
    group.start()

    def driver():
        for s in range(3):
            yield eng.timeout(0.1)
            yield from put_step(ds, stream, s, close=(s == 2))

    eng.process(driver())
    eng.run()
    merged = sum(r.counts for r in group.readers)
    expected = np.zeros(edges.size - 1, dtype=np.int64)
    for s in range(3):
        expected += np.histogram(make_field(s, GRID, 3), bins=edges)[0]
    np.testing.assert_array_equal(merged, expected)
    assert checker.violations() == []


# ------------------------------------------------------- backpressure
def test_slow_consumer_lag_bounded_by_credit_budget():
    # producer at 4x the consumer's processing rate; a 2-step budget
    # must bound the delivered-unconsumed lag at budget + 1
    def run_with(credit_bytes):
        eng, ds, stream, checker = build_stream(nconsumers=1)
        group = ConsumerGroup(
            eng, stream, "field", DOMAIN, [4],
            process_seconds=0.4, credit_bytes=credit_bytes,
            catchup="none", name="slow",
        )
        group.start()

        def driver():
            for s in range(10):
                yield eng.timeout(0.1)
                yield from put_step(ds, stream, s, close=(s == 9))

        eng.process(driver())
        eng.run()
        assert checker.violations() == []
        assert group.consumed == 10
        return group.max_lag

    idx_charge = GRID * GRID * 8.0  # single member owns the whole domain
    bounded = run_with(2 * idx_charge)
    unbounded = run_with(None)
    assert bounded <= 3  # credit_steps + 1 (idle-bank admission)
    assert unbounded > bounded  # credits are what bounds it


def test_scenario_slow_group_lag_bounded_under_2x_producer():
    for credit_steps in (1, 2):
        run = run_stream(credit_steps=credit_steps, nsteps=8)
        assert run.violations == []
        assert run.groups["slow"].max_lag <= credit_steps + 1
        assert run.groups["slow"].consumed == run.published


def test_lag_metric_feeds_obs():
    obs = Observability("stream-test")
    run = run_stream(nsteps=4, obs=obs)
    assert run.violations == []
    lags = obs.metrics.labelled("stream_lag_steps")
    assert lags, "stream_lag_steps gauge never recorded"
    assert all(v >= 1 for _, v in lags)
    assert obs.metrics.counter("stream_steps_published", var="field") == 4


# ------------------------------------------------------- scenario/bench
def test_scenario_deterministic_and_seed_sensitive():
    a = run_stream(nsteps=5)
    b = run_stream(nsteps=5)
    c = run_stream(nsteps=5, seed=12)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_scenario_conservation_and_catchup():
    run = run_stream()
    assert run.violations == []
    follower = run.groups["follower"]
    # the follower joined mid-run and caught up from the latest
    # committed step, then saw every later step exactly once
    assert follower.first_step is not None
    assert 0 < follower.first_step < run.nsteps - 1
    assert follower.delivered == follower.entitled
    assert follower.consumed == follower.delivered
    assert run.first_notify_latency > 0.0


def test_follower_trajectory_matches_reference():
    run = run_stream(nsteps=6)
    first = run.groups["follower"].first_step
    expected = []
    for s in range(first, 6):
        f = make_field(s, 48, 11)
        cell = np.unravel_index(int(np.argmax(f)), f.shape)
        expected.append((s, (int(cell[0]), int(cell[1])), float(f[cell])))
    assert run.follower_trajectory == expected


def test_bench_record_guarded_by_committed_baseline():
    record = bench_stream()
    assert record["guards"]["conservation"] == 1.0
    assert record["guards"]["lag_bound:slow"] == 1.0
    base_path = (
        Path(__file__).resolve().parents[1]
        / "benchmarks" / "perf" / "baselines" / "BENCH_stream.json"
    )
    baseline = json.loads(base_path.read_text())
    assert compare(record, baseline) == []
    # bit-identical reproduction of the committed run
    assert record["run"]["digest"] == baseline["run"]["digest"]


# ------------------------------------------------------- checker/unit
def test_stream_checker_flags_losses_and_leaks():
    c = StreamChecker()
    c.on_subscribed(0, 1, 0.0)
    c.on_entitled(0, 0, 0)
    c.on_entitled(0, 0, 1)
    c.on_sent(0, 0, 0)
    c.on_sent(0, 0, 0)
    c.on_delivered(0, 0, 0)
    c.on_consumed(0, 0, 0)
    problems = "\n".join(c.violations())
    assert "wire leak" in problems  # 2 sends, 1 delivery, 0 deduped
    assert "never delivered" in problems  # step 1 entitled, lost
    with pytest.raises(Exception):
        c.verify()


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(notify_bytes=0)
    with pytest.raises(ValueError):
        StreamConfig(redeliver_rate=1.0)
    with pytest.raises(ValueError):
        StreamConfig(max_sends=0)
    with pytest.raises(ValueError):
        StreamConfig(credit_bytes=-1.0)


def test_reader_apps_validate_and_track():
    with pytest.raises(ValueError):
        InTransitAnalysisReader(np.array([1.0]))
    follower = ParticleTrackingFollower()

    class FakeWm:
        step = 7

    data = np.arange(12.0).reshape(3, 4)
    follower.on_step(FakeWm(), [(Region((10, 20), (13, 24)), data)])
    assert follower.trajectory == [(7, (12, 23), 11.0)]


@pytest.mark.parametrize("steps", ["0", "1"])
def test_stream_cli_rejects_fewer_than_two_steps(tmp_path, steps):
    assert_cli_rejects("--steps", "stream", "--steps", steps, "--out", str(tmp_path))
