"""Unit tests for simulation resources (Resource/Store/Mailbox/SharedBandwidth)."""

import pytest

from repro.sim import Engine, Mailbox, Resource, SharedBandwidth, SimulationError, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    grant_times = []

    def user(env, hold):
        req = res.request()
        yield req
        grant_times.append(env.now)
        yield env.timeout(hold)
        res.release()

    for _ in range(3):
        eng.process(user(eng, 5.0))
    eng.run()
    # Two granted at t=0, the third when a unit frees at t=5.
    assert grant_times == [0.0, 0.0, pytest.approx(5.0)]


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(env, name):
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(1.0)
        res.release()

    for name in ("first", "second", "third"):
        eng.process(user(eng, name))
    eng.run()
    assert order == ["first", "second", "third"]


def test_resource_release_without_grant_raises():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_use_helper():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def proc(env):
        yield env.process(res.use(3.0))
        return env.now

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == pytest.approx(3.0)
    assert res.in_use == 0


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


# ---------------------------------------------------------------- Store
def test_store_fifo():
    eng = Engine()
    store = Store(eng)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1.0)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    eng.process(producer(eng))
    eng.process(consumer(eng))
    eng.run()
    assert [i for _, i in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    result = []

    def consumer(env):
        item = yield store.get()
        result.append((env.now, item))

    def producer(env):
        yield env.timeout(7.0)
        store.put("x")

    eng.process(consumer(eng))
    eng.process(producer(eng))
    eng.run()
    assert result == [(pytest.approx(7.0), "x")]


def test_store_bounded_put_blocks():
    eng = Engine()
    store = Store(eng, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a", env.now))
        yield store.put("b")  # blocks until consumer gets "a"
        log.append(("b", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        item = yield store.get()
        log.append((item, env.now))

    eng.process(producer(eng))
    eng.process(consumer(eng))
    eng.run()
    assert ("b", pytest.approx(5.0)) in [(n, t) for n, t in log]


def test_store_len():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    eng.run()
    assert len(store) == 2


# ---------------------------------------------------------------- Mailbox
def test_mailbox_matches_source_and_tag():
    eng = Engine()
    mb = Mailbox(eng)
    mb.deliver(source=1, tag="a", payload="m1")
    mb.deliver(source=2, tag="b", payload="m2")

    def proc(env):
        src, tag, payload = yield mb.receive(source=2, tag="b")
        return (src, tag, payload)

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == (2, "b", "m2")
    assert mb.pending == 1


def test_mailbox_wildcard_receive():
    eng = Engine()
    mb = Mailbox(eng)

    def receiver(env):
        src, tag, payload = yield mb.receive()
        return payload

    def sender(env):
        yield env.timeout(2.0)
        mb.deliver(source=9, tag=7, payload="late")

    p = eng.process(receiver(eng))
    eng.process(sender(eng))
    eng.run()
    assert p.value == "late"


def test_mailbox_fifo_within_class():
    eng = Engine()
    mb = Mailbox(eng)
    mb.deliver(1, 0, "first")
    mb.deliver(1, 0, "second")

    def proc(env):
        _, _, a = yield mb.receive(source=1, tag=0)
        _, _, b = yield mb.receive(source=1, tag=0)
        return (a, b)

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == ("first", "second")


# ------------------------------------------------------- SharedBandwidth
def test_single_transfer_time():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)  # bytes/s

    def proc(env):
        yield pipe.transfer(500.0)
        return env.now

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == pytest.approx(5.0)


def test_two_concurrent_transfers_share_rate():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)
    done = {}

    def proc(env, name, size):
        yield pipe.transfer(size)
        done[name] = env.now

    eng.process(proc(eng, "a", 500.0))
    eng.process(proc(eng, "b", 500.0))
    eng.run()
    # Equal shares: both finish at 10 s instead of 5 s.
    assert done["a"] == pytest.approx(10.0)
    assert done["b"] == pytest.approx(10.0)


def test_short_transfer_releases_bandwidth():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)
    done = {}

    def proc(env, name, size):
        yield pipe.transfer(size)
        done[name] = env.now

    eng.process(proc(eng, "short", 100.0))
    eng.process(proc(eng, "long", 1000.0))
    eng.run()
    # short: shares 50 B/s until done at t=2; long then has 100 B/s.
    assert done["short"] == pytest.approx(2.0)
    # long moved 100 bytes by t=2, remaining 900 at full rate -> t=11.
    assert done["long"] == pytest.approx(11.0)


def test_staggered_arrival():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)
    done = {}

    def proc(env, name, size, start):
        yield env.timeout(start)
        yield pipe.transfer(size)
        done[name] = env.now

    eng.process(proc(eng, "a", 1000.0, 0.0))
    eng.process(proc(eng, "b", 200.0, 5.0))
    eng.run()
    # a alone 0-5s moves 500B; shared 50B/s each. b finishes 200/50=4s -> t=9.
    assert done["b"] == pytest.approx(9.0)
    # a: 500 moved by t=5, 200 more by t=9, 300 left at full rate -> t=12.
    assert done["a"] == pytest.approx(12.0)


def test_weighted_sharing():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)
    done = {}

    def proc(env, name, size, weight):
        yield pipe.transfer(size, weight=weight)
        done[name] = env.now

    eng.process(proc(eng, "heavy", 300.0, 3.0))
    eng.process(proc(eng, "light", 100.0, 1.0))
    eng.run()
    # heavy gets 75 B/s, light 25 B/s: both end at t=4.
    assert done["heavy"] == pytest.approx(4.0)
    assert done["light"] == pytest.approx(4.0)


def test_zero_byte_transfer_completes_immediately():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=10.0)

    def proc(env):
        yield pipe.transfer(0.0)
        return env.now

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == pytest.approx(0.0)


def test_degradation_halves_rate():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0, degradation=lambda t: 0.5)

    def proc(env):
        yield pipe.transfer(100.0)
        return env.now

    p = eng.process(proc(eng))
    eng.run()
    assert p.value == pytest.approx(2.0)


def test_bytes_moved_accounting():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)

    def proc(env):
        yield pipe.transfer(250.0)
        yield pipe.transfer(750.0)

    eng.process(proc(eng))
    eng.run()
    assert pipe.bytes_moved == pytest.approx(1000.0)


def test_invalid_transfer_args():
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=100.0)
    with pytest.raises(ValueError):
        pipe.transfer(-1.0)
    with pytest.raises(ValueError):
        pipe.transfer(10.0, weight=0.0)
    with pytest.raises(ValueError):
        SharedBandwidth(eng, rate=0.0)


def _co_started_flows(counted, k, *, weight=1.0, degradation=None):
    """k equal flows posted at t=0.25, as one counted transfer or k calls.

    A background flow runs from t=0 and another joins mid-flight at
    t=0.6.  Returns every flow's completion time, the bytes moved and
    ``active_transfers`` sampled while all of them are in the pipe.
    """
    eng = Engine()
    pipe = SharedBandwidth(eng, rate=1100.0, degradation=degradation)
    times = {}
    active = []

    def flow(name, start, size, w=1.0):
        yield eng.timeout(start)
        yield pipe.transfer(size, weight=w)
        times[name] = eng.now

    def group():
        yield eng.timeout(0.25)
        if counted:
            done = pipe.transfer(333.3, weight=weight, count=k)
            yield done
            ends = [done.value] * k
        else:
            members = [pipe.transfer(333.3, weight=weight) for _ in range(k)]
            yield eng.all_of(members)
            ends = [ev.value for ev in members]
        times.update((f"m{i}", end) for i, end in enumerate(ends))

    def sample():
        yield eng.timeout(0.62)
        active.append(pipe.active_transfers)

    eng.process(flow("bg", 0.0, 1234.5))
    eng.process(group())
    eng.process(flow("late", 0.6, 98.7, 0.5))
    eng.process(sample())
    eng.run()
    return times, pipe.bytes_moved, active


def _halved_after_half_second(now):
    return 0.5 if now >= 0.5 else 1.0


@pytest.mark.parametrize(
    "weight, degradation",
    [(1.0, None), (3.0, None), (1.0, _halved_after_half_second)],
    ids=["plain", "weight-3", "degraded"],
)
@pytest.mark.parametrize("k", [1, 4])
def test_counted_transfer_equals_separate_calls(k, weight, degradation):
    counted = _co_started_flows(True, k, weight=weight, degradation=degradation)
    separate = _co_started_flows(False, k, weight=weight, degradation=degradation)
    # exact: the counted entry must reproduce every float of k flows
    assert counted == separate
    times, moved, active = counted
    assert len(times) == k + 2
    assert moved == pytest.approx(1234.5 + 333.3 * k + 98.7)
    assert active == [k + 2]


@pytest.mark.parametrize("count", [0, -2, 1.0, 2.5, True, "3"])
def test_transfer_count_must_be_a_positive_int(count):
    pipe = SharedBandwidth(Engine(), rate=100.0)
    with pytest.raises(ValueError, match="count"):
        pipe.transfer(10.0, count=count)
