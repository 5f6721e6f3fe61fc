"""Tests: custom chunk ordering (§IV.C) and network model details."""

from math import ceil, log2

import numpy as np
import pytest

from tests.helpers import PARTICLE_GROUP, particle_step
from repro.adios import OutputStep
from repro.core import PreDatA, PreDatAOperator
from repro.core.staging import StagingConfig
from repro.machine import Machine, Network, NetworkConfig, TESTING_TINY, TorusTopology
from repro.mpi import World
from repro.sim import Engine, SharedBandwidth


# ---------------------------------------------------- chunk ordering
class OrderRecorder(PreDatAOperator):
    """Records the rank order in which chunks stream through Map."""

    name = "recorder"

    def __init__(self):
        self.order: list[int] = []

    def partial_calculate(self, step):
        # attach the chunk's key range so orderings can use it
        return float(np.atleast_2d(step.values["electrons"])[:, 0].min())

    def map(self, ctx, step):
        self.order.append(step.rank)
        return []

    def map_flops(self, step):
        return 0.0


def run_with_order(chunk_order):
    eng = Engine()
    machine = Machine(eng, 8, 1, spec=TESTING_TINY, fs_interference=False)
    world = World(eng, machine.network, list(range(8)),
                  node_lookup=machine.node)
    op = OrderRecorder()
    predata = PreDatA(eng, machine, PARTICLE_GROUP, [op],
                      ncompute_procs=8, nsteps=1,
                      procs_per_staging_node=1,
                      chunk_order=chunk_order)
    predata.start()

    def app(comm):
        step = particle_step(comm.rank, 8, 20)
        # skew arrival so arrival order != rank order
        yield from comm.sleep((7 - comm.rank) * 0.01)
        yield from predata.transport.write_step(comm, step)

    world.spawn(app)
    eng.run()
    return op.order


def test_default_order_is_by_rank():
    order = run_with_order(None)
    assert order == sorted(order)


def test_custom_order_descending_rank():
    order = run_with_order(
        lambda reqs: sorted(reqs, key=lambda r: -r.compute_rank)
    )
    assert order == sorted(order, reverse=True)


def test_custom_order_by_attached_partial():
    # order chunks by their minimum key — the §IV.C use case of easing
    # analysis implementations via stream ordering
    order = run_with_order(
        lambda reqs: sorted(reqs, key=lambda r: r.partials["recorder"])
    )
    assert len(order) == 8  # all chunks processed exactly once
    assert sorted(order) == list(range(8))


def test_chunk_order_must_be_callable():
    with pytest.raises(ValueError):
        StagingConfig(chunk_order=42)


# ------------------------------------------------------ network detail
def test_contended_collective_model_nprocs_prices_larger_job():
    eng = Engine()
    topo = TorusTopology(8)
    net = Network(eng, topo, NetworkConfig())
    times = {}

    def run(model):
        def body():
            t = yield from net.contended_collective(
                "allreduce", [0, 1, 2, 3], 1e6, model_nprocs=model
            )
            return t

        p = eng.process(body())
        eng.run()
        return p.value

    t_small = run(None)
    t_big = run(4096)
    assert t_big > t_small


def test_transfer_event_wrapper():
    eng = Engine()
    topo = TorusTopology(4)
    net = Network(eng, topo, NetworkConfig(link_bandwidth=1e6, latency=0.0,
                                           hop_latency=0.0))
    ev = net.transfer_event(0, 1, 1e6)

    def waiter(env):
        yield ev
        return env.now

    p = eng.process(waiter(eng))
    eng.run()
    assert p.value == pytest.approx(1.0, rel=0.05)


def test_backbone_carries_cross_machine_traffic():
    eng = Engine()
    topo = TorusTopology(27)
    net = Network(eng, topo, NetworkConfig(latency=0.0, hop_latency=0.0))

    def mover():
        yield from net.transfer(0, 26, 1e6)

    eng.process(mover())
    eng.run()
    assert net.backbone.bytes_moved == pytest.approx(1e6)


def test_single_rank_collective_free():
    eng = Engine()
    topo = TorusTopology(4)
    net = Network(eng, topo, NetworkConfig())

    def body():
        t = yield from net.contended_collective("allreduce", [2], 1e9)
        return t

    p = eng.process(body())
    eng.run()
    assert p.value == 0.0


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(link_bandwidth=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(latency=-1.0)
    with pytest.raises(ValueError):
        NetworkConfig(rdma_setup=-1.0)


# ------------------------------------- counted flows in collectives
def _per_rank_collective(net, kind, ranks_nodes, nbytes):
    """Reference: one tx and one rx flow per rank, as before counted flows."""
    p = len(ranks_nodes)
    start = net.env.now
    cfg = net.config
    base = net.collective_time(kind, p, nbytes)
    wire_time = max(base - cfg.latency * ceil(log2(p)), 0.0)
    wire_bytes = wire_time * cfg.link_bandwidth
    yield net.env.timeout(cfg.latency * ceil(log2(p)))
    events = []
    for node in ranks_nodes:
        nic = net.nic(node)
        events.append(nic.tx.transfer(wire_bytes))
        events.append(nic.rx.transfer(wire_bytes))
    yield net.env.all_of(events)
    return net.env.now - start


def _interleaved_collective_run(collective, ranks_nodes):
    """Allreduce over ranks on *ranks_nodes* while a point-to-point
    transfer out of node 0 joins mid-flight.

    Returns ``(end time, total_bytes, pipe completion pops)``; each pop
    is ``(pipe label, time)``, with a pipe's same-instant members
    collapsed into one entry.
    """
    eng = Engine()
    net = Network(eng, TorusTopology(8), NetworkConfig())
    pops = []

    def watch(label, pipe):
        transfer = pipe.transfer

        def recording(nbytes, **kw):
            ev = transfer(nbytes, **kw)
            ev._add_callback(lambda _ev: pops.append((label, eng.now)))
            return ev

        pipe.transfer = recording

    for node in range(4):
        nic = net.nic(node)
        watch(f"tx{node}", nic.tx)
        watch(f"rx{node}", nic.rx)

    def coll():
        yield from collective(net, "allreduce", ranks_nodes, 1e6)
        return eng.now

    def p2p():
        yield eng.timeout(1e-4)
        yield from net.transfer(0, 3, 1e6)

    proc = eng.process(coll())
    eng.process(p2p())
    eng.run()
    collapsed = [pop for i, pop in enumerate(pops) if i == 0 or pops[i - 1] != pop]
    return proc.value, net.total_bytes(), collapsed


def test_contended_collective_posts_one_counted_flow_per_node(monkeypatch):
    eng = Engine()
    net = Network(eng, TorusTopology(8), NetworkConfig())
    calls = []
    transfer = SharedBandwidth.transfer

    def counting(self, nbytes, **kw):
        calls.append((self, kw.get("count", 1)))
        return transfer(self, nbytes, **kw)

    monkeypatch.setattr(SharedBandwidth, "transfer", counting)
    ranks_nodes = [0, 1, 0, 2, 1, 0, 3]

    def body():
        yield from net.contended_collective("allreduce", ranks_nodes, 1e6)

    eng.process(body())
    eng.run()
    expected = {}
    for node, k in ((0, 3), (1, 2), (2, 1), (3, 1)):
        expected[id(net.nic(node).tx)] = k
        expected[id(net.nic(node).rx)] = k
    assert len(calls) == 8
    assert {id(pipe): k for pipe, k in calls} == expected


#: the collective's end time on both maps below, recorded with the
#: per-rank flow loop; any change to the pipe's float arithmetic moves it
PER_RANK_END = "0.0007012500000000002"


# [0, 1, 2, 1, 0]: nodes 0 and 1 finish at one instant and their first
# and last appearances come in opposite orders, so the pop order shows
# which one the counted flows follow.
@pytest.mark.parametrize("ranks_nodes", [[0, 1, 0, 2, 1], [0, 1, 2, 1, 0]])
def test_counted_collective_matches_per_rank_flows_under_contention(ranks_nodes):
    counted = _interleaved_collective_run(Network.contended_collective, ranks_nodes)
    reference = _interleaved_collective_run(_per_rank_collective, ranks_nodes)
    assert counted == reference
    end, total, pops = counted
    # the p2p flow shared node 0's tx pipe with the collective
    assert [label for label, _ in pops].count("tx0") == 2
    assert total == 1e6
    assert repr(end) == PER_RANK_END
