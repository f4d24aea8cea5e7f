"""The lossy-datagram runtime: SINTRA over its own sliding-window links."""

import pytest

from repro.core.agreement import BinaryAgreement
from repro.core.broadcast import ReliableBroadcast
from repro.core.channel import AtomicChannel
from repro.net.latency import lan_latency
from repro.net.lossy import LossyLinkRuntime

from tests.conftest import cached_group


def _runtime(loss=0.1, duplicate=0.05, seed=1, **kwargs):
    return LossyLinkRuntime(
        cached_group(), latency=lan_latency(), seed=seed,
        loss=loss, duplicate=duplicate, rto=0.05, **kwargs,
    )


def test_broadcast_over_lossy_links():
    rt = _runtime()
    rbcs = [ReliableBroadcast(ctx, "lossy-rbc", 0) for ctx in rt.contexts]
    rbcs[0].send(b"through the noise")
    values = rt.run_all([r.delivered for r in rbcs], limit=600)
    assert values == [b"through the noise"] * 4
    assert rt.datagrams_lost > 0  # the channel really was lossy
    assert not rt.router_errors()


def test_agreement_over_lossy_links():
    rt = _runtime(seed=2)
    abas = [BinaryAgreement(ctx, "lossy-aba") for ctx in rt.contexts]
    for i, a in enumerate(abas):
        a.propose(i % 2)
    results = rt.run_all([a.decided for a in abas], limit=3000)
    assert len({v for v, _ in results}) == 1


def test_atomic_channel_over_lossy_links():
    rt = _runtime(seed=3)
    chans = [AtomicChannel(ctx, "lossy-at") for ctx in rt.contexts]
    for k in range(3):
        chans[k % 4].send(b"n%d" % k)
    got = {i: [] for i in range(4)}

    def reader(i):
        while len(got[i]) < 3:
            payload = yield chans[i].receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i)) for i in range(4)]
    for p in procs:
        rt.run_until(p.future, limit=3000)
    assert all(got[i] == got[0] for i in range(4))


@pytest.mark.parametrize("loss", [0.0, 0.25, 0.4])
def test_heavy_loss_still_reliable(loss):
    """Even 40% datagram loss only slows the protocols down."""
    rt = _runtime(loss=loss, duplicate=0.1, seed=int(loss * 100))
    rbcs = [ReliableBroadcast(ctx, "heavy", 1) for ctx in rt.contexts]
    rbcs[1].send(b"x")
    values = rt.run_all([r.delivered for r in rbcs], limit=3000)
    assert values == [b"x"] * 4


def test_loss_costs_time_not_correctness():
    def completion(loss, seed=7):
        rt = _runtime(loss=loss, duplicate=0.0, seed=seed)
        rbcs = [ReliableBroadcast(ctx, "timing", 0) for ctx in rt.contexts]
        rbcs[0].send(b"x")
        rt.run_all([r.delivered for r in rbcs], limit=3000)
        return rt.now

    assert completion(0.5) > completion(0.0)


def test_fifo_preserved_over_reordering_channel():
    """The window layer restores per-pair FIFO even though datagram
    latencies are independently jittered."""
    from repro.core.protocol import Protocol

    rt = _runtime(loss=0.2, seed=9)

    class Collector(Protocol):
        schemas = {"m": int}

        def __init__(self, ctx):
            super().__init__(ctx, "fifo")
            self.seen = []

        def on_message(self, sender, mtype, payload):
            self.seen.append(payload)

    protos = [Collector(ctx) for ctx in rt.contexts]

    def burst():
        for k in range(15):
            protos[0].unicast(1, "m", k)

    rt.run_on_node(0, burst)
    rt.run(until=60)
    assert protos[1].seen == list(range(15))
