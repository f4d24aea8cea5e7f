"""Socket-level chaos: the resilient TCP runtime under injected faults.

The heavyweight end-to-end cases are marked ``chaos`` so CI can run them
as a dedicated smoke job with a pinned seed; they also run in tier-1.
On failure each case prints (and, when ``REPRO_FILE`` is set,
appends) a ``CHAOS-REPRO`` line pinning the campaign seed, mirroring the
fuzz tier's repro artifacts.
"""

import asyncio

import pytest

from repro.core.channel import AtomicChannel
from repro.net.faults import SocketChaosPlan
from repro.testing.netchaos import ChaosFabric, ChaosProxy

from tests.conftest import cached_group


def _run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _drain(channel, count):
    out = []
    while len(out) < count:
        out.append(await channel.receive())
    return out


async def _send_spaced(channels, count, tag, spacing=0.02):
    for k in range(count):
        ch = channels[k % len(channels)]
        while not ch.can_send():
            await asyncio.sleep(0.05)
        ch.send(b"%s-%d" % (tag, k))
        await asyncio.sleep(spacing)


# -- the proxy itself ------------------------------------------------------------


def test_proxy_forwards_cleanly_without_a_plan():
    async def body():
        async def echo(reader, writer):
            while True:
                data = await reader.read(1024)
                if not data:
                    break
                writer.write(data.upper())
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        target = server.sockets[0].getsockname()
        proxy = ChaosProxy(target)
        host, port = await proxy.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"hello chaos")
            await writer.drain()
            reply = await reader.read(1024)
            writer.close()
            return reply, proxy.connections
        finally:
            await proxy.stop()
            server.close()
            await server.wait_closed()

    reply, connections = _run(body())
    assert reply == b"HELLO CHAOS"
    assert connections == 1


def test_proxy_blackhole_rejects_new_connections():
    async def body():
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        proxy = ChaosProxy(server.sockets[0].getsockname())
        host, port = await proxy.start()
        proxy.blackholed = True
        try:
            reader, writer = await asyncio.open_connection(host, port)
            data = await reader.read(100)  # aborted immediately: EOF/reset
            writer.close()
            return data, proxy.connections
        except ConnectionError:
            return b"", proxy.connections
        finally:
            await proxy.stop()
            server.close()
            await server.wait_closed()

    data, connections = _run(body())
    assert data == b""
    assert connections == 0


# -- end-to-end resilience -------------------------------------------------------


@pytest.mark.chaos
def test_atomic_broadcast_survives_socket_chaos(fuzz_seed, chaos_repro):
    """Resets + stalls + corruption between real TcpNodes: every honest
    party still delivers the identical sequence with zero frame loss, and
    the reconnect/retransmission counters prove the resilience path ran."""

    total = 12

    async def body():
        plan = SocketChaosPlan(
            reset_prob=0.04, stall_prob=0.1, stall_s=0.01, corrupt_prob=0.03
        )
        fabric = ChaosFabric(4, plan, seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        nodes = fabric.make_nodes(
            group, connect_retry_s=0.02, rto=0.15, backoff_cap=0.3,
            heartbeat_s=0.1, suspect_after=1.0, down_after=3.0,
        )
        await asyncio.gather(*(node.start() for node in nodes))
        try:
            channels = [AtomicChannel(node.ctx, "chaos") for node in nodes]
            await _send_spaced(channels, total, b"chaos")
            sequences = await asyncio.gather(
                *(_drain(ch, total) for ch in channels)
            )
            return sequences, [n.stats() for n in nodes], fabric.injected()
        finally:
            await asyncio.gather(*(node.stop() for node in nodes))
            await fabric.stop()

    try:
        sequences, stats, injected = _run(body())
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise
    # total order and zero loss at the channel layer
    assert all(seq == sequences[0] for seq in sequences)
    assert sorted(sequences[0]) == sorted(
        b"chaos-%d" % k for k in range(total)
    )
    # chaos actually happened and the resilience machinery absorbed it
    assert injected["resets"] + injected["truncations"] > 0, injected
    assert sum(s["reconnects"] for s in stats) > 0
    assert sum(s["retransmissions"] for s in stats) > 0


@pytest.mark.chaos
def test_recovery_after_peer_connections_killed_midrun(fuzz_seed, chaos_repro):
    """Kill and blackhole one peer's connections mid-broadcast, then heal:
    the supervisors reconnect, sessions resume, all parties converge."""

    per_phase = 4

    async def body():
        fabric = ChaosFabric(4, SocketChaosPlan(), seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        nodes = fabric.make_nodes(
            group, connect_retry_s=0.02, rto=0.15, backoff_cap=0.3,
            heartbeat_s=0.1,
        )
        await asyncio.gather(*(node.start() for node in nodes))
        try:
            channels = [AtomicChannel(node.ctx, "kill") for node in nodes]
            await _send_spaced(channels, per_phase, b"pre")

            # node 2's network dies: every connection through its proxy is
            # aborted and new ones are refused while we keep broadcasting
            victim = fabric.proxies[2]
            victim.blackholed = True
            victim.kill_connections()
            await _send_spaced(channels, per_phase, b"mid")
            await asyncio.sleep(0.3)
            victim.blackholed = False  # heal

            await _send_spaced(channels, per_phase, b"post")
            sequences = await asyncio.gather(
                *(_drain(ch, 3 * per_phase) for ch in channels)
            )
            reconnects = [n.stats()["reconnects"] for n in nodes]
            return sequences, reconnects
        finally:
            await asyncio.gather(*(node.stop() for node in nodes))
            await fabric.stop()

    try:
        sequences, reconnects = _run(body())
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise
    assert all(seq == sequences[0] for seq in sequences)
    expected = sorted(
        b"%s-%d" % (tag, k)
        for tag in (b"pre", b"mid", b"post")
        for k in range(per_phase)
    )
    assert sorted(sequences[0]) == expected
    assert sum(reconnects) > 0


@pytest.mark.chaos
def test_remaining_three_deliver_after_one_peer_dies(fuzz_seed, chaos_repro):
    """Killing one of 4 peers outright (its node stops, its links go
    down) still lets the remaining n - t = 3 deliver."""

    total = 6

    async def body():
        fabric = ChaosFabric(4, SocketChaosPlan(), seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        nodes = fabric.make_nodes(
            group, connect_retry_s=0.02, rto=0.15, backoff_cap=0.3,
            heartbeat_s=0.1, suspect_after=0.5, down_after=1.5,
        )
        await asyncio.gather(*(node.start() for node in nodes))
        survivors = nodes[:3]
        try:
            channels = [AtomicChannel(node.ctx, "die") for node in nodes]
            # the victim dies before contributing anything
            await nodes[3].stop()
            fabric.proxies[3].blackholed = True
            fabric.proxies[3].kill_connections()

            await _send_spaced(channels[:3], total, b"alive")
            sequences = await asyncio.gather(
                *(_drain(ch, total) for ch in channels[:3])
            )
            await asyncio.sleep(1.6)  # let the detector classify the corpse
            states = [n.peer_states()[3] for n in survivors]
            return sequences, states
        finally:
            await asyncio.gather(*(node.stop() for node in survivors))
            await fabric.stop()

    try:
        sequences, states = _run(body())
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise
    assert all(seq == sequences[0] for seq in sequences)
    assert sorted(sequences[0]) == sorted(b"alive-%d" % k for k in range(total))
    assert all(state in ("suspect", "down") for state in states)
