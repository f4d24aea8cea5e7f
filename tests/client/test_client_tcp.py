"""End-to-end client over real TCP with a SIGKILLed contact replica.

The chaos-tier acceptance scenario: an external :class:`TcpClient` talks
to a 4-replica group whose replica-to-replica mesh runs through the
seeded chaos fabric.  The contact replica is killed outright mid-request
(all in-memory state destroyed, sockets aborted, client listener gone);
the client's timeout/failover must still produce the correct reply, and
the command must execute **exactly once** on every replica.  The victim
is then restarted and recovered — its dedup table, rebuilt from the
fsync'd WAL and certified checkpoints, must suppress a raw resubmission
of an already-executed request without re-executing it.

Failures print a ``CHAOS-REPRO`` line pinning the campaign seed.
"""

import asyncio

import pytest

from repro.client.dedup import DedupStateMachine
from repro.client.protocol import MSG_HELLO, MSG_REPLY, MSG_REQUEST, STATUS_OK
from repro.client.tcpnet import TcpClient, _framed
from repro.common.encoding import decode, encode
from repro.net.faults import SocketChaosPlan
from repro.net.tcp import _LEN, local_endpoints
from repro.obs import MemoryRecorder, bench_dir_from_env, make_record, write_record
from repro.testing.netchaos import ChaosFabric, ReplicaProcess

from tests.conftest import cached_group
from tests.recovery.test_service_sim import RCounter

pytestmark = [pytest.mark.chaos, pytest.mark.client]

NODE_KWARGS = dict(
    connect_retry_s=0.02, rto=0.15, backoff_cap=0.3,
    heartbeat_s=0.1, suspect_after=1.0, down_after=3.0,
)
SERVICE_KWARGS = dict(checkpoint_interval=4, fsync="always", pull_retry_s=0.3)


def _run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def _wait(predicate, timeout=60.0, what="condition"):
    for _ in range(int(timeout / 0.05)):
        if predicate():
            return
        await asyncio.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


async def _raw_resubmit(endpoint, client_id, seq, command, timeout=10.0):
    """Replay one request frame over a fresh connection; return the reply."""
    reader, writer = await asyncio.open_connection(*endpoint)
    try:
        writer.write(_framed(encode((MSG_HELLO, client_id))))
        writer.write(_framed(encode((MSG_REQUEST, client_id, seq, command))))
        await writer.drain()
        header = await asyncio.wait_for(reader.readexactly(_LEN.size), timeout)
        (length,) = _LEN.unpack(header)
        payload = await asyncio.wait_for(reader.readexactly(length), timeout)
        return decode(payload)
    finally:
        writer.close()


def test_contact_killed_midrequest_failover_exactly_once(fuzz_seed, tmp_path, chaos_repro):
    """Kill the contact replica with a request in flight: the reply still
    arrives (t+1 vote over the survivors) and the command applies exactly
    once; the recovered victim then serves a resubmission from its
    rebuilt dedup cache instead of re-executing it."""

    async def body():
        plan = SocketChaosPlan(stall_prob=0.05, stall_s=0.01)
        fabric = ChaosFabric(4, plan, seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        client_eps = local_endpoints(4)
        replicas = [
            ReplicaProcess(
                fabric, group, i,
                lambda: DedupStateMachine(RCounter()),
                str(tmp_path / f"replica{i}"),
                recorder_factory=MemoryRecorder,
                service_kwargs=SERVICE_KWARGS,
                client_endpoint=client_eps[i],
                **NODE_KWARGS,
            )
            for i in range(group.n)
        ]
        await asyncio.gather(*(r.start() for r in replicas))
        client_obs = MemoryRecorder()
        client = TcpClient(
            client_eps, group.t, "alice",
            seed=fuzz_seed, obs=client_obs, timeout=0.5, contact=0,
        )
        await client.start()
        try:
            await _wait(lambda: client.connected() == 4,
                        what="client sessions on all replicas")

            # Phase 1: normal sequential requests through contact 0.
            total = 0
            for k in range(1, 5):
                total += k
                result = await asyncio.wait_for(
                    client.submit(b"add:%d" % k), 30)
                assert int(result) == total

            # Phase 2: SIGKILL the contact with a request in flight.  The
            # reply must come anyway — either the dying contact got the
            # envelope ordered, or the client's timeout fails over to the
            # survivors — and it must execute exactly once either way.
            fut = client.submit(b"add:100")
            await replicas[0].kill()
            total += 100
            result = await asyncio.wait_for(asyncio.ensure_future(fut), 60)
            assert int(result) == total
            await _wait(
                lambda: all(r.service.state.inner.value == total
                            for r in replicas[1:]),
                what="survivors converging after the kill",
            )
            survivor_digests = {
                r.service.last_state_digest() for r in replicas[1:]
            }
            assert len(survivor_digests) == 1

            # Phase 3: restart + recover the victim; its dedup table comes
            # back from the WAL/checkpoint with everything else.
            await replicas[0].restart()
            await replicas[0].recover(timeout=60)
            await _wait(
                lambda: replicas[0].service.state.inner.value == total,
                what="victim catching up to the group state",
            )

            # Phase 4: replay an executed request (seq 0 -> reply b"1")
            # straight at the recovered victim.  Served from the rebuilt
            # cache: same bytes, no re-execution.
            reply = await _raw_resubmit(client_eps[0], "alice", 0, b"add:1")
            dedup_hits = replicas[0].recorder.counters.get(
                "reqserver.dedup_hits", 0)
            values = [r.service.state.inner.value for r in replicas]
            digests = [r.service.last_state_digest() for r in replicas]
            return {
                "reply": reply,
                "dedup_hits": dedup_hits,
                "values": values,
                "digests": digests,
                "total": total,
                "client_requests": client_obs.counters.get(
                    "client.requests", 0),
                "client_completed": client_obs.counters.get(
                    "client.completed", 0),
                "client_recorder": client_obs,
            }
        finally:
            await client.stop()
            for replica in replicas:
                if replica.node is not None:
                    await replica.stop()
            await fabric.stop()

    try:
        out = _run(body(), timeout=180)
        # A non-reconfigurable service advertises epoch 0, empty digest.
        assert out["reply"] == (MSG_REPLY, 0, STATUS_OK, b"1", 0, b"")
        assert out["dedup_hits"] >= 1  # served from the recovered cache
        # Exactly once, everywhere, including the resurrected victim.
        assert set(out["values"]) == {out["total"]}
        assert len(set(out["digests"])) == 1
        assert out["client_completed"] == out["client_requests"] == 5
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise

    # Export the run's client.* counters and e2e phase through the BENCH
    # pipeline (wall-clock based and not in the baseline, so informational
    # rather than gated — the gated client latency comes from the
    # deterministic simulator bench, benchmarks/test_bench_client.py).
    record = make_record(
        "client_chaos_failover",
        experiment="client",
        meta={"n": 4, "t": 1, "seed": hex(fuzz_seed)},
        metrics={
            "requests": out["client_requests"],
            "completed": out["client_completed"],
            "dedup_hits": out["dedup_hits"],
        },
        recorder=out["client_recorder"],
    )
    out_dir = bench_dir_from_env() or str(tmp_path / "bench")
    write_record(out_dir, record)
