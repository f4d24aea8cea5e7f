"""Crash recovery × batching: a replica SIGKILLed mid-batch catches up.

Same harness as :mod:`tests.recovery.test_recovery_chaos` (real TCP
runtime, socket chaos, total in-memory loss on kill), but the group runs
the **batched + pipelined** atomic channel (``max_batch=4,
pipeline_depth=2``) and the kill lands while a command burst is being
coalesced into multi-payload agreement rounds.  The durable delivery log
sees batched deliveries — several records per round, under the stable
per-payload sub-sequencing — and WAL replay plus certified-checkpoint
catch-up must still reproduce a byte-identical state digest.

Failures print a ``CHAOS-REPRO`` line pinning the seed.
"""

import asyncio

import pytest

from repro.net.faults import SocketChaosPlan
from repro.obs import MemoryRecorder
from repro.testing.netchaos import ChaosFabric, ReplicaProcess

from tests.conftest import cached_group
from tests.recovery.test_service_sim import RCounter

pytestmark = [pytest.mark.chaos, pytest.mark.recovery]

NODE_KWARGS = dict(
    connect_retry_s=0.02, rto=0.15, backoff_cap=0.3,
    heartbeat_s=0.1, suspect_after=1.0, down_after=3.0,
)
#: checkpoints every 4 slots + the batched channel configuration — the
#: extra kwargs flow through RecoverableService into the atomic channel.
SERVICE_KWARGS = dict(
    checkpoint_interval=4, fsync="always", pull_retry_s=0.3,
    max_batch=4, pipeline_depth=2,
)

PHASE1 = list(range(1, 9))        # spaced warm-up; checkpoints at 4 and 8
BURST = list(range(9, 21))        # the burst being batched at kill time
TOTAL = len(PHASE1) + len(BURST)


def _run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _replicas(fabric, group, tmp_path):
    return [
        ReplicaProcess(
            fabric, group, i, RCounter, str(tmp_path / f"replica{i}"),
            recorder_factory=MemoryRecorder,
            service_kwargs=SERVICE_KWARGS, **NODE_KWARGS,
        )
        for i in range(group.n)
    ]


async def _submit_spaced(replicas, amounts, spacing=0.03):
    for k, amount in enumerate(amounts):
        svc = replicas[k % len(replicas)].service
        while not svc.channel.can_send():
            await asyncio.sleep(0.05)
        svc.submit(b"add:%d" % amount)
        await asyncio.sleep(spacing)


async def _wait(predicate, timeout=60.0, what="condition"):
    for _ in range(int(timeout / 0.05)):
        if predicate():
            return
        await asyncio.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


async def _stop_all(replicas, fabric):
    for replica in replicas:
        if replica.node is not None:
            await replica.stop()
    await fabric.stop()


@pytest.mark.recovery
def test_kill_mid_batch_catches_up_to_identical_digest(fuzz_seed, tmp_path, chaos_repro):
    async def body():
        plan = SocketChaosPlan(stall_prob=0.05, stall_s=0.01)
        fabric = ChaosFabric(4, plan, seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        replicas = _replicas(fabric, group, tmp_path)
        await asyncio.gather(*(r.start() for r in replicas))
        try:
            # Phase 1: spaced warm-up so every replica holds a certified
            # checkpoint before the violence starts.
            await _submit_spaced(replicas, PHASE1)
            await _wait(
                lambda: all(
                    r.service.applied_seq >= len(PHASE1) for r in replicas
                ),
                what="phase-1 application",
            )
            await _wait(
                lambda: all(r.service.last_certified >= 4 for r in replicas),
                what="phase-1 checkpoint certificates",
            )

            # Phase 2: a zero-spacing burst onto the survivors piles up
            # submit backlogs that the channel coalesces into batches —
            # and replica 3 is killed while those rounds are in flight.
            burst = asyncio.ensure_future(
                _submit_spaced(replicas[:3], BURST, spacing=0.0)
            )
            await asyncio.sleep(0.05)
            await replicas[3].kill()
            assert replicas[3].service is None
            await burst
            await _wait(
                lambda: all(
                    r.service.applied_seq >= TOTAL for r in replicas[:3]
                ),
                what="burst application on survivors",
            )

            # Restart from disk: WAL replay + checkpoint catch-up.
            await replicas[3].restart()
            stats = await replicas[3].recover(timeout=60)
            await _wait(
                lambda: replicas[3].service.applied_seq >= TOTAL,
                what="restarted replica catching up",
            )
            digests = [r.service.last_state_digest() for r in replicas]

            # Phase 3: the recovered replica's own sends still order.
            await _submit_spaced([replicas[3]], [100])
            await _wait(
                lambda: all(
                    r.service.applied_seq >= TOTAL + 1 for r in replicas
                ),
                what="post-recovery command",
            )
            batch_sizes = (
                replicas[0].recorder.histograms["atomic.batch.size"].values
            )
            return {
                "stats": stats,
                "digests": digests,
                "final_digests": [
                    r.service.last_state_digest() for r in replicas
                ],
                "values": [r.service.state.value for r in replicas],
                "recovered": replicas[3].service.recovered,
                "kills": replicas[3].kills,
                "batch_sizes": batch_sizes,
                "adopted": replicas[3].recorder.counters.get(
                    "recovery.transfer.adopted", 0
                ),
            }
        finally:
            await _stop_all(replicas, fabric)

    try:
        out = _run(body())
        assert out["recovered"]
        assert out["kills"] == 1
        assert out["stats"]["seq"] >= 4  # resumed from a real certificate
        assert len(set(out["digests"])) == 1
        assert len(set(out["final_digests"])) == 1
        expected = sum(PHASE1) + sum(BURST) + 100
        assert set(out["values"]) == {expected}
        # The burst really was coalesced: some agreement round delivered
        # more than one payload on the surviving replicas.
        assert out["batch_sizes"] and max(out["batch_sizes"]) > 1
        assert out["adopted"] == 1
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise
