"""Rolling replacement under chaos fire, on the real TCP runtime.

The headline membership scenario: a replica is SIGKILLed mid-load, the
survivors order its *replacement* through the total order (epoch barrier,
share refresh, epoch-tagged successor channel), and a brand-new process
for the vacated slot onboards at epoch 1 via certified checkpoint + state
transfer — all while a seeded socket-chaos proxy stalls traffic.  The
run must converge on byte-identical state digests, and an epoch-0
threshold share must be cryptographically rejected under the epoch-1
verification keys (the mobile-adversary check).

A second test exercises proactive refresh on a *static* group under the
same socket chaos: every submitted command survives the epoch cutover.

Failures print a ``CHAOS-REPRO`` line pinning the seed; the headline test
exports its ``membership.*`` counters through the BENCH pipeline.
"""

import asyncio
import json

import pytest

from repro.common.errors import ChannelCongested, ReconfigInProgress
from repro.membership import EpochKeychain, MembershipChange
from repro.net.faults import SocketChaosPlan
from repro.obs import MemoryRecorder, bench_dir_from_env, make_record, write_record
from repro.testing.netchaos import ChaosFabric, ReplicaProcess

from tests.conftest import cached_group
from tests.recovery.test_service_sim import RCounter

pytestmark = [pytest.mark.chaos, pytest.mark.membership]

NODE_KWARGS = dict(
    connect_retry_s=0.02, rto=0.15, backoff_cap=0.3,
    heartbeat_s=0.1, suspect_after=1.0, down_after=3.0,
)


def _run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _replicas(fabric, group, tmp_path):
    # One keychain per process: epoch material is a pure function of the
    # dealt group, so independent keychains derive identical shares.
    return [
        ReplicaProcess(
            fabric, group, i, RCounter, str(tmp_path / f"replica{i}"),
            recorder_factory=MemoryRecorder,
            service_cls=_reconfigurable(),
            service_kwargs=dict(
                checkpoint_interval=4, fsync="always", pull_retry_s=0.3,
                keychain=EpochKeychain(group),
            ),
            **NODE_KWARGS,
        )
        for i in range(group.n)
    ]


def _reconfigurable():
    from repro.membership.service import ReconfigurableService

    return ReconfigurableService


async def _submit_spaced(replicas, amounts, spacing=0.03):
    """Round-robin submission that rides out barrier freezes: the typed
    retryable errors (and the transition's channel swap) just mean
    'later', exactly what an application-side submitter would do."""
    for k, amount in enumerate(amounts):
        replica = replicas[k % len(replicas)]
        while True:
            svc = replica.service
            try:
                if svc.channel is not None and svc.channel.can_send():
                    svc.submit(b"add:%d" % amount)
                    break
            except (ReconfigInProgress, ChannelCongested):
                pass
            await asyncio.sleep(0.05)
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


def _old_share_rejected(keychain, roster):
    """The mobile-adversary check: an epoch-0 coin share verifies under
    the epoch-0 scheme but is rejected by the epoch-1 verification keys
    (same group key, rotated shares)."""
    name = b"cross-epoch-probe"
    coin0 = keychain.group.parties[0].coin
    share0 = int(keychain.group.raw["coin"]["shares"][0])
    release0 = coin0.holder(1, share0).release(name)
    fresh = keychain.material(1, roster).coin
    return coin0.verify_share(name, release0) and not fresh.verify_share(
        name, release0
    )


def test_rolling_replacement_under_chaos(fuzz_seed, tmp_path, chaos_repro):
    """SIGKILL replica 3 mid-load, replace its slot through the total
    order, onboard a brand-new successor process at epoch 1."""

    async def body():
        plan = SocketChaosPlan(stall_prob=0.05, stall_s=0.01)
        fabric = ChaosFabric(4, plan, seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        replicas = _replicas(fabric, group, tmp_path)
        await asyncio.gather(*(r.start() for r in replicas))
        try:
            # Phase 1: the whole group orders 8 commands at epoch 0.
            await _submit_spaced(replicas, range(1, 9))
            await _wait(
                lambda: all(r.service.applied_seq >= 8 for r in replicas),
                what="phase-1 application",
            )

            # Replica 3 dies mid-load: sockets aborted, objects dropped.
            await replicas[3].kill()
            survivors = replicas[:3]

            # Phase 2: the survivors replace the dead slot through the
            # total order while traffic keeps flowing around the barrier.
            target = survivors[0].service.reconfigure(
                MembershipChange("replace", slot=3, member="fresh-3")
            )
            assert target == 1
            await _submit_spaced(survivors, range(9, 13))
            await _wait(
                lambda: all(
                    s.service.membership_epoch == 1 for s in survivors
                ),
                what="survivors crossing the epoch barrier",
            )
            await _wait(
                lambda: all(s.service.applied_seq >= 13 for s in survivors),
                what="phase-2 application on survivors",
            )
            await _wait(
                lambda: all(s.service.last_certified >= 9 for s in survivors),
                what="forced barrier checkpoint certificates",
            )

            # The successor: a new process for slot 3 — wiped disk, only
            # the group identity and the epoch floor.  The floor keeps a
            # mobile adversary from feeding it pre-replacement history.
            replicas[3].service_kwargs["min_epoch"] = 1
            await replicas[3].restart(wipe_disk=True)
            stats = await replicas[3].recover(timeout=60)
            successor = replicas[3].service
            await _wait(
                lambda: successor.applied_seq >= 13,
                what="successor catching up",
            )
            digests = [r.service.last_state_digest() for r in replicas]

            # Phase 3: the successor's own sends get ordered at epoch 1.
            await _submit_spaced([replicas[3]], [100])
            await _wait(
                lambda: all(r.service.applied_seq >= 14 for r in replicas),
                what="post-onboarding command",
            )
            return {
                "stats": stats,
                "digests": digests,
                "final_digests": [
                    r.service.last_state_digest() for r in replicas
                ],
                "values": [r.service.state.value for r in replicas],
                "epochs": [r.service.membership_epoch for r in replicas],
                "pids": [r.service.channel.pid for r in replicas],
                "roster_slot3": successor.roster.members[3],
                "recovered": successor.recovered,
                "kills": replicas[3].kills,
                "share_rejected": _old_share_rejected(
                    successor.keychain, successor.roster
                ),
                "recorder0": replicas[0].recorder,
                "recorder3": replicas[3].recorder,
            }
        finally:
            await _stop_all(replicas, fabric)

    try:
        out = _run(body())
        assert out["recovered"]
        assert out["kills"] == 1
        assert out["stats"]["seq"] >= 9  # the forced barrier checkpoint
        assert out["epochs"] == [1, 1, 1, 1]
        assert out["pids"] == ["svc@e1"] * 4
        assert out["roster_slot3"] == "fresh-3"
        assert len(set(out["digests"])) == 1
        assert len(set(out["final_digests"])) == 1
        assert set(out["values"]) == {sum(range(1, 13)) + 100}
        # Refreshed shares really rotated: the epoch-0 share is invalid.
        assert out["share_rejected"]
        assert out["recorder0"].counters["membership.reconfig.committed"] >= 1
        assert out["recorder0"].counters["membership.reshare.epochs"] >= 1
        assert out["recorder3"].counters["recovery.transfer.adopted"] == 1
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise

    # Export the run's membership counters through the BENCH pipeline.
    record = make_record(
        "membership_rolling_replacement",
        experiment="membership",
        meta={"n": 4, "t": 1, "checkpoint_interval": 4, "seed": hex(fuzz_seed)},
        metrics={
            "catchup_tail_slots": out["stats"]["tail_slots"],
            "resume_round": out["stats"]["resume_round"],
        },
        recorder=out["recorder0"],
    )
    out_dir = bench_dir_from_env() or str(tmp_path / "bench")
    path = write_record(out_dir, record)
    with open(path) as fh:
        exported = json.load(fh)
    membership_counters = {
        k for k in exported["counters"] if k.startswith("membership.")
    }
    assert {
        "membership.barrier",
        "membership.reconfig.committed",
        "membership.reshare.epochs",
    } <= membership_counters


def test_proactive_refresh_under_chaos(fuzz_seed, tmp_path, chaos_repro):
    """Static group, stalling sockets, a share refresh mid-stream: no
    command is dropped and every replica lands at epoch 1, same digest."""

    async def body():
        plan = SocketChaosPlan(stall_prob=0.05, stall_s=0.01)
        fabric = ChaosFabric(4, plan, seed=fuzz_seed)
        await fabric.start()
        group = cached_group(4, 1)
        replicas = _replicas(fabric, group, tmp_path)
        await asyncio.gather(*(r.start() for r in replicas))
        try:
            await _submit_spaced(replicas, range(1, 5))
            await _wait(
                lambda: all(r.service.applied_seq >= 4 for r in replicas),
                what="pre-refresh application",
            )
            replicas[1].service.refresh_shares()
            await _submit_spaced(replicas, range(5, 11))
            await _wait(
                lambda: all(r.service.applied_seq >= 11 for r in replicas),
                what="post-refresh application",
            )
            return {
                "epochs": [r.service.membership_epoch for r in replicas],
                "values": [r.service.state.value for r in replicas],
                "digests": [r.service.last_state_digest() for r in replicas],
                "members": {r.service.roster.members for r in replicas},
            }
        finally:
            await _stop_all(replicas, fabric)

    try:
        out = _run(body())
        assert out["epochs"] == [1, 1, 1, 1]
        assert set(out["values"]) == {sum(range(1, 11))}
        assert len(set(out["digests"])) == 1
        assert len(out["members"]) == 1  # the roster did not change
    except (AssertionError, asyncio.TimeoutError):
        chaos_repro()
        raise
