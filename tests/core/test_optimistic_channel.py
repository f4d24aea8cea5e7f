"""Optimistic atomic broadcast: fast path, sequencer failover, recovery
safety, termination."""

import pytest

from repro.core.channel import AtomicChannel, OptimisticAtomicChannel
from repro.net.faults import CrashFault, FaultPlan, SlowLinkAdversary

from tests.helpers import no_errors, sim_runtime


def _channels(rt, pid="opt", parties=None, **kwargs):
    parties = parties if parties is not None else range(rt.group.n)
    kwargs.setdefault("suspect_timeout", 1.0)
    return {
        i: OptimisticAtomicChannel(rt.contexts[i], pid, **kwargs) for i in parties
    }


def _drain(rt, channels, expect, limit=3000):
    got = {i: [] for i in channels}

    def reader(i, ch):
        while len(got[i]) < expect:
            payload = yield ch.receive()
            got[i].append(payload)

    procs = [rt.spawn(reader(i, ch)) for i, ch in channels.items()]
    for p in procs:
        rt.run_until(p.future, limit=limit)
    return got


# -- the optimistic fast path ---------------------------------------------------------


def test_total_order_fast_path(group4):
    rt = sim_runtime(group4, seed=1)
    chans = _channels(rt)
    for k in range(6):
        chans[k % 4].send(b"m%d" % k)
    got = _drain(rt, chans, 6)
    assert all(g == got[0] for g in got.values())
    assert sorted(got[0]) == sorted(b"m%d" % k for k in range(6))
    # everything went through epoch 0: no fallback was needed
    assert all(ch.epochs_used == 1 for ch in chans.values())
    no_errors(rt)


def test_fast_path_beats_full_agreement(group4):
    """The whole point (paper Sec. 6): far cheaper than per-round MVBA."""
    msgs = 6

    rt1 = sim_runtime(group4, seed=2)
    opt = _channels(rt1)
    for k in range(msgs):
        opt[0].send(b"o%d" % k)
    _drain(rt1, opt, msgs)
    opt_msgs = rt1.messages_sent

    rt2 = sim_runtime(group4, seed=2)
    base = {i: AtomicChannel(ctx, "base") for i, ctx in enumerate(rt2.contexts)}
    for k in range(msgs):
        base[0].send(b"o%d" % k)
    _drain(rt2, base, msgs)
    base_msgs = rt2.messages_sent

    assert opt_msgs < base_msgs / 3, (opt_msgs, base_msgs)


def test_sequencer_batching(group4):
    """Concurrent messages share slots: fewer slots than messages."""
    rt = sim_runtime(group4, seed=3)
    chans = _channels(rt)
    for s in range(4):
        for k in range(3):
            chans[s].send(b"b%d-%d" % (s, k))
    got = _drain(rt, chans, 12)
    assert all(g == got[0] for g in got.values())
    assert chans[0].slots_delivered < 12


def test_per_origin_fifo(group4):
    rt = sim_runtime(group4, seed=4)
    chans = _channels(rt)
    for k in range(5):
        chans[2].send(b"f%d" % k)
    got = _drain(rt, chans, 5)
    assert got[1] == [b"f%d" % k for k in range(5)]


# -- fallback and recovery --------------------------------------------------------------


def test_crashed_sequencer_failover(group4):
    """Epoch 0's sequencer (party 0) is crashed: complaints wedge the
    epoch, recovery agrees on an empty cut, and epoch 1 delivers."""
    rt = sim_runtime(group4, seed=5, faults=FaultPlan(crashes=(CrashFault(0),)))
    chans = _channels(rt, parties=[1, 2, 3])
    chans[1].send(b"survives")
    got = _drain(rt, chans, 1)
    assert all(g == [b"survives"] for g in got.values())
    assert all(ch.epochs_used >= 2 for ch in chans.values())
    no_errors(rt)


def test_sequencer_crash_mid_stream(group4):
    """The sequencer crashes after some slots committed: the recovery cut
    preserves everything delivered optimistically (safety) and the rest is
    re-sequenced in the next epoch."""
    rt = sim_runtime(group4, seed=6, faults=FaultPlan(crashes=(CrashFault(0, crash_at=0.1),)))
    chans = _channels(rt)
    chans[1].send(b"early")  # sequenced before the crash
    got1 = _drain(rt, {i: chans[i] for i in (1, 2, 3)}, 1)
    for i in (1, 2, 3):
        assert got1[i] == [b"early"]
    chans[2].send(b"late")  # needs the failover
    got2 = _drain(rt, {i: chans[i] for i in (1, 2, 3)}, 1)
    for i in (1, 2, 3):
        assert got2[i] == [b"late"]
        assert [d[2] for d in chans[i].deliveries] == [b"early", b"late"]


def test_slow_sequencer_suspected_but_safe(group4):
    """A merely *slow* (honest) sequencer may be suspected — a wrong
    suspicion must never violate safety, only cost an epoch change."""
    rt = sim_runtime(
        group4, seed=7,
        faults=FaultPlan(adversary=SlowLinkAdversary(
            delays={(0, j): 2.5 for j in range(1, 4)}
        )),
    )
    chans = _channels(rt, suspect_timeout=0.5)
    chans[1].send(b"delayed-leader")
    got = _drain(rt, chans, 1, limit=3000)
    assert all(g == [b"delayed-leader"] for g in got.values())
    no_errors(rt)


def test_two_sequencer_crashes_n7(group7):
    """n=7, t=2: the first two sequencers are crashed; epoch 2 delivers."""
    rt = sim_runtime(
        group7, seed=8,
        faults=FaultPlan(crashes=(CrashFault(0), CrashFault(1))),
    )
    chans = _channels(rt, parties=range(2, 7))
    chans[2].send(b"third time lucky")
    got = _drain(rt, chans, 1, limit=3000)
    assert all(g == [b"third time lucky"] for g in got.values())
    assert all(ch.epoch >= 2 for ch in chans.values())


def test_single_complaint_does_not_wedge(group4):
    """One (possibly malicious) complaint is below the t+1 threshold."""
    rt = sim_runtime(group4, seed=9)
    chans = _channels(rt)
    rt.run_on_node(3, chans[3]._send_complaint)
    chans[0].send(b"still optimistic")
    got = _drain(rt, chans, 1)
    assert all(g == [b"still optimistic"] for g in got.values())
    assert all(ch.epochs_used == 1 for ch in chans.values())


# -- termination -----------------------------------------------------------------------------


def test_close(group4):
    rt = sim_runtime(group4, seed=10)
    chans = _channels(rt)
    chans[0].send(b"payload")
    _drain(rt, chans, 1)
    for ch in chans.values():
        ch.close()
    rt.run_all([ch.closed for ch in chans.values()], limit=600)
    assert all(ch.is_closed() for ch in chans.values())
    no_errors(rt)


def test_integrity_per_origin_seq(group4):
    rt = sim_runtime(group4, seed=11)
    chans = _channels(rt)
    chans[0].send(b"dup")
    chans[1].send(b"dup")
    got = _drain(rt, chans, 2)
    assert got[2] == [b"dup", b"dup"]  # (origin, seq) identity, Sec. 2.5


def test_equivocating_sequencer_cannot_split(group4):
    """A Byzantine sequencer proposing different slot-0 contents to
    different halves cannot get either certified (quorum intersection);
    suspicion rotates it out and the payload is delivered consistently."""
    from repro.core.protocol import Protocol
    from repro.core.channel.optimistic import (
        MSG_PROPOSE, entry_string, SIGN_DOMAIN,
    )

    rt = sim_runtime(group4, seed=12)
    chans = _channels(rt, pid="eq-opt", parties=[1, 2, 3], suspect_timeout=0.6)

    class EquivocatingSequencer(Protocol):
        """Party 0: sequencer of epoch 0, equivocating on slot 0."""

        schemas = OptimisticAtomicChannel.schemas

        def start(self):
            def go():
                crypto = self.ctx.crypto
                for payload, dsts in ((b"version-A", (1,)), (b"version-B", (2, 3))):
                    sig = crypto.sign(
                        SIGN_DOMAIN, entry_string(self.pid, 0, 0, 0, payload)
                    )
                    entry = (0, 0, 0, payload, sig)
                    for dst in dsts:
                        self.unicast(dst, MSG_PROPOSE, (0, 0, [entry]))

            self.ctx.api(go)

        def on_message(self, sender, mtype, payload):
            pass

    EquivocatingSequencer(rt.contexts[0], "eq-opt").start()
    chans[1].send(b"honest message")
    got = _drain(rt, chans, 1, limit=3000)
    # no honest party delivered an equivocated value inconsistently, and
    # the honest message made it through after the sequencer change
    for i in (1, 2, 3):
        assert b"honest message" in got[i]
        assert got[i] == got[1]
    assert all(ch.epochs_used >= 2 for ch in chans.values())
    no_errors(rt)


def test_laggard_recovers_via_archive_fetch(group4):
    """A party whose links are adversarially delayed falls epochs behind;
    it recovers old-epoch slots from peers' archives (the fetch path)."""
    from repro.net.faults import TargetedDelayAdversary, FaultPlan

    rt = sim_runtime(
        group4, seed=13,
        faults=FaultPlan(adversary=TargetedDelayAdversary(
            victims={3}, min_delay=1.5, max_delay=2.5)),
    )
    chans = _channels(rt, pid="lag", suspect_timeout=0.4)
    for k in range(3):
        chans[k].send(b"lag-%d" % k)
    got = _drain(rt, chans, 3, limit=8000)
    # the laggard converges on the identical sequence
    assert got[3] == got[0]
    assert sorted(got[0]) == [b"lag-0", b"lag-1", b"lag-2"]
    no_errors(rt)
