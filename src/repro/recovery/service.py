"""A replicated service that survives full destruction of its process.

``RecoverableService`` extends ``ReplicatedService`` with the three
recovery mechanisms of this package:

* every delivered slot is appended to the :class:`~repro.recovery.wal.
  DeliveryLog` at the channel's delivery point (write-ahead of
  application), and own-send sequence allocations are persisted before the
  signed record can leave the process;
* at every slot sequence that is a multiple of ``K`` (``checkpoint_
  interval``) the replica builds the deterministic checkpoint package,
  signs the statement ``(pid, seq, sha256(package))`` and exchanges shares
  with its peers; ``t + 1`` shares combine into a certificate which is
  persisted and truncates the covered log prefix;
* ``recover()`` — for a replica whose memory is gone: pull
  ``(certificate, package, log tail)`` from the peers, adopt a response
  once its certificate verifies under the group key **and** ``t + 1``
  peers report byte-identical transfer state (the uncertified tail is
  attested by the quorum, the certified prefix by the certificate), then
  restore the state machine, replay the tail, and re-enter the live
  channel at the resumed round via the atomic channel's resume support.

Trust argument: the certificate needs ``t + 1`` of ``n`` signatures, so at
least one honest replica attests the package digest — a single Byzantine
peer cannot serve a poisoned snapshot that verifies.  The tail beyond the
last certificate carries no certificate yet, which is why adoption
additionally waits for ``t + 1`` identical responses (at least one of
which is honest).  Liveness of the pull is retried on a timer; catch-up
completes once the group is quiescent enough for ``t + 1`` peers to agree
on the transfer state (see docs/RECOVERY.md for the sharper statement).
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.app.replication import ReplicatedService, StateMachine
from repro.common.encoding import encode
from repro.common.errors import ReproError
from repro.core.channel.atomic import KIND_APP, KIND_CIPHER, KIND_CLOSE
from repro.core.party import Party
from repro.core.protocol import Protocol
from repro.core.schema import NAT, POS, ListOf, OneOf
from repro.crypto.threshold_sig import combine_optimistically
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    checkpoint_scheme,
    checkpoint_signer,
    checkpoint_statement,
    make_package,
    parse_package_full,
)
from repro.recovery.wal import FSYNC_BATCH, DeliveryLog, SlotTuple

MSG_SHARE = "ckpt-share"
MSG_PULL = "pull"
MSG_STATE = "state"

#: a log-tail slot: (index, origin, origin_seq, kind, data, round)
SLOT = (int, int, NAT, OneOf(KIND_APP, KIND_CLOSE, KIND_CIPHER), bytes, POS)

#: at most this many not-yet-reached checkpoint sequences keep buffered
#: foreign shares (a Byzantine flooder cannot grow the buffer unboundedly)
MAX_FOREIGN_SEQS = 8


class RecoveryError(ReproError):
    """A recovery-protocol precondition or invariant failed."""


class CheckpointExchange(Protocol):
    """Wire endpoint for checkpoint shares and state-transfer pulls.

    A thin :class:`Protocol` so the recovery traffic has its own protocol
    id (``<service pid>:rec``) and therefore its own router buffering —
    in particular, shares sent while a peer is down are buffered/retried
    by the transport like any other protocol message.
    """

    schemas = {
        MSG_SHARE: (POS, bytes),  # (seq, share)
        MSG_PULL: (POS,),  # (request id,)
        # (request id, seq, certificate, package, log tail)
        MSG_STATE: (POS, NAT, bytes, bytes, ListOf(SLOT)),
    }

    def __init__(self, ctx, pid: str, service: "RecoverableService"):
        super().__init__(ctx, pid)
        self.service = service

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if self.halted:
            return
        if mtype == MSG_SHARE:
            self.service._on_ckpt_share(sender, payload)
        elif mtype == MSG_PULL:
            self.service._on_pull(sender, payload)
        elif mtype == MSG_STATE:
            self.service._on_state(sender, payload)


class RecoverableService(ReplicatedService):
    """A ``ReplicatedService`` with a durable log, certified checkpoints,
    and peer state transfer.

    Lifecycle: construct, then either ``start()`` (boot from local durable
    state — a fresh replica or a cold-started group) or ``recover()``
    (rejoin a *running* group after losing memory; returns a future that
    resolves once the replica is live again).  The channel does not exist
    until one of the two has run.
    """

    _auto_open_channel = False

    def __init__(
        self,
        party: Party,
        pid: str,
        state_machine: StateMachine,
        directory: str,
        checkpoint_interval: int = 16,
        fsync: str = FSYNC_BATCH,
        pull_retry_s: float = 0.5,
        secure: bool = False,
        **channel_kwargs: Any,
    ):
        if secure:
            raise RecoveryError(
                "recovery supports the plain atomic channel only: the durable "
                "log stores delivered records, and secure-causal ciphertexts "
                "cannot be re-decrypted from disk without a live group"
            )
        if checkpoint_interval < 1:
            raise RecoveryError("checkpoint interval must be >= 1")
        super().__init__(party, pid, state_machine, secure=False, **channel_kwargs)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.interval = checkpoint_interval
        self.pull_retry_s = pull_retry_s
        self.obs = party.obs
        self.wal = DeliveryLog(os.path.join(directory, "wal.log"), fsync=fsync)
        self.ckpt_store = CheckpointStore(os.path.join(directory, "checkpoint.bin"))
        self.scheme = checkpoint_scheme(party.ctx.crypto)
        self.signer = checkpoint_signer(party.ctx.crypto, self.scheme)
        self.accel = party.ctx.crypto.accel
        #: sequence of the newest certified checkpoint this replica holds
        self.last_certified = 0
        self._last_proposed = 0
        #: bookkeeping covered by the newest certificate (parsed package)
        self._base_delivered: List[Tuple[int, int]] = []
        self._base_closes: Set[int] = set()
        self._base_round = 1
        #: membership fields of the newest certificate (6-tuple packages;
        #: a static group stays at epoch 0 with no roster)
        self._base_epoch = 0
        self._base_roster: Optional[List[Optional[str]]] = None
        #: seq -> {"package", "statement", "shares": {1-based index: share}}
        self._pending: Dict[int, Dict[str, Any]] = {}
        #: shares for checkpoints this replica has not reached yet
        self._foreign: Dict[int, Dict[int, bytes]] = {}
        #: delivered slot indices awaiting application (FIFO: the channel
        #: defers apply via ctx.effect, in delivery order)
        self._apply_fifo: Deque[int] = deque()
        #: slots durably logged or checkpoint-covered (high-water index + 1)
        self.slots_covered = 0
        self._applied_seq = 0
        self.recovered = False
        self._recover_future = None
        self._pull_req = 0
        self._responses: Dict[int, Dict[str, Any]] = {}
        self._retry_timer = None
        self.exchange = CheckpointExchange(party.ctx, f"{pid}:rec", self)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "RecoverableService":
        """Boot from local durable state only (no peers consulted).

        Correct for a fresh replica (empty directory) and for restarting a
        *quiescent or cold-started* group, where the local log is a prefix
        of the group's history and no round was mid-flight at the crash.
        A replica rejoining a running group must use :meth:`recover`.
        """
        if self.channel is not None:
            raise RecoveryError("service already started")
        ckpt = self.ckpt_store.latest
        base = 0
        if ckpt is not None:
            if not ckpt.verify(self.scheme, self.pid):
                raise RecoveryError("stored checkpoint certificate does not verify")
            snapshot, delivered0, closes0, base_round, epoch0, roster0 = (
                parse_package_full(ckpt.package)
            )
            if len(delivered0) != ckpt.seq:
                raise RecoveryError("stored checkpoint package is inconsistent")
            self.state.restore(snapshot)
            base = ckpt.seq
            self._base_delivered = delivered0
            self._base_closes = closes0
            self._base_round = base_round
            self._set_package_base(epoch0, roster0)
            self.last_certified = base
            self._last_proposed = base
        if self.wal.base < base:
            # Crashed between persisting the certificate and compacting.
            self.wal.truncate_through(base - 1)
        elif self.wal.base > base:
            raise RecoveryError(
                "delivery log is ahead of the stored checkpoint "
                f"(log base {self.wal.base}, checkpoint seq {base})"
            )
        self.wal.check_contiguous()
        delivered, closes, round_now = self._absorb_tail(self.wal.tail(), apply=True)
        next_seq = self._next_own_seq(delivered)
        self.slots_covered = base + len(self.wal.slots)
        self._applied_seq = self.slots_covered
        self._open_channel(
            resume_round=round_now,
            resume_delivered=delivered,
            resume_close_origins=closes,
            resume_next_seq=next_seq,
        )
        self._hook_channel()
        return self

    def recover(self):
        """Rejoin a running group after total loss of in-memory state.

        Broadcasts a state pull, retried every ``pull_retry_s``, and
        adopts the peers' transfer state once a certificate-verified
        response is confirmed by ``t + 1`` identical fingerprints.
        Returns a runtime future resolving to a stats dict once the
        replica is live on the channel again.
        """
        if self.channel is not None:
            raise RecoveryError("cannot recover: channel already open")
        if self._recover_future is not None:
            return self._recover_future
        self._recover_future = self.party.ctx.new_future()
        if self.obs.enabled:
            self.obs.count("recovery.attempts")
            self.obs.phase(self.exchange.obs_scope, "recovery.catchup")
        self.party.ctx.api(self._send_pull)
        return self._recover_future

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()

    def release(self) -> None:
        """Flush and close the durable files (clean shutdown only)."""
        self.wal.close()

    def shutdown(self) -> None:
        """Retire this replica process: abort the channel, unregister the
        transfer exchange, close durable files.

        After ``shutdown()`` the party's router is free of this service's
        protocol ids, so a successor process for the same slot (membership
        replacement, or an in-simulation restart) can construct a fresh
        service without id collisions."""
        router = self.party.ctx.router
        if self.channel is not None:
            self.channel.abort()
            router.forget(self.channel.pid)
        self.exchange.halt()
        router.forget(self.exchange.pid)
        self.wal.close()

    # -- inspection ----------------------------------------------------------------

    @property
    def applied_seq(self) -> int:
        """Slot sequence number (total-order position) last applied,
        including slots covered by a restored checkpoint."""
        return self._applied_seq

    # -- channel hooks -------------------------------------------------------------

    def _hook_channel(self) -> None:
        self.channel.on_slot = self._on_slot
        self.channel.on_own_enqueue = self._on_own_enqueue

    def _on_slot(
        self, index: int, origin: int, oseq: int, kind: int, data: bytes, round_: int
    ) -> None:
        self.wal.append_slot(index, origin, oseq, kind, data, round_)
        self.slots_covered = index + 1
        if self.obs.enabled:
            self.obs.count("recovery.wal.slots")
            self.obs.count("recovery.wal.bytes", len(data))
        if kind != KIND_CLOSE:
            self._apply_fifo.append(index)

    def _on_own_enqueue(self, next_seq: int) -> None:
        self.wal.append_sent(next_seq)

    def _on_command(self, command: bytes) -> None:
        index = self._apply_fifo.popleft() if self._apply_fifo else None
        result = self.state.apply(command)
        self.log.append((command, result))
        if index is None:
            return  # a non-recoverable channel path delivered this
        self._applied_seq = index + 1
        if self.obs.enabled:
            self.obs.count("recovery.applied")
        self._maybe_checkpoint(index + 1)

    # -- checkpointing -------------------------------------------------------------

    def _maybe_checkpoint(self, seq: int, force: bool = False) -> None:
        """Propose a checkpoint when the applied slot sequence crosses K.

        The boundary test is on the *absolute* slot sequence (``seq % K``),
        so every honest replica proposes at the same sequences regardless
        of when it last restarted.  A boundary landing on a close-request
        slot is skipped by everyone identically (close slots never reach
        application).

        ``force`` skips the boundary test (still deduplicated against
        already-proposed sequences): epoch barriers checkpoint immediately
        so a joining successor can onboard at the barrier without waiting
        out the interval.  All honest replicas force at the same slot, so
        determinism is preserved.
        """
        if not force and seq % self.interval != 0:
            return
        if seq <= max(self.last_certified, self._last_proposed):
            return
        package = self._build_package(seq)
        if package is None:
            if self.obs.enabled:
                self.obs.count("recovery.checkpoint.skipped")
            return
        self._last_proposed = seq
        statement = checkpoint_statement(
            self.pid, seq, hashlib.sha256(package).digest()
        )
        share = self.signer.sign_share(statement)
        self._pending[seq] = {
            "package": package,
            "statement": statement,
            "shares": {self.party.id + 1: share},
        }
        if self.obs.enabled:
            self.obs.count("recovery.checkpoint.proposed")
        for index, buffered in self._foreign.pop(seq, {}).items():
            self._add_share(seq, index, buffered)
        # Application of commands runs as a deferred effect, outside the
        # node's message-handling context; route the broadcast through
        # api() so it executes as node work on every runtime.
        self.party.ctx.api(
            lambda: self.exchange.send_all(MSG_SHARE, (seq, share))
        )
        self._try_combine(seq)

    def _build_package(self, seq: int) -> Optional[bytes]:
        """The deterministic checkpoint package covering slots ``< seq``."""
        delivered = list(self._base_delivered)
        closes = set(self._base_closes)
        boundary = self.wal.slots.get(seq - 1)
        if boundary is None:
            return None  # log inconsistent with the apply stream
        for index in sorted(self.wal.slots):
            if index >= seq:
                break
            origin, oseq, kind, _data, _round = self.wal.slots[index]
            delivered.append((origin, oseq))
            if kind == KIND_CLOSE:
                closes.add(origin)
        if len(delivered) != seq:
            return None
        base_round = boundary[4] + 1
        return make_package(self.state.snapshot(), delivered, sorted(closes), base_round)

    def _on_ckpt_share(self, sender: int, payload: Any) -> None:
        seq, share = payload
        if seq <= self.last_certified:
            return
        if seq in self._pending:
            self._add_share(seq, sender + 1, share)
            self._try_combine(seq)
            return
        # Not at this boundary yet: buffer, bounded against floods.
        bucket = self._foreign.setdefault(seq, {})
        if sender + 1 not in bucket:
            bucket[sender + 1] = share
        while len(self._foreign) > MAX_FOREIGN_SEQS:
            del self._foreign[min(self._foreign)]

    def _add_share(self, seq: int, index: int, share: bytes) -> None:
        pending = self._pending.get(seq)
        if pending is None or index in pending["shares"]:
            return
        try:
            if self.scheme.share_index(share) != index:
                raise CheckpointError("share signed under a different index")
            if not self.accel.sig_share_ok(self.scheme, pending["statement"], share):
                raise CheckpointError("share does not verify")
        except (ReproError, CheckpointError):
            # Either a corrupted share or an honest peer checkpointing a
            # different digest than ours — both just fail to contribute.
            if self.obs.enabled:
                self.obs.count("recovery.checkpoint.share_rejected")
            return
        pending["shares"][index] = share

    def _try_combine(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None or len(pending["shares"]) < self.scheme.k:
            return
        signature = combine_optimistically(
            self.scheme, pending["statement"], pending["shares"], verifier=self.accel
        )
        if signature is None:
            return
        self._install_checkpoint(
            Checkpoint(seq=seq, package=pending["package"], signature=signature)
        )

    def _install_checkpoint(self, ckpt: Checkpoint) -> None:
        """Persist a certificate and truncate the covered log prefix."""
        self.ckpt_store.save(ckpt)
        _snapshot, delivered, closes, base_round, epoch0, roster0 = (
            parse_package_full(ckpt.package)
        )
        self._base_delivered = delivered
        self._base_closes = closes
        self._base_round = base_round
        self._set_package_base(epoch0, roster0)
        self.last_certified = ckpt.seq
        self.wal.truncate_through(ckpt.seq - 1)
        for seq in [s for s in self._pending if s <= ckpt.seq]:
            del self._pending[seq]
        for seq in [s for s in self._foreign if s <= ckpt.seq]:
            del self._foreign[seq]
        if self.obs.enabled:
            self.obs.count("recovery.checkpoint.certified")
            self.obs.set_gauge("recovery.checkpoint.seq", ckpt.seq)

    # -- state transfer: serving side ----------------------------------------------

    def _on_pull(self, sender: int, payload: Any) -> None:
        if self.channel is None:
            return  # recovering ourselves: nothing trustworthy to serve
        req_id = payload[0]
        response = self._serve_payload()
        self.exchange.unicast(sender, MSG_STATE, (req_id,) + response)
        if self.obs.enabled:
            _seq, _sig, package, tail = response
            self.obs.count("recovery.transfer.served")
            self.obs.count(
                "recovery.transfer.served_bytes",
                len(package) + sum(len(slot[4]) for slot in tail),
            )

    def _serve_payload(self) -> Tuple[int, bytes, bytes, List[SlotTuple]]:
        """(seq, cert, package, tail) from local durable state.

        Split out so Byzantine-behaviour tests can override what a
        malicious peer serves.
        """
        ckpt = self.ckpt_store.latest
        if ckpt is not None:
            seq, sig, package = ckpt.seq, ckpt.signature, ckpt.package
        else:
            seq, sig, package = 0, b"", b""
        tail = [slot for slot in self.wal.tail() if slot[0] >= seq]
        return seq, sig, package, tail

    # -- state transfer: recovering side ---------------------------------------------

    def _send_pull(self) -> None:
        if self.channel is not None or self._recover_future is None:
            return
        self._pull_req += 1
        self._responses = {}
        if self.obs.enabled:
            self.obs.count("recovery.transfer.pulls")
        self.exchange.send_all(MSG_PULL, (self._pull_req,))
        self._retry_timer = self.party.ctx.set_timer(
            self.pull_retry_s, self._send_pull
        )

    def _on_state(self, sender: int, payload: Any) -> None:
        if self.channel is not None or self._recover_future is None:
            return
        req_id, seq, sig, package, tail = payload
        if req_id != self._pull_req:
            return  # response to a superseded pull
        try:
            response = self._validate_response(seq, sig, package, tail)
        except (CheckpointError, ReproError):
            if self.obs.enabled:
                self.obs.count("recovery.transfer.rejected")
            return
        self._responses[sender] = response
        # Adopt once t+1 peers (at least one honest) report identical
        # transfer state; the certificate already pins the prefix, the
        # quorum pins the uncertified tail.
        matching = [
            r for r in self._responses.values()
            if r["fingerprint"] == response["fingerprint"]
        ]
        if len(matching) >= self.party.t + 1:
            self._adopt(response)

    def _validate_response(
        self, seq: int, sig: bytes, package: bytes, tail: List[SlotTuple]
    ) -> Dict[str, Any]:
        slots = sorted(tail, key=lambda s: s[0])
        if [s[0] for s in slots] != list(range(seq, seq + len(slots))):
            raise CheckpointError("transfer tail is not contiguous from seq")
        if seq > 0:
            ckpt = Checkpoint(seq=seq, package=package, signature=sig)
            if not ckpt.verify(self.scheme, self.pid):
                raise CheckpointError("transfer certificate does not verify")
            _snapshot, delivered0, _closes0, _round, epoch0, roster0 = (
                parse_package_full(package)
            )
            if len(delivered0) != seq:
                raise CheckpointError("certified package is inconsistent")
            self._check_transfer_epoch(epoch0, roster0, slots)
        else:
            if package != b"" or sig != b"":
                raise CheckpointError("uncertified response carries a package")
            delivered0 = []
            self._check_transfer_epoch(0, None, slots)
        keys = set(delivered0)
        for slot in slots:
            key = (slot[1], slot[2])
            if key in keys:
                raise CheckpointError("transfer repeats a delivered key")
            keys.add(key)
        return {
            "seq": seq,
            "signature": sig,
            "package": package,
            "tail": slots,
            "fingerprint": hashlib.sha256(encode((seq, package, slots))).digest(),
        }

    def _adopt(self, response: Dict[str, Any]) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        seq = response["seq"]
        tail = response["tail"]
        if seq > 0:
            ckpt = Checkpoint(
                seq=seq, package=response["package"],
                signature=response["signature"],
            )
            snapshot, delivered0, closes0, base_round, epoch0, roster0 = (
                parse_package_full(ckpt.package)
            )
            self.state.restore(snapshot)
            self.ckpt_store.save(ckpt)
        else:
            delivered0, closes0, base_round = [], set(), 1
            epoch0, roster0 = 0, None
        self._base_delivered = delivered0
        self._base_closes = set(closes0)
        self._base_round = base_round
        self._set_package_base(epoch0, roster0)
        self.last_certified = seq
        self._last_proposed = seq
        self.log = []
        self._apply_fifo.clear()
        delivered, closes, round_now = self._absorb_tail(tail, apply=True)
        next_seq = self._next_own_seq(delivered)
        self.wal.reset(seq, tail, next_seq)
        self.slots_covered = seq + len(tail)
        self._applied_seq = self.slots_covered
        self._open_channel(
            resume_round=round_now,
            resume_delivered=delivered,
            resume_close_origins=closes,
            resume_next_seq=next_seq,
        )
        self._hook_channel()
        self.recovered = True
        if self.obs.enabled:
            self.obs.phase_end(self.exchange.obs_scope)  # recovery.catchup
            self.obs.count("recovery.transfer.adopted")
            self.obs.count("recovery.catchup.slots", len(tail))
            self.obs.set_gauge("recovery.resume_round", round_now)
        future, self._recover_future = self._recover_future, None
        future.resolve({
            "seq": seq,
            "tail_slots": len(tail),
            "resume_round": round_now,
            "applied_seq": self._applied_seq,
        })

    # -- membership hooks (overridden by repro.membership) ----------------------------

    def _set_package_base(
        self, epoch: int, roster: Optional[List[Optional[str]]]
    ) -> None:
        """Record the membership fields of the checkpoint now serving as
        base.  A plain recoverable service is pinned to epoch 0: adopting
        a package from a reconfigured group requires the epoch key
        material only ``repro.membership.ReconfigurableService`` holds."""
        if epoch != 0:
            raise RecoveryError(
                f"checkpoint is from membership epoch {epoch}; a plain "
                "RecoverableService cannot cross epochs (use "
                "repro.membership.ReconfigurableService)"
            )
        self._base_epoch = epoch
        self._base_roster = roster

    def _check_transfer_epoch(
        self,
        epoch: int,
        roster: Optional[List[Optional[str]]],
        tail: List[SlotTuple],
    ) -> None:
        """Validate the membership epoch of a state-transfer response
        before adopting it (subclass hook; the base class accepts
        anything epoch 0 and defers epoch > 0 rejection to
        :meth:`_set_package_base`)."""

    # -- shared restore helpers -------------------------------------------------------

    def _absorb_tail(
        self, tail: List[SlotTuple], apply: bool
    ) -> Tuple[List[Tuple[int, int]], Set[int], int]:
        """Fold a log tail over the certified base: returns the resume
        bookkeeping (delivered keys, close origins, next round) and
        optionally applies the APP payloads to the state machine."""
        delivered = list(self._base_delivered)
        closes = set(self._base_closes)
        round_now = self._base_round
        for _index, origin, oseq, kind, data, round_ in tail:
            delivered.append((origin, oseq))
            round_now = max(round_now, round_ + 1)
            if kind == KIND_CLOSE:
                closes.add(origin)
            elif kind == KIND_APP and apply:
                result = self.state.apply(data)
                self.log.append((data, result))
        return delivered, closes, round_now

    def _next_own_seq(self, delivered: List[Tuple[int, int]]) -> int:
        own = self.party.id
        highest = max((s + 1 for o, s in delivered if o == own), default=0)
        return max(self.wal.sent_next, highest)
