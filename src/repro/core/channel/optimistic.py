"""Optimistic atomic broadcast — the paper's proposed optimization.

The conclusion of the paper (Sec. 6) observes that SINTRA's atomic
broadcast pays for full Byzantine agreement in every round, *even when all
servers are honest and timely*, and points to the optimistic protocols of
Castro-Liskov and Kursawe-Shoup: run a much simpler sequencer-based
algorithm while things look fine, and fall back to the randomized
machinery only when the sequencer is suspected.  This module implements
that extension.

**Optimistic phase** (epoch ``e``, sequencer ``e mod n``): a party wanting
to broadcast sends its signed message to all; the sequencer batches
initiated messages into consecutively numbered *slots* and proposes each
slot to the group.  A slot commits through two all-to-all exchanges
carrying threshold-signature shares:

1. ``prepare`` — shares on ``(pid, e, s, digest)``; ``n - t`` of them form
   the *prepare certificate*, which makes two conflicting slot contents
   impossible (quorum intersection);
2. ``commit`` — shares on the commit string, sent once the prepare
   certificate is assembled; a party delivers slot ``s`` (in contiguous
   order) once it holds the ``n - t``-share *commit certificate*.

This costs two rounds of message exchange per batch — the cost of a single
Bracha reliable broadcast, exactly the paper's target ("reduce the cost of
atomic broadcast essentially to a single reliable broadcast per delivered
message") — and only cheap signature shares, no Byzantine agreement.

**Suspicion** is liveness-only (the asynchronous safety argument never
uses clocks): a party whose own initiated message is not delivered within
a timeout complains; complaints are amplified (a party seeing ``t + 1``
complaints complains too) and at ``t + 1`` complaints a party *wedges* the
epoch: it stops the optimistic phase and reports its contiguous delivered
prefix, with the commit certificate of its last slot as proof.

**Recovery** runs one multi-valued Byzantine agreement on a batch of
``n - t`` signed, certificate-backed wedge statements and defines the
epoch's *cut* as the maximal certified prefix in the batch:

* **safety**: a party delivered slot ``s`` only with a commit certificate,
  so ``t + 1`` honest parties committed ``s``; any ``n - t`` wedge batch
  intersects them, hence the cut covers every optimistically delivered
  slot — nobody has over-delivered.
* **liveness**: the cut's certificate proves ``t + 1`` honest parties hold
  the whole prefix, so missing slots are fetched from them and verified
  against the certificate digests.

After delivering exactly the cut, the epoch advances, the sequencer
rotates, and undelivered messages are re-initiated.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, InvalidShare, ProtocolError
from repro.core.agreement.multivalued import ArrayAgreement
from repro.core.channel.base import Channel
from repro.core.protocol import Context
from repro.core.schema import ANY, NAT, ListOf, Maybe, OneOf, conforms
from repro.crypto.hashing import sha256
from repro.crypto.threshold_sig import combine_optimistically

MSG_INITIATE = "initiate"
MSG_PROPOSE = "propose"
MSG_PREPARE = "prepare"
MSG_COMMIT = "commit"
MSG_COMPLAIN = "complain"
MSG_WEDGE = "wedge"
MSG_FETCH = "fetch"
MSG_SLOT_DATA = "slot-data"

KIND_APP = 0
KIND_CLOSE = 1

SIGN_DOMAIN = "sintra.opt-atomic"

#: an application record: (origin, seq, kind, data, origin_signature)
Entry = Tuple[int, int, int, bytes, int]
ENTRY = (int, NAT, OneOf(KIND_APP, KIND_CLOSE), bytes, int)
#: a wedge statement: (epoch, prefix, digest, commit_cert, signature); the
#: certificate is ``None`` exactly for the empty prefix
WEDGE = (NAT, NAT, bytes, Maybe(bytes), int)


def entry_string(pid: str, origin: int, seq: int, kind: int, data: bytes) -> bytes:
    """What the origin signs to authorize a payload on this channel."""
    return encode(("opt-entry", pid, origin, seq, kind, data))


def prepare_string(pid: str, epoch: int, slot: int, digest: bytes) -> bytes:
    return encode(("opt-prepare", pid, epoch, slot, digest))


def commit_string(pid: str, epoch: int, slot: int, digest: bytes) -> bytes:
    return encode(("opt-commit", pid, epoch, slot, digest))


def wedge_string(pid: str, epoch: int, prefix: int, digest: bytes) -> bytes:
    return encode(("opt-wedge", pid, epoch, prefix, digest))


def slot_digest(entries: List[Entry]) -> bytes:
    return sha256(encode(list(entries)))


class _SlotState:
    """Per-slot bookkeeping during the optimistic phase."""

    __slots__ = (
        "entries", "digest", "prepare_shares", "prepare_cert",
        "commit_shares", "commit_cert", "prepared", "committed",
    )

    def __init__(self) -> None:
        self.entries: Optional[List[Entry]] = None
        self.digest: Optional[bytes] = None
        self.prepare_shares: Dict[int, bytes] = {}
        self.prepare_cert: Optional[bytes] = None
        self.commit_shares: Dict[int, bytes] = {}
        self.commit_cert: Optional[bytes] = None
        self.prepared = False  # this party sent its prepare share
        self.committed = False  # this party sent its commit share


class OptimisticAtomicChannel(Channel):
    """Atomic broadcast with an optimistic sequencer-based fast path.

    Drop-in alternative to :class:`~repro.core.channel.atomic.
    AtomicChannel` (same ``Channel`` API and delivery semantics).
    ``suspect_timeout`` is the liveness-only suspicion delay in seconds.
    """

    kind = "optimistic"

    schemas = {
        MSG_INITIATE: (NAT, ENTRY),  # (epoch, entry)
        MSG_PROPOSE: (NAT, NAT, ListOf(ENTRY, min_len=1)),  # (epoch, slot, batch)
        MSG_PREPARE: (NAT, NAT, bytes, bytes),  # (epoch, slot, digest, share)
        MSG_COMMIT: (NAT, NAT, bytes, bytes),
        MSG_COMPLAIN: NAT,  # epoch
        MSG_WEDGE: WEDGE,
        MSG_FETCH: (NAT, NAT),  # (epoch, slot)
        # (epoch, slot, entries as lists, digest, commit_cert)
        MSG_SLOT_DATA: (NAT, NAT, ListOf(list), bytes, bytes),
    }

    def __init__(
        self,
        ctx: Context,
        pid: str,
        suspect_timeout: float = 5.0,
        max_batch: int = 8,
        window: int = 2,
        max_pending=None,
    ):
        super().__init__(ctx, pid, max_pending=max_pending)
        self.suspect_timeout = suspect_timeout
        self.max_batch = max_batch
        #: sequencer flow control: at most this many slots in flight; a
        #: backlog accumulating behind the window is what fills batches.
        self.window = max(1, window)
        self.epoch = 0
        self._delivered: Set[Tuple[int, int]] = set()
        self._close_origins: Set[int] = set()
        self._own_next_seq = 0
        #: own records not yet delivered: (origin, seq, kind, data, sig)
        self._pending: List[Entry] = []
        self.deliveries: List[Tuple[int, int, bytes]] = []
        self.epochs_used = 1
        self.slots_delivered = 0
        #: finished epochs' slot states, retained to serve laggard fetches
        self._slot_archive: Dict[int, Dict[int, "_SlotState"]] = {}
        self._archive_depth = 4
        self._reset_epoch_state()

    # -- epoch state -------------------------------------------------------------

    def _reset_epoch_state(self) -> None:
        if self.obs.enabled:
            # Every epoch starts on the optimistic fast path.
            self.obs.phase(self.obs_scope, "opt.optimistic")
        self._slots: Dict[int, _SlotState] = {}
        self._slot_times: Dict[int, float] = {}
        self._next_deliver = 0  # contiguous delivered prefix within the epoch
        self._initiated: Dict[Tuple[int, int], Entry] = {}
        self._assigned: Set[Tuple[int, int]] = set()  # sequencer-side
        self._next_assign = 0  # sequencer-side slot counter
        self._complained = False
        self._complaints: Set[int] = set()
        self._wedged = False
        self._wedges: Dict[int, tuple] = {}
        self._cut: Optional[int] = None
        self._cut_mvba: Optional[ArrayAgreement] = None
        self._fetched: Dict[int, List[Entry]] = {}
        self._timer = None

    @property
    def sequencer(self) -> int:
        return self.epoch % self.ctx.n

    def _slot(self, s: int) -> _SlotState:
        return self._slots.setdefault(s, _SlotState())

    # -- submitting payloads ----------------------------------------------------------

    def _pending_count(self) -> int:
        return len(self._pending)

    def _submit(self, data: bytes) -> None:
        self._enqueue_own(KIND_APP, data)

    def _submit_close(self) -> None:
        self._enqueue_own(KIND_CLOSE, b"")

    def _enqueue_own(self, kind: int, data: bytes) -> None:
        origin, seq = self.ctx.node_id, self._own_next_seq
        self._own_next_seq += 1
        sig = self.ctx.crypto.sign(
            SIGN_DOMAIN, entry_string(self.pid, origin, seq, kind, data)
        )
        entry: Entry = (origin, seq, kind, data, sig)
        self._pending.append(entry)
        self._initiate(entry)
        self._arm_timer()

    def _initiate(self, entry: Entry) -> None:
        self.send_all(MSG_INITIATE, (self.epoch, entry))

    # -- suspicion timer (liveness only) ---------------------------------------------------

    def _watching(self) -> bool:
        """Is there work the sequencer should be making progress on?

        Both own pending messages and messages *seen initiated* by others
        count: every honest party watches over every initiated message, so
        that ``t + 1`` complaints can accumulate even when only one party
        is sending.
        """
        return bool(self._pending) or bool(self._initiated)

    def _arm_timer(self) -> None:
        if self._timer is not None or not self._watching() or self._terminated:
            return
        epoch = self.epoch
        self._timer = self.ctx.set_timer(
            self.suspect_timeout, lambda: self._on_timeout(epoch)
        )

    def _on_timeout(self, epoch: int) -> None:
        self._timer = None
        if self._terminated or epoch != self.epoch or self._wedged:
            return
        if self._watching():
            # Re-initiate own messages (an epoch-advance race may have lost
            # the first initiation) and suspect the sequencer.  The
            # complaint is re-broadcast on every timeout: parties that were
            # still finishing the previous epoch dropped the first copy.
            for entry in self._pending:
                self._initiate(entry)
            self._complained = True
            self.send_all(MSG_COMPLAIN, self.epoch)
        self._arm_timer()

    def _send_complaint(self) -> None:
        if not self._complained:
            self._complained = True
            if self.obs.enabled:
                self.obs.count("opt.complaints")
            self.send_all(MSG_COMPLAIN, self.epoch)

    # -- message dispatch ----------------------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if self.halted:
            return
        if mtype == MSG_INITIATE:
            self._on_initiate(sender, payload)
        elif mtype == MSG_PROPOSE:
            self._on_propose(sender, payload)
        elif mtype == MSG_PREPARE:
            self._on_prepare(sender, payload)
        elif mtype == MSG_COMMIT:
            self._on_commit(sender, payload)
        elif mtype == MSG_COMPLAIN:
            self._on_complain(sender, payload)
        elif mtype == MSG_WEDGE:
            self._on_wedge(sender, payload)
        elif mtype == MSG_FETCH:
            self._on_fetch(sender, payload)
        elif mtype == MSG_SLOT_DATA:
            self._on_slot_data(sender, payload)

    # -- the optimistic phase ----------------------------------------------------------------------

    def _signed(self, entry: Entry) -> bool:
        """Does a (shape-checked) entry carry its origin's signature?"""
        origin, seq, kind, data, sig = entry
        return self.ctx.crypto.verify_party(
            origin, SIGN_DOMAIN, entry_string(self.pid, origin, seq, kind, data), sig
        )

    def _on_initiate(self, sender: int, payload: Any) -> None:
        epoch, entry = payload
        if epoch != self.epoch or self._wedged:
            return
        if entry[0] != sender or not self._signed(entry):
            return
        key = (entry[0], entry[1])
        if key in self._delivered:
            return
        self._initiated[key] = entry
        self._arm_timer()  # watch over the message's progress
        if self.ctx.node_id == self.sequencer:
            self._assign_slots()

    def _assign_slots(self) -> None:
        """Sequencer: batch initiated messages into the next slot(s).

        At most :attr:`window` slots are in flight; messages initiated
        while the window is full accumulate and leave in one batch — the
        sequencer's natural batching under load.
        """
        if self._wedged:
            return
        while self._next_assign - self._next_deliver < self.window:
            batch: List[Entry] = []
            for key, entry in self._initiated.items():
                if key in self._assigned or key in self._delivered:
                    continue
                self._assigned.add(key)
                batch.append(entry)
                if len(batch) >= self.max_batch:
                    break
            if not batch:
                return
            s = self._next_assign
            self._next_assign += 1
            self.send_all(MSG_PROPOSE, (self.epoch, s, batch))

    def _on_propose(self, sender: int, payload: Any) -> None:
        epoch, s, entries = payload
        if epoch != self.epoch or sender != self.sequencer or self._wedged:
            return
        state = self._slot(s)
        if state.prepared or state.entries is not None:
            return  # at most one proposal per slot counts
        for entry in entries:
            if (entry[0], entry[1]) in self._delivered or not self._signed(entry):
                return  # a slot with bad entries is ignored entirely
        state.entries = entries
        state.digest = slot_digest(entries)
        state.prepared = True
        if self.obs.enabled:
            # Commit phase of slot s: proposal seen -> local delivery.
            self._slot_times[s] = self.ctx.now()
        share = self.ctx.crypto.aba_signer.sign_share(
            prepare_string(self.pid, epoch, s, state.digest)
        )
        self.send_all(MSG_PREPARE, (epoch, s, state.digest, share))
        # Shares may have arrived before the proposal did.
        self._try_prepare_cert(epoch, s, state.digest, state)
        self._maybe_commit_cert(epoch, s, state)

    def _on_prepare(self, sender: int, payload: Any) -> None:
        epoch, s, digest, share = payload
        if epoch != self.epoch or self._wedged:
            return
        state = self._slot(s)
        if state.digest is not None and digest != state.digest:
            return  # conflicts with the sequencer's proposal we saw
        scheme = self.ctx.crypto.aba_scheme
        try:
            if scheme.share_index(share) != sender + 1:
                return
        except InvalidShare:
            return
        state.prepare_shares[sender + 1] = share
        self._try_prepare_cert(epoch, s, digest, state)

    def _try_prepare_cert(self, epoch: int, s: int, digest: bytes, state: _SlotState) -> None:
        scheme = self.ctx.crypto.aba_scheme
        if state.commit_cert is not None or state.committed:
            return
        if state.digest is None or len(state.prepare_shares) < scheme.k:
            return
        cert = combine_optimistically(
            scheme, prepare_string(self.pid, epoch, s, state.digest),
            state.prepare_shares, verifier=self.ctx.crypto.accel,
        )
        if cert is None:
            return
        state.prepare_cert = cert
        state.committed = True
        share = self.ctx.crypto.aba_signer.sign_share(
            commit_string(self.pid, epoch, s, state.digest)
        )
        self.send_all(MSG_COMMIT, (epoch, s, state.digest, share))

    def _on_commit(self, sender: int, payload: Any) -> None:
        epoch, s, digest, share = payload
        if epoch != self.epoch:
            return
        state = self._slot(s)
        if state.digest is not None and digest != state.digest:
            return
        scheme = self.ctx.crypto.aba_scheme
        try:
            if scheme.share_index(share) != sender + 1:
                return
        except InvalidShare:
            return
        state.commit_shares[sender + 1] = share
        self._maybe_commit_cert(epoch, s, state)

    def _maybe_commit_cert(self, epoch: int, s: int, state: _SlotState) -> None:
        scheme = self.ctx.crypto.aba_scheme
        if state.commit_cert is not None or len(state.commit_shares) < scheme.k:
            return
        if state.digest is None:
            return  # cannot check the certificate without the proposal
        cert = combine_optimistically(
            scheme, commit_string(self.pid, epoch, s, state.digest),
            state.commit_shares, verifier=self.ctx.crypto.accel,
        )
        if cert is None:
            return
        state.commit_cert = cert
        if not state.committed:
            # This party assembled a full commit certificate from others'
            # shares before its own prepare certificate completed (its
            # links were slow), so it never broadcast a commit share.  It
            # must still do so: with t parties withholding shares, the
            # honest parties number exactly the quorum k = n - t, so every
            # honest share is needed for every *other* party's certificate
            # — skipping here starves slower parties forever.  Sound even
            # without a prepare certificate: the commit certificate itself
            # proves the digest was prepared.
            state.committed = True
            share = self.ctx.crypto.aba_signer.sign_share(
                commit_string(self.pid, epoch, s, state.digest)
            )
            self.send_all(MSG_COMMIT, (epoch, s, state.digest, share))
        self._deliver_ready_slots()

    def _deliver_ready_slots(self) -> None:
        """Deliver contiguously committed slots (cut-bounded in recovery)."""
        while True:
            if self._terminated:
                # The previous slot completed the close quorum.  Stop even
                # if later slots already hold commit certificates: the
                # channel's final sequence must end at the same slot for
                # every honest party, and parties differ in which later
                # certificates they happen to hold at that moment.
                return
            limit = self._cut if self._cut is not None else None
            s = self._next_deliver
            if limit is not None and s >= limit:
                self._finish_epoch()
                return
            state = self._slots.get(s)
            if state is None or state.commit_cert is None or state.entries is None:
                return
            if self.obs.enabled:
                self.obs.count("opt.slots_delivered")
                proposed_at = self._slot_times.pop(s, None)
                if proposed_at is not None:
                    self.obs.observe(
                        "phase.opt.commit", self.ctx.now() - proposed_at
                    )
            self._deliver_slot(state.entries)
            self._next_deliver += 1
            self.slots_delivered += 1
            if self.ctx.node_id == self.sequencer and not self._wedged:
                self._assign_slots()  # the window advanced

    def _deliver_slot(self, entries: List[Entry]) -> None:
        for origin, seq, kind, data, _ in entries:
            key = (origin, seq)
            if key in self._delivered:
                continue
            self._delivered.add(key)
            self._initiated.pop(key, None)
            self._pending = [e for e in self._pending if (e[0], e[1]) != key]
            if kind == KIND_CLOSE:
                self._close_origins.add(origin)
            else:
                self.deliveries.append((origin, seq, data))
                self._emit_output(data)
        if not self._pending and self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if len(self._close_origins) > self.ctx.t and self._cut is None:
            self._terminate()

    # -- complaints and wedging --------------------------------------------------------------------

    def _on_complain(self, sender: int, payload: Any) -> None:
        if payload != self.epoch:
            return
        self._complaints.add(sender)
        if len(self._complaints) > self.ctx.t:
            self._send_complaint()  # amplification
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        if self._wedged or self._terminated:
            return
        self._wedged = True
        if self.obs.enabled:
            self.obs.count("opt.recoveries")
            # Fast path abandoned: time from here to the epoch's end is
            # the recovery phase (wedge quorum + cut MVBA + fetches).
            self.obs.phase(self.obs_scope, "opt.recovery")
        prefix = self._next_deliver
        if prefix > 0:
            last = self._slots[prefix - 1]
            digest, cert = last.digest, last.commit_cert
        else:
            digest, cert = b"", None
        sig = self.ctx.crypto.sign(
            SIGN_DOMAIN, wedge_string(self.pid, self.epoch, prefix, digest)
        )
        self.send_all(MSG_WEDGE, (self.epoch, prefix, digest, cert, sig))

    def _valid_wedge(self, party: int, payload: Any) -> Optional[tuple]:
        """Check a (shape-checked) wedge statement of ``party``."""
        epoch, prefix, digest, cert, sig = payload
        if epoch != self.epoch:
            return None
        if not self.ctx.crypto.verify_party(
            party, SIGN_DOMAIN, wedge_string(self.pid, epoch, prefix, digest), sig
        ):
            return None
        if prefix > 0:
            if cert is None or not self.ctx.crypto.accel.sig_ok(
                self.ctx.crypto.aba_scheme,
                commit_string(self.pid, epoch, prefix - 1, digest),
                cert,
            ):
                return None
        return (party, prefix, digest, cert, sig)

    def _on_wedge(self, sender: int, payload: Any) -> None:
        if self._cut is not None:
            return
        wedge = self._valid_wedge(sender, payload)
        if wedge is None or sender in self._wedges:
            return
        self._wedges[sender] = wedge
        quorum = self.ctx.n - self.ctx.t
        if self._wedged and self._cut_mvba is None and len(self._wedges) >= quorum:
            batch = list(self._wedges.values())[:quorum]
            epoch = self.epoch
            self._cut_mvba = ArrayAgreement(
                self.ctx,
                f"{self.pid}/e{epoch}/cut",
                validator=self._make_cut_validator(epoch),
            )
            self._cut_mvba.on_decide = self._on_cut_decided
            self._cut_mvba.propose(encode([list(w) for w in batch]))

    def _make_cut_validator(self, epoch: int):
        def is_valid(value: bytes) -> bool:
            return self._decode_cut(epoch, value) is not None

        return is_valid

    def _decode_cut(self, epoch: int, value: bytes) -> Optional[int]:
        """Validate a wedge batch; return the cut (max certified prefix)."""
        if epoch != self.epoch:
            return None
        try:
            batch = decode(value)
        except EncodingError:
            return None
        quorum = self.ctx.n - self.ctx.t
        # one [party, prefix, digest, cert, sig] row per wedge
        if not conforms(ListOf(ListOf(ANY, 5, 5), quorum, quorum), batch):
            return None
        seen: Set[int] = set()
        cut = 0
        for party, *fields in batch:
            statement = (epoch, *fields)
            if not isinstance(party, int) or party in seen or not conforms(WEDGE, statement):
                return None
            wedge = self._valid_wedge(party, statement)
            if wedge is None:
                return None
            seen.add(party)
            cut = max(cut, wedge[1])
        return cut

    # -- recovery: agree on the cut, fetch, advance ---------------------------------------------------

    def _on_cut_decided(self, mvba: ArrayAgreement, value: bytes, proof) -> None:
        if self._terminated:
            return
        cut = self._decode_cut(self.epoch, value)
        if cut is None:
            raise ProtocolError("agreed wedge batch failed validation")
        self._cut = cut
        self._deliver_ready_slots()
        self._request_missing()

    def _request_missing(self) -> None:
        if self._cut is None or self._terminated:
            return
        missing = False
        for s in range(self._next_deliver, self._cut):
            state = self._slots.get(s)
            if state is None or state.commit_cert is None or state.entries is None:
                missing = True
                self.send_all(MSG_FETCH, (self.epoch, s))
        if missing:
            # Holders may still be assembling their certificates; retry.
            epoch = self.epoch
            self.ctx.set_timer(
                self.suspect_timeout / 2,
                lambda: self._request_missing() if epoch == self.epoch else None,
            )

    def _on_fetch(self, sender: int, payload: Any) -> None:
        epoch, s = payload
        # Serve fetches for the current epoch AND recently finished ones:
        # a laggard still recovering epoch e must be able to fetch from
        # parties that already advanced past it.
        if epoch == self.epoch:
            state = self._slots.get(s)
        else:
            state = self._slot_archive.get(epoch, {}).get(s)
        if state is None or state.entries is None or state.commit_cert is None:
            return
        self.unicast(
            sender,
            MSG_SLOT_DATA,
            (epoch, s, [list(e) for e in state.entries], state.digest, state.commit_cert),
        )

    def _on_slot_data(self, sender: int, payload: Any) -> None:
        epoch, s, raw_entries, digest, cert = payload
        if epoch != self.epoch or self._cut is None:
            return
        state = self._slot(s)
        if state.commit_cert is not None and state.entries is not None:
            return
        entries = [tuple(raw) for raw in raw_entries]
        for entry in entries:
            if not conforms(ENTRY, entry) or not self._signed(entry):
                return
        if slot_digest(entries) != digest:
            return
        if not self.ctx.crypto.accel.sig_ok(
            self.ctx.crypto.aba_scheme, commit_string(self.pid, epoch, s, digest), cert
        ):
            return
        state.entries = entries
        state.digest = digest
        state.commit_cert = cert
        self._deliver_ready_slots()

    def _finish_epoch(self) -> None:
        """Cut reached: rotate the sequencer and re-initiate pending work."""
        if len(self._close_origins) > self.ctx.t:
            self._terminate()
            return
        self._slot_archive[self.epoch] = self._slots
        for old in [e for e in self._slot_archive if e <= self.epoch - self._archive_depth]:
            del self._slot_archive[old]
        self.epoch += 1
        self.epochs_used += 1
        pending = list(self._pending)
        self._reset_epoch_state()
        for entry in pending:
            self._initiate(entry)
        self._arm_timer()
