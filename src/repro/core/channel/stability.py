"""A stability mechanism over the consistent channel (paper Sec. 2.7).

The consistent channel guarantees only *consistency*: parties that deliver
a slot deliver the same payload, but some honest parties may deliver
nothing.  The paper notes these cheap channels become useful "in
particular when combined with external means to provide agreement about
which messages have actually been delivered.  For example, Malkhi,
Merritt, and Rodeh propose an external 'stability mechanism' with this
effect; their WAN broadcast protocol corresponds to SINTRA's consistent
channel combined with such a stability mechanism."

This module is that combination.  On top of each consistent-channel
delivery, parties gossip signed acknowledgment vectors (their per-sender
delivered counts).  A slot ``(sender, seq)`` is **stable** once ``t + 1``
distinct parties have acknowledged delivering it: at least one of them is
honest, and by consistency every party that ever delivers the slot
delivers the same payload — so a stable message is both agreed-upon and
durable (an honest holder can always re-serve it).

The stable deliveries form a second, lagging output stream
(:attr:`StabilizedConsistentChannel.stable_outputs`), in per-sender FIFO
order.  Applications needing cross-party agreement act on the stable
stream; latency-tolerant ones read the raw stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.channel.consistent_channel import ConsistentChannel
from repro.core.protocol import Context
from repro.core.schema import NAT, ListOf

MSG_ACK = "stab-ack"


class StabilizedConsistentChannel(ConsistentChannel):
    """Consistent channel + the external stability mechanism."""

    kind = "stab-consistent"

    #: a cumulative acknowledgment vector holds one count per party; the
    #: instance pins its length to ``n``
    schemas = {MSG_ACK: ListOf(NAT)}

    def __init__(self, ctx: Context, pid: str, max_pending: Optional[int] = None):
        super().__init__(ctx, pid, max_pending=max_pending)
        self.schemas = {MSG_ACK: ListOf(NAT, ctx.n, ctx.n)}
        #: the stable (agreed-delivered) output stream
        self.stable_outputs = ctx.new_queue()
        #: (sender, seq) -> payload, held until stability
        self._held: Dict[Tuple[int, int], bytes] = {}
        #: raw-delivery time per held slot, for the stability-lag phase
        self._held_since: Dict[Tuple[int, int], float] = {}
        #: acker -> per-sender delivered counts (cumulative vector)
        self._ack_vectors: Dict[int, Dict[int, int]] = {}
        #: next slot per sender to be released as stable
        self._stable_next: Dict[int, int] = {j: 0 for j in range(ctx.n)}
        self.stable_deliveries: List[Tuple[int, bytes]] = []

    # -- intercept deliveries to gossip acknowledgment vectors ---------------------

    def _on_instance_delivered(self, bc, payload: bytes) -> None:
        sender = bc.sender
        seq = self._seq[sender]  # sequence number being delivered now
        before = len(self.deliveries)
        super()._on_instance_delivered(bc, payload)
        if len(self.deliveries) > before:  # an app payload was delivered
            self._held[(sender, seq)] = self.deliveries[-1][1]
            if self.obs.enabled:
                self._held_since[(sender, seq)] = self.ctx.now()
        if not self._terminated:
            # gossip the updated cumulative vector (covers close markers too)
            vector = [self._seq[j] for j in range(self.ctx.n)]
            self.send_all(MSG_ACK, vector)
            self._consider_stable()

    # -- acknowledgment handling ------------------------------------------------------

    def on_message(self, sender: int, mtype: str, payload: Any) -> None:
        if mtype != MSG_ACK or self._terminated:
            return
        if self.obs.enabled:
            self.obs.count("stab.acks")
        current = self._ack_vectors.setdefault(sender, {j: 0 for j in range(self.ctx.n)})
        for j, count in enumerate(payload):
            # vectors are cumulative: only monotone progress counts
            current[j] = max(current[j], count)
        self._consider_stable()

    def _consider_stable(self) -> None:
        """Release slots acknowledged by t + 1 parties, in FIFO order."""
        changed = True
        while changed:
            changed = False
            for sender in range(self.ctx.n):
                seq = self._stable_next[sender]
                ackers = sum(
                    1
                    for acker, vector in self._ack_vectors.items()
                    if acker != self.ctx.node_id and vector.get(sender, 0) > seq
                )
                # own delivery counts as one acknowledgment (our broadcast
                # ack loops back too; count ourselves exactly once)
                if self._seq[sender] > seq:
                    ackers += 1
                if ackers <= self.ctx.t:
                    continue
                self._stable_next[sender] = seq + 1
                payload = self._held.pop((sender, seq), None)
                if payload is not None:
                    if self.obs.enabled:
                        self.obs.count("stab.stable_deliveries")
                        held_at = self._held_since.pop((sender, seq), None)
                        if held_at is not None:
                            # Delivery-to-stability lag: the price of the
                            # external agreement the paper describes.
                            self.obs.observe(
                                "phase.stab.lag", self.ctx.now() - held_at
                            )
                    self.stable_deliveries.append((sender, payload))
                    self.ctx.effect(self.stable_outputs.put, payload)
                changed = True

    # -- API ---------------------------------------------------------------------------

    def receive_stable(self) -> Any:
        """Future resolving with the next *stable* payload."""
        return self.stable_outputs.get()

    def can_receive_stable(self) -> bool:
        return self.stable_outputs.can_get()

    def stability_lag(self) -> int:
        """Messages delivered locally but not yet known stable."""
        return len(self._held)
