"""Threshold-certified checkpoints.

Every ``K`` delivered slots each replica signs the statement
``(pid, seq, digest)`` where ``digest`` hashes the *checkpoint package* —
the state snapshot together with the channel bookkeeping (delivered keys,
close origins, next round) needed to resume delivery after the covered
prefix.  Because the package is a pure function of the slot sequence,
honest replicas produce byte-identical packages and their shares combine.

The certificate is a ``k = t + 1`` multi-signature over the group's
per-party RSA keys (``crypto/threshold_sig.py``).  ``t + 1`` shares mean
at least one *honest* replica attests the digest, so a recovering replica
can accept the package from any single peer once the certificate
verifies — a Byzantine sender cannot forge a certificate for a corrupted
snapshot.  (This piggybacks on the dealt per-party keys rather than a
separately dealt Shoup instance, so it works for both ``sig_mode``
deals.)
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError, ReproError
from repro.core.schema import NAT, POS, ListOf, Maybe, conforms
from repro.crypto.threshold_sig import MultiSignatureScheme, ThresholdSigner

CHECKPOINT_DOMAIN = "sintra.recovery.checkpoint"


class CheckpointError(ReproError):
    """A checkpoint package or certificate is malformed or invalid."""


def checkpoint_statement(pid: str, seq: int, package_digest: bytes) -> bytes:
    """The byte string every replica threshold-signs at a checkpoint."""
    return encode(("recovery-ckpt", pid, seq, package_digest))


def checkpoint_scheme(crypto) -> MultiSignatureScheme:
    """The group's ``t + 1``-of-``n`` certificate scheme.

    Built over the dealt per-party RSA verification keys, which every
    ``PartyCrypto`` already holds — no extra dealing step.
    """
    return MultiSignatureScheme(
        crypto.n, crypto.t + 1, crypto.t, crypto.party_public_keys,
        CHECKPOINT_DOMAIN,
    )


def checkpoint_signer(
    crypto, scheme: Optional[MultiSignatureScheme] = None
) -> ThresholdSigner:
    """This party's share signer, bound to its ordinary RSA keypair."""
    scheme = scheme if scheme is not None else checkpoint_scheme(crypto)
    return scheme.signer(crypto.index0 + 1, crypto.rsa)


# -- the checkpoint package ---------------------------------------------------------

#: (snapshot, delivered (origin, seq) keys, close origins, next round)
PACKAGE = (bytes, ListOf((int, NAT)), ListOf(int), POS)
#: a membership-aware package adds (epoch, roster)
EPOCH_PACKAGE = (*PACKAGE, NAT, ListOf(Maybe(str)))


def make_package(
    snapshot: bytes,
    delivered: List[Tuple[int, int]],
    close_origins: List[int],
    base_round: int,
    epoch: int = 0,
    roster: Optional[List[Optional[str]]] = None,
) -> bytes:
    """Canonical encoding of (snapshot, delivered keys, closes, next round).

    Deterministic in the slot sequence alone: the lists are sorted and
    ``base_round`` is derived from the last covered slot's round, so all
    honest replicas produce identical bytes and their signature shares
    combine.

    Membership-aware services additionally record their epoch and roster
    (slot → member uid, ``None`` for a vacant slot), extending the
    encoding to a 6-tuple; the plain 4-tuple form is kept byte-identical
    for static groups so existing certificates stay valid.
    """
    base = (
        snapshot,
        sorted((int(o), int(s)) for o, s in delivered),
        sorted(int(o) for o in close_origins),
        int(base_round),
    )
    if epoch == 0 and roster is None:
        return encode(base)
    if roster is None:
        raise CheckpointError("an epoch > 0 package must carry its roster")
    return encode(base + (int(epoch), list(roster)))


def parse_package_full(
    package: bytes,
) -> Tuple[bytes, List[Tuple[int, int]], Set[int], int, int,
           Optional[List[Optional[str]]]]:
    """Decode and shape-check a checkpoint package from an untrusted peer.

    Returns ``(snapshot, delivered, closes, base_round, epoch, roster)``;
    a legacy 4-tuple package parses as epoch 0 with ``roster = None``.
    """
    try:
        parsed = decode(package)
    except EncodingError as exc:
        raise CheckpointError("undecodable checkpoint package") from exc
    if conforms(PACKAGE, parsed):
        parsed += (0, None)
    elif not conforms(EPOCH_PACKAGE, parsed):
        raise CheckpointError("malformed checkpoint package")
    snapshot, delivered, closes, base_round, epoch, roster = parsed
    return snapshot, delivered, set(closes), base_round, epoch, roster


def parse_package(
    package: bytes,
) -> Tuple[bytes, List[Tuple[int, int]], Set[int], int]:
    """Legacy accessor: the first four fields of :func:`parse_package_full`."""
    return parse_package_full(package)[:4]


@dataclass(frozen=True)
class Checkpoint:
    """A certified checkpoint: sequence, package, group certificate."""

    seq: int
    package: bytes
    signature: bytes

    @property
    def digest(self) -> bytes:
        return hashlib.sha256(self.package).digest()

    def statement(self, pid: str) -> bytes:
        return checkpoint_statement(pid, self.seq, self.digest)

    def verify(self, scheme: MultiSignatureScheme, pid: str) -> bool:
        """Does the group certificate cover this (pid, seq, package)?"""
        return scheme.verify(self.statement(pid), self.signature)


# -- durable storage ---------------------------------------------------------------


class CheckpointStore:
    """Holds the newest certified checkpoint on disk (atomic replace)."""

    _MAGIC = b"SINTRA-CKPT1"

    def __init__(self, path: str):
        self.path = path
        self.latest: Optional[Checkpoint] = None
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            blob = fh.read()
        if not blob.startswith(self._MAGIC):
            return  # unrecognized or torn: recovery falls back to peers
        try:
            parsed = decode(blob[len(self._MAGIC):])
        except EncodingError:
            return
        if not conforms((int, bytes, bytes), parsed):  # (seq, package, signature)
            return
        self.latest = Checkpoint(seq=parsed[0], package=parsed[1], signature=parsed[2])

    def save(self, checkpoint: Checkpoint) -> None:
        """Persist atomically: write tmp, fsync, rename over the old file."""
        tmp = self.path + ".tmp"
        blob = self._MAGIC + encode(
            (checkpoint.seq, checkpoint.package, checkpoint.signature)
        )
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self.latest = checkpoint
