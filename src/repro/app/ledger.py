"""A replicated payment ledger — intrusion-tolerant double-spend prevention.

The classic motivation for Byzantine-fault-tolerant total order: a payment
service must process conflicting transfers in one agreed order, or a
client can spend the same balance twice at two different servers.  On
SINTRA's atomic broadcast the ledger is an ordinary deterministic state
machine:

* every command is **client-signed** (standard RSA over the canonical
  command encoding) and carries a per-account **nonce**, so neither a
  corrupted server nor the network can forge or replay transfers — the
  state machine itself verifies, which keeps all replicas identical even
  if a corrupted replica feeds garbage into the channel;
* the total order resolves double spends: of two conflicting transfers,
  whichever is delivered first succeeds and the other fails identically
  at every replica;
* conservation: the sum of balances never changes after minting, an
  invariant the property tests check over random command streams.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.app.replication import ReplicatedService, StateMachine
from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.core.party import Party
from repro.core.schema import ListOf, conforms
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey

SIGN_DOMAIN = "sintra.ledger"


def transfer_statement(
    src: bytes, dst: bytes, amount: int, nonce: int
) -> bytes:
    """The byte string a client signs to authorize a transfer."""
    return encode(("ledger-transfer", src, dst, amount, nonce))


class Ledger(StateMachine):
    """The deterministic ledger state machine.

    Accounts are opened with a client public key and minted an initial
    balance (minting is the setup operation a real deployment would gate;
    here it models external deposits).  Transfers must be signed by the
    *source* account's key and carry its next nonce.
    """

    def __init__(self) -> None:
        #: account -> (public key (n, e), balance, next expected nonce)
        self.accounts: Dict[bytes, Tuple[Tuple[int, int], int, int]] = {}

    # -- command encoders --------------------------------------------------------

    @staticmethod
    def cmd_open(account: bytes, pubkey: RSAPublicKey, amount: int) -> bytes:
        return encode(("open", account, pubkey.n, pubkey.e, amount))

    @staticmethod
    def cmd_transfer(
        src: bytes, dst: bytes, amount: int, nonce: int, key: RSAKeyPair
    ) -> bytes:
        signature = key.sign(SIGN_DOMAIN, transfer_statement(src, dst, amount, nonce))
        return encode(("transfer", src, dst, amount, nonce, signature))

    @staticmethod
    def cmd_balance(account: bytes) -> bytes:
        return encode(("balance", account))

    # -- state machine -------------------------------------------------------------

    def apply(self, command: bytes) -> bytes:
        try:
            parsed = decode(command)
        except EncodingError:
            return encode(("error", b"malformed"))
        if not isinstance(parsed, tuple) or not parsed:
            return encode(("error", b"malformed"))
        op = parsed[0]
        try:
            if op == "open":
                return self._open(*parsed[1:])
            if op == "transfer":
                return self._transfer(*parsed[1:])
            if op == "balance":
                (account,) = parsed[1:]
                if account not in self.accounts:
                    return encode(("error", b"unknown account"))
                return encode(("balance", account, self.accounts[account][1]))
        except (ValueError, TypeError):
            return encode(("error", b"malformed"))
        return encode(("error", b"unknown op"))

    def _open(self, account: bytes, key_n: int, key_e: int, amount: int) -> bytes:
        if not isinstance(amount, int) or amount < 0:
            return encode(("error", b"bad amount"))
        if account in self.accounts:
            return encode(("error", b"account exists"))
        self.accounts[account] = ((key_n, key_e), amount, 0)
        return encode(("opened", account, amount))

    def _transfer(
        self, src: bytes, dst: bytes, amount: int, nonce: int, signature: int
    ) -> bytes:
        if src not in self.accounts or dst not in self.accounts:
            return encode(("error", b"unknown account"))
        if not isinstance(amount, int) or amount <= 0:
            return encode(("error", b"bad amount"))
        (key_n, key_e), balance, expected_nonce = self.accounts[src]
        if nonce != expected_nonce:
            return encode(("error", b"bad nonce"))  # replay or gap
        pubkey = RSAPublicKey(n=key_n, e=key_e)
        if not isinstance(signature, int) or not pubkey.verify(
            SIGN_DOMAIN, transfer_statement(src, dst, amount, nonce), signature
        ):
            return encode(("error", b"bad signature"))
        if amount > balance:
            return encode(("error", b"insufficient funds"))
        dkey, dbalance, dnonce = self.accounts[dst]
        self.accounts[src] = ((key_n, key_e), balance - amount, expected_nonce + 1)
        self.accounts[dst] = (dkey, dbalance + amount, dnonce)
        return encode(("transferred", src, dst, amount))

    # -- invariants / inspection ---------------------------------------------------

    def total_supply(self) -> int:
        return sum(balance for _, balance, _ in self.accounts.values())

    def balance(self, account: bytes) -> Optional[int]:
        entry = self.accounts.get(account)
        return entry[1] if entry else None

    def snapshot(self) -> bytes:
        return encode(sorted(
            (account, key[0], key[1], balance, nonce)
            for account, (key, balance, nonce) in self.accounts.items()
        ))

    def restore(self, snapshot: bytes) -> None:
        entries = decode(snapshot)
        # (account, key_n, key_e, balance, nonce) per account
        if not conforms(ListOf((bytes, int, int, int, int)), entries):
            raise EncodingError("ledger snapshot malformed")
        self.accounts = {
            account: ((key_n, key_e), balance, nonce)
            for account, key_n, key_e, balance, nonce in entries
        }


class ReplicatedLedger(ReplicatedService):
    """One replica of the payment ledger."""

    def __init__(self, party: Party, pid: str = "ledger", **channel_kwargs: Any):
        super().__init__(party, pid, Ledger(), **channel_kwargs)

    @property
    def ledger(self) -> Ledger:
        return self.state  # type: ignore[return-value]

    def open(self, account: bytes, pubkey: RSAPublicKey, amount: int) -> None:
        self.submit(Ledger.cmd_open(account, pubkey, amount))

    def transfer(
        self, src: bytes, dst: bytes, amount: int, nonce: int, key: RSAKeyPair
    ) -> None:
        self.submit(Ledger.cmd_transfer(src, dst, amount, nonce, key))

    def balance_of(self, account: bytes) -> Optional[int]:
        return self.ledger.balance(account)
