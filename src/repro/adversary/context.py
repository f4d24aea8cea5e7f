"""The adversarial execution context: a Byzantine replica's I/O boundary.

An intruded replica in the paper's model runs arbitrary code but keeps
only *its own* key material.  :class:`AdversarialContext` models exactly
that position in-process: it wraps a party's real
:class:`~repro.core.protocol.Context`, lets the genuine protocol stack run
unmodified on top of it, and hands every outbound protocol message —
``(dst, pid, mtype, payload)``, *before* sealing — to a pluggable
:class:`~repro.adversary.strategies.Strategy`, which may pass, drop,
rewrite, redirect, multiply or fabricate messages.  Because interception
happens above the authenticated link layer, everything the strategy emits
is sealed with the compromised party's own keys: the receivers see
*validly authenticated* Byzantine protocol traffic, the semantic layer the
wire-level :class:`~repro.testing.mutator.ByzantineMutator` cannot reach.

Inbound traffic is observed (not filtered) by registering the strategy on
the party's :class:`~repro.core.protocol.Router` observer hook — a
Byzantine replica knows everything it receives, which is what lets
stateful strategies assemble threshold-signature justifications for
equivocating votes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.adversary.strategies import Strategy, make_strategy
from repro.common import rng as rng_mod
from repro.core.protocol import Context, Timer


class AdversarialContext(Context):
    """Wrap ``inner`` so a strategy mediates all outbound protocol traffic."""

    def __init__(self, inner: Context, strategy: Any):
        self.inner = inner
        self.node_id = inner.node_id
        self.n = inner.n
        self.t = inner.t
        self.crypto = inner.crypto
        self.router = inner.router
        self.obs = inner.obs
        self.strategy = strategy
        strategy.bind(self)

    # -- the interception point --------------------------------------------------

    def raw_send(self, dst: int, pid: str, mtype: str, payload: Any) -> None:
        """Emit one message unmediated (used by strategies themselves)."""
        self.inner.send(dst, pid, mtype, payload)

    def send(self, dst: int, pid: str, mtype: str, payload: Any) -> None:
        for action in self.strategy.outbound(dst, pid, mtype, payload):
            self.inner.send(*action)

    def broadcast(self, pid: str, mtype: str, payload: Any) -> None:
        actions = self.strategy.outbound_broadcast(pid, mtype, payload)
        if actions is None:
            # Not a broadcast-aware strategy: mediate each copy separately.
            super().broadcast(pid, mtype, payload)
            return
        for action in actions:
            self.inner.send(*action)

    # -- everything else delegates to the real runtime context -------------------

    def effect(self, fn: Callable, *args: Any) -> None:
        self.inner.effect(fn, *args)

    def defer(self, fn: Callable[[], None]) -> None:
        self.inner.defer(fn)

    def api(self, fn: Callable[[], None]) -> None:
        self.inner.api(fn)

    def new_queue(self) -> Any:
        return self.inner.new_queue()

    def new_future(self) -> Any:
        return self.inner.new_future()

    def now(self) -> float:
        return self.inner.now()

    def set_timer(self, delay: float, fn: Callable[[], None]) -> Timer:
        return self.inner.set_timer(delay, fn)


def infect(
    runtime: Any, strategy_name: str, case_seed: int, parties: Sequence[int]
) -> List[Strategy]:
    """Run each of ``parties`` behind its own seeded ``strategy_name``.

    Wraps the parties' contexts in :class:`AdversarialContext` and taps
    their routers so each strategy sees its full inbound view.  Call it
    before any protocol instance is built, so the whole stack of every
    intruded replica runs behind the strategy.  Returns the strategies,
    whose ``actions`` count what they did.
    """
    colluders = frozenset(parties)
    strategies: List[Strategy] = []
    for i in parties:
        strategy = make_strategy(
            strategy_name, rng_mod.derive(case_seed, "strategy", i)
        )
        strategy.adversaries = colluders
        runtime.contexts[i] = AdversarialContext(runtime.contexts[i], strategy)
        runtime.routers[i].observers.append(strategy.observe)
        strategies.append(strategy)
    return strategies
