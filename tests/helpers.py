"""Test helpers: a mock protocol context and simulation shorthands."""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.core.protocol import Context, Router
from repro.net.latency import lan_latency
from repro.net.runtime import SimRuntime
from repro.testing.schedule import case_seed_for, plan_from_seed


class LocalFuture:
    """Synchronous future for direct-drive protocol tests."""

    def __init__(self):
        self.done = False
        self.value = None

    def resolve(self, value=None):
        assert not self.done, "future resolved twice"
        self.done = True
        self.value = value


class LocalQueue:
    """Synchronous queue for direct-drive protocol tests."""

    def __init__(self):
        self.items: List[Any] = []

    def put(self, item):
        self.items.append(item)

    def can_get(self):
        return bool(self.items)

    def __len__(self):
        return len(self.items)


class MockContext(Context):
    """Drives a single protocol instance directly; records all sends.

    Effects apply immediately; ``sent`` collects ``(dst, pid, mtype,
    payload)`` tuples for assertions.
    """

    def __init__(self, group, node_id: int = 0):
        self.node_id = node_id
        self.n = group.n
        self.t = group.t
        self.crypto = group.party(node_id)
        self.router = Router()
        self.sent: List[Tuple[int, str, str, Any]] = []
        self._deferred: List[Callable] = []
        self.timers: List[Tuple[float, Callable, Any]] = []
        self._clock = 0.0

    def send(self, dst, pid, mtype, payload):
        self.sent.append((dst, pid, mtype, payload))

    def effect(self, fn: Callable, *args):
        fn(*args)

    def defer(self, fn):
        # Queued, not immediate: the router defers buffered-message replay
        # until the protocol instance has finished constructing.
        self._deferred.append(fn)

    def flush(self):
        """Run deferred work (e.g. buffered-message replay)."""
        while self._deferred:
            self._deferred.pop(0)()

    def set_timer(self, delay, fn):
        from repro.core.protocol import Timer

        timer = Timer()
        self.timers.append((delay, fn, timer))
        return timer

    def fire_timers(self):
        """Fire all pending (uncancelled) timers, in scheduling order."""
        pending, self.timers = self.timers, []
        for _, fn, timer in pending:
            if timer.active:
                fn()

    def new_queue(self):
        return LocalQueue()

    def new_future(self):
        return LocalFuture()

    def now(self):
        return self._clock

    # -- assertions ------------------------------------------------------------

    def sent_of_type(self, mtype: str):
        return [s for s in self.sent if s[2] == mtype]


def sim_runtime(group, seed=1, latency=None, **kwargs) -> SimRuntime:
    """A LAN runtime with no CPU cost model (fast unit tests)."""
    return SimRuntime(
        group, latency=latency or lan_latency(), seed=seed, **kwargs
    )


def run_and_get(rt, futures, limit=600.0):
    """Run the simulation until every future resolves; return values."""
    return rt.run_all(list(futures), limit=limit)


def no_errors(rt):
    """Assert no handler raised during an honest run."""
    errors = rt.router_errors()
    assert not errors, f"handler errors in honest run: {errors[:5]}"


def first_case(root_seed: int, scenario: str, n: int, t: int, wanted: Callable) -> int:
    """The first fuzz case seed under ``root_seed`` whose fault plan
    satisfies ``wanted(plan)`` (a plan is a list of directives)."""
    for i in range(200):
        seed = case_seed_for(root_seed, scenario, n, t, i)
        if wanted(plan_from_seed(seed, n, t)):
            return seed
    raise AssertionError(f"no {scenario} plan among 200 cases fits")  # pragma: no cover
