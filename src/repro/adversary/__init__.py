"""In-process Byzantine adversary framework (`repro.adversary`).

Up to ``t`` replicas run the genuine protocol stack behind an
:class:`AdversarialContext` that executes a pluggable, seeded intrusion
:class:`Strategy` — equivocation, share corruption and withholding,
justified double votes, replay, certificate forgery, selective silence —
while a :class:`LivenessWatchdog` turns stalls into typed
:class:`LivenessViolation` errors with protocol-state dumps.  The shared
case core (:mod:`repro.testing.case`) composes both with the
schedule-exploration chaos fabric and reports every failure as a
replayable ``ADV-REPRO`` line; ``python -m repro.adversary`` is its CLI.

See ``docs/ADVERSARY.md`` for the strategy catalog, the watchdog
contract, and the replay workflow.
"""

from repro.adversary.context import AdversarialContext, infect
from repro.adversary.strategies import STRATEGIES, Strategy, make_strategy
from repro.adversary.watchdog import (
    LivenessViolation,
    LivenessWatchdog,
    ProgressSentinel,
    sentinel_for,
)

__all__ = [
    "AdversarialContext",
    "LivenessViolation",
    "LivenessWatchdog",
    "ProgressSentinel",
    "STRATEGIES",
    "Strategy",
    "infect",
    "make_strategy",
    "sentinel_for",
]
