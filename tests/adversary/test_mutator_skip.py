"""Unparseable frames no longer vanish silently from the mutator.

A frame the :class:`ByzantineMutator` cannot open passes through the
structural mutations unharmed; that used to be invisible, hiding coverage
gaps whenever the wire format drifted.  Now every such frame shows up in
``actions["skipped"]`` and, with a recorder, as the ``mutator.skipped``
counter in exported BENCH records.
"""

from __future__ import annotations

import random

from repro.common.encoding import encode
from repro.net import links
from repro.obs.recorder import MemoryRecorder
from repro.testing.mutator import ByzantineMutator, MutationRates

QUIET = MutationRates(drop=0, duplicate=0, bitflip=0, mutate=0, equivocate=0, replay=0)


def _valid_wire(group, src, dst):
    return links.seal(group.party(src), dst, encode(("pid", "mtype", 1)))


def test_unparseable_compromised_frame_is_counted(group4):
    recorder = MemoryRecorder()
    mutator = ByzantineMutator(
        group4, {0}, random.Random(7), rates=QUIET, recorder=recorder
    )
    out = mutator.tap(0, 1, b"\xffnot-a-frame", 0.0)
    assert out == [(1, b"\xffnot-a-frame")]  # passes through unharmed
    assert mutator.actions["skipped"] == 1
    assert recorder.snapshot()["counters"]["mutator.skipped"] == 1


def test_parseable_compromised_frame_is_not_counted(group4):
    recorder = MemoryRecorder()
    mutator = ByzantineMutator(
        group4, {0}, random.Random(7), rates=QUIET, recorder=recorder
    )
    mutator.tap(0, 1, _valid_wire(group4, 0, 1), 0.0)
    assert "skipped" not in mutator.actions
    assert "mutator.skipped" not in recorder.snapshot()["counters"]


def test_honest_traffic_is_not_inspected(group4):
    recorder = MemoryRecorder()
    mutator = ByzantineMutator(
        group4, {0}, random.Random(7), rates=QUIET, recorder=recorder
    )
    assert mutator.tap(2, 1, b"\xffnot-a-frame", 0.0) is None
    assert "skipped" not in mutator.actions


def test_skip_counter_accumulates(group4):
    recorder = MemoryRecorder()
    mutator = ByzantineMutator(
        group4, {0}, random.Random(7), rates=QUIET, recorder=recorder
    )
    for k in range(3):
        mutator.tap(0, 1, b"\xff" + bytes([k]), 0.0)
    assert mutator.actions["skipped"] == 3
    assert recorder.snapshot()["counters"]["mutator.skipped"] == 3


def test_skip_without_recorder_still_counts_action(group4):
    mutator = ByzantineMutator(group4, {0}, random.Random(7), rates=QUIET)
    mutator.tap(0, 1, b"\xffnope", 0.0)
    assert mutator.actions["skipped"] == 1
