"""The layer map: which functions a traced pass wraps, and what it reports.

``LAYERS`` is the single list of per-layer metrics.  Each entry names the
program module(s) of the layer, the metrics it yields with their units,
the end-to-end metric each should move, and the workloads that put the
most and the least work on it.  ``BENCHMARK.json``'s ``per_layer`` list is
checked against it by the tests, and ``run.py --layers`` prints it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.core.protocol import Context
from tracer import Tracer

#: (layer, modules, [(metric, unit)], moves, most work on / least work on)
LAYERS: List[Tuple[str, str, List[Tuple[str, str]], str, str]] = [
    ("encoding", "repro.common.encoding",
     [("encoding.encode_calls", "count"), ("encoding.decode_calls", "count"),
      ("encoding.bytes", "B"), ("encoding.self_s", "s")],
     "ops_per_s", "burst-lan, tcp-open / fig4-lan"),
    ("message", "repro.net.message + Context.broadcast",
     [("message.pack_calls", "count"), ("message.pack_per_broadcast", "ratio")],
     "ops_per_s", "burst-lan / fig4-lan"),
    ("links", "repro.net.links",
     [("links.seal_calls", "count"), ("links.open_calls", "count"), ("links.self_s", "s")],
     "ops_per_s", "all"),
    ("arith", "repro.crypto.arith",
     [("arith.egcd_calls", "count"), ("arith.invmod_calls", "count"), ("arith.self_s", "s")],
     "ops_per_s", "fig4-lan / burst-lan"),
    ("hashing", "repro.crypto.hashing",
     [("hashing.fdh_calls", "count"), ("hashing.calls", "count"), ("hashing.self_s", "s")],
     "ops_per_s", "fig4-lan / burst-lan"),
    ("opcount", "repro.crypto.opcount (program counter crypto.modexp)",
     [("opcount.modexp", "count"), ("opcount.modexp_per_op", "ratio")],
     "ops_per_s; sim.ops_per_s (the cost model charges per modexp)",
     "fig4-lan, byz-burst / burst-lan"),
    ("verifier", "repro.crypto.verifier",
     [("verifier.calls", "count"), ("verifier.rejects", "count"), ("verifier.self_s", "s")],
     "ops_per_s", "byz-burst / burst-lan"),
    ("router", "repro.core.protocol.Router",
     [("router.dispatched", "count"), ("router.buffered", "count"),
      ("router.dropped", "count"), ("router.handler_errors", "count"),
      ("router.dispatch_self_s", "s")],
     "ops_per_s", "all; handler_errors is 0 on honest workloads"),
    ("agreement", "repro.core.agreement",
     [("agreement.aba_instances", "count"), ("agreement.aba_rounds_per_instance", "ratio"),
      ("agreement.mvba_instances", "count")],
     "sim.ops_per_s, ops_per_s", "byz-burst / burst-lan"),
    ("atomic", "repro.core.channel.atomic",
     [("atomic.rounds", "count"), ("atomic.payloads_per_round", "ratio"),
      ("atomic.digest_calls", "count"), ("atomic.digest_per_round", "ratio")],
     "ops_per_s", "burst-lan / fig4-lan"),
    ("sim", "repro.net.sim + repro.net.runtime",
     [("sim.events", "count"), ("sim.self_s", "s"), ("sim.msgs_per_op", "ratio"),
      ("sim.bytes_per_op", "B"), ("sim.ops_per_s", "ops/s")],
     "ops_per_s; sim.ops_per_s via msgs and bytes per op", "sim workloads / tcp-open"),
    ("tcp", "repro.net.tcp + repro.net.sliding_window",
     [("tcp.frames_sent", "count"), ("tcp.bytes_sent", "B"), ("tcp.retransmissions", "count"),
      ("tcp.heartbeats", "count"), ("tcp.send_self_s", "s"), ("tcp.loop_lag_ms", "ms"),
      ("tcp.late_ms", "ms")],
     "op_p50_ms, op_tail_ms", "tcp-open / none of the others"),
    ("client", "repro.client (client, server, dedup, vote)",
     [("client.requests", "count"), ("client.retransmits", "count"),
      ("client.failovers", "count"), ("reqserver.shed", "count"), ("dedup.hits", "count"),
      ("client.self_s", "s")],
     "ops_per_s, fail_frac", "burst-lan, byz-burst / fig4-lan"),
    ("replication", "repro.app.replication",
     [("replication.applied", "count"), ("replication.apply_self_s", "s")],
     "ops_per_s", "burst-lan"),
    ("adversary", "repro.adversary",
     [("adversary.actions", "count"), ("adversary.self_s", "s")],
     "separates the attacker's CPU from the system's in ops_per_s", "byz-burst / all others"),
    ("trace", "the tracer itself",
     [("trace.overhead_frac", "ratio"), ("trace.spans", "count"), ("trace.ops", "count"),
      ("trace.cpu_speed", "ratio")],
     "n/a (overhead_frac = 1 - traced / untraced ops_per_s; ops is the base of every"
     " per-op ratio; cpu_speed is the probed CPU speed of the traced pass, by which"
     " its wall self times were not scaled)", "all"),
]

PER_LAYER: List[Tuple[str, str]] = [m for _, _, metrics, _, _ in LAYERS for m in metrics]

HASHING_FUNCTIONS = (
    "sha256", "oracle_bytes", "hash_to_int", "hash_to_zq", "hash_to_group",
    "fdh_to_zn", "keystream", "challenge",
)
VERIFIER_METHODS = (
    "coin_share_ok", "coin_quorum", "ciphertext_ok", "enc_share_ok", "enc_quorum",
    "sig_share_ok", "sig_ok", "party_sig_ok",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions for one traced pass."""
    extra = tracer.extra
    calls = tracer.calls

    def out_len(args: tuple, result: Any) -> int:
        return len(result)

    def in_len(args: tuple, result: Any) -> int:
        return len(args[0])

    tracer.wrap_function("repro.common.encoding", "encode", "encoding", size=out_len)
    tracer.wrap_function("repro.common.encoding", "decode", "encoding", size=in_len)

    tracer.wrap_function("repro.net.message", "pack_body", "message")
    broadcast = Context.broadcast

    def traced_broadcast(ctx: Any, pid: str, mtype: str, payload: Any) -> None:
        before = calls["message.pack_body"]
        broadcast(ctx, pid, mtype, payload)
        extra["broadcasts"] += 1
        extra["packs_in_broadcast"] += calls["message.pack_body"] - before
        if mtype == "pre-vote":
            extra["prevote_broadcasts"] += 1

    tracer.patch(Context, "broadcast", traced_broadcast)

    tracer.wrap_function("repro.net.links", "seal", "links")
    tracer.wrap_function("repro.net.links", "open_sealed", "links")

    for name in ("egcd", "invmod", "mexp"):
        tracer.wrap_function("repro.crypto.arith", name, "arith")
    for name in HASHING_FUNCTIONS:
        tracer.wrap_function("repro.crypto.hashing", name, "hashing")

    def count_rejects(args: tuple, result: Any) -> None:
        if result is False:
            extra["verifier_rejects"] += 1
        elif isinstance(result, tuple):
            extra["verifier_rejects"] += len(result[1])

    for name in VERIFIER_METHODS:
        tracer.wrap_method("repro.crypto.verifier", f"ShareVerifier.{name}", "verifier",
                           key="verifier.call", after=count_rejects)

    tracer.wrap_method("repro.core.protocol", "Router.dispatch", "router")
    tracer.wrap_method("repro.core.agreement.binary", "BinaryAgreement.__init__", "agreement",
                       key="agreement.aba", span=False)
    tracer.wrap_method("repro.core.agreement.multivalued", "ArrayAgreement.__init__",
                       "agreement", key="agreement.mvba", span=False)
    tracer.wrap_function("repro.core.channel.atomic", "vector_digest", "atomic")

    tracer.wrap_method("repro.net.sim", "Simulator.run_until", "sim")
    tracer.wrap_method("repro.net.sim", "Simulator.run", "sim")
    tracer.wrap_method("repro.net.tcp", "TcpNode.send_frame", "tcp")

    for qualname in ("SintraClient.submit", "SintraClient.on_reply"):
        tracer.wrap_method("repro.client.client", qualname, "client")
    tracer.wrap_method("repro.client.server", "RequestServer.handle_request", "client")
    tracer.wrap_method("repro.client.protocol", "ReplyVote.add", "client")
    tracer.wrap_method("repro.client.dedup", "DedupStateMachine.apply", "replication")

    for qualname in ("Strategy.outbound", "Strategy.observe", "DoubleVoteAdversary.observe",
                     "DoubleVoteAdversary.outbound_broadcast"):
        tracer.wrap_method("repro.adversary.strategies", qualname, "adversary")


def per_layer(
    tracer: Tracer,
    counters: Mapping[str, float],
    ops: int,
    overhead_frac: float,
    cpu_speed: float,
) -> Dict[str, float]:
    """Reduce one traced pass to the ``PER_LAYER`` metric values.

    ``counters`` holds the program's own counts for the pass (its
    ``MemoryRecorder`` counters, summed runtime statistics and the
    workload's ``sim.*``/``tcp.*`` figures).
    """
    own = tracer.self_seconds()
    calls = tracer.calls
    extra = tracer.extra
    c = counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hashing_calls = sum(calls[f"hashing.{name}"] for name in HASHING_FUNCTIONS)
    aba = calls["agreement.aba"]
    rounds = c.get("atomic.rounds", 0.0)
    digests = calls["atomic.vector_digest"]
    shed = sum(v for k, v in c.items() if k.startswith("reqserver.shed."))
    values = {
        "encoding.encode_calls": calls["encoding.encode"],
        "encoding.decode_calls": calls["encoding.decode"],
        "encoding.bytes": tracer.bytes["encoding"],
        "encoding.self_s": own.get("encoding", 0.0),
        "message.pack_calls": calls["message.pack_body"],
        "message.pack_per_broadcast": ratio(extra["packs_in_broadcast"], extra["broadcasts"]),
        "links.seal_calls": calls["links.seal"],
        "links.open_calls": calls["links.open_sealed"],
        "links.self_s": own.get("links", 0.0),
        "arith.egcd_calls": calls["arith.egcd"],
        "arith.invmod_calls": calls["arith.invmod"],
        "arith.self_s": own.get("arith", 0.0),
        "hashing.fdh_calls": calls["hashing.fdh_to_zn"],
        "hashing.calls": hashing_calls,
        "hashing.self_s": own.get("hashing", 0.0),
        "opcount.modexp": c.get("crypto.modexp", 0.0),
        "opcount.modexp_per_op": ratio(c.get("crypto.modexp", 0.0), ops),
        "verifier.calls": calls["verifier.call"],
        "verifier.rejects": extra["verifier_rejects"],
        "verifier.self_s": own.get("verifier", 0.0),
        "router.dispatched": c.get("router.dispatched", 0.0),
        "router.buffered": c.get("router.buffered", 0.0),
        "router.dropped": c.get("router.dropped", 0.0),
        "router.handler_errors": c.get("router.handler_errors", 0.0),
        "router.dispatch_self_s": own.get("router", 0.0),
        "agreement.aba_instances": aba,
        "agreement.aba_rounds_per_instance": ratio(extra["prevote_broadcasts"], aba),
        "agreement.mvba_instances": calls["agreement.mvba"],
        "atomic.rounds": rounds,
        "atomic.payloads_per_round": ratio(c.get("atomic.batch.payloads", 0.0), rounds),
        "atomic.digest_calls": digests,
        "atomic.digest_per_round": ratio(digests, rounds),
        "sim.events": c.get("sim.events", 0.0),
        "sim.self_s": own.get("sim", 0.0),
        "sim.msgs_per_op": ratio(c.get("sim.messages", 0.0), ops),
        "sim.bytes_per_op": ratio(c.get("sim.bytes", 0.0), ops),
        "sim.ops_per_s": c.get("sim.ops_per_s", 0.0),
        "tcp.frames_sent": c.get("tcp.frames_sent", 0.0),
        "tcp.bytes_sent": c.get("tcp.bytes_sent", 0.0),
        "tcp.retransmissions": c.get("tcp.retransmissions", 0.0),
        "tcp.heartbeats": c.get("tcp.heartbeats", 0.0),
        "tcp.send_self_s": own.get("tcp", 0.0),
        "tcp.loop_lag_ms": c.get("tcp.loop_lag_ms", 0.0),
        "tcp.late_ms": c.get("tcp.late_ms", 0.0),
        "client.requests": c.get("client.requests", 0.0),
        "client.retransmits": c.get("client.retransmits", 0.0),
        "client.failovers": c.get("client.failovers", 0.0),
        "reqserver.shed": shed,
        "dedup.hits": c.get("reqserver.dedup_hits", 0.0),
        "client.self_s": own.get("client", 0.0),
        "replication.applied": c.get("replication.applied", 0.0),
        "replication.apply_self_s": own.get("replication", 0.0),
        "adversary.actions": c.get("adversary.actions", 0.0),
        "adversary.self_s": own.get("adversary", 0.0),
        "trace.overhead_frac": overhead_frac,
        "trace.spans": tracer.span_count,
        "trace.ops": ops,
        "trace.cpu_speed": cpu_speed,
    }
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return {name: float(values[name]) for name, _ in PER_LAYER}
