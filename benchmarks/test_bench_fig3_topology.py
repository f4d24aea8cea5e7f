"""Figure 3: the Internet testbed's round-trip-time matrix.

Regenerates the figure's data: for every pair of the four sites, measure
the round trip of a ping message through the simulated network and compare
with the figure's labelled averages (93-373 ms).  Also checks the paper's
observation that measured RTTs vary by 10% or more.
"""

import pytest

from repro.crypto.dealer import fast_group
from repro.crypto.params import SecurityParams
from repro.core.protocol import Protocol
from repro.net.costmodel import INTERNET_HOSTS
from repro.net.latency import FIG3_RTT_MS, INTERNET_SITE_NAMES, internet_latency
from repro.net.runtime import SimRuntime

from conftest import emit


class Pinger(Protocol):
    schemas = {"ping": str, "pong": str}  # the ping tag

    def __init__(self, ctx):
        super().__init__(ctx, "ping")
        self.rtts = {}
        self._sent_at = {}

    def ping(self, dst, tag):
        self._sent_at[tag] = self.ctx.now()
        self.unicast(dst, "ping", tag)

    def on_message(self, sender, mtype, payload):
        if mtype == "ping":
            self.unicast(sender, "pong", payload)
        elif mtype == "pong":
            self.rtts.setdefault(sender, []).append(
                (self.ctx.now() - self._sent_at[payload]) * 1000.0
            )


def _measure_rtts(rounds=30):
    group = fast_group(4, 1, SecurityParams.toy(), seed=3)
    # overhead_s=0 so we measure pure network latency, like ping does
    rt = SimRuntime(group, latency=internet_latency(), seed=3, overhead_s=0.0)
    pingers = [Pinger(ctx) for ctx in rt.contexts]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                for k in range(rounds):
                    tag = f"{src}-{dst}-{k}"
                    # space pings out: back-to-back pings would serialize on
                    # the FIFO link and inflate the measured round trip
                    rt.sim.schedule(
                        2.0 * k,
                        rt.run_on_node,
                        src,
                        lambda s=src, d=dst, t=tag: pingers[s].ping(d, t),
                    )
    rt.run()
    return pingers


@pytest.mark.benchmark(group="fig3")
def test_fig3_rtt_matrix(benchmark):
    pingers = benchmark.pedantic(_measure_rtts, rounds=1, iterations=1)
    lines = ["Figure 3: measured vs. paper RTTs (ms):"]
    for (a, b), paper_rtt in sorted(FIG3_RTT_MS.items()):
        samples = pingers[a].rtts[b]
        mean = sum(samples) / len(samples)
        lines.append(
            f"  {INTERNET_SITE_NAMES[a]:10s} - {INTERNET_SITE_NAMES[b]:10s} "
            f"measured={mean:6.1f}  paper={paper_rtt:5.0f}"
        )
        # measured mean within 15% of the figure's label
        assert abs(mean - paper_rtt) / paper_rtt < 0.15, (a, b, mean)
        # the paper: variation is "quite large, often 10% or more"
        spread = (max(samples) - min(samples)) / mean
        assert spread > 0.05, (a, b, spread)
    emit("\n".join(lines))


@pytest.mark.benchmark(group="fig3")
def test_fig3_narrative_shape(benchmark):
    """Tokyo is the hardest site to reach; Zurich-New York the fastest."""

    def mean_rtts():
        return {
            site: sum(
                FIG3_RTT_MS[tuple(sorted((site, o)))]  # type: ignore[index]
                for o in range(4) if o != site
            ) / 3.0
            for site in range(4)
        }

    means = benchmark.pedantic(mean_rtts, rounds=1, iterations=1)
    assert max(means, key=means.get) == 1  # Tokyo
    assert min(FIG3_RTT_MS.items(), key=lambda kv: kv[1])[0] == (0, 2)
    exp_column = [h.exp_ms for h in INTERNET_HOSTS]
    assert exp_column == [93.0, 55.0, 101.0, 427.0]
