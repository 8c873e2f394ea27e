"""Unit tests for per-link backpressure: the in-flight high-water
mark, the FIFO drain queue, and fingerprint neutrality when the mark
is never hit."""

import pytest

from repro.network.eventloop import EventLoop
from repro.network.faults import FaultPlan, FaultyLink
from repro.network.latency import FixedLatency
from repro.network.network import Network
from repro.network.transport import Link
from repro.protocol.codecs import AUDIO


def _link(high_water=None, delay=0.1):
    loop = EventLoop()
    link = Link(loop, latency=FixedLatency(delay))
    got = []
    link.ends[1].set_receiver(got.append)
    if high_water is not None:
        link.set_backpressure(high_water)
    return loop, link, got


def test_rejects_nonpositive_high_water():
    _, link, _ = _link()
    with pytest.raises(ValueError):
        link.set_backpressure(0)
    with pytest.raises(ValueError):
        link.set_backpressure(-3)


def test_transmits_above_the_mark_are_deferred_then_drained():
    loop, link, got = _link(high_water=2)
    for i in range(5):
        link.ends[0].send(i)
    stats = link.backpressure_stats()
    assert stats["in_flight"] == 2
    assert stats["deferred_now"] == 3
    assert stats["deferred_total"] == 3 and stats["deferred_peak"] == 3
    assert loop.pending() == 2  # only the in-flight pair is scheduled
    loop.run()
    # Everything arrives, in send order, and the queue is empty.
    assert got == [0, 1, 2, 3, 4]
    final = link.backpressure_stats()
    assert final["in_flight"] == 0 and final["deferred_now"] == 0
    assert final["deferred_total"] == 3  # the historical counter stays


def test_under_the_mark_nothing_is_deferred():
    loop, link, got = _link(high_water=8)
    for i in range(5):
        link.ends[0].send(i)
    loop.run()
    assert got == [0, 1, 2, 3, 4]
    assert link.backpressure_stats()["deferred_total"] == 0


def test_drain_happens_per_delivery_not_per_run():
    loop, link, got = _link(high_water=1, delay=0.1)
    for i in range(3):
        link.ends[0].send(i)
    # One delivery per latency interval: each one admits the next
    # deferred transmit, so arrivals are strictly serialized.
    loop.advance(0.1)
    assert got == [0]
    loop.advance(0.1)
    assert got == [0, 1]
    loop.advance(0.1)
    assert got == [0, 1, 2]


def test_teardown_drops_deferred_traffic_too():
    loop, link, got = _link(high_water=1)
    for i in range(4):
        link.ends[0].send(i)
    assert link.backpressure_stats()["deferred_now"] == 3
    link.tear_down()
    loop.run()
    assert got == []
    stats = link.backpressure_stats()
    assert stats["deferred_now"] == 0 and stats["in_flight"] == 0
    # A dead link drains nothing, even if more sends trickle in.
    link.ends[0].send("late")
    loop.run()
    assert got == []


def test_removing_the_bound_restores_the_faithful_transmit():
    loop, link, got = _link(high_water=1)
    link.ends[0].send("a")
    link.set_backpressure(None)
    for i in range(5):
        link.ends[0].send(i)
    # Unbounded again: all five go straight onto the wire.
    assert loop.pending() == 6
    loop.run()
    assert got == ["a", 0, 1, 2, 3, 4]


@pytest.mark.parametrize("faulted", [False, True])
def test_sent_counts_each_offer_once(faulted):
    """``sent`` counts an offer when it is made, whether it goes out at
    once or waits behind the mark, and never again when it drains --
    also under a fault layer, which pins ``sent`` to offers itself."""
    loop, link, got = _link(high_water=1)
    if faulted:
        FaultyLink(link, FaultPlan())
    for i in range(4):
        link.ends[0].send(i)
    assert link.backpressure_stats()["deferred_now"] == 3
    assert link.sent == 4
    loop.run()
    assert got == [0, 1, 2, 3]
    assert link.sent == 4


def test_sent_counts_offers_dropped_by_teardown():
    loop, link, got = _link(high_water=1)
    for i in range(4):
        link.ends[0].send(i)
    link.tear_down()
    loop.run()
    assert got == []
    assert link.sent == 4
    link.ends[0].send("late")  # a dead link takes no offers
    assert link.sent == 4


def _call_fingerprint(backpressure):
    """Executed-event count and final clock of one full call under the
    given network-wide backpressure setting."""
    net = Network(seed=11, latency=FixedLatency(0.02),
                  backpressure=backpressure)
    a = net.device("alice")
    b = net.device("bob", auto_accept=True)
    ch = net.channel(a, b)
    slot = ch.end_for(a).slot()
    a.open(slot, AUDIO)
    net.settle()
    a.refresh_descriptor(slot)
    net.settle()
    a.close(slot)
    net.settle()
    return (net.loop.executed, net.loop.now, ch.link.sent)


def test_unhit_mark_is_fingerprint_neutral():
    """A configured-but-never-reached high-water mark must not change
    timing, ordering, or event counts at all (the acceptance bar for
    the overload layer: zero behavior change when limits are idle)."""
    unbounded = _call_fingerprint(None)
    bounded = _call_fingerprint(1000)
    assert bounded == unbounded


def test_network_installs_the_mark_on_every_channel():
    net = Network(seed=3, backpressure=7)
    a = net.device("a")
    b = net.device("b", auto_accept=True)
    ch = net.channel(a, b)
    assert ch.link.backpressure_stats()["high_water"] == 7
