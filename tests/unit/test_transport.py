"""Unit tests for links (FIFO + latency) and nodes (processing cost)."""

import pytest

from repro.network.eventloop import EventLoop
from repro.network.latency import FixedLatency, UniformLatency
from repro.network.node import Node
from repro.network.transport import Link


def collect(link_end):
    out = []
    link_end.set_receiver(out.append)
    return out


def test_duplex_delivery():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.1))
    a, b = link.ends
    got_a, got_b = collect(a), collect(b)
    a.send("to-b")
    b.send("to-a")
    loop.run()
    assert got_b == ["to-b"]
    assert got_a == ["to-a"]


def test_latency_applied():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.25))
    a, b = link.ends
    times = []
    b.set_receiver(lambda m: times.append(loop.now))
    a.send("x")
    loop.run()
    assert times == [0.25]


def test_fifo_order_fixed_latency():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.05))
    a, b = link.ends
    got = collect(b)
    for i in range(20):
        a.send(i)
    loop.run()
    assert got == list(range(20))


def test_fifo_order_preserved_under_jitter():
    loop = EventLoop(seed=3)
    link = Link(loop, UniformLatency(0.01, 0.5))
    a, b = link.ends
    got = collect(b)
    for i in range(200):
        a.send(i)
    loop.run()
    assert got == list(range(200))


def test_fifo_horizons_are_per_direction():
    loop = EventLoop(seed=3)
    link = Link(loop, UniformLatency(0.01, 0.5))
    a, b = link.ends
    got_a, got_b = collect(a), collect(b)
    for i in range(50):
        a.send(("ab", i))
        b.send(("ba", i))
    loop.run()
    assert got_b == [("ab", i) for i in range(50)]
    assert got_a == [("ba", i) for i in range(50)]


def test_torn_down_link_drops_messages():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.1))
    a, b = link.ends
    got = collect(b)
    a.send("in-flight")
    link.tear_down()
    a.send("after")
    loop.run()
    assert got == []


def test_tear_down_cancels_in_flight_events():
    """Regression: tear_down used to leave the pending delivery events
    on the loop, where they fired into the dead link."""
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.5))
    a, b = link.ends
    got = collect(b)
    for i in range(3):
        a.send(i)
    assert link.in_flight() == 3
    assert loop.pending() == 3
    link.tear_down()
    assert link.in_flight() == 0
    # Cancelled outright, not merely ignored at delivery time: the loop
    # is already quiescent, with no zombie events left to execute.
    assert loop.pending() == 0
    assert loop.run_until_quiescent() == 0
    assert got == []


def test_drop_in_flight_reports_live_count():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.5))
    a, b = link.ends
    collect(b)
    a.send("one")
    a.send("two")
    assert link._drop_in_flight() == 2
    assert link._drop_in_flight() == 0  # idempotent


def test_pending_list_is_compacted():
    """Delivered events are pruned so memory stays O(in-flight)."""
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    collect(b)
    for i in range(100):
        a.send(i)
        loop.run()  # deliver immediately; the entry is now dead
    from repro.network.transport import _PENDING_COMPACT
    assert len(link._pending) <= _PENDING_COMPACT
    assert link.in_flight() == 0


def test_node_zero_cost_runs_in_order():
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    out = []
    node.enqueue(out.append, 1)
    node.enqueue(out.append, 2)
    loop.run()
    assert out == [1, 2]


def test_node_cost_serializes_stimuli():
    loop = EventLoop()
    node = Node(loop, cost=0.02)
    times = []
    for _ in range(3):
        node.enqueue(lambda: times.append(loop.now))
    loop.run()
    assert times == [0.02, 0.04, 0.06]


def test_node_cost_applies_after_idle_gap():
    loop = EventLoop()
    node = Node(loop, cost=0.02)
    times = []
    node.enqueue(lambda: times.append(loop.now))
    loop.run()
    loop.schedule_at(1.0, node.enqueue, lambda: times.append(loop.now))
    loop.run()
    assert times == [0.02, 1.02]


def test_node_handler_exception_does_not_wedge_queue():
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    out = []

    def boom():
        raise RuntimeError("kaboom")

    node.enqueue(boom)
    node.enqueue(out.append, "after")
    try:
        loop.run()
    except RuntimeError:
        loop.run()
    assert out == ["after"]


def test_node_timer_enqueues_stimulus():
    loop = EventLoop()
    node = Node(loop, cost=0.01)
    times = []
    node.set_timer(0.5, lambda: times.append(loop.now))
    loop.run()
    assert times == [0.51]


def test_node_timer_cancel():
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    out = []
    timer = node.set_timer(0.5, out.append, "x")
    timer.cancel()
    loop.run()
    assert out == []


def test_node_timer_rejects_a_negative_delay():
    """Under either backend (the compiled one installs a C twin of
    ``set_timer``): a negative delay raises before anything is armed."""
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    with pytest.raises(ValueError, match="past"):
        node.set_timer(-0.1, lambda: None)
    assert loop.pending() == 0 and node._timers == []


def test_node_timer_list_compacts_like_the_reference():
    """40 arms, every even one cancelled right away: the 32nd arm finds
    exactly half its list dead and compacts it to the 16 live timers;
    the later arms append.  The expected list is the reference rule
    (compact once 32 entries are held and at most half are live)."""
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    expected = []
    for i in range(40):
        event = node.set_timer(1.0 + i, print, i)
        assert event.args == (print, i) and event.time == 1.0 + i
        expected.append(event)
        if len(expected) >= 32:
            alive = [e for e in expected if not e.cancelled]
            if len(alive) * 2 <= len(expected):
                expected = alive
        if i % 2 == 0:
            event.cancel()
    assert len(expected) == 24
    assert [id(e) for e in node._timers] == [id(e) for e in expected]
    assert loop.pending() == 20


def test_node_handled_counter():
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    node.enqueue(lambda: None)
    node.enqueue(lambda: None)
    loop.run()
    assert node.handled == 2
    assert node.idle


# ----------------------------------------------------------------------
# the transmit-hook chain
# ----------------------------------------------------------------------
def test_transmit_hook_sees_and_forwards_messages():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    got = collect(b)
    seen = []

    def spy(origin, message, forward):
        seen.append((origin, message))
        forward(origin, message)

    link.add_transmit_hook(spy)
    a.send("hello")
    loop.run()
    assert got == ["hello"]
    assert seen == [(a, "hello")]


def test_transmit_hook_can_suppress_delivery():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    got = collect(b)

    def black_hole(origin, message, forward):
        pass  # never forwards

    link.add_transmit_hook(black_hole)
    a.send("lost")
    loop.run()
    assert got == []
    # The base transmit never ran, so nothing was counted as sent.
    assert link.sent == 0


def test_last_appended_hook_is_outermost():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    collect(b)
    order = []

    def mk(name):
        def hook(origin, message, forward):
            order.append(name)
            forward(origin, message)
        return hook

    link.add_transmit_hook(mk("first"))
    link.add_transmit_hook(mk("second"))
    a.send("x")
    loop.run()
    assert order == ["second", "first"]


def test_innermost_hook_runs_last():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    collect(b)
    order = []

    def mk(name):
        def hook(origin, message, forward):
            order.append(name)
            forward(origin, message)
        return hook

    link.add_transmit_hook(mk("observer"))
    # An adversary installed innermost never shadows observers, no
    # matter how late it arrives (the FaultyLink contract).
    link.add_transmit_hook(mk("adversary"), innermost=True)
    a.send("x")
    loop.run()
    assert order == ["observer", "adversary"]


def test_remove_transmit_hook_restores_chain():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    got = collect(b)

    def black_hole(origin, message, forward):
        pass

    link.add_transmit_hook(black_hole)
    link.remove_transmit_hook(black_hole)
    link.remove_transmit_hook(black_hole)  # idempotent
    a.send("through")
    loop.run()
    assert got == ["through"]


def test_hook_may_rewrite_messages():
    loop = EventLoop()
    link = Link(loop, FixedLatency(0.0))
    a, b = link.ends
    got = collect(b)

    def upper(origin, message, forward):
        forward(origin, message.upper())

    link.add_transmit_hook(upper)
    a.send("quiet")
    loop.run()
    assert got == ["QUIET"]


def test_msc_tracer_sees_traffic_fault_plan_drops():
    # Observer hooks (appended, outermost) must see offered load even
    # when an innermost fault hook later drops every message.
    from repro import AUDIO, FaultPlan, Network
    from repro.tools.msc import SignalTracer

    net = Network(seed=1, faults=FaultPlan(name="all-drop", drop=1.0))
    a = net.device("a")
    b = net.device("b", auto_accept=True)
    ch = net.channel(a, b)
    tracer = SignalTracer(net, channels=[ch])
    a.open(ch.initiator_end.slot(), AUDIO)
    net.run(5.0)
    offered = [m for m in tracer.messages if "open" in m.label]
    assert offered, "tracer must record signals the fault plan dropped"
    assert net.fault_stats.dropped > 0
