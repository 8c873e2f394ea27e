"""Unit tests for the fault-injection layer (network/faults.py):
plan algebra, the faulty transmit path, link flaps, and crash windows."""

import pytest

from repro.network.eventloop import EventLoop
from repro.network.faults import (PLANS, CrashSchedule, FaultPlan,
                                  FaultStats, FaultyLink)
from repro.network.latency import FixedLatency
from repro.network.node import Node
from repro.network.transport import Link

from .test_transport import collect


def lossy_link(seed, plan, exempt=None):
    loop = EventLoop(seed=seed)
    link = Link(loop, FixedLatency(0.1))
    faulty = FaultyLink(link, plan, exempt=exempt)
    return loop, link, faulty


def test_same_seed_same_trace():
    """The adversary draws from the loop's rng: one seed, one trace."""
    plan = FaultPlan(drop=0.3, duplicate=0.3, jitter=0.02)
    traces = []
    for _ in range(2):
        loop, link, faulty = lossy_link(11, plan)
        got = collect(link.ends[1])
        times = []
        link.ends[1].set_receiver(
            lambda m, got=got, times=times: (got.append(m),
                                             times.append(loop.now)))
        for i in range(100):
            link.ends[0].send(i)
        loop.run()
        traces.append((got, times, faulty.stats.to_json()))
    assert traces[0] == traces[1]


def test_different_seeds_differ():
    plan = FaultPlan(drop=0.3)
    outcomes = set()
    for seed in (1, 2, 3):
        loop, link, faulty = lossy_link(seed, plan)
        got = collect(link.ends[1])
        for i in range(50):
            link.ends[0].send(i)
        loop.run()
        outcomes.add(tuple(got))
    assert len(outcomes) > 1


def test_certain_drop_loses_everything():
    loop, link, faulty = lossy_link(0, FaultPlan(drop=1.0))
    got = collect(link.ends[1])
    for i in range(10):
        link.ends[0].send(i)
    loop.run()
    assert got == []
    assert faulty.stats.dropped == 10
    assert faulty.stats.forwarded == 0


def test_certain_duplicate_doubles_everything():
    loop, link, faulty = lossy_link(0, FaultPlan(duplicate=1.0))
    got = collect(link.ends[1])
    for i in range(5):
        link.ends[0].send(i)
    loop.run()
    assert sorted(got) == sorted(list(range(5)) * 2)
    assert faulty.stats.duplicated == 5
    assert faulty.stats.forwarded == 10


def test_duplicated_copies_suffer_drop_independently():
    # With both certain, each message yields two copies, both dropped.
    loop, link, faulty = lossy_link(0, FaultPlan(drop=1.0, duplicate=1.0))
    got = collect(link.ends[1])
    link.ends[0].send("x")
    loop.run()
    assert got == []
    assert faulty.stats.duplicated == 1
    assert faulty.stats.dropped == 2


def test_jitter_delays_but_preserves_fifo():
    loop, link, faulty = lossy_link(4, FaultPlan(jitter=0.05))
    got = []
    times = []
    link.ends[1].set_receiver(
        lambda m: (got.append(m), times.append(loop.now)))
    for i in range(20):
        link.ends[0].send(i)
    loop.run()
    assert got == list(range(20))  # horizon clamp still applies
    assert faulty.stats.jittered == 20
    assert all(t >= 0.1 for t in times)
    assert any(t > 0.1 for t in times)


def test_reorder_can_overtake():
    # Reordered deliveries skip the FIFO horizon; with jitter in play
    # some message overtakes an earlier one.
    plan = FaultPlan(reorder=1.0, jitter=0.2)
    loop, link, faulty = lossy_link(5, plan)
    got = collect(link.ends[1])
    for i in range(50):
        link.ends[0].send(i)
    loop.run()
    assert sorted(got) == list(range(50))  # nothing lost
    assert got != list(range(50))          # but not in order
    assert faulty.stats.reordered == 50


def test_exempt_messages_pass_faithfully():
    exempt = lambda m: isinstance(m, str) and m.startswith("meta:")
    loop, link, faulty = lossy_link(0, FaultPlan(drop=1.0), exempt=exempt)
    got = collect(link.ends[1])
    link.ends[0].send("meta:teardown")
    link.ends[0].send("payload")
    loop.run()
    assert got == ["meta:teardown"]
    assert faulty.stats.exempted == 1
    assert faulty.stats.dropped == 1


def test_uninstall_restores_faithful_transmit():
    loop, link, faulty = lossy_link(0, FaultPlan(drop=1.0))
    got = collect(link.ends[1])
    link.ends[0].send("lost")
    faulty.uninstall()
    link.ends[0].send("kept")
    loop.run()
    assert got == ["kept"]


def test_flap_drops_in_flight_and_recovers():
    plan = FaultPlan(flaps=((0.05, 0.2),))
    loop, link, faulty = lossy_link(0, plan)
    got = collect(link.ends[1])
    link.ends[0].send("in-flight")      # delivery due at 0.1, flap at 0.05
    loop.schedule_at(0.15, link.ends[0].send, "during-outage")
    loop.schedule_at(0.5, link.ends[0].send, "after-recovery")
    loop.run()
    assert got == ["after-recovery"]
    assert faulty.stats.flap_drops == 1
    assert not link.down


def test_flap_respects_real_teardown():
    plan = FaultPlan(flaps=((0.05, 0.2),))
    loop, link, faulty = lossy_link(0, plan)
    collect(link.ends[1])
    link.tear_down()
    loop.run()
    # The flap window must not resurrect a link torn down for real.
    assert link.down


def test_flap_does_not_resurrect_a_link_torn_down_during_the_outage():
    """Regression: the end of a flap window used to set ``down = False``
    unconditionally, so a link torn down for real *inside* the window
    came back up and delivered."""
    plan = FaultPlan(flaps=((1.0, 1.0),))
    loop, link, faulty = lossy_link(0, plan)
    got = collect(link.ends[1])
    loop.schedule_at(1.5, link.tear_down)
    loop.schedule_at(2.5, link.ends[0].send, "late")
    loop.run()
    assert link.down
    assert got == []


def count_schedule_calls(monkeypatch):
    calls = []
    real = Link._schedule

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)
    monkeypatch.setattr(Link, "_schedule", counting)
    return calls


def test_drop_duplicate_plans_ride_the_faithful_transmit(monkeypatch):
    """The fault layer decides, the link schedules: survivors of a
    drop/duplicate-only plan reach ``_base_transmit`` and never the
    fault layer's own ``_schedule``."""
    calls = count_schedule_calls(monkeypatch)
    loop = EventLoop(seed=3)
    link = Link(loop, FixedLatency(0.1))
    reached = []
    base = link._base_transmit

    def counting_base(origin, message):
        reached.append(message)
        base(origin, message)
    link._base_transmit = counting_base
    faulty = FaultyLink(link, PLANS["drop10+dup10"])
    got = collect(link.ends[1])
    for i in range(200):
        link.ends[0].send(i)
    loop.run()
    assert calls == []
    assert faulty.stats.dropped and faulty.stats.duplicated
    assert len(reached) == faulty.stats.forwarded == len(got)
    assert link.sent == 200  # offers, not copies


def test_zero_latency_faulted_send_lands_on_the_ready_lane():
    loop = EventLoop(seed=0)
    link = Link(loop, FixedLatency(0.0))
    FaultyLink(link, FaultPlan(duplicate=1.0))
    collect(link.ends[1])
    link.ends[0].send("x")
    lanes = loop.lane_stats()
    assert (lanes["ready_len"], lanes["heap_len"]) == (2, 0)


@pytest.mark.parametrize("plan", [FaultPlan(jitter=0.05),
                                  FaultPlan(reorder=0.5)])
def test_jitter_and_reorder_plans_still_schedule_themselves(
        monkeypatch, plan):
    calls = count_schedule_calls(monkeypatch)
    loop, link, faulty = lossy_link(1, plan)
    collect(link.ends[1])
    for i in range(20):
        link.ends[0].send(i)
    loop.run()
    assert len(calls) == faulty.stats.forwarded == 20
    assert link.sent == 20


def test_tracer_installed_mid_run_sees_the_next_message(monkeypatch):
    """``loop.trace`` is read per message, and a traced loop stays on
    the faithful transmit."""
    from repro.obs.tracer import Tracer
    calls = count_schedule_calls(monkeypatch)
    loop, link, faulty = lossy_link(1, FaultPlan(duplicate=1.0))
    collect(link.ends[1])
    link.ends[0].send("untraced")
    tracer = loop.trace = Tracer()
    link.ends[0].send("traced")
    loop.trace = None
    link.ends[0].send("untraced again")
    assert [(e.action, e.detail) for e in tracer.events] \
        == [("duplicate", "traced")]
    assert calls == []
    assert link.sent == 3 and faulty.stats.forwarded == 6


def test_surviving_copies_respect_the_backpressure_mark():
    """Survivors go down the chain like any other traffic, so a
    bounded link bounds them too (the old private scheduler bypassed
    the mark)."""
    loop = EventLoop(seed=0)
    link = Link(loop, FixedLatency(0.1))
    link.set_backpressure(1)
    FaultyLink(link, FaultPlan(duplicate=1.0))
    got = collect(link.ends[1])
    link.ends[0].send("x")
    assert link.backpressure_stats()["in_flight"] == 1
    assert link.backpressure_stats()["deferred_now"] == 1
    loop.run()
    assert got == ["x", "x"]


def test_faults_apply_in_both_directions():
    # The wrapper replaces the shared link.transmit, so each direction
    # passes through the plan.
    loop, link, faulty = lossy_link(0, FaultPlan(drop=1.0))
    got_a, got_b = collect(link.ends[0]), collect(link.ends[1])
    link.ends[0].send("to-b")
    link.ends[1].send("to-a")
    loop.run()
    assert got_a == [] and got_b == []
    assert faulty.stats.dropped == 2


def test_crash_schedule_drops_stimuli_while_offline():
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    sched = CrashSchedule(node, windows=((1.0, 0.5),))
    out = []
    loop.schedule_at(1.2, node.enqueue, out.append, "lost")
    loop.schedule_at(2.0, node.enqueue, out.append, "kept")
    loop.run()
    assert out == ["kept"]
    assert sched.crashes == 1
    assert node.dropped_while_offline == 1
    assert not node.offline


def test_crash_cancels_the_dead_incarnations_timers():
    """Regression: a timer armed before a crash must not fire into the
    restarted node.  The crash drops volatile state, and a pending
    alarm (retransmit timer, staleness timer) is exactly that — before
    the fix it survived the crash and fired as a ghost of the dead
    incarnation after recovery."""
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    sched = CrashSchedule(node, windows=((1.0, 0.5),))
    fired = []
    # Armed at t=0.5 to fire at t=2.0 — after the node has recovered
    # (t=1.5), so node.enqueue alone would happily deliver it.
    loop.schedule_at(0.5, node.set_timer, 1.5, fired.append, "ghost")
    # A timer armed *after* recovery belongs to the new incarnation.
    loop.schedule_at(1.6, node.set_timer, 0.5, fired.append, "fresh")
    loop.run()
    assert fired == ["fresh"]
    assert sched.crashes == 1
    assert sched.timers_cancelled == 1
    assert not node.offline


def test_cancel_timers_counts_only_live_timers():
    loop = EventLoop()
    node = Node(loop, cost=0.0)
    fired = []
    node.set_timer(0.1, fired.append, "early")
    survivor = node.set_timer(5.0, fired.append, "late")
    survivor.cancel()  # user-cancelled before the crash
    loop.advance(1.0)  # the early timer fires normally
    armed = node.set_timer(5.0, fired.append, "pending")
    assert node.cancel_timers() == 1  # only the armed one was live
    loop.run()
    assert fired == ["early"]
    assert armed.cancelled


def test_stats_merge_and_json_roundtrip():
    a = FaultStats(forwarded=3, dropped=1)
    b = FaultStats(duplicated=2, exempted=4)
    merged = a.merge(b)
    assert merged.forwarded == 3 and merged.dropped == 1
    assert merged.duplicated == 2 and merged.exempted == 4
    payload = merged.to_json()
    assert set(payload) == {"forwarded", "dropped", "duplicated",
                            "reordered", "jittered", "flap_drops",
                            "exempted"}


def test_plan_describe_is_json_friendly():
    plan = PLANS["flaky"]
    desc = plan.describe()
    assert desc["name"] == "flaky"
    assert desc["drop"] == pytest.approx(0.05)
    assert desc["flaps"] == [[1.0, 0.4], [4.0, 0.4]]
