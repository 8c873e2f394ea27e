"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.network.eventloop import EventLoop, QuiescenceError


def test_events_fire_in_time_order():
    loop = EventLoop()
    out = []
    loop.schedule(3.0, out.append, "c")
    loop.schedule(1.0, out.append, "a")
    loop.schedule(2.0, out.append, "b")
    loop.run()
    assert out == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    loop = EventLoop()
    out = []
    for tag in "abcde":
        loop.schedule(1.0, out.append, tag)
    loop.run()
    assert out == list("abcde")


def test_priority_breaks_ties():
    loop = EventLoop()
    out = []
    loop.schedule(1.0, out.append, "late", priority=5)
    loop.schedule(1.0, out.append, "early", priority=-5)
    loop.run()
    assert out == ["early", "late"]


def test_now_advances_with_events():
    loop = EventLoop()
    seen = []
    loop.schedule(2.5, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [2.5]
    assert loop.now == 2.5


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    out = []
    event = loop.schedule(1.0, out.append, "x")
    event.cancel()
    loop.run()
    assert out == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    loop.run()


def test_run_until_respects_bound():
    loop = EventLoop()
    out = []
    loop.schedule(1.0, out.append, "in")
    loop.schedule(5.0, out.append, "out")
    loop.run(until=2.0)
    assert out == ["in"]
    assert loop.now == 2.0
    loop.run()
    assert out == ["in", "out"]


def test_events_scheduled_during_run_execute():
    loop = EventLoop()
    out = []

    def first():
        loop.schedule(1.0, out.append, "second")
        out.append("first")

    loop.schedule(1.0, first)
    loop.run()
    assert out == ["first", "second"]


def test_schedule_at_absolute_time():
    loop = EventLoop()
    out = []
    loop.schedule(1.0, lambda: loop.schedule_at(5.0, out.append, loop.now))
    loop.run()
    assert loop.now == 5.0


def test_run_until_quiescent_raises_on_livelock():
    loop = EventLoop()

    def rearm():
        loop.schedule(1.0, rearm)

    loop.schedule(1.0, rearm)
    with pytest.raises(QuiescenceError):
        loop.run_until_quiescent(max_events=100)


def test_quiescence_error_carries_structured_payload():
    """Chaos-test failures are diagnosed from the exception alone: the
    spent budget, how many events are still live, and which one fires
    next."""
    loop = EventLoop()

    def rearm():
        loop.schedule(1.0, rearm)

    loop.schedule(1.0, rearm)
    with pytest.raises(QuiescenceError) as exc:
        loop.run_until_quiescent(max_events=50)
    err = exc.value
    assert err.max_events == 50
    assert err.pending == 1
    assert isinstance(err.next_event, str) and "rearm" in err.next_event
    assert "50" in str(err) and err.next_event in str(err)


def test_quiescence_error_skips_cancelled_heap_heads():
    loop = EventLoop()

    def rearm():
        loop.schedule(1.0, rearm)

    dead = loop.schedule(0.5, lambda: None)
    loop.schedule(200.0, rearm)
    loop.run(until=100.0)  # burn nothing; dead is still heaped
    dead.cancel()
    with pytest.raises(QuiescenceError) as exc:
        loop.run_until_quiescent(max_events=10)
    # next_event reports the live rearm timer, not the cancelled head.
    assert "rearm" in exc.value.next_event


def test_quiescence_error_surfaced_in_protocol_errors():
    from repro.protocol import errors
    assert errors.QuiescenceError is QuiescenceError
    assert "QuiescenceError" in errors.__all__


def test_advance_moves_clock_even_without_events():
    loop = EventLoop()
    loop.advance(10.0)
    assert loop.now == 10.0


def test_step_returns_false_when_empty():
    loop = EventLoop()
    assert loop.step() is False
    loop.schedule(0.0, lambda: None)
    assert loop.step() is True


def test_pending_counts_live_events():
    loop = EventLoop()
    e1 = loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    assert loop.pending() == 2
    e1.cancel()
    assert loop.pending() == 1


def test_pending_is_exact_after_execution_and_cancel():
    """The live-event counter (O(1) ``pending``) stays consistent
    through every lifecycle: schedule, execute, cancel, re-cancel."""
    loop = EventLoop()
    events = [loop.schedule(float(i), lambda: None) for i in range(5)]
    assert loop.pending() == 5
    loop.step()
    assert loop.pending() == 4
    events[2].cancel()
    events[3].cancel()
    assert loop.pending() == 2
    loop.run()
    assert loop.pending() == 0


def test_cancel_after_execution_does_not_corrupt_counter():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    other = loop.schedule(2.0, lambda: None)
    loop.step()           # executes `event`
    assert loop.pending() == 1
    event.cancel()        # late cancel of an already-run event: no-op
    assert loop.pending() == 1
    other.cancel()
    assert loop.pending() == 0
    loop.run_until_quiescent()  # counter at zero -> quiescent


def test_quiescence_check_uses_counter():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    event.cancel()
    # a cancelled-but-still-heaped event must not block quiescence
    assert loop.run_until_quiescent() == 0
    assert loop.pending() == 0


def test_rng_is_seeded_and_deterministic():
    a = EventLoop(seed=42).rng.random()
    b = EventLoop(seed=42).rng.random()
    assert a == b


def test_max_events_budget():
    loop = EventLoop()
    out = []
    for i in range(10):
        loop.schedule(float(i), out.append, i)
    loop.run(max_events=3)
    assert out == [0, 1, 2]


# ----------------------------------------------------------------------
# schedule_at clamping and run(until=...)/advance() boundary behaviour
# ----------------------------------------------------------------------
def test_schedule_at_clamps_infinitesimal_negative_drift():
    """``(now + dt) - now`` is not always ``>= dt`` in binary floating
    point: re-scheduling at an absolute time computed from the current
    clock may land one ulp in the past and must not raise."""
    loop = EventLoop()
    # Put the clock on a value whose float neighbourhood is sparse
    # enough to exhibit drift.
    loop.schedule(0.1, lambda: None)
    loop.schedule(0.2, lambda: None)
    loop.run()
    now = loop.now
    drifted = now - 1e-12  # accumulated-rounding stand-in: when < now
    assert drifted < now
    fired = []
    loop.schedule_at(drifted, fired.append, "clamped")
    loop.run()
    assert fired == ["clamped"]
    assert loop.now == now  # clamped to the current instant, not moved


def test_schedule_at_accepts_when_equal_to_now_after_drift():
    loop = EventLoop()
    # Accumulate float drift the way a retransmission timer does:
    # many small increments that do not sum exactly.
    t = 0.0
    for _ in range(100):
        loop.schedule_at(t, lambda: None)
        loop.run()
        t = loop.now + 0.1
        loop.schedule_at(t, lambda: None)
        loop.run()
    event = loop.schedule_at(loop.now, lambda: None)  # when == now
    assert event.time == loop.now
    loop.run()


def test_schedule_at_rejects_genuinely_past_times():
    loop = EventLoop()
    loop.schedule(5.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.schedule_at(4.0, lambda: None)


def test_schedule_at_tolerance_scales_with_large_clock():
    """At large simulated times one ulp is much bigger than at t=1;
    the clamp tolerance is relative, so drift keeps being absorbed."""
    loop = EventLoop()
    loop.schedule(1e9, lambda: None)
    loop.run()
    ulp = loop.now - (loop.now - 1e-3)  # well inside 1e-9 relative
    fired = []
    loop.schedule_at(loop.now - 1e-3, fired.append, "ok")
    loop.run()
    assert fired == ["ok"]
    assert ulp > 0


def test_run_until_executes_event_landing_exactly_on_boundary():
    loop = EventLoop()
    out = []
    loop.schedule(1.0, out.append, "on-boundary")
    loop.schedule(1.5, out.append, "beyond")
    assert loop.run(until=1.0) == 1
    assert out == ["on-boundary"]
    assert loop.now == 1.0
    assert loop.pending() == 1  # the 1.5s event survives, un-popped


def test_run_until_cancelled_event_at_heap_front_at_boundary():
    """A tombstone sitting exactly at ``until`` must be drained, the
    live event behind it run, and the clock left on the boundary."""
    loop = EventLoop()
    out = []
    doomed = loop.schedule(1.0, out.append, "cancelled", priority=-1)
    loop.schedule(1.0, out.append, "live")
    doomed.cancel()
    assert loop.run(until=1.0) == 1
    assert out == ["live"]
    assert loop.now == 1.0
    assert loop.pending() == 0


def test_run_until_only_cancelled_events_advances_clock_to_until():
    loop = EventLoop()
    for delay in (0.5, 1.0):
        loop.schedule(delay, lambda: None).cancel()
    assert loop.run(until=2.0) == 0
    assert loop.now == 2.0  # idle time still passes
    assert loop.pending() == 0


def test_run_max_events_with_only_cancelled_events_remaining():
    """Spending the budget must stop the run even when everything left
    in the heap is a tombstone; a later unbudgeted run drains them."""
    loop = EventLoop()
    out = []
    loop.schedule(1.0, out.append, "first")
    for delay in (2.0, 3.0):
        loop.schedule(delay, lambda: None).cancel()
    assert loop.run(max_events=1) == 1
    assert out == ["first"]
    assert loop.pending() == 0      # live counter sees through tombstones
    assert loop.run() == 0          # drains the cancelled tail
    assert loop.now == 1.0          # tombstones never advance the clock


def test_run_until_max_events_budget_stops_before_boundary():
    loop = EventLoop()
    out = []
    for i in range(4):
        loop.schedule(float(i + 1), out.append, i)
    assert loop.run(until=10.0, max_events=2) == 2
    assert out == [0, 1]
    assert loop.now == 2.0  # budget exhausted: clock stays put


def test_advance_lands_clock_exactly_even_when_idle():
    loop = EventLoop()
    assert loop.advance(0.25) == 0
    assert loop.now == 0.25
    out = []
    loop.schedule(0.25, out.append, "x")  # due exactly at the boundary
    assert loop.advance(0.25) == 1
    assert out == ["x"]
    assert loop.now == 0.5


def test_run_until_with_budget_spent_on_the_last_event_reaches_until():
    """The budget holds the clock only while a live event due by the
    deadline remains; with nothing left, idle time still passes."""
    loop = EventLoop()
    for delay in (1.0, 2.0):
        loop.schedule(delay, lambda: None)
    loop.schedule(3.0, lambda: None).cancel()
    assert loop.run(until=10.0, max_events=2) == 2
    assert loop.now == 10.0
    assert loop.lane_stats()["heap_len"] == 0  # the tombstone went too


def test_timed_run_never_turns_the_clock_back():
    """A deadline before ``now`` is an error, not a rewind (a rewound
    clock would stamp the next ``call_soon`` before events already in
    the ready lane)."""
    loop = EventLoop()
    loop.schedule(3.0, lambda: None)
    loop.run(until=2.0)
    with pytest.raises(ValueError):
        loop.run(until=1.0)
    with pytest.raises(ValueError):
        loop.advance(-0.5)
    assert loop.now == 2.0
    assert loop.call_soon(lambda: None).time == 2.0
    assert loop.pending() == 2


def test_timed_run_clamps_float_drift_to_now():
    loop = EventLoop()
    loop.schedule(0.1, lambda: None)
    loop.schedule(0.2, lambda: None)
    loop.run()
    now = loop.now
    out = []
    loop.call_soon(out.append, "due")
    assert loop.run(until=now - 1e-12) == 1
    assert out == ["due"] and loop.now == now
    assert loop.advance(-1e-12) == 0
    assert loop.now == now


def test_advance_with_cancelled_front_reaches_full_duration():
    loop = EventLoop()
    loop.schedule(0.1, lambda: None).cancel()
    out = []
    loop.schedule(0.2, out.append, "live")
    assert loop.advance(1.0) == 1
    assert out == ["live"]
    assert loop.now == 1.0
