"""Differential oracle for the one drain and the one transmit.

Timed runs, ``advance`` and ``step`` ride the batched drain
(``EventLoop._drain_py(limit, until)``) instead of a second and third
hand-inlined lane merge, and backpressure's ``_bp_send`` sends through
the link's faithful transmit and retargets the delivery it scheduled
instead of mirroring that transmit.  The references below are the code
as it was before that change, verbatim: ``ReferenceLoop`` keeps
``run``, the untimed ``_drain_py``, ``_run_timed``, ``step`` (with the
``_execute`` it called) and ``advance``; ``ReferenceLink`` keeps the
bounded transmit (``_bp_transmit``, ``_bp_send``, ``_bp_deliver``).

Every seeded drain program must agree with the reference after every
call on the return value, execution order and times, ``now``,
``executed``, ``pending()`` and ``lane_stats()`` (one allowance on
tombstones after ``step()``: see ``_check_drain_programs``).  Every
backpressure case must agree on the delivery sequence,
``backpressure_stats()``, the fault counters, the lanes and the RNG
state.  ``Link.sent`` is the one field that differs on purpose: it now
counts each offer exactly once, so it is checked against the offers
instead of the reference.

The suite runs under one backend per process (``REPRO_BACKEND`` is read
at import); ``test_oracle_holds_under_both_backends`` reruns the whole
oracle under each backend in a child interpreter and pins the digests
equal.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
import subprocess
import sys
from heapq import heappush
from itertools import zip_longest
from typing import Optional

import pytest

from repro.network.backend import compiled_available
from repro.network.eventloop import Event, EventLoop, _drain, _earlier
from repro.network.faults import FaultPlan, FaultyLink
from repro.network.latency import FixedLatency, UniformLatency
from repro.network.transport import Link, LinkEnd


class CountingLoop(EventLoop):
    """The loop under test, counting heap compactions."""

    compactions = 0

    def _compact(self) -> None:
        self.compactions += 1
        super()._compact()


class ReferenceLoop(CountingLoop):
    """The parent commit's execution methods, verbatim."""

    def _execute(self, event: Event) -> None:
        """Run one popped, live event (detaching it from the counter
        first, so a post-hoc ``cancel()`` cannot double-count)."""
        event._loop = None
        self._live -= 1
        self._now = event.time
        self.executed += 1
        event.callback(*event.args)

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event ran, ``False`` if no live event
        remains in either lane.
        """
        heap, ready = self._heap, self._ready
        while heap or ready:
            if ready:
                if heap:
                    f, r = heap[0], ready[0]
                    if _earlier(f, r):
                        event = heapq.heappop(heap)
                    else:
                        event = ready.popleft()
                else:
                    event = ready.popleft()
            else:
                event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._execute(event)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until both lanes drain, ``until`` passes, or the
        budget of ``max_events`` is spent.  Returns the number of events
        executed by this call.
        """
        if until is None:
            # Untimed runs (settle / run_until_quiescent / drain) are
            # the hot case; the batched drain pops directly with no
            # deadline to peek against.  Under the compiled backend the
            # whole drain, including counter flushing, runs in C.
            limit = -1 if max_events is None else max_events
            if _drain is not None:
                return _drain(self, limit)
            return self._drain_py(limit)
        return self._run_timed(until, max_events)

    def _drain_py(self, limit: int) -> int:  # type: ignore[override]
        executed = 0
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        rpop = ready.popleft
        try:
            while True:
                if executed == limit:
                    break
                if ready:
                    if heap:
                        f = heap[0]
                        r = ready[0]
                        # Inline _earlier(f, r) with r.priority == 0
                        # (the ready-lane invariant).
                        if (f.time < r.time
                                or (f.time == r.time
                                    and (f.priority < 0
                                         or (f.priority == 0
                                             and f.seq < r.seq)))):
                            event = heappop(heap)
                        else:
                            event = rpop()
                    else:
                        event = rpop()
                elif heap:
                    event = heappop(heap)
                else:
                    break
                if event.cancelled:
                    continue
                executed += 1
                # detach before the callback so a post-hoc cancel()
                # cannot double-count
                event._loop = None
                t = event.time
                if t != self._now:
                    self._now = t
                event.callback(*event.args)
        finally:
            self._live -= executed
            self.executed += executed
        return executed

    def _run_timed(self, until: float,
                   max_events: Optional[int]) -> int:
        executed = 0
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        while heap or ready:
            # Peek the earliest front, draining tombstones lazily
            # (tombstones never advance the clock and never count
            # against the budget).
            f = heap[0] if heap else None
            if f is not None and f.cancelled:
                heappop(heap)
                continue
            r = ready[0] if ready else None
            if r is not None and r.cancelled:
                ready.popleft()
                continue
            if f is None:
                event, use_heap = r, False
            elif r is None:
                event, use_heap = f, True
            elif _earlier(f, r):
                event, use_heap = f, True
            else:
                event, use_heap = r, False
            if event.time > until:
                self._now = until
                return executed
            if max_events is not None and executed >= max_events:
                return executed
            if use_heap:
                heappop(heap)
            else:
                ready.popleft()
            executed += 1
            # inline _execute (see above)
            event._loop = None
            self._live -= 1
            self._now = event.time
            self.executed += 1
            event.callback(*event.args)
        if until > self._now:
            self._now = until
        return executed

    def advance(self, duration: float) -> int:
        """Run all events in the next ``duration`` seconds of simulated
        time, then set the clock to exactly ``now + duration``."""
        return self._run_timed(self._now + duration, None)


class ReferenceLink(Link):
    """The parent commit's bounded transmit, verbatim."""

    def _bp_transmit(self, origin: LinkEnd, message) -> None:
        """Bounded transmit: defer above the high-water mark, otherwise
        behave exactly like :meth:`_base_transmit`."""
        if self.down:
            return
        high = self._bp_high
        if high is not None and self._bp_live >= high:
            self._bp_deferred.append((origin, message))
            self.deferred_total += 1
            depth = len(self._bp_deferred)
            if depth > self.deferred_peak:
                self.deferred_peak = depth
            return
        self._bp_send(origin, message)

    def _bp_send(self, origin: LinkEnd, message) -> None:
        # Mirrors _base_transmit exactly (same clamp, same event time /
        # priority / seq draw, same lane choice) so the no-deferral
        # trace is byte-identical; delivery goes through _bp_deliver to
        # keep the in-flight count and drain the queue.
        self.sent += 1
        latency = self.latency
        delay = latency.fixed_delay
        if delay is None:
            delay = latency.sample(self.loop.rng)
        loop = self.loop
        deliver_at = loop._now + delay
        if deliver_at < origin._horizon:
            deliver_at = origin._horizon
        origin._horizon = deliver_at
        target = origin._peer
        pending = self._pending
        if len(pending) >= self._compact_at:
            pending = self._compact_pending()
        event = Event(deliver_at, 0, next(loop._seq),
                      self._bp_deliver, (target, message), loop)
        if deliver_at == loop._now:
            loop._ready.append(event)
        else:
            heappush(loop._heap, event)
        loop._live += 1
        pending.append(event)
        self._bp_live += 1

    def _bp_deliver(self, target: LinkEnd, message) -> None:
        self._bp_live -= 1
        target._deliver(message)
        # A slot freed up: drain deferred transmits back under the mark.
        deferred = self._bp_deferred
        while deferred and not self.down \
                and (self._bp_high is None
                     or self._bp_live < self._bp_high):
            origin, queued = deferred.popleft()
            self._bp_send(origin, queued)


# ----------------------------------------------------------------------
# drain programs
# ----------------------------------------------------------------------
#: Delays drawn by programs: zeros and repeats make equal timestamps
#: (same-instant batches, heap/ready ties) the common case.
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0)
#: Run lengths and budgets the top-level script draws.
SPANS = (0.0, 0.1, 0.25, 0.5, 1.0, 3.0)
BUDGETS = (0, 1, 1, 2, 3, 5)
MAX_DEPTH = 4

DRAIN_SEEDS = range(320)
RUNS = ("run_until", "run_budget", "run_both", "advance", "step", "run")


def program(loop, seed):
    """Seeded program ``seed`` on ``loop``: yields one observation per
    top-level call."""
    script = random.Random(seed)
    log = []
    handles = []
    tags = iter(range(1 << 30))

    def spawn(depth):
        tag = next(tags)
        how = script.random()
        priority = script.choice((-1, 0, 0, 0, 1))
        if how < 0.35:
            ev = loop.schedule(script.choice(DELAYS), fire, tag, depth,
                               priority=priority)
        elif how < 0.6:
            ev = loop.call_soon(fire, tag, depth)
        else:
            when = loop.now + script.choice(DELAYS)
            if script.random() < 0.3:
                # float drift one rounding error below the clock
                when = loop.now - 1e-12 * max(1.0, loop.now)
            ev = loop.schedule_at(when, fire, tag, depth,
                                  priority=priority)
        handles.append(ev)

    def fire(tag, depth):
        log.append((tag, loop.now))
        if depth < MAX_DEPTH:
            for _ in range(script.choice((0, 0, 1, 1, 2))):
                spawn(depth + 1)
        if handles and script.random() < 0.3:
            script.choice(handles).cancel()

    def burst():
        # Enough timers, mostly cancelled, to trip heap compaction.
        evs = [loop.schedule(script.choice(SPANS) + 0.05, fire,
                             next(tags), MAX_DEPTH)
               for _ in range(script.randint(60, 90))]
        for ev in evs:
            if script.random() < 0.8:
                ev.cancel()
        handles.extend(evs)

    def bury():
        # Far timers with tombstones buried mid-heap, and an event due
        # soon that cancels live ones: compaction trips inside a run.
        evs = [loop.schedule(10.0 + 0.01 * i, fire, next(tags), MAX_DEPTH)
               for i in range(70)]
        for ev in evs[40:65]:
            ev.cancel()
        loop.schedule(script.choice(SPANS), cancel_all, evs[1:13])
        handles.extend(evs)

    def cancel_all(evs):
        for ev in evs:
            ev.cancel()

    for _ in range(script.randint(1, 8)):
        spawn(0)
    for _ in range(script.randint(10, 40)):
        op = script.random()
        if op < 0.15:
            call = ("run_until", script.choice(SPANS))
            ret = loop.run(until=loop.now + call[1])
        elif op < 0.3:
            call = ("run_budget", script.choice(BUDGETS))
            ret = loop.run(max_events=call[1])
        elif op < 0.45:
            call = ("run_both", script.choice(SPANS),
                    script.choice(BUDGETS))
            ret = loop.run(until=loop.now + call[1], max_events=call[2])
        elif op < 0.6:
            call = ("advance", script.choice(SPANS))
            ret = loop.advance(call[1])
        elif op < 0.75:
            call = ("step",)
            ret = loop.step()
        elif op < 0.78:
            call = ("run",)
            ret = loop.run()
        elif op < 0.88:
            call = ("spawn",)
            ret = spawn(0)
        elif op < 0.94:
            call = ("cancel",)
            ret = handles and script.choice(handles).cancel()
        elif op < 0.97:
            call = ("burst",)
            ret = burst()
        else:
            call = ("bury",)
            ret = bury()
        yield (call, ret, tuple(log), loop.now, loop.executed,
               loop.pending(), loop.lane_stats())
        del log[:]


def _without_heap_len(obs):
    lanes = dict(obs[-1])
    del lanes["heap_len"]
    return obs[:-1] + (lanes,)


def _live_heap(loop):
    return sorted((e.time, e.priority, e.seq)
                  for e in loop._heap if not e.cancelled)


def _check_drain_programs():
    """Run every program on both loops in lockstep, comparing after
    each call; returns coverage counters and the new loop's
    observations.

    Raw ``heap_len`` is compared too, tombstones included, with one
    allowance.  ``cancel()`` compacts the heap when most of it is dead,
    judged by the live counter.  ``step()`` is now the untimed drain
    with a budget of one, which -- like every untimed run, Python or C
    -- flushes that counter after the callback, where the old ``step``
    decremented it before.  So a compaction tripped by a ``cancel()``
    inside a stepped callback may fire one cancel later.  After such a
    step the loops may differ in tombstones only; both are then
    compacted, which puts them back in the same state.
    """
    seen = {"budget_held_clock": 0, "budget_moved_clock": 0,
            "step_false": 0, "tombstone_heavy": 0,
            "compacted_in_run": 0}
    out = []
    for seed in DRAIN_SEEDS:
        new, ref = CountingLoop(seed=seed), ReferenceLoop(seed=seed)
        observed = []
        prev_now = 0.0
        for a, b in zip_longest(program(new, seed), program(ref, seed)):
            compacted = (new.compactions, ref.compactions) != (0, 0)
            if compacted and a[0][0] in RUNS:
                seen["compacted_in_run"] += 1
            if compacted and a[0] == ("step",) and a != b:
                assert _without_heap_len(a) == _without_heap_len(b), seed
                assert _live_heap(new) == _live_heap(ref), seed
                new._compact()
                ref._compact()
            else:
                assert a == b, seed
            new.compactions = ref.compactions = 0
            observed.append(a)
            call, ret, _, now, _, pending, lanes = a
            if call[0] == "run_both" and ret == call[2]:
                key = ("budget_moved_clock" if now == prev_now + call[1]
                       else "budget_held_clock")
                seen[key] += 1
            if call[0] == "step" and ret is False:
                seen["step_false"] += 1
            if lanes["heap_len"] > 2 * pending + 20:
                seen["tombstone_heavy"] += 1
            prev_now = now
        out.append(observed)
    return seen, out


# ----------------------------------------------------------------------
# backpressure cases
# ----------------------------------------------------------------------
class Msg:
    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return "Msg(%d)" % self.n


MARKS = (1, 2, 3, 4)
LATENCIES = {
    "zero": lambda: FixedLatency(0.0),
    "fixed": lambda: FixedLatency(0.05),
    "sampled": lambda: UniformLatency(0.0, 0.08),
}
FAULTS = {
    "none": None,
    "drop+dup": FaultPlan(drop=0.2, duplicate=0.3),
    "flaps": FaultPlan(drop=0.1, duplicate=0.2, flaps=((0.2, 0.1),)),
}
#: What happens mid-run: nothing, a real teardown, the mark removed,
#: or the mark raised.
MIDRUN = ("none", "teardown", "unmark", "remark")
BP_SEEDS = range(2)


def run_bp_case(link_cls, mark, latency_name, fault_name, midrun, seed):
    """One seeded backpressure scenario; returns every observable."""
    loop = EventLoop(seed=seed)
    link = link_cls(loop, LATENCIES[latency_name](), name="L")
    link.set_backpressure(mark)
    plan = FAULTS[fault_name]
    faulty = FaultyLink(link, plan) if plan is not None else None
    script = random.Random(2000 + seed)
    msgs = []
    log = []
    offered = [0]

    def send(side):
        msg = Msg(len(msgs))
        msgs.append(msg)
        if not link.down and not (faulty is not None and faulty._outage):
            offered[0] += 1
        link.ends[side].send(msg)

    def receiver(side):
        def receive(msg):
            assert msg is msgs[msg.n]
            log.append((loop.now, side, msg.n))
            # A send from inside a delivery, same instant.
            if msg.n % 3 == 0 and len(msgs) < 300:
                send(side)
        return receive

    link.ends[0].set_receiver(receiver(0))
    link.ends[1].set_receiver(receiver(1))

    def burst(k):
        for _ in range(script.randint(1, 6)):
            send(script.randint(0, 1))
        # An unrelated event at the same instant pins the merged order.
        loop.call_soon(log.append, (loop.now, "marker", k))

    at = 0.0
    for k in range(30):
        at += script.choice((0.0, 0.0, 0.01, 0.04))
        loop.schedule_at(at, burst, k)
    if midrun == "teardown":
        loop.schedule_at(at * 0.6, link.tear_down)
    elif midrun == "unmark":
        loop.schedule_at(at * 0.5, link.set_backpressure, None)
    elif midrun == "remark":
        loop.schedule_at(at * 0.5, link.set_backpressure, mark + 2)
    # Part of the run in timed slices, the rest untimed.
    for _ in range(5):
        loop.advance(at / 8)
    loop.run()
    return {
        "log": log,
        "bp": link.backpressure_stats(),
        "faults": faulty.stats.to_json() if faulty is not None else None,
        "rng": loop.rng.getstate(),
        "executed": loop.executed,
        "now": loop.now,
        "lanes": loop.lane_stats(),
        "in_flight": link.in_flight(),
        "down": link.down,
        "sent": link.sent,
        "offered": offered[0],
    }


BP_CASES = [(m, l, f, w, s) for m in MARKS for l in LATENCIES
            for f in FAULTS for w in MIDRUN for s in BP_SEEDS]


def _check_bp_cases():
    deferred = 0
    out = []
    for case in BP_CASES:
        new = run_bp_case(Link, *case)
        ref = run_bp_case(ReferenceLink, *case)
        assert new.pop("sent") == new["offered"], case
        if ref["bp"]["deferred_total"] == 0:
            assert ref["sent"] == new["offered"], case
        del ref["sent"]
        assert new == ref, case
        deferred += new["bp"]["deferred_total"]
        out.append(new)
    return deferred, out


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_drain_matches_reference():
    assert len(DRAIN_SEEDS) >= 300
    seen, _ = _check_drain_programs()
    # The programs really reach the corners the single drain must get
    # right, not only the easy middle.
    assert all(count > 0 for count in seen.values()), seen


def test_backpressure_matches_reference():
    deferred, _ = _check_bp_cases()
    assert deferred > 0  # the mark really was hit


def _digest() -> str:
    """Run the whole oracle (asserting as it goes) and hash what the
    new code observed, RNG state aside."""
    h = hashlib.sha256()
    _, programs = _check_drain_programs()
    _, cases = _check_bp_cases()
    for case in cases:
        del case["rng"]
    h.update(repr(programs).encode())
    h.update(repr([sorted(c.items()) for c in cases]).encode())
    return h.hexdigest()


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_oracle_holds_under_both_backends():
    root = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
    digests = {}
    for backend in ("python", "compiled"):
        env = dict(os.environ, REPRO_BACKEND=backend,
                   PYTHONPATH=os.pathsep.join(
                       (os.path.join(root, "src"), root)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.network.backend import BACKEND\n"
             "from tests.property.test_drain_oracle import _digest\n"
             "print(BACKEND, _digest())"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        name, digests[backend] = proc.stdout.split()
        assert name == backend
    assert digests["python"] == digests["compiled"]
