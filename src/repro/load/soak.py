"""The sustained-churn soak harness: hours of simulated call churn,
memory-stability gates, and overload shedding — in seconds of wall
clock.

``repro load`` measures short bursts; this module answers the
production question the ROADMAP calls the "million-channel soak": does
the runtime survive *sustained* Poisson arrival/departure churn with
flat memory, and does an overloaded box shed load gracefully (busy →
bounded retry → ``noMedia``) instead of collapsing?

One soak drives a multi-tenant relay: ``tenants`` caller devices, each
with a multi-tunnel channel into one shared ``core`` box, relayed by
flowlinks to per-tenant callee devices.  Sessions arrive as a Poisson
process (seeded, on the simulated clock), pick a tenant from a Zipf
heavy-hitter distribution, hold for an exponential time, optionally
re-describe mid-hold, and close.  The core box may run admission
control; links may run backpressure.

Per epoch the harness samples RSS, per-type object counts (after a
full ``gc.collect``), the census's own cost, and the scheduler's lane
stats.  The census is scoped to the run: the heap that existed before
it is frozen out of the collector (:func:`repro.obs.census.heap_scope`),
so each epoch walks only what the soak allocated.  The memory gate
compares the last post-warmup epoch against the first and fails on
growth beyond tolerance.  Safety is checked at the end of the run:
every slot dead, every session accounted for (completed, shed to
``noMedia``, or abandoned), zero leftovers.

Everything observable flows through a
:class:`~repro.obs.metrics.MetricsRegistry` and into the JSON report
(``BENCH_soak.json`` via the CLI).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional

from ..core.admission import AdmissionPolicy
from ..media.endpoint import Port
from ..network import eventloop
from ..network.backend import describe as _backend_describe
from ..network.network import Network
from ..obs.census import census, heap_scope
from ..obs.metrics import MetricsRegistry
from ..protocol.channel import SignalingChannel
from ..protocol.codecs import AUDIO
from ..protocol.signals import TunnelMessage
from ..protocol.slot import RetransmitPolicy, Slot

__all__ = ["SoakProfile", "SOAK_PROFILES", "run_soak", "memory_gate",
           "TRACKED_TYPES"]

#: Soak channels retry busy refusals on a short budget so a shed call
#: degrades to ``noMedia`` within a few simulated seconds instead of
#: the default policy's half minute.
_SOAK_RETRANSMIT = RetransmitPolicy(initial=0.25, backoff=2.0,
                                    max_retries=3, stale_after=0.5)


class SoakProfile(NamedTuple):
    """One named soak configuration (see :data:`SOAK_PROFILES`)."""

    name: str
    description: str
    #: Caller/callee device pairs sharing the core box.
    tenants: int = 8
    #: Tunnels (= concurrent sessions) per tenant channel.
    slots_per_tenant: int = 4
    #: Poisson session arrival rate, sessions per simulated second.
    arrival_rate: float = 10.0
    #: Mean exponential hold time, simulated seconds.
    hold_mean: float = 0.5
    #: Probability a session re-describes itself mid-hold.
    redescribe_prob: float = 0.25
    #: Zipf skew for tenant selection (0 = uniform; >0 makes tenant 0
    #: the heavy hitter).
    zipf_s: float = 0.0
    #: Sampling epochs and their simulated length.
    epochs: int = 12
    epoch_seconds: float = 5.0
    #: Epochs excluded from the memory gate while pools/caches warm up.
    warmup_epochs: int = 2
    #: Admission policy installed on the core box (None = no limits).
    admission: Optional[AdmissionPolicy] = None
    #: Per-link in-flight high-water mark (None = unbounded).
    backpressure: Optional[int] = None


#: The named profiles the CLI exposes.  ``steady`` is the memory-gate
#: workload (no limits ever fire, backpressure configured but idle);
#: ``overload`` drives well past the admission caps so shedding and
#: ``noMedia`` degradation are exercised; ``churn`` maximizes
#: open/close turnover for arena/pool stress.
SOAK_PROFILES: Dict[str, SoakProfile] = {
    "steady": SoakProfile(
        name="steady",
        description="sustainable churn; memory-stability gate workload",
        tenants=8, slots_per_tenant=4, arrival_rate=10.0, hold_mean=0.5,
        redescribe_prob=0.25, zipf_s=0.0, backpressure=64),
    "overload": SoakProfile(
        name="overload",
        description="arrivals far above admission caps; shedding and "
                    "noMedia degradation under a heavy-hitter tenant",
        tenants=8, slots_per_tenant=8, arrival_rate=40.0, hold_mean=2.0,
        redescribe_prob=0.1, zipf_s=1.1,
        admission=AdmissionPolicy(max_concurrent=12,
                                  per_tenant_concurrent=2,
                                  setup_rate=15.0, setup_burst=10,
                                  retry_after=0.2),
        backpressure=64),
    "churn": SoakProfile(
        name="churn",
        description="maximum open/close turnover; arena and pool stress",
        tenants=16, slots_per_tenant=2, arrival_rate=80.0, hold_mean=0.1,
        redescribe_prob=0.5, zipf_s=0.5, backpressure=32),
}


class _Session:
    """One live call: which tenant, which slot, and its exit path."""

    __slots__ = ("tenant", "slot", "close_event", "redescribe_event")

    def __init__(self, tenant: int, slot: Slot):
        self.tenant = tenant
        self.slot = slot
        self.close_event = None
        self.redescribe_event = None


#: Classes whose population the per-epoch census tracks, counted by
#: identity.  Chosen to cover every arena/pool and per-session
#: allocation in the runtime: scheduler events, wire envelopes, protocol
#: endpoints, media ports.  ``Event`` is the backend-selected scheduler
#: event (the C type under the compiled backend), never a namesake such
#: as ``threading.Event``.
_TRACKED_CLASSES = (eventloop.Event, TunnelMessage, Slot, Port,
                    SignalingChannel, _Session)
#: Their names: the keys of every sample's ``objects`` and of the
#: memory gate's ``objects.*`` checks.
TRACKED_TYPES = tuple(cls.__name__ for cls in _TRACKED_CLASSES)


class _SoakDriver:
    """Owns the topology and the seeded churn process."""

    def __init__(self, profile: SoakProfile, seed: int):
        self.profile = profile
        self.net = Network(seed=seed, retransmit=_SOAK_RETRANSMIT,
                           backpressure=profile.backpressure)
        self.loop = self.net.loop
        self.core = self.net.box("core")
        if profile.admission is not None:
            self.core.set_admission(profile.admission)
        self.callers = []
        self.caller_slots: List[List[Slot]] = []
        tunnels = ["t%d" % i for i in range(profile.slots_per_tenant)]
        for t in range(profile.tenants):
            caller = self.net.device("A%d" % t)
            callee = self.net.device("B%d" % t, auto_accept=True)
            ch_in = self.net.channel(caller, self.core, tunnels=tunnels)
            ch_out = self.net.channel(self.core, callee, tunnels=tunnels)
            in_end = ch_in.end_for(self.core)
            out_end = ch_out.end_for(self.core)
            for tid in tunnels:
                self.core.flow_link(in_end.slot(tid), out_end.slot(tid))
            self.callers.append(caller)
            self.caller_slots.append(
                [ch_in.end_for(caller).slot(tid) for tid in tunnels])
        # Zipf tenant weights -> cumulative distribution for bisect.
        weights = [1.0 / ((t + 1) ** profile.zipf_s)
                   for t in range(profile.tenants)]
        total = sum(weights)
        acc = 0.0
        self._cum: List[float] = []
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self._in_use: Dict[Slot, _Session] = {}
        self._stopped = False
        self._arrival_event = None

        # session accounting
        self.started = 0
        self.completed = 0
        self.shed = 0          # degraded to noMedia after busy refusals
        self.abandoned = 0     # hold expired while still in busy backoff
        self.failed_other = 0  # gave up for a non-busy reason
        self.blocked = 0       # arrival found no free slot on the tenant
        self.redescribes = 0

    # -- the churn process -------------------------------------------------
    def start(self) -> None:
        self._schedule_arrival()

    def stop(self) -> None:
        """No further arrivals; sessions already live run to completion."""
        self._stopped = True
        if self._arrival_event is not None:
            self._arrival_event.cancel()
            self._arrival_event = None

    def _schedule_arrival(self) -> None:
        delay = self.loop.rng.expovariate(self.profile.arrival_rate)
        self._arrival_event = self.loop.schedule(delay, self._arrive)

    def _arrive(self) -> None:
        self._arrival_event = None
        if self._stopped:
            return
        self._schedule_arrival()
        rng = self.loop.rng
        tenant = bisect_left(self._cum, rng.random())
        if tenant >= self.profile.tenants:  # pragma: no cover - fp edge
            tenant = self.profile.tenants - 1
        slot = None
        for candidate in self.caller_slots[tenant]:
            if candidate.is_closed and candidate not in self._in_use:
                slot = candidate
                break
        if slot is None:
            self.blocked += 1
            return
        session = _Session(tenant, slot)
        self._in_use[slot] = session
        self.started += 1
        caller = self.callers[tenant]
        caller.open(slot, AUDIO)
        hold = rng.expovariate(1.0 / self.profile.hold_mean)
        session.close_event = self.loop.schedule(
            hold, self._end_session, session)
        if rng.random() < self.profile.redescribe_prob:
            session.redescribe_event = self.loop.schedule(
                hold * 0.5, self._redescribe, session)

    def _redescribe(self, session: _Session) -> None:
        session.redescribe_event = None
        slot = session.slot
        if self._in_use.get(slot) is session and slot.is_flowing:
            self.redescribes += 1
            self.callers[session.tenant].refresh_descriptor(slot)

    def _end_session(self, session: _Session) -> None:
        session.close_event = None
        slot = session.slot
        if self._in_use.get(slot) is not session:  # pragma: no cover
            return
        if session.redescribe_event is not None:
            session.redescribe_event.cancel()
            session.redescribe_event = None
        if slot.is_live:
            self.callers[session.tenant].close(slot)
            self.completed += 1
        elif slot.failed:
            # The busy/retry budget ran out before the hold expired:
            # the call degraded to noMedia — the graceful shed path.
            if slot.busy_refusals > 0:
                self.shed += 1
            else:
                self.failed_other += 1
        else:
            # Still in busy backoff (closed, retry timer armed) when
            # the caller lost patience: abandon, cancelling the retry.
            slot.force_close()
            self.abandoned += 1
        del self._in_use[slot]

    # -- reporting ---------------------------------------------------------
    def sessions_snapshot(self) -> Dict[str, int]:
        return {
            "started": self.started,
            "completed": self.completed,
            "shed_nomedia": self.shed,
            "abandoned_in_backoff": self.abandoned,
            "failed_other": self.failed_other,
            "arrivals_blocked_no_slot": self.blocked,
            "redescribes": self.redescribes,
            "live_now": len(self._in_use),
        }

    def backpressure_snapshot(self) -> Dict[str, int]:
        deferred_total = deferred_peak = 0
        for channel in self.net.channels:
            deferred_total += channel.link.deferred_total
            peak = channel.link.deferred_peak
            if peak > deferred_peak:
                deferred_peak = peak
        return {"deferred_total": deferred_total,
                "deferred_peak": deferred_peak}

    def safety_check(self) -> List[str]:
        """Invariants after the drain; each violation is one string."""
        violations: List[str] = []
        if self._in_use:
            violations.append("%d sessions never ended" % len(self._in_use))
        for channel in self.net.channels:
            for end in channel.ends:
                for slot in end.slots.values():
                    if not slot.is_dead:
                        violations.append(
                            "slot %s left %s" % (slot.name, slot.state))
        accounted = (self.completed + self.shed + self.abandoned
                     + self.failed_other)
        if accounted != self.started:
            violations.append(
                "session accounting mismatch: started=%d accounted=%d"
                % (self.started, accounted))
        admission = self.core.admission
        if admission is not None and self.shed > 0 \
                and admission.shed_total == 0:
            violations.append(
                "devices saw busy failures but the box shed nothing")
        return violations


# ----------------------------------------------------------------------
# sampling and the memory gate
# ----------------------------------------------------------------------
def _rss_kb() -> int:
    """Resident set size in kB from ``/proc`` (0 where unavailable —
    the object census still gates)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _census_sample() -> Dict[str, Any]:
    """The epoch sample's census fields: live instances of the tracked
    runtime types, and what taking the census cost — its wall seconds
    and the number of objects it walked."""
    start = perf_counter()
    counts, walked = census(_TRACKED_CLASSES)
    return {"objects": {cls.__name__: n for cls, n in counts.items()},
            "census_s": perf_counter() - start,
            "census_walked": walked}


def memory_gate(samples: List[Dict[str, Any]], warmup_epochs: int,
                obj_tol_abs: int = 64, obj_tol_rel: float = 0.10,
                rss_tol_kb: int = 8192) -> Dict[str, Any]:
    """Judge memory stability over the per-epoch ``samples``.

    The first ``warmup_epochs`` are excluded (pools, freelists, and
    interpreter caches legitimately fill early).  The last remaining
    epoch is compared against the first: each tracked object count may
    grow by at most ``obj_tol_abs + obj_tol_rel * baseline``, the
    scheduler heap by the same rule, and RSS by ``rss_tol_kb``.  Under
    steady churn a leak of one object per call blows far past these
    tolerances within a few epochs; honest steady state sits well
    inside them.
    """
    post = samples[warmup_epochs:]
    if len(post) < 2:
        return {"ok": True, "checks": [],
                "note": "not enough post-warmup epochs to gate"}
    base, final = post[0], post[-1]
    checks: List[Dict[str, Any]] = []

    def check(metric: str, baseline: float, current: float,
              limit: float) -> None:
        checks.append({"metric": metric, "baseline": baseline,
                       "final": current, "limit": limit,
                       "ok": current <= limit})

    for name in TRACKED_TYPES:
        b = base["objects"][name]
        check("objects.%s" % name, b, final["objects"][name],
              b + obj_tol_abs + b * obj_tol_rel)
    b = base["lanes"]["heap_len"]
    check("lanes.heap_len", b, final["lanes"]["heap_len"],
          b + obj_tol_abs + b * obj_tol_rel)
    if base["rss_kb"] > 0 and final["rss_kb"] > 0:
        check("rss_kb", base["rss_kb"], final["rss_kb"],
              base["rss_kb"] + rss_tol_kb)
    return {"ok": all(c["ok"] for c in checks), "checks": checks,
            "warmup_epochs": warmup_epochs,
            "epochs_compared": [base["epoch"], final["epoch"]]}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_soak(profile: SoakProfile, seed: int = 0,
             gate: bool = True) -> Dict[str, Any]:
    """Run one soak and return its JSON-ready report.

    ``report["ok"]`` is the run verdict: memory gate passed (when
    ``gate``) and zero safety violations.  The run happens inside a
    :func:`~repro.obs.census.heap_scope`, so the per-epoch census walks
    only what the soak allocated; the collector is restored however the
    run ends.
    """
    with heap_scope():
        return _run_soak(profile, seed, gate)


def _run_soak(profile: SoakProfile, seed: int,
              gate: bool) -> Dict[str, Any]:
    driver = _SoakDriver(profile, seed)
    loop = driver.loop
    metrics = MetricsRegistry()
    driver.start()
    samples: List[Dict[str, Any]] = []
    for epoch in range(profile.epochs):
        loop.advance(profile.epoch_seconds)
        samples.append({
            "epoch": epoch,
            "sim_time": loop.now,
            "rss_kb": _rss_kb(),
            **_census_sample(),
            "lanes": loop.lane_stats(),
            "sessions": driver.sessions_snapshot(),
        })
    # Drain: no further arrivals; let held sessions close, busy-backoff
    # retries resolve, and the wire empty out completely.
    driver.stop()
    loop.run_until_quiescent(max_events=10_000_000)

    sessions = driver.sessions_snapshot()
    for name, value in sessions.items():
        metrics.counter("soak.sessions.%s" % name).inc(value)
    admission = driver.core.admission
    admission_report: Optional[Dict[str, int]] = None
    if admission is not None:
        admission_report = admission.counters()
        for name, value in admission_report.items():
            metrics.counter("soak.admission.%s" % name).inc(value)
    backpressure = driver.backpressure_snapshot()
    for name, value in backpressure.items():
        metrics.counter("soak.backpressure.%s" % name).inc(value)
    violations = driver.safety_check()
    gate_report = (memory_gate(samples, profile.warmup_epochs)
                   if gate else {"ok": True, "checks": [],
                                 "note": "gate disabled"})
    ok = gate_report["ok"] and not violations
    return {
        "profile": {
            "name": profile.name,
            "tenants": profile.tenants,
            "slots_per_tenant": profile.slots_per_tenant,
            "arrival_rate": profile.arrival_rate,
            "hold_mean": profile.hold_mean,
            "redescribe_prob": profile.redescribe_prob,
            "zipf_s": profile.zipf_s,
            "epochs": profile.epochs,
            "epoch_seconds": profile.epoch_seconds,
            "admission": (None if profile.admission is None
                          else asdict(profile.admission)),
            "backpressure": profile.backpressure,
        },
        "seed": seed,
        "sim_time": loop.now,
        "executed": loop.executed,
        "epochs": samples,
        "sessions": sessions,
        "admission": admission_report,
        "backpressure": backpressure,
        "memory_gate": gate_report,
        "safety": {"violations": violations,
                   "violation_count": len(violations)},
        "metrics": metrics.snapshot(),
        "backend": _backend_describe(),
        "ok": ok,
    }
