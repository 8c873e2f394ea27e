"""Backend seam tests: selection, fallback, and cross-backend parity.

The backend is chosen once at import time, so every selection test runs
in a child interpreter with a controlled ``REPRO_BACKEND``.  The parity
test computes the full runtime-fingerprint set under *both* backends in
child processes and requires byte-identical results — the compiled core
is only allowed to be faster, never different.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.network.backend import compiled_available

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "src"))


def _probe(code: str, backend_env=None) -> str:
    """Run ``code`` in a child interpreter; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    if backend_env is not None:
        env["REPRO_BACKEND"] = backend_env
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _describe(backend_env=None) -> dict:
    return json.loads(_probe(
        """
        import json
        from repro.network import backend
        print(json.dumps(backend.describe()))
        """, backend_env))


def test_default_backend_is_python():
    info = _describe(None)
    assert info == {"backend": "python", "requested": "python",
                    "compiled_loaded": False, "arena_poison": False}


def test_explicit_python_never_loads_the_extension():
    info = _describe("python")
    assert info["backend"] == "python"
    assert info["compiled_loaded"] is False


def test_unknown_backend_value_degrades_to_python():
    info = _describe("turbo9000")
    assert info["backend"] == "python"
    assert info["requested"] == "python"


def test_backend_env_value_is_normalized():
    info = _describe("  Python \n")
    assert info["requested"] == "python"


def test_compiled_falls_back_without_artifact():
    # Block the extension import (as on a fresh checkout with no build)
    # and ask for the compiled backend: the import chain must survive
    # and land on pure Python.  An explicit ``compiled`` ask that
    # degrades is visible: a one-time RuntimeWarning on stderr.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["REPRO_BACKEND"] = "compiled"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(
            """
            import sys
            sys.modules["repro.network._ccore"] = None  # -> ImportError
            from repro.network import backend
            assert backend.BACKEND == "python", backend.describe()
            assert backend.CORE is None
            assert backend.BACKEND_REQUESTED == "compiled"
            print("fallback-ok")
            """)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "fallback-ok"
    assert "RuntimeWarning" in proc.stderr
    assert "no compiled artifact is importable" in proc.stderr


def test_auto_falls_back_silently_without_artifact():
    # ``auto`` is opportunistic: the same degradation stays silent.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["REPRO_BACKEND"] = "auto"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(
            """
            import sys
            sys.modules["repro.network._ccore"] = None  # -> ImportError
            from repro.network import backend
            assert backend.BACKEND == "python", backend.describe()
            print("auto-ok")
            """)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "auto-ok"
    assert "RuntimeWarning" not in proc.stderr


def test_unknown_backend_value_warns_once():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["REPRO_BACKEND"] = "turbo9000"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.network import backend; print(backend.BACKEND)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "python"
    assert proc.stderr.count("unknown REPRO_BACKEND value 'turbo9000'") == 1


def test_arena_poison_env_is_surfaced():
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_ARENA_POISON")}
    env["REPRO_ARENA_POISON"] = "1"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from repro.network import backend; "
         "print(json.dumps(backend.describe()))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["arena_poison"] is True


def test_stale_abi_artifact_is_rejected():
    # An artifact built against older kernel contracts must not
    # half-load; the seam checks ABI_VERSION before adopting it.
    out = _probe(
        """
        import sys, types
        fake = types.ModuleType("repro.network._ccore")
        fake.ABI_VERSION = 999
        sys.modules["repro.network._ccore"] = fake
        from repro.network import backend
        assert backend.BACKEND == "python", backend.describe()
        assert backend.CORE is None
        print("abi-gate-ok")
        """, "compiled")
    assert out == "abi-gate-ok"


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_compiled_backend_selected_when_requested():
    for env in ("compiled", "auto"):
        info = _describe(env)
        assert info["backend"] == "compiled", info
        assert info["compiled_loaded"] is True


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_compiled_event_type_is_the_c_type():
    out = _probe(
        """
        from repro.network import backend
        from repro.network.eventloop import Event
        assert Event is backend.CORE.Event
        e = Event(1.5, 0, 7, print, ("x",), None)
        assert (e.time, e.priority, e.seq) == (1.5, 0, 7)
        assert not e.cancelled
        e.cancel(); e.cancel()  # idempotent
        assert e.cancelled
        print("ctype-ok")
        """, "compiled")
    assert out == "ctype-ok"


# ---------------------------------------------------------------------------
# cross-backend parity: the whole fingerprint matrix, both backends
# ---------------------------------------------------------------------------

_FINGERPRINT_CODE = """
import hashlib, json
from repro.chaos.scenarios import SCENARIOS
from repro.network import backend
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.obs.export import dumps_chrome
from repro.obs.tracer import Tracer
from repro.protocol.slot import RetransmitPolicy

out = {"backend": backend.BACKEND}
for app in sorted(SCENARIOS):
    for mode in ("faithful", "faulted"):
        tracer = Tracer()
        if mode == "faithful":
            net = Network(seed=7, trace=tracer)
        else:
            net = Network(seed=7, retransmit=RetransmitPolicy(),
                          faults=plan_by_name("drop10+dup10"),
                          trace=tracer)
        SCENARIOS[app](net)
        export = dumps_chrome(tracer, meta={"app": app, "seed": 7,
                                            "mode": mode})
        out["%s@%s" % (app, mode)] = {
            "executed": net.loop.executed,
            "emitted": len(tracer.events),
            "sim_time": net.loop.now,
            "trace_sha256":
                hashlib.sha256(export.encode()).hexdigest(),
        }
print(json.dumps(out, sort_keys=True))
"""


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_fingerprints_identical_across_backends():
    """Every bundled app, faithful and faulted, must produce the same
    executed-event count, trace volume, final clock, and byte-identical
    trace export under both backends."""
    py = json.loads(_probe(_FINGERPRINT_CODE, "python"))
    cc = json.loads(_probe(_FINGERPRINT_CODE, "compiled"))
    assert py.pop("backend") == "python"
    assert cc.pop("backend") == "compiled"
    assert set(py) == set(cc) and len(py) == 12
    for key in sorted(py):
        assert py[key] == cc[key], (
            "backend divergence on %s:\npython:   %r\ncompiled: %r"
            % (key, py[key], cc[key]))


# ---------------------------------------------------------------------------
# slot FSM fast path: engagement on the clean and the robust
# configurations, fallback (with byte-identical observables) on
# everything outside them
# ---------------------------------------------------------------------------

#: Relay scenario with counting wrappers over the reference dispatch
#: table.  The compiled FSM kernels never consult ``_DISPATCH`` — they
#: are a C switch — so the counter reads exactly the receives that took
#: the Python path; ``busy_dispatched`` counts the ``busy`` ones.
_FALLBACK_CODE = """
import hashlib, json
import repro.protocol.slot as slotmod
from repro.protocol.signals import Busy

hits = {"dispatched": 0, "busy_dispatched": 0}
for _state, _fn in list(slotmod._DISPATCH.items()):
    def _wrap(fn):
        def counting(self, sig):
            hits["dispatched"] += 1
            hits["busy_dispatched"] += type(sig) is Busy
            return fn(self, sig)
        return counting
    slotmod._DISPATCH[_state] = _wrap(_fn)

from repro.core.admission import AdmissionPolicy
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.obs.export import dumps_chrome
from repro.obs.tracer import Tracer
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy

scenario = %r
tracer = None
kwargs = dict(seed=3)
if scenario == "traced":
    tracer = Tracer()
    kwargs["trace"] = tracer
elif scenario == "faulted":
    kwargs.update(retransmit=RetransmitPolicy(),
                  faults=plan_by_name("drop10+dup10"))
elif scenario == "robust":
    kwargs.update(retransmit=RetransmitPolicy())
elif scenario == "busy-refused":
    kwargs.update(retransmit=RetransmitPolicy(
        initial=0.25, backoff=2.0, max_retries=3, stale_after=0.5))

net = Network(**kwargs)
core = net.box("core")
if scenario == "busy-refused":
    core.set_admission(AdmissionPolicy(max_concurrent=1))
sides = []
for i in range(2):
    caller = net.device("a%%d" %% i)
    callee = net.device("b%%d" %% i, auto_accept=True)
    ch_in = net.channel(caller, core)
    ch_out = net.channel(core, callee)
    core.flow_link(ch_in.end_for(core).slot(),
                   ch_out.end_for(core).slot())
    sides.append((caller, ch_in.end_for(caller).slot()))

(a0, s0), (a1, s1) = sides
for _ in range(3):
    a0.open(s0, AUDIO)
    net.settle()
    a1.open(s1, AUDIO)     # busy-refused while s0 holds the one seat
    net.run(0.1)
    a0.close(s0)
    net.run(10.0)          # the backoff retry wins the freed seat
    a1.close(s1)
    net.settle()

out = dict(hits, executed=net.loop.executed, now=net.loop.now,
           received=s0.signals_received + s1.signals_received,
           all_received=sum(s.signals_received for ch in net.channels
                            for e in ch.ends for s in e.slots.values()),
           busy_refusals=s1.busy_refusals,
           slots=[(s.state, s.signals_sent, s.duplicate_drops,
                   s.invalid_drops, s.stale_drops, s.retransmits,
                   s.failures)
                  for ch in net.channels for e in ch.ends
                  for s in e.slots.values()])
if tracer is not None:
    out["trace_sha"] = hashlib.sha256(
        dumps_chrome(tracer, meta={}).encode()).hexdigest()
print(json.dumps(out, sort_keys=True))
"""


def _child_run(code: str, config: str, backend: str,
               extra_env=None) -> dict:
    """Run ``code % config`` in a child interpreter under ``backend``
    (arena poison off unless ``extra_env`` sets it); returns its JSON."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_BACKEND", "REPRO_ARENA_POISON")}
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = _SRC
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code % config)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_clean_configuration_never_enters_python_dispatch():
    """The control: untraced, reliable, strict, unpoisoned — the C FSM
    must execute *every* receive, or the fast path quietly rotted."""
    cc = _child_run(_FALLBACK_CODE, "clean", "compiled")
    py = _child_run(_FALLBACK_CODE, "clean", "python")
    assert cc["dispatched"] == 0, cc
    assert py["dispatched"] > 0
    for key in ("executed", "now", "received", "busy_refusals"):
        assert cc[key] == py[key], key


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_robust_loss_free_relay_never_enters_python_dispatch():
    """The same control with a RetransmitPolicy on every slot and no
    loss: retransmission and staleness timers are armed and cancelled
    on every call, and still no receive takes the Python path."""
    cc = _child_run(_FALLBACK_CODE, "robust", "compiled")
    py = _child_run(_FALLBACK_CODE, "robust", "python")
    assert cc.pop("dispatched") == 0, cc
    assert py.pop("dispatched") > 0
    assert cc == py


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_lossy_robust_slots_stay_in_c():
    """Robust slots under drop10+dup10: duplicates, invalid drops,
    retransmit acknowledgements and stale-timer cancels run in C.  What
    still takes the Python path (a slot whose retry budget ran out,
    until its next open) stays under 5 % of receives."""
    cc = _child_run(_FALLBACK_CODE, "faulted", "compiled")
    py = _child_run(_FALLBACK_CODE, "faulted", "python")
    assert py.pop("dispatched") == py["all_received"] > 0
    assert cc.pop("dispatched") <= 0.05 * cc["all_received"], cc
    assert sum(s[2] for s in cc["slots"]) > 0    # duplicates absorbed
    assert cc == py


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
@pytest.mark.parametrize("scenario,extra_env", [
    ("traced", None),
    ("busy-refused", None),
    ("poisoned", {"REPRO_ARENA_POISON": "1"}),
])
def test_fallback_configurations_take_the_python_path(scenario, extra_env):
    """Traced loops and arena-poisoned runs must route every receive
    through the reference handlers, and admission refusals every
    ``busy`` receive — and produce byte-identical observables to the
    pure Python backend doing the same."""
    cc = _child_run(_FALLBACK_CODE, scenario, "compiled", extra_env)
    py = _child_run(_FALLBACK_CODE, scenario, "python", extra_env)
    if scenario == "busy-refused":
        # The refusal machinery is Python on both backends; the robust
        # slots' other receives run in C.
        assert cc.pop("busy_dispatched") == py.pop("busy_dispatched") > 0
        assert 0 < cc.pop("dispatched") < py.pop("dispatched")
    else:
        # Every receive falls back, so the Python dispatch table sees
        # the same traffic under both backends.
        assert cc.pop("dispatched") == py.pop("dispatched") > 0
    assert cc == py, (
        "fallback divergence on %s:\npython:   %r\ncompiled: %r"
        % (scenario, py, cc))


# ---------------------------------------------------------------------------
# fault layer: surviving copies ride the C transmit kernel
# ---------------------------------------------------------------------------

#: The perf benchmark's ``lossy_c`` topology (device-box-device under a
#: named plan with the default retransmission policy).  Each link's
#: faithful transmit is wrapped *before* the fault layer goes on, so the
#: wrapper sees exactly what the layer forwards.
_FAULT_PATH_CODE = """
import json
from repro.network import backend
from repro.network.faults import FaultStats, FaultyLink, plan_by_name
from repro.network.network import Network, _is_meta
from repro.network.transport import Link
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy

scheduled = [0]
_real_schedule = Link._schedule
def _counting_schedule(self, *args):
    scheduled[0] += 1
    return _real_schedule(self, *args)
Link._schedule = _counting_schedule

net = Network(seed=5, retransmit=RetransmitPolicy())
a = net.device("A")
b = net.device("B", auto_accept=True)
box = net.box("srv")
ch_a = net.channel(a, box)
ch_b = net.channel(box, b)
box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())

stats = FaultStats()
reached = {"kernel": 0, "other": 0}
sent_before = ch_a.link.sent + ch_b.link.sent
def install(link):
    base = link._base_transmit
    kind = ("kernel" if type(base) is backend.CORE.LinkTransmit
            else "other")
    def counting(origin, message):
        reached[kind] += 1
        base(origin, message)
    link._base_transmit = counting
    FaultyLink(link, plan_by_name(%r), exempt=_is_meta, stats=stats)
for ch in (ch_a, ch_b):
    install(ch.link)

slot = ch_a.end_for(a).slot()
for _ in range(200):
    a.open(slot, AUDIO)
    net.settle()
    a.close(slot)
    net.settle()
print(json.dumps({"scheduled": scheduled[0], "reached": reached,
                  "stats": stats.to_json(),
                  "offered": ch_a.link.sent + ch_b.link.sent
                             - sent_before}))
"""


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_faulted_survivors_reach_the_c_transmit_kernel():
    """Control for the fault layer's fast path, like the dispatch
    counter above: under a drop/duplicate plan ``Link._schedule`` is
    never entered and every forwarded copy lands in a ``LinkTransmit``
    instance; under a jitter plan ``_schedule`` is still the path."""
    out = json.loads(_probe(_FAULT_PATH_CODE % "drop10+dup10", "compiled"))
    stats = out["stats"]
    assert out["scheduled"] == 0
    assert stats["dropped"] > 0 and stats["duplicated"] > 0
    assert out["reached"] == {
        "kernel": stats["forwarded"] + stats["exempted"], "other": 0}
    # One per offer: copies and drops leave the count alone.
    assert out["offered"] == (stats["forwarded"] + stats["dropped"]
                              - stats["duplicated"] + stats["exempted"])

    jitter = json.loads(_probe(_FAULT_PATH_CODE % "lossy-jitter",
                               "compiled"))
    assert jitter["scheduled"] == jitter["stats"]["forwarded"] > 0
    assert jitter["reached"]["kernel"] == jitter["stats"]["exempted"]


# ---------------------------------------------------------------------------
# flowlink kernel: a clean or robust relay box never enters Python, a
# lossy one hardly; every other configuration runs the reference
# goal_receive as often as the python backend does, with byte-identical
# observables
# ---------------------------------------------------------------------------

#: Relay device-box-device with a counting wrapper over
#: ``FlowLink.goal_receive`` and the device upcall, plus a profile hook
#: counting every Python frame entered in ``repro/core`` (the box, its
#: goals and programs) during the call loop.  The kernel selects
#: flowlinks by exact type, so the wrapper does not turn it off.
_FLOWLINK_CODE = """
import hashlib, json, os, sys
import repro.core.flowlink as flmod
from repro.media.device import UserDevice

calls = {"goal_receive": 0, "device": 0, "core_frames": 0}
_goal_receive = flmod.FlowLink.goal_receive
def counting_goal_receive(self, slot, sig):
    calls["goal_receive"] += 1
    return _goal_receive(self, slot, sig)
flmod.FlowLink.goal_receive = counting_goal_receive
_device = UserDevice.on_tunnel_signal
def counting_device(self, slot, sig):
    calls["device"] += 1
    return _device(self, slot, sig)
UserDevice.on_tunnel_signal = counting_device

from repro.core.flowlink import FlowLink
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.obs.export import dumps_chrome
from repro.obs.tracer import Tracer
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy

class SubFlowLink(FlowLink):
    pass

config = %r
kwargs = dict(seed=5)
tracer = None
if config == "traced":
    tracer = Tracer()
    kwargs["trace"] = tracer
elif config == "lossy_c":
    # The lossy_c perf workload: drop10+dup10 under the default
    # retransmission policy, so robust slots.
    kwargs.update(retransmit=RetransmitPolicy(),
                  faults=plan_by_name("drop10+dup10"))
elif config == "robust":
    kwargs.update(retransmit=RetransmitPolicy())
net = Network(**kwargs)
a = net.device("A")
b = net.device("B", auto_accept=True)
box = net.box("srv")
ch_a = net.channel(a, box, strict=config != "lenient")
ch_b = net.channel(box, b)
goal = box.set_goal(SubFlowLink() if config == "subclass" else FlowLink(),
                    ch_a.end_for(box).slot(), ch_b.end_for(box).slot())
slot = ch_a.end_for(a).slot()

core_dir = os.path.dirname(flmod.__file__) + os.sep
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(core_dir):
        calls["core_frames"] += 1
CALLS = 40
net.settle()   # channel setup: the meta-signals reach Box.on_meta
sys.setprofile(profile)
for _ in range(CALLS):
    a.open(slot, AUDIO)
    net.settle()
    a.close(slot)
    net.settle()
sys.setprofile(None)

out = dict(calls, calls_made=CALLS, executed=net.loop.executed,
           now=net.loop.now,
           slots=[(s.state, s.signals_sent, s.signals_received,
                   s.race_drops, s.stale_drops, s.invalid_drops,
                   s.duplicate_drops, s.retransmits, s.failures)
                  for ch in net.channels for e in ch.ends
                  for s in e.slots.values()],
           flowlink=[goal.forwarded_selects, goal.discarded_selects,
                     goal.describes_sent, goal.opens_sent,
                     [goal._utd[s] for s in goal.slots],
                     [goal._reopen[s] for s in goal.slots]],
           goal_gen=box.goal_gen)
if tracer is not None:
    out["trace_sha"] = hashlib.sha256(
        dumps_chrome(tracer, meta={}).encode()).hexdigest()
print(json.dumps(out, sort_keys=True))
"""


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_clean_relay_box_never_enters_python():
    """The control for the flowlink kernel: on the clean relay every
    box signal is forwarded in C -- no Python goal_receive, no Python
    frame in the box layer -- and the only upcalls left are the six per
    call into the two devices."""
    cc = _child_run(_FLOWLINK_CODE, "clean", "compiled")
    py = _child_run(_FLOWLINK_CODE, "clean", "python")
    assert cc.pop("goal_receive") == 0, cc
    assert cc.pop("core_frames") == 0, cc
    assert py.pop("goal_receive") == 6 * py["calls_made"]
    assert py.pop("core_frames") > 0
    assert cc["device"] == 6 * cc["calls_made"]
    assert cc == py


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_robust_relay_box_never_enters_goal_receive():
    """The flowlink control with a RetransmitPolicy on every slot: the
    box forwards in C and arms its timers through the reference
    ``_arm_retx``/``_arm_stale`` -- no Python goal_receive."""
    cc = _child_run(_FLOWLINK_CODE, "robust", "compiled")
    py = _child_run(_FLOWLINK_CODE, "robust", "python")
    assert cc.pop("goal_receive") == 0, cc
    assert py.pop("goal_receive") == 6 * py["calls_made"]
    cc.pop("core_frames")
    py.pop("core_frames")
    assert cc == py


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
def test_lossy_relay_box_stays_in_c():
    """The lossy_c relay: Python goal_receive calls stay under 5 % of
    the box's receives (only a slot whose retry budget ran out falls
    back), with byte-identical observables."""
    cc = _child_run(_FLOWLINK_CODE, "lossy_c", "compiled")
    py = _child_run(_FLOWLINK_CODE, "lossy_c", "python")
    box_received = sum(s[2] for s in cc["slots"][1:3])
    assert py.pop("goal_receive") > 0
    assert cc.pop("goal_receive") <= 0.05 * box_received, cc
    cc.pop("core_frames")
    py.pop("core_frames")
    assert cc == py


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled backend not built "
                           "(python tools/build_backend.py)")
@pytest.mark.parametrize("config,extra_env", [
    ("traced", None),
    ("poisoned", {"REPRO_ARENA_POISON": "1"}),
    ("lenient", None),
    ("subclass", None),
])
def test_flowlink_fallback_configurations_run_the_reference(config,
                                                            extra_env):
    """Outside the kernel's gates the reference goal_receive runs for
    every box signal: exactly as many Python calls as under the python
    backend, and byte-identical observables."""
    cc = _child_run(_FLOWLINK_CODE, config, "compiled", extra_env)
    py = _child_run(_FLOWLINK_CODE, config, "python", extra_env)
    assert cc["goal_receive"] == py["goal_receive"] > 0
    assert cc.pop("core_frames") > 0
    py.pop("core_frames")
    assert cc == py, (
        "flowlink fallback divergence on %s:\npython:   %r\ncompiled: %r"
        % (config, py, cc))

