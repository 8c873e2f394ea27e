"""Negative controls for the runtime auditor, one per RC8xx code.

The catalog proves the shipped runtime is clean; these fixtures prove
the rules would have said so if it were not.  The parity fixtures
doctor the *real* ``_ccore.c`` text (delete a kernel export, swap the
comparator's field order, bump an arena cap on one side) and push it
through the very same extractors the clean audit uses; the
determinism and arena fixtures are minimal broken sources modelled on
the real hot-path sites.

``python -m repro audit --fixtures`` runs them all and exits 1 by
design, mirroring ``repro lint --fixtures``.
"""

from __future__ import annotations

import textwrap
from typing import Callable, List

from ..staticcheck.diagnostics import Diagnostic
from ..staticcheck.fixtures import Fixture
from .arenas import check_c_contracts, check_module_source
from .determinism import check_source
from .parity import check_parity
from .surface import c_source_path

__all__ = ["Fixture", "all_audit_fixtures"]


def _real_c_text() -> str:
    with open(c_source_path(), "r", encoding="utf-8") as fh:
        return fh.read()


def _doctored_c(old: str, new: str) -> Callable[[], List[Diagnostic]]:
    """A parity run over the real C source with one planted edit.

    Raises if the anchor text vanished — a fixture that silently
    stopped editing anything would 'pass' by testing the clean file.
    """
    def run() -> List[Diagnostic]:
        text = _real_c_text()
        if old not in text:
            raise AssertionError(
                "fixture anchor %r not found in _ccore.c; update the "
                "negative control alongside the refactor" % old)
        return check_parity(c_text=text.replace(old, new))
    return run


def _rc801() -> Fixture:
    # A per-signal dispatch kernel removed from the C exports: the
    # Python side still wires _CORE.Receive, so parity must flag both
    # directions of the drift.
    return Fixture(
        name="audit-RC801", code="RC801",
        run=_doctored_c('"Receive"', '"ReceiveGone"'),
        state="Receive")


def _rc802() -> Fixture:
    # cev_lt's final tiebreaker compares the wrong field: heap order
    # would diverge between backends on same-instant events.
    return Fixture(
        name="audit-RC802", code="RC802",
        run=_doctored_c("return a->seq < b->seq;",
                        "return a->args < b->args;"),
        state="Event.__lt__")


def _rc803() -> Fixture:
    # The C freelist cap bumped without the Python side following.
    return Fixture(
        name="audit-RC803", code="RC803",
        run=_doctored_c("#define FREELIST_MAX 32",
                        "#define FREELIST_MAX 48"),
        state="FREELIST_MAX")


def _rc804() -> Fixture:
    # ensure_protocol() resolving a class the Python runtime renamed.
    return Fixture(
        name="audit-RC804", code="RC804",
        run=_doctored_c('"TunnelMessage"', '"TunnelEnvelope"'),
        state="repro.protocol.signals.TunnelEnvelope")


def _rc805() -> Fixture:
    # An interned attribute name that no Python module spells anymore.
    return Fixture(
        name="audit-RC805", code="RC805",
        run=_doctored_c('INTERN(_stim_event, "_stim_event");',
                        'INTERN(_stim_event, "_stim_evt");'),
        state="_stim_evt")


# -- third-perf-wave surfaces (slot FSM, goal dispatch) ----------------

def _rc804_poison() -> Fixture:
    # The FSM fast-path gate resolving a flag backend.py renamed.
    return Fixture(
        name="audit-RC804-poison", code="RC804",
        run=_doctored_c('PyObject_GetAttrString(mod, "ARENA_POISON")',
                        'PyObject_GetAttrString(mod, "ARENA_POISONX")'),
        state="repro.network.backend.ARENA_POISONX")


def _rc804_state() -> Fixture:
    # A slot-state constant consumed by the C FSM kernels that the
    # Python protocol module no longer exports.
    return Fixture(
        name="audit-RC804-state", code="RC804",
        run=_doctored_c('PyObject_GetAttrString(mod, "FLOWING")',
                        'PyObject_GetAttrString(mod, "FLOWINGX")'),
        state="repro.protocol.slot.FLOWINGX")


# -- flowlink kernel surface --------------------------------------------

def _rc805_utd() -> Fixture:
    # The flowlink kernel's up-to-date flags, renamed on the C side
    # only: C would fall back on every signal (or, worse, write a dict
    # FlowLink never reads).
    return Fixture(
        name="audit-RC805-utd", code="RC805",
        run=_doctored_c('INTERN(_utd, "_utd");',
                        'INTERN(_utd, "_up_to_date");'),
        state="_up_to_date")


def _rc804_flowlink() -> Fixture:
    # The kernel's FlowLink type pin resolving a class the goal module
    # renamed: the exact-type gate would never match.
    return Fixture(
        name="audit-RC804-flowlink", code="RC804",
        run=_doctored_c('PyObject_GetAttrString(mod, "FlowLink")',
                        'PyObject_GetAttrString(mod, "FlowLinkGoal")'),
        state="repro.core.flowlink.FlowLinkGoal")


# -- robust-slot surface (slot FSM and flowlink kernels) ------------------

def _rc805_slot_method() -> Fixture:
    # The staleness cancel retargeted at the timer *field*: the name is
    # interned and spelled in slot.py, so only the Slot-method check
    # sees that the kernel would call a non-method.
    return Fixture(
        name="audit-RC805-slot-method", code="RC805",
        run=_doctored_c(
            "slot_call(slot, S._cancel_stale, NULL, NULL)",
            "slot_call(slot, S._stale_timer, NULL, NULL)"),
        state="Slot._stale_timer")


def _rc805_slot_field() -> Fixture:
    # A robust drop counter swapped for a node field in the offset
    # table: resolve_slot_fields would refuse it at import, the audit
    # says so before any build.
    return Fixture(
        name="audit-RC805-slot-field", code="RC805",
        run=_doctored_c("S.duplicate_drops, S.invalid_drops};",
                        "S.offline, S.invalid_drops};"),
        state="Slot.offline")


# -- fault kernel surface --------------------------------------------------

def _rc805_fault_field() -> Fixture:
    # A drop counted into the link's ``sent`` instead of the stats'
    # ``dropped``: ``sent`` is interned and spelled in transport.py, so
    # only the per-class check sees FaultStats has no such counter.
    return Fixture(
        name="audit-RC805-fault-field", code="RC805",
        run=_doctored_c("stats_incr(stats, S.dropped)",
                        "stats_incr(stats, S.sent)"),
        state="FaultStats.sent")


def _det_fixture(name: str, code: str, source: str,
                 state: str) -> Fixture:
    def run() -> List[Diagnostic]:
        return check_source("broken/%s.py" % code.lower(),
                            textwrap.dedent(source))
    return Fixture(name=name, code=code, run=run, state=state)


def _rc810() -> Fixture:
    # The acceptance scenario: a time.time() call injected into
    # scheduler-adjacent code.
    return _det_fixture(
        "audit-RC810", "RC810", """\
        import time

        def run_until(loop, deadline):
            start = time.time()
            while loop.pending():
                loop.step()
        """, state="broken/rc810.py:4")


def _rc811() -> Fixture:
    return _det_fixture(
        "audit-RC811", "RC811", """\
        import random

        def jitter(delay):
            return delay + random.random() * 0.01
        """, state="broken/rc811.py:4")


def _rc812() -> Fixture:
    return _det_fixture(
        "audit-RC812", "RC812", """\
        def heard_by(listeners):
            return [hear(x) for x in set(listeners)]
        """, state="broken/rc812.py:2")


def _rc813() -> Fixture:
    return _det_fixture(
        "audit-RC813", "RC813", """\
        import os

        def pick_mode():
            return os.environ.get("REPRO_MODE", "fast")
        """, state="broken/rc813.py:4")


def _rc814() -> Fixture:
    return _det_fixture(
        "audit-RC814", "RC814", """\
        def expired(loop):
            return loop.now == 1.5
        """, state="broken/rc814.py:2")


def _arena_fixture(name: str, code: str, source: str,
                   state: str) -> Fixture:
    def run() -> List[Diagnostic]:
        return check_module_source("broken/%s.py" % code.lower(),
                                   textwrap.dedent(source))
    return Fixture(name=name, code=code, run=run, state=state)


def _rc820() -> Fixture:
    # The acceptance scenario: a freelist acquire that forgets the
    # re-arm contract (no fresh seq, no callback, no _loop).
    return _arena_fixture(
        "audit-RC820", "RC820", """\
        def transmit(self, target, message, when):
            free = self._free
            if free:
                event = free.pop()
                event.time = when
                event.args = (message,)
            else:
                event = Event(when, 0, None, None, (message,), None)
            return event
        """, state="broken/rc820.py:4")


def _rc821() -> Fixture:
    # An envelope released into the pool still holding its signal.
    return _arena_fixture(
        "audit-RC821", "RC821", """\
        def process(self, message):
            deliver(message.signal)
            pool = self._loop._env_pool
            if len(pool) < _ENV_POOL_MAX:
                pool.append(message)
        """, state="broken/rc821.py:5")


def _rc822() -> Fixture:
    # A release with no cap guard: unbounded pool growth.
    return _arena_fixture(
        "audit-RC822", "RC822", """\
        def process(self, message):
            deliver(message.signal)
            message.signal = None
            pool = self._loop._env_pool
            pool.append(message)
        """, state="broken/rc822.py:5")


def _rc823() -> Fixture:
    # A re-arm that reuses the old seq: the recycled event would
    # replay its previous position in the execution order.
    return _arena_fixture(
        "audit-RC823", "RC823", """\
        def rearm(self, node, loop, when):
            event = node._stim_event
            event.time = when
            event._loop = loop
            return event
        """, state="broken/rc823.py:4")


def all_audit_fixtures() -> List[Fixture]:
    """Every negative control, in code order."""
    return [fn() for fn in (
        _rc801, _rc802, _rc803, _rc804, _rc805,
        _rc804_poison, _rc804_state,
        _rc805_utd, _rc804_flowlink, _rc805_slot_method, _rc805_slot_field,
        _rc805_fault_field,
        _rc810, _rc811, _rc812, _rc813, _rc814,
        _rc820, _rc821, _rc822, _rc823)]
