"""State-oriented box programs (Sec. IV).

"In each state of a box program, annotations or defaults give a static
description of the programmer's goal for each slot while the program is
in that state" (Sec. IV-A).  A :class:`Program` is a finite-state
machine whose states carry goal annotations and whose transitions are
triggered by slot predicates, meta-signal events, and timeouts — the
style of the Click-to-Dial program of Fig. 6.

Goal-object reuse follows the paper: "Because the annotation controlling
slot 2a is the same in both states twoCalls and ringback, the openLink
object controlling 2a is also the same" — an annotation that resolves to
the same spec over the same slots across a state change keeps its goal
object; anything else is detached and rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..obs.events import ProgramStep
from ..protocol.channel import ChannelEnd
from ..protocol.codecs import Medium
from ..protocol.errors import ConfigurationError
from ..protocol.signals import MetaSignal
from ..protocol.slot import Slot
from .box import Box
from .flowlink import FlowLink
from .goals import CloseSlot, Goal, HoldSlot, OpenSlot
from .predicates import Guard

__all__ = [
    "GoalSpec", "open_slot", "close_slot", "hold_slot", "flow_link",
    "Transition", "Timeout", "State", "Program", "END",
    "on_meta", "on_channel_down",
]

#: Sentinel target: the program terminates.
END = "__end__"


# ----------------------------------------------------------------------
# goal annotations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoalSpec:
    """A goal annotation over named slots, e.g. ``flowLink(c, a)``."""

    kind: str
    names: Tuple[str, ...]
    medium: Optional[Medium] = None

    def instantiate(self) -> Goal:
        if self.kind == "open":
            assert self.medium is not None
            return OpenSlot(self.medium)
        if self.kind == "close":
            return CloseSlot()
        if self.kind == "hold":
            return HoldSlot()
        if self.kind == "link":
            return FlowLink()
        raise ConfigurationError("unknown goal kind %r" % self.kind)

    def __str__(self) -> str:
        if self.kind == "open":
            return "openSlot(%s,%s)" % (self.names[0], self.medium)
        if self.kind == "link":
            return "flowLink(%s,%s)" % self.names
        return "%sSlot(%s)" % (self.kind, self.names[0])


def open_slot(name: str, medium: Medium) -> GoalSpec:
    """Annotation ``openSlot(name, medium)``."""
    return GoalSpec("open", (name,), medium)


def close_slot(name: str) -> GoalSpec:
    """Annotation ``closeSlot(name)``."""
    return GoalSpec("close", (name,))


def hold_slot(name: str) -> GoalSpec:
    """Annotation ``holdSlot(name)``."""
    return GoalSpec("hold", (name,))


def flow_link(name1: str, name2: str) -> GoalSpec:
    """Annotation ``flowLink(name1, name2)``."""
    return GoalSpec("link", (name1, name2))


# ----------------------------------------------------------------------
# transitions and states
# ----------------------------------------------------------------------
Action = Callable[["Program"], None]


@dataclass
class Transition:
    """A guarded transition.  When ``guard`` holds, run ``action`` and
    move to ``target`` (or terminate when target is ``END``)."""

    guard: Guard
    target: str
    action: Optional[Action] = None


@dataclass
class Timeout:
    """A state timeout: after ``delay`` seconds in the state, run
    ``action`` and move to ``target``."""

    delay: float
    target: str
    action: Optional[Action] = None


@dataclass
class State:
    """One program state: goal annotations plus outgoing transitions."""

    goals: Sequence[GoalSpec] = ()
    transitions: Sequence[Transition] = ()
    timeout: Optional[Timeout] = None
    on_enter: Optional[Action] = None


# ----------------------------------------------------------------------
# event guards
# ----------------------------------------------------------------------
def on_meta(kind: str, name: Optional[str] = None,
            where: Optional[Callable[["Program", ChannelEnd, MetaSignal],
                                     bool]] = None) -> Guard:
    """Guard true when a matching meta-signal event is pending.

    Matching consumes the event and stashes it as ``program.trigger``;
    because :meth:`Program.poll` takes the first true guard, only the
    chosen transition consumes.  ``kind`` matches ``MetaSignal.kind``
    (``"available"``, ``"unavailable"``, ``"app"``...); for ``app``
    events ``name`` additionally matches the application event name;
    ``where(program, end, signal)`` can further restrict matching, e.g.
    to events from one particular channel.
    """
    def guard(program: "Program") -> bool:
        for i, (end, signal) in enumerate(program.events):
            if signal.kind != kind:
                continue
            if name is not None and getattr(signal, "name", None) != name:
                continue
            if where is not None and not where(program, end, signal):
                continue
            program.trigger = (end, signal)
            del program.events[i]
            return True
        return False
    guard.__name__ = "on_meta(%s)" % kind
    # Static description for the analyzer; a ``where`` restriction is
    # recorded by qualname so two differently-restricted guards on the
    # same event never compare equal (no false race diagnostics).
    restriction = getattr(where, "__qualname__", repr(where)) \
        if where is not None else None
    setattr(guard, "static_atom", ("meta", kind, name, restriction))
    return guard


def on_channel_down(slot_prefix: Optional[str] = None) -> Guard:
    """Guard true when a channel-down event is pending (the far side
    destroyed a channel).  Consumes the event like :func:`on_meta`."""
    def guard(program: "Program") -> bool:
        for i, event in enumerate(program.downs):
            program.trigger = (event, None)
            del program.downs[i]
            return True
        return False
    guard.__name__ = "on_channel_down()"
    setattr(guard, "static_atom", ("down", slot_prefix))
    return guard


# ----------------------------------------------------------------------
# the program engine
# ----------------------------------------------------------------------
class Program:
    """Runs a state-annotated FSM inside a box.

    The program re-evaluates its current state's transition guards after
    every stimulus the box processes, in declaration order, taking the
    first one whose guard holds.
    """

    def __init__(self, box: Box, states: Dict[str, State], initial: str,
                 data: Optional[Dict[str, Any]] = None,
                 slots: Optional[Sequence[str]] = None):
        if initial not in states:
            raise ConfigurationError("initial state %r undefined" % initial)
        for sname, state in states.items():
            for t in state.transitions:
                if t.target != END and t.target not in states:
                    raise ConfigurationError(
                        "state %r has transition to undefined %r"
                        % (sname, t.target))
            if state.timeout and state.timeout.target != END \
                    and state.timeout.target not in states:
                raise ConfigurationError(
                    "state %r has timeout to undefined %r"
                    % (sname, state.timeout.target))
        #: Slot names this program may annotate: the ``slots`` argument
        #: (slots the program will create and name later) plus whatever
        #: the box has already declared.  Empty means "unknown" — a
        #: bare program on a bare box skips the check.
        self.declared_slots = frozenset(slots or ()) \
            | frozenset(box.declared_slots)
        if self.declared_slots:
            # Fail fast: a goal annotation naming a slot the box never
            # declares would otherwise only blow up on state entry,
            # possibly deep into a call (the runtime counterpart of the
            # RC401 static diagnostic).
            for sname, state in states.items():
                for spec in state.goals:
                    for n in spec.names:
                        if n not in self.declared_slots:
                            raise ConfigurationError(
                                "state %r annotates undeclared slot %r "
                                "(declared: %s)"
                                % (sname, n,
                                   ", ".join(sorted(self.declared_slots))))
        self.box = box
        self.states = states
        self.state_name: Optional[str] = None
        self.finished = False
        #: Application scratchpad shared with actions.
        self.data: Dict[str, Any] = dict(data or {})
        #: Pending meta-signal events (consumed by :func:`on_meta`).
        self.events: List[Tuple[ChannelEnd, MetaSignal]] = []
        #: Pending channel-down events.
        self.downs: List[ChannelEnd] = []
        #: The event that fired the most recent event guard.
        self.trigger: Optional[Tuple[Any, Any]] = None
        self._installed: Dict[Tuple[GoalSpec, Tuple[Slot, ...]], Goal] = {}
        self._timeout_event = None
        self._polling = False
        box.program = self
        box.after_stimulus = self.poll
        self._initial = initial

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Enter the initial state and start reacting."""
        self._emit_step("", self._initial)
        self._enter(self._initial)
        self.poll()

    def _emit_step(self, source: str, target: str) -> None:
        tr = self.box.loop.trace
        if tr is not None:
            tr.emit(ProgramStep(ts=self.box.loop.now, box=self.box.name,
                                source=source, target=target))

    def stop(self) -> None:
        """Terminate: release every goal, stop reacting."""
        self.finished = True
        self._cancel_timeout()
        for goal in list(self._installed.values()):
            self.box.maps.release(goal)
        self._installed.clear()
        self.box.after_stimulus = None
        if self.box.program is self:
            self.box.program = None

    # -- box-side event feeds -------------------------------------------------
    def note_meta(self, end: ChannelEnd, signal: MetaSignal) -> None:
        self.events.append((end, signal))

    def note_channel_down(self, end: ChannelEnd) -> None:
        self.downs.append(end)

    # -- engine ---------------------------------------------------------------
    @property
    def state(self) -> State:
        assert self.state_name is not None
        return self.states[self.state_name]

    def poll(self) -> None:
        """Take enabled transitions until none is enabled."""
        if self._polling or self.finished or self.state_name is None:
            return
        self._polling = True
        try:
            progressed = True
            while progressed and not self.finished:
                progressed = False
                for transition in self.state.transitions:
                    if transition.guard(self):
                        self._fire(transition.action, transition.target)
                        progressed = True
                        break
        finally:
            self._polling = False

    def _fire(self, action: Optional[Action], target: str) -> None:
        self._emit_step(self.state_name or "", target)
        if action is not None:
            action(self)
        if target == END:
            self.stop()
        else:
            self._enter(target)

    def _enter(self, name: str) -> None:
        self._cancel_timeout()
        self.state_name = name
        state = self.states[name]
        self._reconcile_goals(state.goals)
        if state.on_enter is not None:
            state.on_enter(self)
        if state.timeout is not None:
            self._timeout_event = self.box.node.set_timer(
                state.timeout.delay, self._on_timeout, name)

    def _on_timeout(self, origin_state: str) -> None:
        if self.finished or self.state_name != origin_state:
            return
        timeout = self.state.timeout
        assert timeout is not None
        self._fire(timeout.action, timeout.target)
        self.poll()

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None

    # -- goal reconciliation ---------------------------------------------------
    def _reconcile_goals(self, specs: Sequence[GoalSpec]) -> None:
        resolved: List[Tuple[GoalSpec, Tuple[Slot, ...]]] = []
        used: Dict[Slot, GoalSpec] = {}
        for spec in specs:
            slots = tuple(self.box.slot(n) for n in spec.names)
            for slot in slots:
                if slot in used:
                    raise ConfigurationError(
                        "slot %s annotated by both %s and %s"
                        % (slot.name, used[slot], spec))
                used[slot] = spec
            resolved.append((spec, slots))
        new_keys = set(resolved)
        # Detach goals whose annotation disappeared or re-resolved.
        for key, goal in list(self._installed.items()):
            if key not in new_keys:
                self.box.maps.release(goal)
                del self._installed[key]
        # Instantiate goals for new annotations; identical annotations
        # keep their object ("control of the slot is implemented by the
        # same object", Sec. IV-B).
        for key in resolved:
            if key not in self._installed:
                spec, slots = key
                goal = spec.instantiate()
                self.box.set_goal(goal, *slots)
                self._installed[key] = goal

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Program %s state=%s%s>" % (
            self.box.name, self.state_name,
            " finished" if self.finished else "")
