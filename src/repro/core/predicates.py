"""Slot predicates and guard combinators for box programs (Sec. IV-A).

"For each slot, there are predicates isClosed, isOpening, isOpened, and
isFlowing corresponding to the four states in Figure 5.  These
predicates can be used as guards on transitions in box programs."

Guards here are callables taking the running
:class:`~repro.core.program.Program` and returning a boolean.  A guard
over a named slot is false while the name is unbound (its channel does
not exist yet or has been destroyed), which lets programs write guards
that only become meaningful once a channel is up.

Every guard built by this module also carries a *static description* of
itself (see :func:`describe_guard`): slot predicates record which
predicate they test over which slot name, and combinators record their
operator and operands.  The static analyzer
(:mod:`repro.staticcheck`) reads these descriptions to reason about
transitions without running them; hand-written guard callables without
a description are treated as opaque.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .program import Program

__all__ = [
    "Guard",
    "is_closed", "is_opening", "is_opened", "is_flowing", "slot_failed",
    "all_of", "any_of", "negate", "always",
    "describe_guard", "guard_atom",
]

Guard = Callable[["Program"], bool]

#: Attribute under which a guard stores its static atom description.
_ATOM_ATTR = "static_atom"
#: Attributes under which a combinator stores operator and operands.
_OP_ATTR = "static_op"
_OPERANDS_ATTR = "static_operands"


def _tag_atom(guard: Guard, atom: Tuple[Any, ...]) -> Guard:
    """Attach a static atom description to a leaf guard."""
    setattr(guard, _ATOM_ATTR, atom)
    return guard


def _tag_combinator(guard: Guard, op: str,
                    operands: Tuple[Guard, ...]) -> Guard:
    """Attach operator/operand descriptions to a combinator guard."""
    setattr(guard, _OP_ATTR, op)
    setattr(guard, _OPERANDS_ATTR, operands)
    return guard


def guard_atom(guard: Guard) -> Optional[Tuple[Any, ...]]:
    """The static atom of a leaf guard, or ``None``."""
    atom = getattr(guard, _ATOM_ATTR, None)
    return atom if isinstance(atom, tuple) else None


def describe_guard(guard: Guard) -> Tuple[Any, ...]:
    """A static, hashable description of ``guard``.

    Returns one of::

        ("atom", <atom tuple>)          # a described leaf guard
        (<op>, <description>, ...)      # "all" / "any" / "not"
        ("opaque", <qualname>, <id>)    # an undescribed callable

    Opaque descriptions embed the callable's identity so that two
    different hand-written guards never compare equal (the analyzer
    must not report a nondeterministic race between guards it cannot
    read).
    """
    atom = guard_atom(guard)
    if atom is not None:
        return ("atom", atom)
    op = getattr(guard, _OP_ATTR, None)
    operands = getattr(guard, _OPERANDS_ATTR, None)
    if isinstance(op, str) and isinstance(operands, tuple):
        return (op,) + tuple(describe_guard(g) for g in operands)
    return ("opaque", getattr(guard, "__qualname__",
                              getattr(guard, "__name__", "?")), id(guard))


def _slot_state_guard(name: str, state: str) -> Guard:
    def guard(program: "Program") -> bool:
        slot = program.box.slot_names.get(name)
        return slot is not None and slot.state == state
    guard.__name__ = "is_%s(%s)" % (state, name)
    return _tag_atom(guard, ("slot", state, name))


def is_closed(name: str) -> Guard:
    """``isClosed(s)``: true when named slot exists and is closed."""
    return _slot_state_guard(name, "closed")


def is_opening(name: str) -> Guard:
    """``isOpening(s)``."""
    return _slot_state_guard(name, "opening")


def is_opened(name: str) -> Guard:
    """``isOpened(s)``."""
    return _slot_state_guard(name, "opened")


def is_flowing(name: str) -> Guard:
    """``isFlowing(s)``."""
    return _slot_state_guard(name, "flowing")


def slot_failed(name: str) -> Guard:
    """``slotFailed(s)``: the slot exhausted its retransmission budget
    (robust mode) and fell back to ``closed`` without media.  False for
    slots that closed normally, and while the name is unbound.  Programs
    use it to branch to a degraded state instead of waiting forever on
    media that will never flow."""
    def guard(program: "Program") -> bool:
        slot = program.box.slot_names.get(name)
        return slot is not None and getattr(slot, "failed", False)
    guard.__name__ = "slot_failed(%s)" % (name,)
    return _tag_atom(guard, ("slot", "failed", name))


def all_of(*guards: Guard) -> Guard:
    """Conjunction of guards."""
    def guard(program: "Program") -> bool:
        return all(g(program) for g in guards)
    return _tag_combinator(guard, "all", guards)


def any_of(*guards: Guard) -> Guard:
    """Disjunction of guards."""
    def guard(program: "Program") -> bool:
        return any(g(program) for g in guards)
    return _tag_combinator(guard, "any", guards)


def negate(inner: Guard) -> Guard:
    """Negation of a guard."""
    def guard(program: "Program") -> bool:
        return not inner(program)
    return _tag_combinator(guard, "not", (inner,))


def always(program: "Program") -> bool:
    """A guard that is always true (for immediate transitions)."""
    return True


_tag_atom(always, ("always",))
