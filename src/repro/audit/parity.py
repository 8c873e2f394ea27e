"""Pass 1: diff the C surface against the Python reference surface.

A kernel, constant, comparator field, or attribute name present on one
side of the backend seam but not the other is reported as an RC80x
error *here*, at lint time — instead of surfacing later as a
fingerprint divergence two subsystems away (or worse, not surfacing,
because the drifted path only runs under one backend).
"""

from __future__ import annotations

import importlib
from typing import List, Optional

from ..staticcheck.diagnostics import Diagnostic
from .surface import (CSurface, PySurface, load_c_surface,
                      load_py_surface)

__all__ = ["diff_surfaces", "check_parity"]

_PROGRAM = "runtime/parity"


def _diag(code: str, message: str, state: Optional[str] = None
          ) -> Diagnostic:
    return Diagnostic(code=code, message=message, program=_PROGRAM,
                      state=state)


def diff_surfaces(c: CSurface, py: PySurface) -> List[Diagnostic]:
    """All RC80x diagnostics between the two extracted surfaces."""
    found: List[Diagnostic] = []

    for problem in py.problems:
        found.append(_diag("RC804",
                           "reference module failed extraction: %s"
                           % problem))

    # RC801 — kernel entry points must match exactly in both
    # directions: an export nobody consumes is dead drift, a consumer
    # without an export crashes only under REPRO_BACKEND=compiled.
    for name in sorted(c.kernels - py.kernels_consumed):
        found.append(_diag(
            "RC801",
            "kernel %r is exported by _ccore.c but never consumed by "
            "the Python reference modules (dead C surface, or the "
            "Python seam lost its _CORE.%s wiring)" % (name, name),
            state=name))
    for name in sorted(py.kernels_consumed - c.kernels):
        found.append(_diag(
            "RC801",
            "kernel %r is consumed as _CORE.%s by the Python runtime "
            "but not exported by _ccore.c; the compiled backend would "
            "fail at wiring time" % (name, name),
            state=name))

    # RC802 — the (time, priority, seq) order is the scheduler's
    # total order; every Python comparator must match the C one.
    if not c.comparator:
        found.append(_diag("RC802",
                           "could not extract the cev_lt comparator "
                           "from _ccore.c (refactored away from the "
                           "audited idiom?)"))
    for fn_name, order in sorted(py.comparators.items()):
        if c.comparator and order != c.comparator:
            found.append(_diag(
                "RC802",
                "event comparator %s orders fields %r but the C "
                "cev_lt orders %r; heap order would diverge between "
                "backends" % (fn_name, order, c.comparator),
                state=fn_name))
    for expected in ("Event.__lt__", "_earlier"):
        if expected not in py.comparators:
            found.append(_diag(
                "RC802",
                "Python comparator %s not found in eventloop.py "
                "(renamed without updating the audit surface?)"
                % expected, state=expected))

    # RC803 — arena caps and the ABI version must agree; a one-sided
    # cap bump changes recycling behavior (and thus allocation
    # patterns) under exactly one backend.
    for cname in ("FREELIST_MAX", "ENV_POOL_MAX"):
        c_val = c.constants.get(cname)
        py_val = py.constants.get(cname)
        if c_val != py_val:
            found.append(_diag(
                "RC803",
                "arena cap %s is %r in _ccore.c but %r in its Python "
                "reference module" % (cname, c_val, py_val),
                state=cname))
    abi = c.constants.get("CCORE_ABI_VERSION")
    if abi is None or py.abi_expected != {abi}:
        found.append(_diag(
            "RC803",
            "ABI version drift: _ccore.c defines CCORE_ABI_VERSION=%r "
            "but backend.py gates on %r" % (
                abi, sorted(py.abi_expected) or None),
            state="ABI_VERSION"))

    # RC804 — every module attribute the C core resolves lazily at
    # runtime (ensure_protocol) must still exist on the Python side.
    for module_name, attr in c.module_lookups:
        try:
            module = importlib.import_module(module_name)
        except Exception as exc:  # pragma: no cover - import breakage
            found.append(_diag(
                "RC804",
                "_ccore.c imports %s, which fails to import: %s"
                % (module_name, exc), state=module_name))
            continue
        if not hasattr(module, attr):
            found.append(_diag(
                "RC804",
                "_ccore.c resolves %s.%s at runtime, but the module "
                "no longer defines it" % (module_name, attr),
                state="%s.%s" % (module_name, attr)))

    # RC805 — every attribute name the C core interns or fetches must
    # appear somewhere in the Python reference modules; a name that
    # does not is a renamed-on-one-side attribute waiting to return
    # AttributeError (or silently miss a cache) under compiled.
    for name in sorted(set(c.interned) | set(c.attr_lookups)):
        if name not in py.attribute_names:
            found.append(_diag(
                "RC805",
                "_ccore.c interns/fetches attribute name %r, which "
                "appears nowhere in the Python reference modules"
                % name, state=name))
    # The slot kernels read and write Slot fields at the offsets of
    # its __slots__ members, and the timer twins arm its fire methods;
    # a name that exists elsewhere in the reference (so passes the
    # check above) is not enough.
    if not c.slot_fields:
        found.append(_diag("RC805",
                           "could not extract the resolve_slot_fields "
                           "name table from _ccore.c (refactored away "
                           "from the audited idiom?)"))
    for name in c.slot_fields:
        if name not in py.slot_members:
            found.append(_diag(
                "RC805",
                "_ccore.c pins Slot.%s to a __slots__ offset, but Slot "
                "declares no such member" % name,
                state="Slot.%s" % name))
    for name in c.slot_methods:
        if name not in py.slot_methods:
            found.append(_diag(
                "RC805",
                "_ccore.c arms Slot.%s as a timer handler, which class "
                "Slot does not define" % name, state="Slot.%s" % name))
    # The fault kernel reads FaultyLink's fields and calls its
    # reference _hook, bumps FaultStats counters and reads FaultPlan
    # rates; the timer twins read RetransmitPolicy's delays and Node's
    # loop, timer list and methods.  Each name must be a member of
    # that very class.
    if not c.class_fields:
        found.append(_diag("RC805",
                           "could not extract the kernels' accessor "
                           "names (faulty_get/stats_incr/plan_rate/"
                           "policy_get/node_get) from _ccore.c "
                           "(refactored away from the audited idiom?)"))
    for cls, names in sorted(c.class_fields.items()):
        members = py.class_members.get(cls, frozenset())
        for name in names:
            if name not in members:
                found.append(_diag(
                    "RC805",
                    "_ccore.c reads %s.%s, which class %s does not "
                    "define" % (cls, name, cls),
                    state="%s.%s" % (cls, name)))
    return found


def check_parity(c_text: Optional[str] = None,
                 py_sources=None) -> List[Diagnostic]:
    """Run the parity pass; with no arguments, over the real repo."""
    from .surface import extract_c_surface, extract_py_surface
    c = (load_c_surface() if c_text is None
         else extract_c_surface(c_text))
    py = (load_py_surface() if py_sources is None
          else extract_py_surface(py_sources))
    return sorted(diff_surfaces(c, py),
                  key=lambda d: (d.code, d.state or "", d.message))
