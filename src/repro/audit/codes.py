"""The RC8xx diagnostic family: codes for the runtime auditor.

Importing this module registers the family into the shared
staticcheck registry (:func:`repro.staticcheck.diagnostics
.register_codes`), so RC8xx diagnostics resolve titles and severities
through the same tables as the RCxxx box-program linter, and
``repro lint --list-rules`` / ``repro audit --list-rules`` print one
merged catalog.

Sub-families::

    RC80x  backend parity   (C surface vs. Python reference surface)
    RC81x  determinism      (hazards that break byte-identical traces)
    RC82x  arena contracts  (freelist/pool acquire-reset-release)
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..staticcheck.diagnostics import register_codes

__all__ = ["AUDIT_CODES", "AUDIT_DESCRIPTIONS"]

AUDIT_CODES: Dict[str, Tuple[str, str]] = {
    "RC801": ("kernel-surface-drift", "error"),
    "RC802": ("comparator-order-drift", "error"),
    "RC803": ("constant-drift", "error"),
    "RC804": ("missing-runtime-symbol", "error"),
    "RC805": ("interned-name-drift", "error"),
    "RC810": ("wall-clock-read", "error"),
    "RC811": ("unseeded-random", "error"),
    "RC812": ("unordered-iteration", "warning"),
    "RC813": ("environ-read", "error"),
    "RC814": ("float-eq-sim-time", "warning"),
    "RC820": ("acquire-without-reset", "error"),
    "RC821": ("release-without-reset", "error"),
    "RC822": ("uncapped-release", "error"),
    "RC823": ("rearm-without-fresh-seq", "error"),
}

AUDIT_DESCRIPTIONS: Dict[str, str] = {
    "RC801": "a runtime kernel is exported by _ccore.c or consumed by "
             "the Python modules, but not both",
    "RC802": "the Event comparator's (time, priority, seq) field order "
             "differs between the C and Python implementations",
    "RC803": "an arena cap or the ABI version differs between _ccore.c "
             "and its Python reference module",
    "RC804": "_ccore.c looks up a module attribute the Python runtime "
             "no longer defines",
    "RC805": "_ccore.c interns or fetches an attribute name that "
             "appears nowhere in the Python reference modules, pins a "
             "Slot field that is not a __slots__ member, or calls a "
             "Slot method the reference no longer defines",
    "RC810": "a wall-clock read (time.time/perf_counter/...) at a "
             "site that can perturb deterministic simulation",
    "RC811": "a module-level random.* call draws from the unseeded "
             "global RNG instead of a seeded Random instance",
    "RC812": "iteration over a set/frozenset whose order is not "
             "pinned (wrap in sorted())",
    "RC813": "an os.environ/os.getenv read outside "
             "repro.network.backend, the one sanctioned config seam",
    "RC814": "a float literal compared with == / != against a "
             "sim-time expression",
    "RC820": "an arena acquire site does not re-arm every field the "
             "reset contract requires",
    "RC821": "an arena release site does not reset required fields or "
             "releases cancelled tombstones",
    "RC822": "an arena release site appends without the pool's cap "
             "guard (unbounded growth)",
    "RC823": "an event is re-armed (_loop set) without drawing a "
             "fresh seq, breaking execution order",
}

register_codes(AUDIT_CODES, AUDIT_DESCRIPTIONS)
