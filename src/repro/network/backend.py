"""Backend selection for the dispatch-critical runtime kernels.

The simulator's hot core — the event scheduler (:mod:`.eventloop`), the
link transmit/delivery path (:mod:`.transport`), and the slot send path
(:mod:`repro.protocol.slot`) — is factored behind this seam so the same
protocol semantics can run on two interchangeable implementations:

``python``
    The pure-Python kernels that live inline in the modules above.
    Always available; the reference implementation the fingerprint
    suite pins.

``compiled``
    A CPython extension module (:mod:`repro.network._ccore`) holding
    hand-written C versions of the same kernels: the ``Event`` type
    with a C-level comparison, the batched two-lane drain loop, and
    the per-signal transmit/deliver/receive/slot-send fast paths.
    Build it with ``python tools/build_backend.py`` (requires only a C
    compiler and the CPython headers; ``mypyc``/``Cython`` are *not*
    needed — when they are absent, which is the common case in
    hermetic containers, the hand-written core is the compiled
    artifact).  Semantics are identical by construction and enforced
    by the runtime fingerprint suite
    (``tests/unit/test_runtime_fingerprints.py`` under both values of
    ``REPRO_BACKEND``).

The backend is chosen **once, at import time**, from the
``REPRO_BACKEND`` environment variable:

- ``python`` (default) — pure Python, never imports the extension.
- ``compiled`` — use the extension; falls back to python **with a
  one-time RuntimeWarning** when no compiled artifact exists or its
  ABI is stale (a fresh checkout must never fail to import, but an
  explicit ask that degrades must not do so silently).
- ``auto`` — like ``compiled`` but opportunistic: the fallback is
  expected, so it stays silent.

An unknown ``REPRO_BACKEND`` value likewise degrades to ``python``
with a one-time RuntimeWarning naming the valid values.

``repro.network.backend.BACKEND`` reports what was actually selected
(``"python"`` or ``"compiled"``); bench reports record it so per-
backend numbers in ``BENCH_load.json`` are attributable.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Dict, Optional

__all__ = ["ARENA_POISON", "BACKEND", "BACKEND_ENV",
           "BACKEND_REQUESTED", "CORE", "compiled_available",
           "describe"]

#: Environment variable consulted once at import time.
BACKEND_ENV = "REPRO_BACKEND"

_VALID = ("python", "compiled", "auto")

#: What the environment asked for (normalized; unknown values degrade
#: to ``python`` with a one-time warning rather than exploding an
#: import chain — a typo is visible on stderr and in ``describe()``,
#: not fatal).
_RAW_REQUESTED = os.environ.get(BACKEND_ENV)
BACKEND_REQUESTED = (_RAW_REQUESTED or "python").strip().lower()
if BACKEND_REQUESTED not in _VALID:
    warnings.warn(
        "unknown %s value %r (valid: %s); falling back to the "
        "pure-Python backend" % (BACKEND_ENV, _RAW_REQUESTED,
                                 ", ".join(_VALID)),
        RuntimeWarning, stacklevel=2)
    BACKEND_REQUESTED = "python"

#: Opt-in debug mode: poison arena objects on release so a
#: use-after-release fails loudly instead of silently delivering a
#: recycled envelope or replaying a stale event.  Read here because
#: this module is the one sanctioned ``os.environ`` seam (RC813); the
#: consumers are :mod:`repro.network.transport` (Event freelist) and
#: :mod:`repro.protocol.channel` (envelope pool).  A pure-Python debug
#: aid: the compiled kernels keep their own (audited) release paths.
ARENA_POISON: bool = (os.environ.get("REPRO_ARENA_POISON", "")
                      .strip().lower() in ("1", "true", "yes", "on"))

#: The extension module when selected *and* importable, else ``None``.
#: Every kernel consumer guards on this exact object.
CORE: Optional[Any] = None

if BACKEND_REQUESTED in ("compiled", "auto"):
    try:
        from . import _ccore as _core_mod  # type: ignore[attr-defined]
    except ImportError:
        # No artifact built: pure-Python fallback.  ``compiled`` was an
        # explicit ask, so its degradation warns once; ``auto`` is
        # opportunistic by definition and stays silent.
        _core_mod = None
        if BACKEND_REQUESTED == "compiled":
            warnings.warn(
                "%s=compiled but no compiled artifact is importable; "
                "build one with 'python tools/build_backend.py' -- "
                "falling back to the pure-Python backend"
                % BACKEND_ENV, RuntimeWarning, stacklevel=2)
    else:
        # A stale artifact built against different kernel contracts must
        # not half-load; the ABI tag is bumped whenever the C side's
        # expectations of the Python objects change.
        if getattr(_core_mod, "ABI_VERSION", None) != 6:
            if BACKEND_REQUESTED == "compiled":
                warnings.warn(
                    "%s=compiled but the artifact's ABI_VERSION is %r "
                    "(expected 5); rebuild with 'python "
                    "tools/build_backend.py --force' -- falling back "
                    "to the pure-Python backend"
                    % (BACKEND_ENV,
                       getattr(_core_mod, "ABI_VERSION", None)),
                    RuntimeWarning, stacklevel=2)
            _core_mod = None
    CORE = _core_mod

#: The backend actually in effect for this process.
BACKEND: str = "compiled" if CORE is not None else "python"


def compiled_available() -> bool:
    """True when the compiled core is importable *in this process*
    (regardless of whether it was selected)."""
    if CORE is not None:
        return True
    try:
        from . import _ccore  # noqa: F401
    except ImportError:
        return False
    return getattr(_ccore, "ABI_VERSION", None) == 6


def describe() -> Dict[str, Any]:
    """Backend facts for bench reports and diagnostics."""
    return {
        "backend": BACKEND,
        "requested": BACKEND_REQUESTED,
        "compiled_loaded": CORE is not None,
        "arena_poison": ARENA_POISON,
    }
