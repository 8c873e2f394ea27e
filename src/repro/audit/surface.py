"""Surface extraction for the backend-parity audit.

Two extractors produce comparable "surfaces" of the dual-implemented
runtime core:

:func:`extract_c_surface`
    Lightweight, pattern-based extraction from ``_ccore.c`` — no C
    parser, just the handful of stylized idioms the extension uses
    throughout: ``PyModule_AddObject(mod, "Name", ...)`` exports, the
    ``ccore_methods`` table, ``#define`` constants, the ``cev_lt``
    comparator body, the ``INTERN(field, "text")`` list, and
    ``PyImport_ImportModule`` / ``PyObject_GetAttrString`` lookups.
    The extension is hand-written in exactly these idioms, so pattern
    extraction is reliable; if a future refactor abandons one, the
    parity pass fails loudly (an empty surface diffs as massive drift)
    rather than silently passing.

:func:`extract_py_surface`
    :mod:`ast`-based extraction from the Python reference modules
    (``eventloop``, ``transport``, ``node``, ``backend``, ``channel``,
    ``slot``, ``signals``, the goal machinery and ``flowlink``, and
    ``descriptor``): which ``_CORE.*`` kernels are consumed,
    the comparator field order of ``Event.__lt__`` and ``_earlier``,
    the arena cap constants, the expected ABI version, and the
    universe of attribute names the modules define or touch.

Both extractors accept source text, so the fixture negative controls
can feed doctored sources through the very same code paths the real
audit uses.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = ["CSurface", "PySurface", "extract_c_surface",
           "extract_py_surface", "repo_root", "c_source_path",
           "reference_module_paths", "REFERENCE_MODULES"]


def repo_root() -> str:
    """The repository root (three levels above this file's package)."""
    here = os.path.dirname(os.path.abspath(__file__))      # .../repro/audit
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def c_source_path(root: Optional[str] = None) -> str:
    root = root or repo_root()
    return os.path.join(root, "src", "repro", "network", "_ccore.c")


#: The Python modules that constitute the reference implementation of
#: the dual-implemented core, relative to ``src/repro``.
REFERENCE_MODULES: Tuple[str, ...] = (
    "network/eventloop.py",
    "network/transport.py",
    "network/node.py",
    "network/backend.py",
    "protocol/channel.py",
    "protocol/slot.py",
    "protocol/signals.py",
    # Goal machinery consumed by the C dispatch kernels (third perf
    # wave): Box.on_tunnel_signal / Box._poll, Maps._by_slot, and the
    # memoized program poll.
    "core/box.py",
    "core/maps.py",
    "core/program.py",
    # The flowlink kernel: FlowLink's _utd/_reopen flags and counters,
    # Goal.attached, and the descriptor/selector/codec fields its
    # select validation reads.
    "core/flowlink.py",
    "core/goals.py",
    "protocol/descriptor.py",
)


def reference_module_paths(root: Optional[str] = None) -> List[str]:
    root = root or repo_root()
    base = os.path.join(root, "src", "repro")
    return [os.path.join(base, rel) for rel in REFERENCE_MODULES]


# ----------------------------------------------------------------------
# C surface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CSurface:
    """What ``_ccore.c`` exposes and expects."""

    #: Kernel names the module exports (type objects + module methods).
    kernels: FrozenSet[str]
    #: ``#define NAME <int>`` constants (FREELIST_MAX, ENV_POOL_MAX,
    #: CCORE_ABI_VERSION).
    constants: Dict[str, int]
    #: Field order of the ``cev_lt`` event comparator.
    comparator: Tuple[str, ...]
    #: Attribute names interned via the ``INTERN(field, "text")`` list.
    interned: Tuple[str, ...]
    #: ``(module, attribute)`` pairs resolved through
    #: ``PyImport_ImportModule`` + ``PyObject_GetAttrString(mod, ...)``.
    module_lookups: Tuple[Tuple[str, str], ...]
    #: Attribute names fetched from non-module objects at runtime
    #: (e.g. ``"receive"`` off the Slot type, ``"cancelled"`` off a
    #: foreign event).
    attr_lookups: Tuple[str, ...]


_EXPORT_RE = re.compile(r'PyModule_AddObject\(mod,\s*"(\w+)"')
_METHOD_TABLE_RE = re.compile(
    r'static PyMethodDef ccore_methods\[\]\s*=\s*\{(.*?)\};', re.S)
_METHOD_NAME_RE = re.compile(r'\{\s*"(\w+)"')
_DEFINE_RE = re.compile(r'^#define\s+([A-Z][A-Z0-9_]+)\s+(\d+)\s*$',
                        re.M)
_CMP_BODY_RE = re.compile(
    r'cev_lt\(CEvent \*a, CEvent \*b\)\s*\{(.*?)\n\}', re.S)
_CMP_FIELD_RE = re.compile(r'a->(\w+)')
_INTERN_RE = re.compile(r'INTERN\(\s*\w+\s*,\s*"([^"]+)"\s*\)')
_IMPORT_OR_GETATTR_RE = re.compile(
    r'PyImport_ImportModule\("([^"]+)"\)'
    r'|PyObject_GetAttrString\((\w+),\s*"([^"]+)"\)')


def extract_c_surface(text: str) -> CSurface:
    """Extract the comparable surface from C source ``text``."""
    kernels = set(_EXPORT_RE.findall(text))
    table = _METHOD_TABLE_RE.search(text)
    if table is not None:
        kernels.update(_METHOD_NAME_RE.findall(table.group(1)))

    constants = {name: int(value)
                 for name, value in _DEFINE_RE.findall(text)}

    comparator: Tuple[str, ...] = ()
    body = _CMP_BODY_RE.search(text)
    if body is not None:
        seen: List[str] = []
        for fld in _CMP_FIELD_RE.findall(body.group(1)):
            if fld not in seen:
                seen.append(fld)
        comparator = tuple(seen)

    interned = tuple(_INTERN_RE.findall(text))

    module_lookups: List[Tuple[str, str]] = []
    attr_lookups: List[str] = []
    current_module: Optional[str] = None
    for match in _IMPORT_OR_GETATTR_RE.finditer(text):
        module, receiver, attr = match.groups()
        if module is not None:
            current_module = module
        elif receiver == "mod":
            if current_module is not None:
                module_lookups.append((current_module, attr))
        else:
            attr_lookups.append(attr)
    return CSurface(kernels=frozenset(kernels), constants=constants,
                    comparator=comparator, interned=interned,
                    module_lookups=tuple(module_lookups),
                    attr_lookups=tuple(attr_lookups))


# ----------------------------------------------------------------------
# Python surface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PySurface:
    """What the Python reference modules consume and define."""

    #: ``_CORE.<name>`` kernels the reference modules consume.
    kernels_consumed: FrozenSet[str]
    #: Arena caps by canonical name (matching the C ``#define`` names).
    constants: Dict[str, int]
    #: Comparator field orders keyed by function (``Event.__lt__``,
    #: ``_earlier``).
    comparators: Dict[str, Tuple[str, ...]]
    #: The ABI versions ``backend.py`` accepts (int literals compared
    #: against the extension's ``ABI_VERSION``).
    abi_expected: FrozenSet[int]
    #: Every attribute name, identifier-like string constant, and
    #: def/class name appearing in the reference modules — the universe
    #: a C interned name must land in.
    attribute_names: FrozenSet[str]
    #: Diagnostics produced during extraction itself (e.g. a reference
    #: module that fails to parse).
    problems: Tuple[str, ...] = field(default_factory=tuple)


#: Python constant name (module basename, variable) → C ``#define``.
_CONSTANT_MAP = {
    ("transport.py", "_FREELIST_MAX"): "FREELIST_MAX",
    ("channel.py", "_ENV_POOL_MAX"): "ENV_POOL_MAX",
    ("eventloop.py", "_DELIVER_BATCH_MAX"): "DELIVER_BATCH_MAX",
}

_IDENTIFIER_RE = re.compile(r'^[A-Za-z_][A-Za-z0-9_]*$')


def _comparator_fields(fn: ast.FunctionDef) -> Tuple[str, ...]:
    """Attribute names compared inside a tuple-free comparator body,
    in first-appearance order (``self.time`` / ``f.time`` both count —
    any attribute read inside the function body)."""
    order: List[str] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr not in order:
            order.append(node.attr)
    return tuple(order)


def extract_py_surface(sources: Dict[str, str]) -> PySurface:
    """Extract the Python reference surface from ``sources``, a map of
    file basename (or path) → source text."""
    kernels: set = set()
    constants: Dict[str, int] = {}
    comparators: Dict[str, Tuple[str, ...]] = {}
    abi_expected: set = set()
    names: set = set()
    problems: List[str] = []

    for path, text in sorted(sources.items()):
        base = os.path.basename(path)
        try:
            tree = ast.parse(text, filename=base)
        except SyntaxError as exc:
            problems.append("%s: %s" % (base, exc))
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
                if (isinstance(node.value, ast.Name)
                        and node.value.id == "_CORE"):
                    kernels.add(node.attr)
            elif isinstance(node, ast.Constant):
                if (isinstance(node.value, str)
                        and _IDENTIFIER_RE.match(node.value)):
                    names.add(node.value)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names.add(node.name)

        # Arena caps: module-level ``_NAME = <int>`` assignments.
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)):
                key = (base, node.targets[0].id)
                if key in _CONSTANT_MAP:
                    constants[_CONSTANT_MAP[key]] = node.value.value

        # Comparators: Event.__lt__ and the module-level _earlier.
        if base == "eventloop.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == "Event":
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and item.name == "__lt__"):
                            comparators["Event.__lt__"] = \
                                _comparator_fields(item)
                elif (isinstance(node, ast.FunctionDef)
                        and node.name == "_earlier"):
                    comparators["_earlier"] = _comparator_fields(node)

        # Expected ABI: int literals compared against a
        # getattr(..., "ABI_VERSION", ...) read in backend.py.
        if base == "backend.py":
            for node in ast.walk(tree):
                if not isinstance(node, ast.Compare):
                    continue
                mentions_abi = any(
                    isinstance(sub, ast.Constant)
                    and sub.value == "ABI_VERSION"
                    for side in [node.left] + list(node.comparators)
                    for sub in ast.walk(side))
                if not mentions_abi:
                    continue
                for side in [node.left] + list(node.comparators):
                    if (isinstance(side, ast.Constant)
                            and isinstance(side.value, int)
                            and not isinstance(side.value, bool)):
                        abi_expected.add(side.value)

    return PySurface(kernels_consumed=frozenset(kernels),
                     constants=constants, comparators=comparators,
                     abi_expected=frozenset(abi_expected),
                     attribute_names=frozenset(names),
                     problems=tuple(problems))


def load_c_surface(root: Optional[str] = None) -> CSurface:
    with open(c_source_path(root), "r", encoding="utf-8") as fh:
        return extract_c_surface(fh.read())


def load_py_surface(root: Optional[str] = None) -> PySurface:
    sources = {}
    for path in reference_module_paths(root):
        with open(path, "r", encoding="utf-8") as fh:
            sources[path] = fh.read()
    return extract_py_surface(sources)


__all__ += ["load_c_surface", "load_py_surface"]
