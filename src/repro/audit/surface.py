"""Surface extraction for the backend-parity audit.

Two extractors produce comparable "surfaces" of the dual-implemented
runtime core:

:func:`extract_c_surface`
    Lightweight, pattern-based extraction from ``_ccore.c`` — no C
    parser, just the handful of stylized idioms the extension uses
    throughout: ``PyModule_AddObject(mod, "Name", ...)`` exports, the
    ``ccore_methods`` table, ``#define`` constants, the ``cev_lt``
    comparator body, the ``INTERN(field, "text")`` list,
    ``PyImport_ImportModule`` / ``PyObject_GetAttrString`` lookups, the
    ``Slot`` fields ``resolve_slot_fields`` pins to ``__slots__``
    offsets, the ``Slot`` fire methods the timer twins arm
    (``slot_arm_timer``), and the names the kernels read off other
    reference classes through audited accessors: ``FaultyLink``,
    ``FaultStats`` and ``FaultPlan`` (``faulty_get``/``faulty_flag``,
    ``stats_incr``, ``plan_rate``), ``RetransmitPolicy``
    (``policy_get``) and ``Node`` (``node_get``).
    The extension is hand-written in exactly these idioms, so pattern
    extraction is reliable; if a future refactor abandons one, the
    parity pass fails loudly (an empty surface diffs as massive drift)
    rather than silently passing.

:func:`extract_py_surface`
    :mod:`ast`-based extraction from the Python reference modules
    (``eventloop``, ``transport``, ``node``, ``backend``, ``channel``,
    ``slot``, ``signals``, the goal machinery and ``flowlink``,
    ``descriptor``, and ``faults``): which ``_CORE.*`` kernels are
    consumed, the comparator field order of ``Event.__lt__`` and
    ``_earlier``, the arena cap constants, the expected ABI version, the
    universe of attribute names the modules define or touch, ``Slot``'s
    ``__slots__`` members and methods, and the members of the classes
    the kernels read through accessors.

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
    # program poll.
    "core/box.py",
    "core/maps.py",
    "core/program.py",
    # The flowlink kernel: FlowLink's _utd/_reopen flags and counters,
    # Goal.attached, and the descriptor/selector/codec fields its
    # select validation reads.
    "core/flowlink.py",
    "core/goals.py",
    "protocol/descriptor.py",
    # The fault kernel: FaultyLink's fields and reference _hook, the
    # FaultStats counters and the FaultPlan rates.
    "network/faults.py",
)

#: The classes whose members the kernels read through an audited
#: accessor, by the reference module that defines them.
ACCESSED_CLASSES: Dict[str, Tuple[str, ...]] = {
    "faults.py": ("FaultyLink", "FaultStats", "FaultPlan"),
    "slot.py": ("RetransmitPolicy",),
    "node.py": ("Node",),
}


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
    #: ``Slot`` fields the kernels read and write at fixed offsets (the
    #: ``resolve_slot_fields`` name table): each must be a ``__slots__``
    #: member.
    slot_fields: Tuple[str, ...] = ()
    #: ``Slot`` methods the timer twins fetch as timer handlers (the
    #: last argument of ``slot_arm_timer``).
    slot_methods: Tuple[str, ...] = ()
    #: Names read through an audited accessor, keyed by the class they
    #: belong to (the fault layer's three, ``RetransmitPolicy``,
    #: ``Node``).
    class_fields: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


_EXPORT_RE = re.compile(r'PyModule_AddObject\(mod,\s*"(\w+)"')
_METHOD_TABLE_RE = re.compile(
    r'static PyMethodDef ccore_methods\[\]\s*=\s*\{(.*?)\};', re.S)
_METHOD_NAME_RE = re.compile(r'\{\s*"(\w+)"')
_DEFINE_RE = re.compile(r'^#define\s+([A-Z][A-Z0-9_]+)\s+(\d+)\s*$',
                        re.M)
_CMP_BODY_RE = re.compile(
    r'cev_lt\(CEvent \*a, CEvent \*b\)\s*\{(.*?)\n\}', re.S)
_CMP_FIELD_RE = re.compile(r'a->(\w+)')
_INTERN_RE = re.compile(r'INTERN\(\s*(\w+)\s*,\s*"([^"]+)"\s*\)')
_SLOT_FIELDS_RE = re.compile(
    r'resolve_slot_fields\(void\)\s*\{.*?names\[SF_COUNT\]\s*=\s*'
    r'\{(.*?)\};', re.S)
_S_FIELD_RE = re.compile(r'\bS\.(\w+)')
_SLOT_METHOD_RE = re.compile(
    r'\bslot_arm_timer\((?:\s*[^,()]+,){3}\s*S\.(\w+)\)')


def _accessor_re(accessor: str) -> "re.Pattern[str]":
    return re.compile(r'\b%s\(\s*[^,()]+,\s*S\.(\w+)' % accessor)


#: The kernels' audited accessors, by the class they read.
_ACCESSOR_RES = (
    ("FaultyLink", _accessor_re("faulty_(?:get|flag)")),
    ("FaultStats", _accessor_re("stats_incr")),
    ("FaultPlan", _accessor_re("plan_rate")),
    ("RetransmitPolicy", _accessor_re("policy_get")),
    ("Node", _accessor_re("node_get")),
)
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

    pairs = _INTERN_RE.findall(text)
    interned = tuple(spelling for _, spelling in pairs)
    # ``S.<field>`` names the interned string ``INTERN(field, text)``.
    spelled = dict(pairs)
    table = _SLOT_FIELDS_RE.search(text)
    slot_fields = tuple(
        spelled.get(f, f)
        for f in _S_FIELD_RE.findall(table.group(1) if table else ""))
    slot_methods = tuple(dict.fromkeys(
        spelled.get(f, f) for f in _SLOT_METHOD_RE.findall(text)))
    class_fields = {
        cls: tuple(dict.fromkeys(spelled.get(f, f)
                                 for f in regex.findall(text)))
        for cls, regex in _ACCESSOR_RES}

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
                    attr_lookups=tuple(attr_lookups),
                    slot_fields=slot_fields,
                    slot_methods=slot_methods,
                    class_fields={c: f for c, f in class_fields.items()
                                  if f})


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
    #: ``Slot.__slots__`` in ``slot.py``.
    slot_members: FrozenSet[str] = frozenset()
    #: The methods ``class Slot`` defines.
    slot_methods: FrozenSet[str] = frozenset()
    #: Members of the :data:`ACCESSED_CLASSES`: methods, class-body
    #: fields, and ``self.<name>`` assignments.
    class_members: Dict[str, FrozenSet[str]] = field(default_factory=dict)


#: Python constant name (module basename, variable) → C ``#define``.
_CONSTANT_MAP = {
    ("transport.py", "_FREELIST_MAX"): "FREELIST_MAX",
    ("channel.py", "_ENV_POOL_MAX"): "ENV_POOL_MAX",
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


def _class_members(cls: ast.ClassDef) -> FrozenSet[str]:
    """Methods, class-body (dataclass) fields, and attributes assigned
    on ``self`` anywhere in the class."""
    members = set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            members.add(item.name)
        elif (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            members.add(item.target.id)
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for tg in targets:
            if (isinstance(tg, ast.Attribute)
                    and isinstance(tg.value, ast.Name)
                    and tg.value.id == "self"):
                members.add(tg.attr)
    return frozenset(members)


def extract_py_surface(sources: Dict[str, str]) -> PySurface:
    """Extract the Python reference surface from ``sources``, a map of
    file basename (or path) → source text."""
    kernels: set = set()
    constants: Dict[str, int] = {}
    comparators: Dict[str, Tuple[str, ...]] = {}
    abi_expected: set = set()
    names: set = set()
    problems: List[str] = []
    slot_members: set = set()
    slot_methods: set = set()
    class_members: Dict[str, FrozenSet[str]] = {}

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

        # The Slot class: its __slots__ members and its methods.
        if base == "slot.py":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "Slot":
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            slot_methods.add(item.name)
                        elif (isinstance(item, ast.Assign)
                                and any(isinstance(tg, ast.Name)
                                        and tg.id == "__slots__"
                                        for tg in item.targets)
                                and isinstance(item.value, ast.Tuple)):
                            slot_members.update(
                                elt.value for elt in item.value.elts
                                if isinstance(elt, ast.Constant))

        for node in tree.body:
            if (isinstance(node, ast.ClassDef)
                    and node.name in ACCESSED_CLASSES.get(base, ())):
                class_members[node.name] = _class_members(node)

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
                     problems=tuple(problems),
                     slot_members=frozenset(slot_members),
                     slot_methods=frozenset(slot_methods),
                     class_members=class_members)


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
