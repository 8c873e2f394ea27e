"""Span tracing installed from outside the program under test.

This PR adds no tracing inside ``src/``: every layer is timed at its
entry points by replacing the methods *on the class* (and module-level
functions in every ``repro`` module that imported them) with timing
wrappers.  Install before any topology is built: both backends cache
bound methods at construction (``Slot._tx``, ``ChannelEnd._process_fn``,
``LinkEnd._chain``, ``Node._finish_cb``), and the C kernels resolve
``Slot.receive`` / ``Box.on_tunnel_signal`` on first use.

A span is ``(id, parent, call, name, start, end)``.  Self time is the
span minus its direct children.  Under the compiled backend the C
kernels bypass most wrapped methods; what the wrappers still see there
is exactly the fallback and upcall traffic, and the time inside C shows
up as self time of the ``EventLoop`` span that encloses it.

Coroutines (the live gateway) are driven through a generator proxy that
pushes the span on the stack for the duration of each resume step only,
so spans of interleaved asyncio tasks never corrupt each other's
parentage; a coroutine span's duration is wall time, suspension
included, which is what a caller of ``wait_for`` experiences.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of the benchmark's own per-call root span.
CLIENT = "client"

#: The engine proper: layers whose self time sums to ``engine.us_per_call``
#: inside live nodes.
ENGINE_LAYERS = ("eventloop", "transport", "channel", "slot", "goals",
                 "program", "media", "topology", "admission")

#: ``(layer, module, class or None, names)``.  Private names are the
#: points where the event loop (or a timer) enters a layer; without them
#: that layer's receive-side work would be booked as event-loop self
#: time.  A name the program no longer has is skipped and reported in
#: ``missing`` rather than breaking the benchmark of a later commit.
POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("eventloop", "repro.network.eventloop", "EventLoop",
     ("run_until_quiescent", "advance", "run", "schedule", "schedule_at",
      "call_soon")),
    ("eventloop", "repro.network.node", "Node",
     ("enqueue", "set_timer", "_finish_one")),
    ("transport", "repro.network.transport", "LinkEnd",
     ("send", "_deliver")),
    ("transport", "repro.network.transport", "Link",
     ("transmit", "tear_down", "_bp_deliver")),
    ("transport", "repro.network.faults", "FaultyLink", ("_hook",)),
    ("channel", "repro.protocol.channel", "ChannelEnd",
     ("send_tunnel", "send_meta", "tear_down", "_receive", "_process")),
    ("slot", "repro.protocol.slot", "Slot",
     ("receive", "send_open", "send_oack", "send_close", "send_describe",
      "send_select", "send_busy", "force_close", "_transmit", "_retx_fire",
      "_stale_fire", "_busy_retry")),
    ("goals", "repro.core.box", "Box",
     ("on_tunnel_signal", "on_meta", "on_slot_failed", "on_channel_gone",
      "set_goal", "open_slot", "close_slot", "hold_slot", "flow_link",
      "release_goal")),
    ("goals", "repro.core.flowlink", "FlowLink",
     ("goal_receive", "on_slot_failed")),
    ("goals", "repro.core.goals", "OpenSlot",
     ("goal_receive", "on_slot_failed", "_retry")),
    ("goals", "repro.core.goals", "CloseSlot", ("goal_receive",)),
    ("goals", "repro.core.goals", "HoldSlot", ("goal_receive",)),
    ("program", "repro.core.program", "Program",
     ("start", "stop", "poll", "_fire", "_on_timeout")),
    ("media", "repro.media.endpoint", "MediaEndpoint",
     ("open", "accept", "reject", "close", "modify", "refresh_descriptor",
      "move", "on_tunnel_signal", "on_meta", "on_slot_failed",
      "release_end", "on_channel_gone")),
    ("media", "repro.media.device", "UserDevice",
     ("on_tunnel_signal", "on_meta", "answer", "decline", "hang_up_all")),
    ("media", "repro.media.plane", "MediaPlane",
     ("register_port", "unregister_port", "set_transmission",
      "clear_transmission", "two_way", "silent", "heard_by")),
    ("media", "repro.media.resources", "AnnouncementPlayer",
     ("on_tunnel_signal",)),
    ("media", "repro.media.resources", "InteractiveVoice",
     ("on_tunnel_signal",)),
    ("media", "repro.media.resources", "ConferenceBridge", ("on_meta",)),
    ("media", "repro.media.resources", "MovieServer",
     ("on_tunnel_signal", "on_meta")),
    ("topology", "repro.network.network", "Network",
     ("__init__", "device", "box", "channel", "resource", "dial")),
    ("admission", "repro.core.admission", "AdmissionControl", ("admit",)),
    ("gateway", "repro.livenet.gateway", "Gateway",
     ("_serve_one", "place_call", "hang_up")),
    ("gateway", "repro.livenet.journal", None, ("reference_fingerprint",)),
    ("tcp", "repro.livenet.tcp", "LiveNode",
     ("open_live", "wait_for", "_pump", "_on_frame", "_on_hello", "_ship")),
    ("tcp", "repro.livenet.tcp", "PeerConnection",
     ("send", "send_payload")),
    ("wire", "repro.livenet.wire", None,
     ("encode_frame", "encode_sig_frame", "encode_envelope",
      "decode_frame", "frame")),
    ("wire", "repro.livenet.wire", "FrameAssembler", ("feed",)),
    ("seam", "repro.livenet.seam", "HalfChannel",
     ("inject", "abandon", "_ship")),
)

#: Wire functions whose result length is summed into ``extra``.
_SIZED = ("encode_frame", "encode_sig_frame")

#: Spans that start the next call id in a server process: one HTTP
#: request at the gateway, one accepted channel at the callee.  A span
#: inherits its parent's call id, so everything under a request is
#: exact; spans with no parent (socket reader tasks, the callee's frame
#: handling) carry the id of the latest call started, which with two
#: client connections may be the other one's.
_NEW_CALL = ("Gateway._serve_one", "LiveNode._on_hello")

#: Hard cap on raw spans kept, whatever ``keep_calls`` allows (a soak
#: repetition is one call id but ~30 000 spans).
MAX_RAW = 100_000

# Indices into an aggregate row.
COUNT, TOTAL, SELF, ENTRIES, ENTRY_TOTAL = range(5)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, keep_calls: int = 200):
        #: Open frames, innermost last: ``[child_seconds, id, layer, call]``.
        self.stack: List[List[Any]] = []
        #: ``name -> [count, total_s, self_s, entries, entry_total_s]``;
        #: an *entry* is a span whose parent is in another layer (or has
        #: none), so ``entries`` counts crossings into the layer and
        #: ``entry_total_s`` is inclusive time without double counting
        #: nested spans of the same layer.
        self.agg: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        #: Raw spans of the first ``keep_calls`` calls.
        self.raw: List[Tuple[int, int, int, str, float, float]] = []
        self.keep_calls = keep_calls
        #: Id of the latest call started (``new_call`` wrappers advance
        #: it; children inherit their parent's).
        self.call = 0
        self.next_id = 0
        #: Free counters: wire bytes, ``wait_for`` predicate evaluations,
        #: spans entered directly from an event-loop span.
        self.extra: Dict[str, float] = {"wire.bytes": 0,
                                        "wait_for.predicate_evals": 0,
                                        "eventloop.dispatches": 0}
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _finish(self, frame: List[Any], name: str, layer: str,
                row: List[float], t0: float, t1: float) -> None:
        """Book one finished span; its frame is already off the stack."""
        dt = t1 - t0
        row[COUNT] += 1
        row[TOTAL] += dt
        row[SELF] += dt - frame[0]
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[0] += dt
            parent_id = parent[1]
            crossing = parent[2] != layer
        else:
            parent_id = 0
            crossing = True
        if crossing:
            row[ENTRIES] += 1
            row[ENTRY_TOTAL] += dt
            if stack and parent[2] == "eventloop":
                # The loop handed control to another layer: a callback
                # dispatch (python backend) or an upcall out of C.
                self.extra["eventloop.dispatches"] += 1
        if frame[3] < self.keep_calls and len(self.raw) < MAX_RAW:
            self.raw.append((frame[1], parent_id, frame[3], name, t0, t1))

    def wrap(self, fn: Callable[..., Any], name: str, layer: str,
             new_call: bool = False) -> Callable[..., Any]:
        """Timing wrapper for a plain function or method.  With
        ``new_call`` each invocation starts the next call id (root spans
        of the load generator and of per-request server handlers)."""
        row = self.agg.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
        self.layer_of[name] = layer
        stack = self.stack
        finish = self._finish
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            def start_coroutine(*args: Any, **kwargs: Any) -> "_SpanAwaitable":
                return _SpanAwaitable(tracer, fn(*args, **kwargs), name,
                                      layer, row, new_call)
            return start_coroutine

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if new_call:
                tracer.call = call = tracer.call + 1
            else:
                call = stack[-1][3] if stack else tracer.call
            tracer.next_id = sid = tracer.next_id + 1
            frame = [0.0, sid, layer, call]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                finish(frame, name, layer, row, t0, t1)
        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every point in :data:`POINTS` plus the slot FSM's
        ``_DISPATCH`` handlers (the C kernel's per-receive fallback calls
        those directly, not ``Slot.receive``)."""
        for layer, module_name, class_name, names in POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None \
                else getattr(module, class_name, None)
            for attr in names:
                label = "%s.%s" % (class_name or module_name.rsplit(".", 1)[1],
                                   attr)
                original = None if owner is None \
                    else owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(label)
                    continue
                target = original
                if class_name is None and attr in _SIZED:
                    target = self._sized(original)
                elif label == "LiveNode.wait_for":
                    target = self._counting_predicate(original)
                wrapped = self.wrap(target, label, layer,
                                    new_call=label in _NEW_CALL)
                if class_name is None:
                    _replace_global(attr, original, wrapped)
                else:
                    setattr(owner, attr, wrapped)
        slot_module = importlib.import_module("repro.protocol.slot")
        dispatch = getattr(slot_module, "_DISPATCH", None)
        if isinstance(dispatch, dict):
            for state, handler in list(dispatch.items()):
                dispatch[state] = self.wrap(
                    handler, "Slot.%s" % handler.__name__, "slot")
        else:
            self.missing.append("slot._DISPATCH")

    def _sized(self, fn: Callable[..., bytes]) -> Callable[..., bytes]:
        extra = self.extra

        @functools.wraps(fn)
        def sized(*args: Any, **kwargs: Any) -> bytes:
            out = fn(*args, **kwargs)
            extra["wire.bytes"] += len(out)
            return out
        return sized

    def _counting_predicate(self, fn: Callable[..., Any]
                            ) -> Callable[..., Any]:
        """``LiveNode.wait_for(predicate, ...)`` with the predicate's
        evaluations counted: polls = evaluations - 1 per wait."""
        extra = self.extra

        @functools.wraps(fn)
        async def wait_for(node: Any, predicate: Callable[[], bool],
                           *args: Any, **kwargs: Any) -> bool:
            def counted() -> bool:
                extra["wait_for.predicate_evals"] += 1
                return predicate()
            return await fn(node, counted, *args, **kwargs)
        return wait_for

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Span counts so far (the driver snapshots them after a fixed
        number of calls, which makes per-call counts exact per seed)."""
        return {name: int(row[COUNT]) for name, row in self.agg.items()}

    def entries(self) -> Dict[str, int]:
        return {name: int(row[ENTRIES]) for name, row in self.agg.items()}

    def reset(self) -> None:
        """Zero the aggregates in place (start of the measured phase);
        the wrappers keep their row references."""
        for row in self.agg.values():
            row[:] = [0, 0.0, 0.0, 0, 0.0]
        for key in self.extra:
            self.extra[key] = 0

    def report(self) -> Dict[str, Any]:
        return {"spans": {n: list(r) for n, r in self.agg.items() if r[COUNT]},
                "layer_of": dict(self.layer_of),
                "extra": dict(self.extra),
                "missing": list(self.missing)}

    def raw_spans(self) -> List[Dict[str, Any]]:
        return [{"id": sid, "parent": parent, "call": call, "name": name,
                 "start": t0, "end": t1}
                for sid, parent, call, name, t0, t1 in self.raw]


class _SpanAwaitable:
    """Drives a coroutine one resume step at a time with its span on the
    tracer's stack for exactly the duration of each step."""

    __slots__ = ("tracer", "coro", "name", "layer", "row", "new_call")

    def __init__(self, tracer: Tracer, coro: Any, name: str, layer: str,
                 row: List[float], new_call: bool):
        self.tracer = tracer
        self.coro = coro
        self.name = name
        self.layer = layer
        self.row = row
        self.new_call = new_call

    def __await__(self) -> Any:
        tracer = self.tracer
        stack = tracer.stack
        coro = self.coro
        if self.new_call:
            tracer.call = call = tracer.call + 1
        else:
            call = stack[-1][3] if stack else tracer.call
        tracer.next_id = sid = tracer.next_id + 1
        frame = [0.0, sid, self.layer, call]
        value: Any = None
        error: Optional[BaseException] = None
        t0 = perf_counter()
        try:
            while True:
                stack.append(frame)
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    stack.pop()
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # cancellation: pass it in
                    error = exc
        finally:
            tracer._finish(frame, self.name, self.layer, self.row, t0,
                           perf_counter())


def _replace_global(attr: str, original: Any, wrapped: Any) -> None:
    """Rebind a module-level function everywhere ``repro`` imported it
    by name (``from .wire import encode_frame`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapped)


# ----------------------------------------------------------------------
# arithmetic on reports (used by run.py; no repro import needed)
# ----------------------------------------------------------------------
def merge_reports(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum span rows and extras of several processes / slices."""
    spans: Dict[str, List[float]] = {}
    layer_of: Dict[str, str] = {}
    extra: Dict[str, float] = {}
    missing: List[str] = []
    for report in reports:
        for name, row in report["spans"].items():
            into = spans.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
            for i, value in enumerate(row):
                into[i] += value
        layer_of.update(report["layer_of"])
        for key, value in report["extra"].items():
            extra[key] = extra.get(key, 0) + value
        for name in report["missing"]:
            if name not in missing:
                missing.append(name)
    return {"spans": spans, "layer_of": layer_of, "extra": extra,
            "missing": missing}


def layer_rows(report: Dict[str, Any]) -> Dict[str, List[float]]:
    """Per-layer ``[count, total_s, self_s, entries, entry_total_s]``."""
    layers: Dict[str, List[float]] = {}
    for name, row in report["spans"].items():
        into = layers.setdefault(report["layer_of"][name],
                                 [0, 0.0, 0.0, 0, 0.0])
        for i, value in enumerate(row):
            into[i] += value
    return layers
