/* _ccore: the compiled backend for the simulator's dispatch-critical
 * kernels (see repro/network/backend.py).
 *
 * Selected at import time via REPRO_BACKEND=compiled|auto.  Everything
 * here is a hand-written C twin of a pure-Python kernel; the Python
 * implementations remain the reference and the runtime fingerprint
 * suite pins that both produce bit-identical executions.
 *
 * Exposed objects:
 *
 *   Event          C twin of repro.network.eventloop.Event: same
 *                  constructor, attributes, cancel() semantics
 *                  (including the heap-compaction trigger), and a
 *                  C-level __lt__ compatible with the Python one.
 *   drain          C twin of EventLoop._drain_py: the untimed merged
 *                  two-lane drain, one event at a time (deferred
 *                  counter flush, clock stored once per same-timestamp
 *                  run of events).
 *   LinkTransmit   C twin of Link._base_transmit (installed as the
 *                  chain bottom), including the per-link Event
 *                  freelist and ready-lane routing.
 *   SlotTransmit   C twin of Slot._transmit (envelope pool, chain).
 *   FaultHook      C twin of FaultyLink._hook for drop/duplicate
 *                  plans; SlotTransmit fuses it, deciding in C and
 *                  building an envelope only for surviving copies.
 *   Deliver        C twin of LinkEnd._deliver, used as the delivery
 *                  event callback so drain can dispatch it without a
 *                  Python frame.
 *   Receive        C twin of ChannelEnd._receive (inbox append + node
 *                  arm with stimulus-event reuse).
 *   Finish         C twin of Node._finish_one (pop, dispatch, re-arm).
 *   Process        C twin of the untraced TunnelMessage fast path of
 *                  ChannelEnd._process (falls back to the Python
 *                  method for traced runs, meta messages, and every
 *                  other cold path), including the box's goal dispatch
 *                  and, for an exact FlowLink over strict slots (robust
 *                  ones included), FlowLink.goal_receive and the slot
 *                  sends it issues (the flowlink kernel).
 *
 * Correctness invariants shared with the Python side:
 *   - events execute in strict (time, priority, seq) order; the ready
 *     lane holds only priority-0 events at the current instant, so the
 *     two-lane merge reproduces the single-heap order exactly;
 *   - a fired event has _loop == NULL and cancelled == 0 and may be
 *     re-armed only with a freshly drawn seq;
 *   - cancelled events are never recycled (they may still be lane
 *     tombstones);
 *   - loop._pending/_free/_heap/_ready lists are mutated strictly in
 *     place, never rebound, so cached references stay valid.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define CCORE_ABI_VERSION 6

/* Caps mirrored from the Python side (transport._FREELIST_MAX and
 * channel._ENV_POOL_MAX). */
#define FREELIST_MAX 32
#define ENV_POOL_MAX 64

/* ------------------------------------------------------------------ */
/* interned attribute names                                            */
/* ------------------------------------------------------------------ */
static struct {
    PyObject *_heap, *_ready, *_now, *_live, *executed, *_seq, *trace;
    PyObject *_env_pool, *rng, *_compact;
    PyObject *popleft, *append, *sample;
    PyObject *down, *sent, *latency, *fixed_delay, *_pending, *_compact_at;
    PyObject *_free, *_horizon, *_receiver, *_peer, *_cdeliver, *ends, *loop;
    PyObject *offline, *dropped_while_offline, *_inbox, *_busy;
    PyObject *_stim_event, *handled, *cost, *_finish_cb, *_link, *_node;
    PyObject *_loop, *_process, *_process_fn, *alive, *slots, *owner;
    PyObject *on_tunnel_signal, *signal, *tunnel_id, *pooled;
    PyObject *state, *_retx_kind, *signals_received, *signals_sent;
    PyObject *_cancel_retx, *_wire, *_chain, *_end, *_transmit, *_hooks;
    PyObject *qualname;
    /* slot FSM fast path (third perf wave) */
    PyObject *retransmit, *strict, *failed, *medium, *remote_descriptor;
    PyObject *local_descriptor, *selector_received, *selector_sent;
    PyObject *descriptor, *selector, *race_drops, *stale_drops, *side;
    PyObject *_tx, *_retx_timer, *_stale_timer, *_busy_timer;
    /* goal dispatch */
    PyObject *maps, *_by_slot, *goal_receive, *after_stimulus, *admission;
    /* flowlink kernel */
    PyObject *_utd, *_reopen, *attached, *answers, *id, *codec;
    PyObject *codecs, *is_real, *_no_media, *_busy_medium;
    PyObject *_busy_descriptor, *_busy_attempts, *opens_sent;
    PyObject *describes_sent, *forwarded_selects, *discarded_selects;
    /* robust slots: the reference timer methods and the drop counters */
    PyObject *_arm_retx, *_arm_stale, *_cancel_stale, *_cancel_busy;
    PyObject *_retx_signal, *duplicate_drops, *invalid_drops;
    /* the fault hook: FaultyLink, FaultStats and FaultPlan fields */
    PyObject *_base_transmit, *random, *link, *plan, *stats, *exempt;
    PyObject *_outage, *_hook, *forwarded, *dropped, *duplicated;
    PyObject *exempted, *drop, *duplicate, *jitter, *reorder;
} S;

static PyObject *g_empty_tuple;
/* lazily imported protocol objects (avoid import cycles at init) */
static PyObject *g_tunnelmsg_type;   /* repro.protocol.signals.TunnelMessage */
static PyObject *g_slot_type;        /* repro.protocol.slot.Slot */
static PyObject *g_slot_receive;     /* unbound Slot.receive */
static PyObject *g_dispatch;         /* repro.protocol.slot._DISPATCH */
static PyObject *g_state_opening;    /* slot.OPENING */
static PyObject *g_state_closed;     /* slot.CLOSED */
static PyObject *g_kind_open;        /* "open" */
static PyObject *g_kind_close;       /* "close" */
/* slot FSM fast path: the remaining state strings, the six final signal
 * classes, and the shared closeack singleton */
static PyObject *g_state_opened;     /* slot.OPENED */
static PyObject *g_state_flowing;    /* slot.FLOWING */
static PyObject *g_state_closing;    /* slot.CLOSING */
static PyObject *g_sig_open;         /* signals.Open */
static PyObject *g_sig_oack;         /* signals.Oack */
static PyObject *g_sig_close;        /* signals.Close */
static PyObject *g_sig_closeack;     /* signals.CloseAck */
static PyObject *g_sig_describe;     /* signals.Describe */
static PyObject *g_sig_select;       /* signals.Select */
static PyObject *g_sig_busy;         /* signals.Busy */
static PyObject *g_closeack;         /* slot._CLOSEACK singleton */
static PyObject *g_close;            /* slot._CLOSE singleton */
/* goal dispatch: the reference Box.on_tunnel_signal function (methods
 * bound to it with no admission control are inlined in C) */
static PyObject *g_box_ots;
/* flowlink kernel: goals of exactly this type run goal_receive in C */
static PyObject *g_flowlink_type;    /* repro.core.flowlink.FlowLink */
/* backend.ARENA_POISON: poisoned-release debugging disables every slot
 * fast path so the reference receive sees the poisoned signals */
static int g_arena_poison;

static int resolve_slot_fields(void);

static int
ensure_protocol(void)
{
    PyObject *mod, *box_cls, *poison;
    if (g_tunnelmsg_type != NULL)
        return 0;
    mod = PyImport_ImportModule("repro.protocol.signals");
    if (mod == NULL)
        return -1;
    g_tunnelmsg_type = PyObject_GetAttrString(mod, "TunnelMessage");
    if (g_tunnelmsg_type == NULL) {
        Py_DECREF(mod);
        return -1;
    }
    g_sig_open = PyObject_GetAttrString(mod, "Open");
    g_sig_oack = PyObject_GetAttrString(mod, "Oack");
    g_sig_close = PyObject_GetAttrString(mod, "Close");
    g_sig_closeack = PyObject_GetAttrString(mod, "CloseAck");
    g_sig_describe = PyObject_GetAttrString(mod, "Describe");
    g_sig_select = PyObject_GetAttrString(mod, "Select");
    g_sig_busy = PyObject_GetAttrString(mod, "Busy");
    Py_DECREF(mod);
    if (g_sig_open == NULL || g_sig_oack == NULL || g_sig_close == NULL
        || g_sig_closeack == NULL || g_sig_describe == NULL
        || g_sig_select == NULL || g_sig_busy == NULL)
        return -1;
    mod = PyImport_ImportModule("repro.protocol.slot");
    if (mod == NULL)
        return -1;
    g_slot_type = PyObject_GetAttrString(mod, "Slot");
    Py_DECREF(mod);
    if (g_slot_type == NULL)
        return -1;
    g_slot_receive = PyObject_GetAttrString(g_slot_type, "receive");
    if (g_slot_receive == NULL || resolve_slot_fields() < 0)
        return -1;
    mod = PyImport_ImportModule("repro.protocol.slot");
    if (mod == NULL)
        return -1;
    g_dispatch = PyObject_GetAttrString(mod, "_DISPATCH");
    if (g_dispatch == NULL || !PyDict_Check(g_dispatch)) {
        Py_DECREF(mod);
        if (g_dispatch != NULL)
            PyErr_SetString(PyExc_TypeError, "slot._DISPATCH must be a dict");
        return -1;
    }
    g_state_opening = PyObject_GetAttrString(mod, "OPENING");
    g_state_closed = PyObject_GetAttrString(mod, "CLOSED");
    g_state_opened = PyObject_GetAttrString(mod, "OPENED");
    g_state_flowing = PyObject_GetAttrString(mod, "FLOWING");
    g_state_closing = PyObject_GetAttrString(mod, "CLOSING");
    g_closeack = PyObject_GetAttrString(mod, "_CLOSEACK");
    g_close = PyObject_GetAttrString(mod, "_CLOSE");
    Py_DECREF(mod);
    if (g_state_opening == NULL || g_state_closed == NULL
        || g_state_opened == NULL || g_state_flowing == NULL
        || g_state_closing == NULL || g_closeack == NULL
        || g_close == NULL)
        return -1;
    mod = PyImport_ImportModule("repro.network.backend");
    if (mod == NULL)
        return -1;
    poison = PyObject_GetAttrString(mod, "ARENA_POISON");
    Py_DECREF(mod);
    if (poison == NULL)
        return -1;
    g_arena_poison = PyObject_IsTrue(poison);
    Py_DECREF(poison);
    if (g_arena_poison < 0)
        return -1;
    mod = PyImport_ImportModule("repro.core.box");
    if (mod == NULL)
        return -1;
    box_cls = PyObject_GetAttrString(mod, "Box");
    Py_DECREF(mod);
    if (box_cls == NULL)
        return -1;
    g_box_ots = PyObject_GetAttr(box_cls, S.on_tunnel_signal);
    Py_DECREF(box_cls);
    if (g_box_ots == NULL)
        return -1;
    mod = PyImport_ImportModule("repro.core.flowlink");
    if (mod == NULL)
        return -1;
    g_flowlink_type = PyObject_GetAttrString(mod, "FlowLink");
    Py_DECREF(mod);
    if (g_flowlink_type == NULL)
        return -1;
    g_kind_open = PyUnicode_InternFromString("open");
    g_kind_close = PyUnicode_InternFromString("close");
    if (g_kind_open == NULL || g_kind_close == NULL)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* small attribute helpers                                             */
/* ------------------------------------------------------------------ */

/* obj.<name> as C double (accepts int or float); -1.0 + PyErr on error */
static int
get_attr_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
set_attr_double(PyObject *obj, PyObject *name, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    int st;
    if (v == NULL)
        return -1;
    st = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return st;
}

static int
get_attr_bool(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    int st;
    if (v == NULL)
        return -1;
    st = PyObject_IsTrue(v);
    Py_DECREF(v);
    return st;
}

static int
get_attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* obj.<name> += delta; optionally reports the new value */
static int
attr_add_ll(PyObject *obj, PyObject *name, long long delta, long long *out)
{
    long long cur;
    PyObject *nv;
    int st;
    if (get_attr_ll(obj, name, &cur) < 0)
        return -1;
    cur += delta;
    nv = PyLong_FromLongLong(cur);
    if (nv == NULL)
        return -1;
    st = PyObject_SetAttr(obj, name, nv);
    Py_DECREF(nv);
    if (out != NULL)
        *out = cur;
    return st;
}

/* next(seq_iter) as long long (itertools.count: C-level iteration) */
static long long
next_seq(PyObject *seq_iter)
{
    PyObject *v = PyIter_Next(seq_iter);
    long long r;
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "sequence counter exhausted");
        return -1;
    }
    r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    return r;
}

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject_HEAD
    double time;
    int priority;
    long long seq;
    PyObject *callback;
    PyObject *args;        /* always a tuple */
    PyObject *loop;        /* NULL when detached (fired or never armed) */
    char cancelled;
} CEvent;

static PyTypeObject CEventType;

#define CEvent_CheckExact(op) (Py_TYPE(op) == &CEventType)

/* strict (time, priority, seq) order between two known CEvents */
static inline int
cev_lt(CEvent *a, CEvent *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->seq < b->seq;
}

/* a < b for arbitrary heap entries; -1 + PyErr on comparison error */
static inline int
ev_lt(PyObject *a, PyObject *b)
{
    if (CEvent_CheckExact(a) && CEvent_CheckExact(b))
        return cev_lt((CEvent *)a, (CEvent *)b);
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static PyObject *
cevent_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CEvent *self = (CEvent *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->time = 0.0;
    self->priority = 0;
    self->seq = 0;
    self->callback = NULL;
    self->args = NULL;
    self->loop = NULL;
    self->cancelled = 0;
    return (PyObject *)self;
}

static int
cevent_init(CEvent *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "priority", "seq", "callback", "args",
                             "loop", NULL};
    double time;
    int priority;
    long long seq;
    PyObject *callback, *cargs, *loop = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "diLOO|O", kwlist,
                                     &time, &priority, &seq, &callback,
                                     &cargs, &loop))
        return -1;
    if (!PyTuple_Check(cargs)) {
        PyErr_SetString(PyExc_TypeError, "Event args must be a tuple");
        return -1;
    }
    self->time = time;
    self->priority = priority;
    self->seq = seq;
    Py_INCREF(callback);
    Py_XSETREF(self->callback, callback);
    Py_INCREF(cargs);
    Py_XSETREF(self->args, cargs);
    if (loop == Py_None) {
        Py_CLEAR(self->loop);
    }
    else {
        Py_INCREF(loop);
        Py_XSETREF(self->loop, loop);
    }
    self->cancelled = 0;
    return 0;
}

/* fast internal constructor (no arg parsing) */
static CEvent *
cevent_make(double time, int priority, long long seq, PyObject *callback,
            PyObject *cargs, PyObject *loop)
{
    CEvent *ev = (CEvent *)CEventType.tp_alloc(&CEventType, 0);
    if (ev == NULL)
        return NULL;
    ev->time = time;
    ev->priority = priority;
    ev->seq = seq;
    Py_INCREF(callback);
    ev->callback = callback;
    Py_INCREF(cargs);
    ev->args = cargs;
    if (loop != NULL && loop != Py_None) {
        Py_INCREF(loop);
        ev->loop = loop;
    }
    else {
        ev->loop = NULL;
    }
    ev->cancelled = 0;
    return ev;
}

static int
cevent_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->args);
    Py_VISIT(self->loop);
    return 0;
}

static int
cevent_clear(CEvent *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    Py_CLEAR(self->loop);
    return 0;
}

static void
cevent_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack(self);
    cevent_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Event.cancel(): mirror of the Python implementation, including the
 * threshold-triggered heap compaction. */
static PyObject *
cevent_cancel(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *loop, *heap;
    long long live;
    if (self->cancelled)
        Py_RETURN_NONE;
    self->cancelled = 1;
    loop = self->loop;
    if (loop == NULL)
        Py_RETURN_NONE;
    self->loop = NULL;           /* we now own the reference */
    if (attr_add_ll(loop, S._live, -1, &live) < 0) {
        Py_DECREF(loop);
        return NULL;
    }
    heap = PyObject_GetAttr(loop, S._heap);
    if (heap == NULL) {
        Py_DECREF(loop);
        return NULL;
    }
    if (PyList_Check(heap)) {
        Py_ssize_t n = PyList_GET_SIZE(heap);
        if (n > 64 && live < (long long)(n >> 1)) {
            PyObject *res = PyObject_CallMethodNoArgs(loop, S._compact);
            if (res == NULL) {
                Py_DECREF(heap);
                Py_DECREF(loop);
                return NULL;
            }
            Py_DECREF(res);
        }
    }
    Py_DECREF(heap);
    Py_DECREF(loop);
    Py_RETURN_NONE;
}

static PyObject *
cevent_richcompare(PyObject *a, PyObject *b, int op)
{
    int lt;
    if (!CEvent_CheckExact(a) || !CEvent_CheckExact(b) ||
        (op != Py_LT && op != Py_GT && op != Py_LE && op != Py_GE))
        Py_RETURN_NOTIMPLEMENTED;
    switch (op) {
    case Py_LT:
        lt = cev_lt((CEvent *)a, (CEvent *)b);
        break;
    case Py_GT:
        lt = cev_lt((CEvent *)b, (CEvent *)a);
        break;
    case Py_LE:
        lt = !cev_lt((CEvent *)b, (CEvent *)a);
        break;
    default:                     /* Py_GE */
        lt = !cev_lt((CEvent *)a, (CEvent *)b);
        break;
    }
    if (lt)
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

static PyObject *
cevent_repr(CEvent *self)
{
    char tbuf[64];
    PyObject *name = NULL, *out;
    PyOS_snprintf(tbuf, sizeof(tbuf), "%g", self->time);
    if (self->callback != NULL) {
        name = PyObject_GetAttr(self->callback, S.qualname);
        if (name == NULL) {
            PyErr_Clear();
            name = PyObject_Str(self->callback);
            if (name == NULL)
                return NULL;
        }
    }
    else {
        name = PyUnicode_FromString("?");
        if (name == NULL)
            return NULL;
    }
    out = PyUnicode_FromFormat("<Event t=%s p=%d #%lld %U%s>",
                               tbuf, self->priority, self->seq, name,
                               self->cancelled ? " cancelled" : "");
    Py_DECREF(name);
    return out;
}

static PyObject *
cevent_get_loop(CEvent *self, void *closure)
{
    PyObject *loop = self->loop ? self->loop : Py_None;
    Py_INCREF(loop);
    return loop;
}

static int
cevent_set_loop(CEvent *self, PyObject *value, void *closure)
{
    if (value == NULL || value == Py_None) {
        Py_CLEAR(self->loop);
        return 0;
    }
    Py_INCREF(value);
    Py_XSETREF(self->loop, value);
    return 0;
}

static PyMemberDef cevent_members[] = {
    {"time", T_DOUBLE, offsetof(CEvent, time), 0, "fire time"},
    {"priority", T_INT, offsetof(CEvent, priority), 0, "tie-break priority"},
    {"seq", T_LONGLONG, offsetof(CEvent, seq), 0, "monotonic tie-breaker"},
    {"callback", T_OBJECT_EX, offsetof(CEvent, callback), 0, "callback"},
    {"args", T_OBJECT_EX, offsetof(CEvent, args), 0, "callback args"},
    {"cancelled", T_BOOL, offsetof(CEvent, cancelled), 0, "tombstone flag"},
    {NULL}
};

static PyGetSetDef cevent_getset[] = {
    {"_loop", (getter)cevent_get_loop, (setter)cevent_set_loop,
     "owning loop while scheduled, None once fired/cancelled", NULL},
    {NULL}
};

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Prevent the event from firing.  Idempotent."},
    {NULL}
};

static PyTypeObject CEventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled callback (compiled backend).",
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear,
    .tp_richcompare = cevent_richcompare,
    .tp_methods = cevent_methods,
    .tp_members = cevent_members,
    .tp_getset = cevent_getset,
    .tp_init = (initproc)cevent_init,
    .tp_new = cevent_new,
};

/* ------------------------------------------------------------------ */
/* binary-heap primitives over a PyList of events                      */
/* ------------------------------------------------------------------ */

/* push ev (borrowed; the list takes its own reference) */
static int
heap_push(PyObject *heap, PyObject *ev)
{
    Py_ssize_t pos, parent;
    if (PyList_Append(heap, ev) < 0)
        return -1;
    pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        PyObject *p;
        int lt;
        parent = (pos - 1) >> 1;
        p = PyList_GET_ITEM(heap, parent);
        lt = ev_lt(ev, p);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        /* swap: both objects stay referenced by the list */
        PyList_SET_ITEM(heap, pos, p);
        PyList_SET_ITEM(heap, parent, ev);
        pos = parent;
    }
    return 0;
}

/* pop the minimum; returns a new reference (NULL + PyErr on error) */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last, *ret;
    Py_ssize_t pos;
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty heap");
        return NULL;
    }
    last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    n -= 1;
    if (n == 0)
        return last;
    ret = PyList_GET_ITEM(heap, 0);
    /* Overwrite the root with `last`: our reference to `last` moves
     * into the list, and the list's former reference to the old root
     * transfers to `ret` (PyList_SET_ITEM does not decref). */
    PyList_SET_ITEM(heap, 0, last);
    /* sift the new root down */
    pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1, right = child + 1;
        PyObject *c, *r;
        int lt;
        if (child >= n)
            break;
        c = PyList_GET_ITEM(heap, child);
        if (right < n) {
            r = PyList_GET_ITEM(heap, right);
            lt = ev_lt(c, r);
            if (lt < 0)
                goto fail;
            if (!lt) {
                child = right;
                c = r;
            }
        }
        lt = ev_lt(c, last);
        if (lt < 0)
            goto fail;
        if (!lt)
            break;
        PyList_SET_ITEM(heap, pos, c);
        PyList_SET_ITEM(heap, child, last);
        pos = child;
    }
    return ret;
fail:
    Py_DECREF(ret);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* kernel callables: forward declarations                              */
/* ------------------------------------------------------------------ */
static PyTypeObject DeliverType, ReceiveType, FinishType, ProcessType,
    LinkTransmitType;

typedef struct {
    PyObject_HEAD
    PyObject *end;               /* LinkEnd */
    PyObject *link;              /* Link (== end._link, cached) */
} DeliverObj;

typedef struct {
    PyObject_HEAD
    PyObject *chend;             /* ChannelEnd */
    PyObject *node;              /* owner node */
    PyObject *loop;              /* event loop */
    PyObject *heap;              /* loop._heap */
    PyObject *ready;             /* loop._ready */
    PyObject *inbox;             /* node._inbox */
    PyObject *seq_iter;          /* loop._seq */
    PyObject *process_fn;        /* chend._process_fn */
    PyObject *finish_cb;         /* node._finish_cb */
    /* bound deque methods, cached alongside the deques they belong to
     * (the kernels already pin the deque objects at init; caching the
     * bound method removes a type lookup per signal) */
    PyObject *inbox_append;      /* inbox.append */
    PyObject *ready_append;      /* ready.append */
} ReceiveObj;

typedef struct {
    PyObject_HEAD
    PyObject *node;
    PyObject *loop;
    PyObject *heap;
    PyObject *ready;
    PyObject *inbox;
    PyObject *seq_iter;
    PyObject *inbox_popleft;     /* inbox.popleft, cached */
    PyObject *ready_append;      /* ready.append, cached */
} FinishObj;

typedef struct {
    PyObject_HEAD
    PyObject *chend;             /* ChannelEnd */
    PyObject *loop;
    PyObject *owner;             /* chend.owner */
    PyObject *slots;             /* chend.slots (dict) */
    PyObject *py_process;        /* bound ChannelEnd._process */
    PyObject *env_pool;          /* loop._env_pool (list) */
    PyObject *by_slot;           /* owner.maps._by_slot (dict, mutated in
                                  * place, never rebound) or NULL for
                                  * owners without goal maps (devices) */
} ProcessObj;

typedef struct {
    PyObject_HEAD
    PyObject *link;
    PyObject *loop;
    PyObject *heap;
    PyObject *ready;
    PyObject *seq_iter;
    PyObject *rng;
    PyObject *end0, *end1;
    PyObject *deliver0, *deliver1;  /* the ends' Deliver callables */
    PyObject *pending;           /* link._pending (list, mutated in place) */
    PyObject *freelist;          /* link._free (list) */
    PyObject *ready_append;      /* ready.append, cached */
} TransmitObj;

static int deliver_impl(DeliverObj *d, PyObject *msg);
static int receive_impl(ReceiveObj *rc, PyObject *msg);
static int finish_impl(FinishObj *f);
static int process_impl(ProcessObj *p, PyObject *msg);
static int transmit_impl(TransmitObj *t, PyObject *origin, PyObject *msg);
/* defined after the SlotTransmit kernel (it fuses into it) */
static int fsm_tx(PyObject *slot, PyObject *sig);

/* ------------------------------------------------------------------ */
/* node arming (shared by Receive and Finish)                          */
/* ------------------------------------------------------------------ */

/* Schedule node._finish_cb to run `cost` seconds from now, re-arming
 * the node's singleton stimulus event when it has fired (the _busy
 * flag guarantees at most one is in flight).  Mirrors Node._arm. */
static int
arm_node(PyObject *node, PyObject *loop, PyObject *heap, PyObject *ready,
         PyObject *ready_append, PyObject *seq_iter, PyObject *finish_cb)
{
    double now, when, cost;
    long long seq;
    PyObject *ev_obj;
    CEvent *ev = NULL;
    int st;

    if (get_attr_double(loop, S._now, &now) < 0)
        return -1;
    /* cost is read per arm, not cached: tests and scenarios may retune
     * a node's processing cost after construction */
    if (get_attr_double(node, S.cost, &cost) < 0)
        return -1;
    when = now + cost;
    seq = next_seq(seq_iter);
    if (seq < 0 && PyErr_Occurred())
        return -1;
    ev_obj = PyObject_GetAttr(node, S._stim_event);
    if (ev_obj == NULL)
        return -1;
    if (CEvent_CheckExact(ev_obj)) {
        CEvent *c = (CEvent *)ev_obj;
        if (c->loop == NULL && !c->cancelled)
            ev = c;
    }
    if (ev != NULL) {
        ev->time = when;
        ev->seq = seq;
        Py_INCREF(loop);
        ev->loop = loop;
    }
    else {
        Py_DECREF(ev_obj);
        ev = cevent_make(when, 0, seq, finish_cb, g_empty_tuple, loop);
        if (ev == NULL)
            return -1;
        ev_obj = (PyObject *)ev;
        if (PyObject_SetAttr(node, S._stim_event, ev_obj) < 0) {
            Py_DECREF(ev_obj);
            return -1;
        }
    }
    if (when == now) {
        PyObject *res = ready_append != NULL
            ? PyObject_CallOneArg(ready_append, ev_obj)
            : PyObject_CallMethodObjArgs(ready, S.append, ev_obj, NULL);
        st = (res == NULL) ? -1 : 0;
        Py_XDECREF(res);
    }
    else {
        st = heap_push(heap, ev_obj);
    }
    Py_DECREF(ev_obj);
    if (st < 0)
        return -1;
    return attr_add_ll(loop, S._live, 1, NULL);
}

/* ------------------------------------------------------------------ */
/* Deliver                                                             */
/* ------------------------------------------------------------------ */
static int
deliver_impl(DeliverObj *d, PyObject *msg)
{
    PyObject *recv;
    int down = get_attr_bool(d->link, S.down);
    int st;
    if (down < 0)
        return -1;
    if (down)
        return 0;
    recv = PyObject_GetAttr(d->end, S._receiver);
    if (recv == NULL)
        return -1;
    if (recv == Py_None) {
        Py_DECREF(recv);
        PyErr_Format(PyExc_RuntimeError,
                     "message delivered to a link end with no receiver: %R",
                     msg);
        return -1;
    }
    if (Py_TYPE(recv) == &ReceiveType) {
        st = receive_impl((ReceiveObj *)recv, msg);
    }
    else {
        PyObject *res = PyObject_CallOneArg(recv, msg);
        st = (res == NULL) ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(recv);
    return st;
}

static int
deliver_init(DeliverObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *end;
    if (!PyArg_ParseTuple(args, "O", &end))
        return -1;
    Py_INCREF(end);
    Py_XSETREF(self->end, end);
    Py_XSETREF(self->link, PyObject_GetAttr(end, S._link));
    if (self->link == NULL)
        return -1;
    return 0;
}

static PyObject *
deliver_call(DeliverObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg;
    if (!PyArg_ParseTuple(args, "O", &msg))
        return NULL;
    if (deliver_impl(self, msg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
deliver_traverse(DeliverObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->end);
    Py_VISIT(self->link);
    return 0;
}

static int
deliver_clear(DeliverObj *self)
{
    Py_CLEAR(self->end);
    Py_CLEAR(self->link);
    return 0;
}

static void
deliver_dealloc(DeliverObj *self)
{
    PyObject_GC_UnTrack(self);
    deliver_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject DeliverType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.Deliver",
    .tp_basicsize = sizeof(DeliverObj),
    .tp_dealloc = (destructor)deliver_dealloc,
    .tp_call = (ternaryfunc)deliver_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled LinkEnd._deliver twin (delivery event callback).",
    .tp_traverse = (traverseproc)deliver_traverse,
    .tp_clear = (inquiry)deliver_clear,
    .tp_init = (initproc)deliver_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Receive                                                             */
/* ------------------------------------------------------------------ */
static int
receive_impl(ReceiveObj *rc, PyObject *msg)
{
    PyObject *margs, *thunk, *res;
    int flag;

    flag = get_attr_bool(rc->node, S.offline);
    if (flag < 0)
        return -1;
    if (flag)
        return attr_add_ll(rc->node, S.dropped_while_offline, 1, NULL);
    margs = PyTuple_Pack(1, msg);
    if (margs == NULL)
        return -1;
    thunk = PyTuple_Pack(2, rc->process_fn, margs);
    Py_DECREF(margs);
    if (thunk == NULL)
        return -1;
    res = PyObject_CallOneArg(rc->inbox_append, thunk);
    Py_DECREF(thunk);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    flag = get_attr_bool(rc->node, S._busy);
    if (flag < 0)
        return -1;
    if (!flag) {
        if (PyObject_SetAttr(rc->node, S._busy, Py_True) < 0)
            return -1;
        return arm_node(rc->node, rc->loop, rc->heap, rc->ready,
                        rc->ready_append, rc->seq_iter, rc->finish_cb);
    }
    return 0;
}

static int
receive_init(ReceiveObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *chend;
    if (!PyArg_ParseTuple(args, "O", &chend))
        return -1;
    Py_INCREF(chend);
    Py_XSETREF(self->chend, chend);
    Py_XSETREF(self->node, PyObject_GetAttr(chend, S._node));
    if (self->node == NULL)
        return -1;
    Py_XSETREF(self->loop, PyObject_GetAttr(chend, S._loop));
    if (self->loop == NULL)
        return -1;
    Py_XSETREF(self->heap, PyObject_GetAttr(self->loop, S._heap));
    if (self->heap == NULL)
        return -1;
    Py_XSETREF(self->ready, PyObject_GetAttr(self->loop, S._ready));
    if (self->ready == NULL)
        return -1;
    Py_XSETREF(self->inbox, PyObject_GetAttr(self->node, S._inbox));
    if (self->inbox == NULL)
        return -1;
    Py_XSETREF(self->seq_iter, PyObject_GetAttr(self->loop, S._seq));
    if (self->seq_iter == NULL)
        return -1;
    Py_XSETREF(self->process_fn, PyObject_GetAttr(chend, S._process_fn));
    if (self->process_fn == NULL)
        return -1;
    Py_XSETREF(self->finish_cb, PyObject_GetAttr(self->node, S._finish_cb));
    if (self->finish_cb == NULL)
        return -1;
    Py_XSETREF(self->inbox_append, PyObject_GetAttr(self->inbox, S.append));
    if (self->inbox_append == NULL)
        return -1;
    Py_XSETREF(self->ready_append, PyObject_GetAttr(self->ready, S.append));
    if (self->ready_append == NULL)
        return -1;
    return 0;
}

static PyObject *
receive_call(ReceiveObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg;
    if (!PyArg_ParseTuple(args, "O", &msg))
        return NULL;
    if (receive_impl(self, msg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
receive_traverse(ReceiveObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->chend);
    Py_VISIT(self->node);
    Py_VISIT(self->loop);
    Py_VISIT(self->heap);
    Py_VISIT(self->ready);
    Py_VISIT(self->inbox);
    Py_VISIT(self->seq_iter);
    Py_VISIT(self->process_fn);
    Py_VISIT(self->finish_cb);
    Py_VISIT(self->inbox_append);
    Py_VISIT(self->ready_append);
    return 0;
}

static int
receive_clear(ReceiveObj *self)
{
    Py_CLEAR(self->chend);
    Py_CLEAR(self->node);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->heap);
    Py_CLEAR(self->ready);
    Py_CLEAR(self->inbox);
    Py_CLEAR(self->seq_iter);
    Py_CLEAR(self->process_fn);
    Py_CLEAR(self->finish_cb);
    Py_CLEAR(self->inbox_append);
    Py_CLEAR(self->ready_append);
    return 0;
}

static void
receive_dealloc(ReceiveObj *self)
{
    PyObject_GC_UnTrack(self);
    receive_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject ReceiveType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.Receive",
    .tp_basicsize = sizeof(ReceiveObj),
    .tp_dealloc = (destructor)receive_dealloc,
    .tp_call = (ternaryfunc)receive_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled ChannelEnd._receive twin (wire receiver).",
    .tp_traverse = (traverseproc)receive_traverse,
    .tp_clear = (inquiry)receive_clear,
    .tp_init = (initproc)receive_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Finish                                                              */
/* ------------------------------------------------------------------ */
static int
finish_impl(FinishObj *f)
{
    PyObject *thunk, *handler, *hargs;
    Py_ssize_t remaining;
    int st = 0;

    thunk = PyObject_CallNoArgs(f->inbox_popleft);
    if (thunk == NULL)
        return -1;
    if (!PyTuple_Check(thunk) || PyTuple_GET_SIZE(thunk) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "node inbox entries must be (handler, args) tuples");
        Py_DECREF(thunk);
        return -1;
    }
    if (attr_add_ll(f->node, S.handled, 1, NULL) < 0) {
        Py_DECREF(thunk);
        return -1;
    }
    handler = PyTuple_GET_ITEM(thunk, 0);
    hargs = PyTuple_GET_ITEM(thunk, 1);
    if (Py_TYPE(handler) == &ProcessType && PyTuple_Check(hargs) &&
        PyTuple_GET_SIZE(hargs) == 1) {
        st = process_impl((ProcessObj *)handler,
                          PyTuple_GET_ITEM(hargs, 0));
    }
    else {
        PyObject *res = PyObject_CallObject(handler, hargs);
        st = (res == NULL) ? -1 : 0;
        Py_XDECREF(res);
    }
    /* finally: re-arm or go idle, preserving any in-flight exception */
    {
        PyObject *etype = NULL, *eval = NULL, *etb = NULL;
        if (st < 0)
            PyErr_Fetch(&etype, &eval, &etb);
        remaining = PyObject_Length(f->inbox);
        if (remaining < 0) {
            PyErr_Clear();
            remaining = 0;
        }
        if (remaining > 0) {
            if (arm_node(f->node, f->loop, f->heap, f->ready,
                         f->ready_append, f->seq_iter,
                         (PyObject *)f) < 0) {
                if (st < 0) {
                    /* keep the original exception */
                    PyErr_Clear();
                }
                else {
                    st = -1;
                    PyErr_Fetch(&etype, &eval, &etb);
                }
            }
        }
        else {
            if (PyObject_SetAttr(f->node, S._busy, Py_False) < 0) {
                if (st < 0)
                    PyErr_Clear();
                else {
                    st = -1;
                    PyErr_Fetch(&etype, &eval, &etb);
                }
            }
        }
        if (st < 0)
            PyErr_Restore(etype, eval, etb);
    }
    Py_DECREF(thunk);
    return st;
}

static int
finish_init(FinishObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *node;
    if (!PyArg_ParseTuple(args, "O", &node))
        return -1;
    Py_INCREF(node);
    Py_XSETREF(self->node, node);
    Py_XSETREF(self->loop, PyObject_GetAttr(node, S.loop));
    if (self->loop == NULL)
        return -1;
    Py_XSETREF(self->heap, PyObject_GetAttr(self->loop, S._heap));
    if (self->heap == NULL)
        return -1;
    Py_XSETREF(self->ready, PyObject_GetAttr(self->loop, S._ready));
    if (self->ready == NULL)
        return -1;
    Py_XSETREF(self->inbox, PyObject_GetAttr(node, S._inbox));
    if (self->inbox == NULL)
        return -1;
    Py_XSETREF(self->seq_iter, PyObject_GetAttr(self->loop, S._seq));
    if (self->seq_iter == NULL)
        return -1;
    Py_XSETREF(self->inbox_popleft,
               PyObject_GetAttr(self->inbox, S.popleft));
    if (self->inbox_popleft == NULL)
        return -1;
    Py_XSETREF(self->ready_append, PyObject_GetAttr(self->ready, S.append));
    if (self->ready_append == NULL)
        return -1;
    return 0;
}

static PyObject *
finish_call(FinishObj *self, PyObject *args, PyObject *kwds)
{
    if (args != NULL && PyTuple_GET_SIZE(args) != 0) {
        PyErr_SetString(PyExc_TypeError, "Finish takes no arguments");
        return NULL;
    }
    if (finish_impl(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
finish_traverse(FinishObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->node);
    Py_VISIT(self->loop);
    Py_VISIT(self->heap);
    Py_VISIT(self->ready);
    Py_VISIT(self->inbox);
    Py_VISIT(self->seq_iter);
    Py_VISIT(self->inbox_popleft);
    Py_VISIT(self->ready_append);
    return 0;
}

static int
finish_clear(FinishObj *self)
{
    Py_CLEAR(self->node);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->heap);
    Py_CLEAR(self->ready);
    Py_CLEAR(self->inbox);
    Py_CLEAR(self->seq_iter);
    Py_CLEAR(self->inbox_popleft);
    Py_CLEAR(self->ready_append);
    return 0;
}

static void
finish_dealloc(FinishObj *self)
{
    PyObject_GC_UnTrack(self);
    finish_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject FinishType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.Finish",
    .tp_basicsize = sizeof(FinishObj),
    .tp_dealloc = (destructor)finish_dealloc,
    .tp_call = (ternaryfunc)finish_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled Node._finish_one twin (stimulus event callback).",
    .tp_traverse = (traverseproc)finish_traverse,
    .tp_clear = (inquiry)finish_clear,
    .tp_init = (initproc)finish_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* slot fields                                                         */
/* ------------------------------------------------------------------ */
/* Slot declares __slots__, so every field the slot kernels read or
 * write is an object pointer at a fixed offset in an exact Slot
 * instance: read and written here the way its member descriptor does,
 * without an attribute lookup.  The offsets are resolved once, in
 * ensure_protocol, which refuses a Slot whose fields are not plain
 * object members.  Only exact Slot instances may be passed. */
enum {
    SF_STATE, SF_MEDIUM, SF_RD, SF_LD, SF_SEL_RECV, SF_SEL_SENT,
    SF_FAILED, SF_RETRANSMIT, SF_STRICT, SF_LOOP, SF_END, SF_TX,
    SF_RETX_KIND, SF_RETX_TIMER, SF_STALE_TIMER, SF_BUSY_TIMER,
    SF_BUSY_MEDIUM, SF_BUSY_DESC, SF_BUSY_ATTEMPTS, SF_SIGNALS_RECEIVED,
    SF_SIGNALS_SENT, SF_RACE_DROPS, SF_STALE_DROPS, SF_RETX_SIGNAL,
    SF_DUPLICATE_DROPS, SF_INVALID_DROPS, SF_COUNT
};
static Py_ssize_t g_slot_off[SF_COUNT];
static PyObject *g_one;              /* the int 1, for counter bumps */

static int
resolve_slot_fields(void)
{
    PyObject *names[SF_COUNT] = {
        S.state, S.medium, S.remote_descriptor, S.local_descriptor,
        S.selector_received, S.selector_sent, S.failed, S.retransmit,
        S.strict, S._loop, S._end, S._tx, S._retx_kind,
        S._retx_timer, S._stale_timer, S._busy_timer, S._busy_medium,
        S._busy_descriptor, S._busy_attempts, S.signals_received,
        S.signals_sent, S.race_drops, S.stale_drops, S._retx_signal,
        S.duplicate_drops, S.invalid_drops};
    int f;
    for (f = 0; f < SF_COUNT; f++) {
        PyObject *d = PyObject_GetAttr(g_slot_type, names[f]);
        int ok;
        if (d == NULL)
            return -1;
        ok = Py_IS_TYPE(d, &PyMemberDescr_Type)
            && ((PyMemberDescrObject *)d)->d_member->type == T_OBJECT_EX;
        if (ok)
            g_slot_off[f] = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_DECREF(d);
        if (!ok) {
            PyErr_Format(PyExc_TypeError,
                         "Slot.%U must be a __slots__ member", names[f]);
            return -1;
        }
    }
    g_one = PyLong_FromLong(1);
    return g_one == NULL ? -1 : 0;
}

/* The five protocol states, by identity with the slot module's
 * constants; -1 for anything else (the reference owns that failure). */
enum { ST_CLOSED, ST_OPENING, ST_OPENED, ST_FLOWING, ST_CLOSING };

#define ST_LIVE(st) ((st) == ST_OPENING || (st) == ST_OPENED \
                     || (st) == ST_FLOWING)

static int
slot_state_id(PyObject *state)
{
    if (state == g_state_closed)
        return ST_CLOSED;
    if (state == g_state_opening)
        return ST_OPENING;
    if (state == g_state_opened)
        return ST_OPENED;
    if (state == g_state_flowing)
        return ST_FLOWING;
    if (state == g_state_closing)
        return ST_CLOSING;
    return -1;
}

/* slot.<f>, borrowed; NULL when unset (the attribute would raise) */
static inline PyObject *
slot_get(PyObject *slot, int f)
{
    return *(PyObject **)((char *)slot + g_slot_off[f]);
}

/* slot.<f> = v */
static inline void
slot_put(PyObject *slot, int f, PyObject *v)
{
    PyObject **addr = (PyObject **)((char *)slot + g_slot_off[f]);
    PyObject *old = *addr;
    Py_INCREF(v);
    *addr = v;
    Py_XDECREF(old);
}

/* slot.<f> += 1 */
static int
slot_incr(PyObject *slot, int f)
{
    PyObject *v = slot_get(slot, f), *nv;
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "slot counter unset");
        return -1;
    }
    nv = PyNumber_Add(v, g_one);
    if (nv == NULL)
        return -1;
    slot_put(slot, f, nv);
    Py_DECREF(nv);
    return 0;
}

/* ------------------------------------------------------------------ */
/* slot FSM fast path                                                  */
/* ------------------------------------------------------------------ */
/* The receive transitions of a strict slot are executed here without
 * entering a Python frame: the legal ones of Fig. 9 and, for a robust
 * slot (one with a RetransmitPolicy), the duplicate absorption and the
 * invalid-signal drops of the reference handlers, and Slot.receive's
 * retransmit-acknowledgement epilogue.  The retransmission and
 * staleness timers stay Python Events on node.set_timer: the kernel
 * cancels them by calling the reference _cancel_* methods.  Anything
 * outside that configuration -- lenient or failed slots, an armed
 * busy-retry timer, Busy signals, illegal receives at a reliable slot
 * (the reference raises), traced loops, arena poisoning -- falls back
 * to the reference handlers in protocol/slot.py, which stay the
 * specification. */

/* slot.<dst> = sig.<src> */
static int
fsm_copy_attr(PyObject *slot, int dst, PyObject *sig, PyObject *src)
{
    PyObject *v = PyObject_GetAttr(sig, src);
    if (v == NULL)
        return -1;
    slot_put(slot, dst, v);
    Py_DECREF(v);
    return 0;
}

/* Build sig_type(a[, b]) through its class and transmit it; returns
 * the sent signal (new reference: a retransmission timer re-sends this
 * very object) or NULL + PyErr. */
static PyObject *
fsm_tx_new(PyObject *slot, PyObject *sig_type, PyObject *a, PyObject *b)
{
    PyObject *args[2] = {a, b};
    PyObject *sig = PyObject_Vectorcall(sig_type, args, b == NULL ? 1 : 2,
                                        NULL);
    if (sig != NULL && fsm_tx(slot, sig) < 0)
        Py_CLEAR(sig);
    return sig;
}

/* slot.<name>([a[, b]]): a reference Slot method (the timer
 * machinery).  The audit's surface extractor reads the method names
 * off these calls. */
static int
slot_call(PyObject *slot, PyObject *name, PyObject *a, PyObject *b)
{
    PyObject *args[3] = {slot, a, b};
    PyObject *res = PyObject_VectorcallMethod(
        name, args, a == NULL ? 1 : b == NULL ? 2 : 3, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The reference _cancel_retx / _cancel_stale / _cancel_busy, each
 * called only when it has a field to clear: with all of them None the
 * method is a no-op, which on a reliable slot it always is. */
static int
slot_cancel_retx(PyObject *slot)
{
    if (slot_get(slot, SF_RETX_TIMER) == Py_None
        && slot_get(slot, SF_RETX_SIGNAL) == Py_None
        && slot_get(slot, SF_RETX_KIND) == Py_None)
        return 0;
    return slot_call(slot, S._cancel_retx, NULL, NULL);
}

static int
slot_cancel_stale(PyObject *slot)
{
    if (slot_get(slot, SF_STALE_TIMER) == Py_None)
        return 0;
    return slot_call(slot, S._cancel_stale, NULL, NULL);
}

static int
slot_cancel_busy(PyObject *slot)
{
    if (slot_get(slot, SF_BUSY_TIMER) == Py_None
        && slot_get(slot, SF_BUSY_MEDIUM) == Py_None
        && slot_get(slot, SF_BUSY_DESC) == Py_None)
        return 0;
    return slot_call(slot, S._cancel_busy, NULL, NULL);
}

/* The C twin of Slot._reset_to_closed: state to closed, the
 * descriptor/selector fields to None, then the three timer cancels in
 * the reference order.  Slot states are only set untraced here, so no
 * SlotTransition record is due. */
static int
fsm_reset_to_closed(PyObject *slot)
{
    slot_put(slot, SF_STATE, g_state_closed);
    slot_put(slot, SF_MEDIUM, Py_None);
    slot_put(slot, SF_RD, Py_None);
    slot_put(slot, SF_LD, Py_None);
    slot_put(slot, SF_SEL_RECV, Py_None);
    slot_put(slot, SF_SEL_SENT, Py_None);
    if (slot_cancel_retx(slot) < 0 || slot_cancel_stale(slot) < 0
        || slot_cancel_busy(slot) < 0)
        return -1;
    return 0;
}

/* Slot.receive's epilogue: an unacknowledged open is acknowledged by
 * whatever receive moved the slot out of opening; a close only by
 * reaching closed. */
static int
fsm_retx_ack(PyObject *slot)
{
    PyObject *kind = slot_get(slot, SF_RETX_KIND);
    PyObject *state = slot_get(slot, SF_STATE);
    int eq, acked;

    if (kind == NULL || kind == Py_None)
        return 0;
    if (state == NULL) {
        PyErr_SetString(PyExc_AttributeError, "Slot.state is unset");
        return -1;
    }
    eq = PyObject_RichCompareBool(kind, g_kind_open, Py_EQ);
    if (eq < 0)
        return -1;
    if (eq)
        acked = PyObject_RichCompareBool(state, g_state_opening, Py_NE);
    else {
        eq = PyObject_RichCompareBool(kind, g_kind_close, Py_EQ);
        if (eq < 0)
            return -1;
        acked = eq ? PyObject_RichCompareBool(state, g_state_closed, Py_EQ)
            : 0;
    }
    if (acked < 0)
        return -1;
    return acked ? slot_call(slot, S._cancel_retx, NULL, NULL) : 0;
}

/* Does the selector answer desc (``answers is desc.id or ==``)? */
static int
sel_answers(PyObject *selector, PyObject *desc)
{
    PyObject *answers, *did;
    int st;
    answers = PyObject_GetAttr(selector, S.answers);
    if (answers == NULL)
        return -1;
    did = PyObject_GetAttr(desc, S.id);
    if (did == NULL) {
        Py_DECREF(answers);
        return -1;
    }
    st = (answers == did) ? 1
        : PyObject_RichCompareBool(answers, did, Py_EQ);
    Py_DECREF(answers);
    Py_DECREF(did);
    return st;
}

/* A robust slot's repeat test, ``signal.descriptor.id ==
 * self.remote_descriptor.id`` guarded by ``remote_descriptor is not
 * None``: 1 same episode, 0 not, -1 + PyErr. */
static int
fsm_same_episode(PyObject *slot, PyObject *sig)
{
    PyObject *rd = slot_get(slot, SF_RD), *desc, *a, *b;
    int st;
    if (rd == NULL || rd == Py_None)
        return 0;
    desc = PyObject_GetAttr(sig, S.descriptor);
    if (desc == NULL)
        return -1;
    a = PyObject_GetAttr(desc, S.id);
    Py_DECREF(desc);
    if (a == NULL)
        return -1;
    b = PyObject_GetAttr(rd, S.id);
    if (b == NULL) {
        Py_DECREF(a);
        return -1;
    }
    st = PyObject_RichCompareBool(a, b, Py_EQ);
    Py_DECREF(a);
    Py_DECREF(b);
    return st;
}

/* What the reference handler does with one (state, signal) pair. */
enum {
    FSM_REFERENCE,      /* run the Python handler instead */
    FSM_OPENED,         /* medium + remote descriptor, to opened */
    FSM_RACE_DROP,      /* the initiator ignores the losing open */
    FSM_FLOWING,        /* remote descriptor, to flowing */
    FSM_ACK_CLOSE,      /* closeack, reset to closed */
    FSM_DESCRIBED,      /* remote descriptor */
    FSM_SELECTED,       /* selector received (+ stale timer cancel) */
    FSM_CROSS_CLOSE,    /* closeack, keep closing */
    FSM_CLOSED,         /* our close acknowledged: reset to closed */
    FSM_STALE,          /* drained while closing */
    FSM_DUPLICATE,      /* robust: a repeat, absorbed */
    FSM_RE_CLOSEACK,    /* robust: a repeat close, re-acknowledged */
    FSM_RE_OACK,        /* robust: a repeat open, re-oacked */
    FSM_INVALID         /* robust: out-of-place, dropped */
};

/* Decide without side effects (check first, then commit).  *cancel
 * reports a select answering the local descriptor while the staleness
 * timer runs.  -1 + PyErr when a probe raised: the reference re-raises
 * it in context. */
static int
fsm_classify(PyObject *slot, PyObject *sig, int st_id, int *cancel)
{
    PyObject *tp = (PyObject *)Py_TYPE(sig);
    int robust = slot_get(slot, SF_RETRANSMIT) != Py_None, same;

    switch (st_id) {
    case ST_CLOSED:
        if (tp == g_sig_open)
            return FSM_OPENED;
        if (!robust)
            return FSM_REFERENCE;       /* illegal: the reference raises */
        return tp == g_sig_close ? FSM_RE_CLOSEACK : FSM_DUPLICATE;
    case ST_OPENING:
        if (tp == g_sig_open) {
            /* open/open race (Sec. VI-B): the initiator wins */
            PyObject *end = slot_get(slot, SF_END);
            long long side;
            if (end == NULL)
                return FSM_REFERENCE;
            if (get_attr_ll(end, S.side, &side) < 0)
                return -1;
            return side == 0 ? FSM_RACE_DROP : FSM_OPENED;
        }
        if (tp == g_sig_oack)
            return FSM_FLOWING;
        if (tp == g_sig_close)
            return FSM_ACK_CLOSE;
        if (!robust)
            return FSM_REFERENCE;
        return tp == g_sig_closeack ? FSM_DUPLICATE : FSM_INVALID;
    case ST_OPENED:
        if (tp == g_sig_close)
            return FSM_ACK_CLOSE;
        if (!robust)
            return FSM_REFERENCE;
        if (tp != g_sig_open)
            return FSM_INVALID;
        same = fsm_same_episode(slot, sig);
        return same < 0 ? -1 : same ? FSM_DUPLICATE : FSM_INVALID;
    case ST_FLOWING:
        if (tp == g_sig_describe)
            return FSM_DESCRIBED;
        if (tp == g_sig_select) {
            PyObject *ld = slot_get(slot, SF_LD), *selector;
            *cancel = 0;
            if (slot_get(slot, SF_STALE_TIMER) != Py_None
                && ld != NULL && ld != Py_None) {
                selector = PyObject_GetAttr(sig, S.selector);
                if (selector == NULL)
                    return -1;
                *cancel = sel_answers(selector, ld);
                Py_DECREF(selector);
                if (*cancel < 0)
                    return -1;
            }
            return FSM_SELECTED;
        }
        if (tp == g_sig_close)
            return FSM_ACK_CLOSE;
        if (!robust)
            return FSM_REFERENCE;
        if (tp == g_sig_open || tp == g_sig_oack) {
            same = fsm_same_episode(slot, sig);
            if (same <= 0)
                return same < 0 ? -1 : FSM_INVALID;
            return tp == g_sig_open ? FSM_RE_OACK : FSM_DUPLICATE;
        }
        return FSM_DUPLICATE;           /* closeack */
    case ST_CLOSING:
        if (tp == g_sig_close)
            return FSM_CROSS_CLOSE;
        if (tp == g_sig_closeack)
            return FSM_CLOSED;
        return FSM_STALE;   /* sent before the peer saw our close */
    }
    return FSM_REFERENCE;
}

/* Try to run one receive entirely in C.  Caller guarantees an exact
 * Slot, an untraced loop and arena poisoning off.  *handled is set
 * when the (state, signal, mode) combination was executed here; every
 * other combination leaves *handled == 0 and falls through to the
 * reference handlers.  Returns the accepted verdict (0/1) or -1 +
 * PyErr. */
static int
slot_fsm_fast(PyObject *slot, PyObject *sig, PyObject *state,
              int *handled)
{
    PyObject *tp = (PyObject *)Py_TYPE(sig), *ld, *sent;
    int st_id = slot_state_id(state), action, cancel = 0, accepted = 0;

    *handled = 0;
    /* Gate: one of the six base signals at a strict, not failed slot
     * with no busy retry pending. */
    if (st_id < 0
        || (tp != g_sig_open && tp != g_sig_oack && tp != g_sig_close
            && tp != g_sig_closeack && tp != g_sig_describe
            && tp != g_sig_select)
        || slot_get(slot, SF_STRICT) != Py_True
        || slot_get(slot, SF_FAILED) != Py_False
        || slot_get(slot, SF_BUSY_TIMER) != Py_None
        || slot_get(slot, SF_RETRANSMIT) == NULL)
        return 0;
    action = fsm_classify(slot, sig, st_id, &cancel);
    if (action < 0) {
        if (!PyErr_ExceptionMatches(PyExc_Exception))
            return -1;
        PyErr_Clear();
        return 0;
    }
    if (action == FSM_REFERENCE)
        return 0;

    *handled = 1;
    if (slot_incr(slot, SF_SIGNALS_RECEIVED) < 0)
        return -1;
    switch (action) {
    case FSM_OPENED:
        if (fsm_copy_attr(slot, SF_MEDIUM, sig, S.medium) < 0
            || fsm_copy_attr(slot, SF_RD, sig, S.descriptor) < 0)
            return -1;
        slot_put(slot, SF_STATE, g_state_opened);
        accepted = 1;
        break;
    case FSM_RACE_DROP:
        if (slot_incr(slot, SF_RACE_DROPS) < 0)
            return -1;
        break;
    case FSM_FLOWING:
        if (fsm_copy_attr(slot, SF_RD, sig, S.descriptor) < 0)
            return -1;
        slot_put(slot, SF_STATE, g_state_flowing);
        accepted = 1;
        break;
    case FSM_ACK_CLOSE:
        if (fsm_tx(slot, g_closeack) < 0
            || fsm_reset_to_closed(slot) < 0)
            return -1;
        accepted = 1;
        break;
    case FSM_DESCRIBED:
        if (fsm_copy_attr(slot, SF_RD, sig, S.descriptor) < 0)
            return -1;
        accepted = 1;
        break;
    case FSM_SELECTED:
        if (fsm_copy_attr(slot, SF_SEL_RECV, sig, S.selector) < 0
            || (cancel && slot_call(slot, S._cancel_stale, NULL, NULL) < 0))
            return -1;
        accepted = 1;
        break;
    case FSM_CROSS_CLOSE:
        if (fsm_tx(slot, g_closeack) < 0)
            return -1;
        accepted = 1;
        break;
    case FSM_CLOSED:
        if (fsm_reset_to_closed(slot) < 0)
            return -1;
        accepted = 1;
        break;
    case FSM_STALE:
        if (slot_incr(slot, SF_STALE_DROPS) < 0)
            return -1;
        break;
    case FSM_DUPLICATE:
        if (slot_incr(slot, SF_DUPLICATE_DROPS) < 0)
            return -1;
        break;
    case FSM_RE_CLOSEACK:
        if (slot_incr(slot, SF_DUPLICATE_DROPS) < 0
            || fsm_tx(slot, g_closeack) < 0)
            return -1;
        break;
    case FSM_RE_OACK:
        if (slot_incr(slot, SF_DUPLICATE_DROPS) < 0)
            return -1;
        ld = slot_get(slot, SF_LD);
        if (ld != NULL && ld != Py_None) {
            sent = fsm_tx_new(slot, g_sig_oack, ld, NULL);
            if (sent == NULL)
                return -1;
            Py_DECREF(sent);
        }
        break;
    case FSM_INVALID:
        if (slot_incr(slot, SF_INVALID_DROPS) < 0)
            return -1;
        break;
    }
    return fsm_retx_ack(slot) < 0 ? -1 : accepted;
}

/* ------------------------------------------------------------------ */
/* Process                                                             */
/* ------------------------------------------------------------------ */
/* Inline of Slot.receive's dispatch shell: counter bump, per-state
 * handler dispatch, and the retransmission-acknowledged epilogue.
 * Fast-path signals are executed by slot_fsm_fast above without a
 * Python frame.  Returns 0/1 (the handler's accepted verdict) or -1 +
 * PyErr.  Unknown states fall back to the Python method, which owns
 * the descriptive failure. */
static int
slot_receive_inline(PyObject *slot, PyObject *sig)
{
    PyObject *state, *handler, *res;
    int accepted;

    state = PyObject_GetAttr(slot, S.state);
    if (state == NULL)
        return -1;
    if (!g_arena_poison) {
        int fsm_handled = 0;
        accepted = slot_fsm_fast(slot, sig, state, &fsm_handled);
        if (fsm_handled || accepted < 0) {
            Py_DECREF(state);
            return accepted;
        }
    }
    handler = PyDict_GetItemWithError(g_dispatch, state);  /* borrowed */
    Py_DECREF(state);
    if (handler == NULL) {
        if (PyErr_Occurred())
            return -1;
        res = PyObject_CallFunctionObjArgs(g_slot_receive, slot, sig, NULL);
        if (res == NULL)
            return -1;
        accepted = PyObject_IsTrue(res);
        Py_DECREF(res);
        return accepted;
    }
    if (slot_incr(slot, SF_SIGNALS_RECEIVED) < 0)
        return -1;
    res = PyObject_CallFunctionObjArgs(handler, slot, sig, NULL);
    if (res == NULL)
        return -1;
    accepted = PyObject_IsTrue(res);
    Py_DECREF(res);
    if (accepted < 0)
        return -1;
    return fsm_retx_ack(slot) < 0 ? -1 : accepted;
}

/* ------------------------------------------------------------------ */
/* FlowLink kernel                                                     */
/* ------------------------------------------------------------------ */
/* C twin of FlowLink.goal_receive (core/flowlink.py) together with the
 * _work / _open_through / _forward_select steps it calls and the
 * Slot.send_* calls those issue, for a flowlink of exact type FlowLink
 * whose two slots are strict, not failed and have no busy retry
 * pending.  On a robust slot the sends arm and cancel their timers by
 * calling the reference _arm_retx / _arm_stale / _cancel_stale in the
 * reference order (after the transmit, so the timer draws its event
 * seq after the delivery does, as in Python).
 *
 * Check first, then commit: the kernel runs the reference logic twice
 * over a shadow of the Python-visible state (slot protocol states,
 * media, the _utd/_reopen flags).  The check pass mutates nothing; it
 * proves every send legal in its slot's state at that point and
 * reports any case where the reference would raise or call back into
 * Python (medium mismatch, undescribed open-through minting a noMedia
 * placeholder, a selector that fails validate_against, ...).  Only
 * then does the commit pass replay the same decisions, performing the
 * slot field updates, dict writes, counter bumps, transmits and timer
 * arming in the reference order.  A signal the check pass rejects goes
 * to the Python goal_receive with nothing touched. */

/* slot is borrowed; rd and medium are owned by FlCtx.refs for the
 * duration of the call */
typedef struct {
    PyObject *slot;
    PyObject *rd;       /* remote_descriptor (Py_None if undescribed) */
    PyObject *medium;   /* Py_None until opened */
    int state, utd, reopen;
    int robust;         /* carries a RetransmitPolicy: sends arm timers */
} FlSide;

typedef struct {
    PyObject *fl, *utd, *reopen;    /* utd/reopen: borrowed from refs */
    PyObject *refs[7];      /* fl.slots, _utd, _reopen, 2 per side */
    int nrefs;
    FlSide side[2];
    int commit;
    int fresh;          /* select freshness, decided by the check pass */
} FlCtx;

/* Take a new reference into the context; returns it (borrowed). */
static PyObject *
fl_keep(FlCtx *c, PyObject *obj)
{
    if (obj != NULL)
        c->refs[c->nrefs++] = obj;
    return obj;
}

static void
fl_release(FlCtx *c)
{
    while (c->nrefs > 0)
        Py_DECREF(c->refs[--c->nrefs]);
}

/* A check-pass verdict reached in the commit pass means the two passes
 * diverged -- a kernel bug, never a fallback (state is half-applied). */
static int
fl_reject(FlCtx *c)
{
    if (!c->commit)
        return 0;
    PyErr_SetString(PyExc_SystemError,
                    "flowlink kernel: commit diverged from its check");
    return -1;
}

/* Read one _utd/_reopen flag; only exact bools qualify. */
static int
fl_flag(PyObject *dict, PyObject *slot, int *out)
{
    PyObject *v = PyDict_GetItemWithError(dict, slot);   /* borrowed */
    if (v == Py_True)
        *out = 1;
    else if (v == Py_False)
        *out = 0;
    else
        return PyErr_Occurred() ? -1 : 0;
    return 1;
}

/* Snapshot one slot and apply the per-slot gates.  1 ok, 0 fallback. */
static int
fl_side(FlCtx *c, FlSide *s, PyObject *slot, PyObject *loop)
{
    PyObject *rd, *medium;

    if ((PyObject *)Py_TYPE(slot) != g_slot_type)
        return 0;
    s->slot = slot;
    /* strict, not failed, no busy retry pending, on the untraced loop */
    if (slot_get(slot, SF_LOOP) != loop
        || slot_get(slot, SF_RETRANSMIT) == NULL
        || slot_get(slot, SF_STRICT) != Py_True
        || slot_get(slot, SF_FAILED) != Py_False
        || slot_get(slot, SF_BUSY_TIMER) != Py_None)
        return 0;
    s->robust = slot_get(slot, SF_RETRANSMIT) != Py_None;
    s->state = slot_get(slot, SF_STATE) == NULL ? -1
        : slot_state_id(slot_get(slot, SF_STATE));
    rd = slot_get(slot, SF_RD);
    medium = slot_get(slot, SF_MEDIUM);
    if (s->state < 0 || rd == NULL || medium == NULL
        || slot_get(slot, SF_TX) == NULL)
        return 0;
    s->rd = fl_keep(c, Py_NewRef(rd));
    s->medium = fl_keep(c, Py_NewRef(medium));
    return 1;
}

/* Snapshot the flowlink and both slots; *idx is the receiving slot's
 * position in fl.slots.  1 ok, 0 fallback, -1 error. */
static int
fl_snapshot(FlCtx *c, PyObject *fl, PyObject *slot, PyObject *loop,
            int *idx)
{
    PyObject *slots;
    int flag, st, i;

    c->fl = fl;
    flag = get_attr_bool(fl, S.attached);
    if (flag <= 0)
        return flag;
    slots = fl_keep(c, PyObject_GetAttr(fl, S.slots));
    if (slots == NULL)
        return -1;
    if (!PyTuple_CheckExact(slots) || PyTuple_GET_SIZE(slots) != 2
        || PyTuple_GET_ITEM(slots, 0) == PyTuple_GET_ITEM(slots, 1))
        return 0;
    if (slot == PyTuple_GET_ITEM(slots, 0))
        *idx = 0;
    else if (slot == PyTuple_GET_ITEM(slots, 1))
        *idx = 1;
    else
        return 0;           /* other() raises ValueError */
    if ((st = fl_side(c, &c->side[0], PyTuple_GET_ITEM(slots, 0), loop))
            <= 0
        || (st = fl_side(c, &c->side[1], PyTuple_GET_ITEM(slots, 1), loop))
            <= 0)
        return st;
    if ((c->utd = fl_keep(c, PyObject_GetAttr(fl, S._utd))) == NULL
        || (c->reopen = fl_keep(c, PyObject_GetAttr(fl, S._reopen)))
            == NULL)
        return -1;
    if (!PyDict_CheckExact(c->utd) || !PyDict_CheckExact(c->reopen))
        return 0;
    for (i = 0; i < 2; i++) {
        FlSide *s = &c->side[i];
        if ((st = fl_flag(c->utd, s->slot, &s->utd)) <= 0
            || (st = fl_flag(c->reopen, s->slot, &s->reopen)) <= 0)
            return st;
    }
    return 1;
}

/* fl._utd[slot] = v / fl._reopen[slot] = v (shadow always, dict on
 * commit) */
static int
fl_set_flag(FlCtx *c, PyObject *dict, int i, int *field, int v)
{
    *field = v;
    if (!c->commit)
        return 0;
    return PyDict_SetItem(dict, c->side[i].slot, v ? Py_True : Py_False);
}

static int
fl_count(FlCtx *c, PyObject *name)
{
    return c->commit ? attr_add_ll(c->fl, name, 1, NULL) : 0;
}

/* Send a fresh sig_type(a[, b]) from side s; a robust slot then arms
 * its timer on it (_arm_stale, or _arm_retx(retx_kind, sig) when
 * retx_kind is given). */
static int
fl_tx_new(FlSide *s, PyObject *sig_type, PyObject *a, PyObject *b,
          PyObject *retx_kind)
{
    PyObject *sig = fsm_tx_new(s->slot, sig_type, a, b);
    int st = 0;
    if (sig == NULL)
        return -1;
    if (s->robust)
        st = retx_kind != NULL
            ? slot_call(s->slot, S._arm_retx, retx_kind, sig)
            : slot_call(s->slot, S._arm_stale, NULL, NULL);
    Py_DECREF(sig);
    return st;
}

/* Slot.send_open for a slot with no busy timer: 1 sent, 0 illegal
 * (check pass), -1 error. */
static int
fl_send_open(FlCtx *c, int i, PyObject *medium, PyObject *desc)
{
    FlSide *s = &c->side[i];
    PyObject *zero;
    if (s->state != ST_CLOSED)
        return fl_reject(c);
    s->state = ST_OPENING;
    s->medium = medium;
    if (!c->commit)
        return 1;
    slot_put(s->slot, SF_MEDIUM, medium);
    slot_put(s->slot, SF_LD, desc);
    slot_put(s->slot, SF_FAILED, Py_False);
    /* _cancel_busy with no timer armed, then the fresh busy budget */
    slot_put(s->slot, SF_BUSY_MEDIUM, Py_None);
    slot_put(s->slot, SF_BUSY_DESC, Py_None);
    zero = PyLong_FromLong(0);
    if (zero == NULL)
        return -1;
    slot_put(s->slot, SF_BUSY_ATTEMPTS, zero);
    Py_DECREF(zero);
    slot_put(s->slot, SF_STATE, g_state_opening);
    if (fl_tx_new(s, g_sig_open, medium, desc, g_kind_open) < 0)
        return -1;
    return 1;
}

static int
fl_send_oack(FlCtx *c, int i, PyObject *desc)
{
    FlSide *s = &c->side[i];
    if (s->state != ST_OPENED)
        return fl_reject(c);
    s->state = ST_FLOWING;
    if (!c->commit)
        return 1;
    slot_put(s->slot, SF_LD, desc);
    slot_put(s->slot, SF_STATE, g_state_flowing);
    if (fl_tx_new(s, g_sig_oack, desc, NULL, NULL) < 0)
        return -1;
    return 1;
}

static int
fl_send_close(FlCtx *c, int i)
{
    FlSide *s = &c->side[i];
    if (!ST_LIVE(s->state))
        return fl_reject(c);
    s->state = ST_CLOSING;
    if (!c->commit)
        return 1;
    slot_put(s->slot, SF_STATE, g_state_closing);
    if (slot_cancel_stale(s->slot) < 0
        || fsm_tx(s->slot, g_close) < 0
        || (s->robust
            && slot_call(s->slot, S._arm_retx, g_kind_close, g_close) < 0))
        return -1;
    return 1;
}

static int
fl_send_describe(FlCtx *c, int i, PyObject *desc)
{
    FlSide *s = &c->side[i];
    if (s->state != ST_FLOWING)
        return fl_reject(c);
    if (!c->commit)
        return 1;
    slot_put(s->slot, SF_LD, desc);
    if (fl_tx_new(s, g_sig_describe, desc, NULL, NULL) < 0)
        return -1;
    return 1;
}

/* Selector.validate_against(desc), for a selector already known to
 * answer desc: 1 passes, 0 would raise ProtocolError, -1 error. */
static int
fl_select_valid(PyObject *selector, PyObject *desc)
{
    PyObject *codec, *v;
    int real, no_media, st;

    codec = PyObject_GetAttr(selector, S.codec);
    if (codec == NULL)
        return -1;
    v = PyObject_GetAttr(codec, S.is_real);
    if (v == NULL) {
        Py_DECREF(codec);
        return -1;
    }
    real = (v == Py_True) ? 1 : (v == Py_False) ? 0 : -2;
    Py_DECREF(v);
    st = 0;
    if (real == 1) {
        v = PyObject_GetAttr(desc, S._no_media);
        no_media = (v == NULL) ? -1 : PyObject_IsTrue(v);
        Py_XDECREF(v);
        if (no_media < 0)
            st = -1;
        else if (!no_media) {
            v = PyObject_GetAttr(desc, S.codecs);
            if (v == NULL)
                st = -1;
            else {
                st = PySequence_Contains(v, codec);
                Py_DECREF(v);
            }
        }
    }
    else if (real == 0)
        st = 1;
    Py_DECREF(codec);
    return st;
}

static int
fl_send_select(FlCtx *c, int i, PyObject *selector)
{
    FlSide *s = &c->side[i];
    PyObject *sig;
    if (s->state != ST_FLOWING || s->rd == Py_None)
        return fl_reject(c);
    if (!c->commit)
        return fl_select_valid(selector, s->rd);
    slot_put(s->slot, SF_SEL_SENT, selector);
    sig = fsm_tx_new(s->slot, g_sig_select, selector, NULL);
    if (sig == NULL)
        return -1;
    Py_DECREF(sig);
    return 1;
}

/* FlowLink._open_through(slot i) when the peer is described. */
static int
fl_open_through(FlCtx *c, int i)
{
    FlSide *peer = &c->side[1 - i];
    int st;
    if (peer->rd == Py_None || peer->medium == Py_None)
        return fl_reject(c);   /* noMedia placeholder / assert */
    if (fl_set_flag(c, c->utd, i, &c->side[i].utd, 1) < 0)
        return -1;
    st = fl_send_open(c, i, peer->medium, peer->rd);
    if (st <= 0)
        return st;
    return fl_count(c, S.opens_sent) < 0 ? -1 : 1;
}

/* FlowLink._work */
static int
fl_work(FlCtx *c)
{
    int i, st;
    for (i = 0; i < 2; i++) {
        FlSide *s = &c->side[i], *peer = &c->side[1 - i];
        if (s->reopen && s->state == ST_CLOSED) {
            if (fl_set_flag(c, c->reopen, i, &s->reopen, 0) < 0)
                return -1;
            if (ST_LIVE(peer->state)
                && (st = fl_open_through(c, i)) <= 0)
                return st;
        }
        if (s->state == ST_OPENED && peer->rd != Py_None) {
            if ((st = fl_send_oack(c, i, peer->rd)) <= 0)
                return st;
            if (fl_set_flag(c, c->utd, i, &s->utd, 1) < 0)
                return -1;
        }
        else if (s->state == ST_FLOWING && !s->utd
                 && peer->rd != Py_None) {
            if ((st = fl_send_describe(c, i, peer->rd)) <= 0)
                return st;
            if (fl_count(c, S.describes_sent) < 0
                || fl_set_flag(c, c->utd, i, &s->utd, 1) < 0)
                return -1;
        }
    }
    return 1;
}

/* One pass of FlowLink.goal_receive over the shadow.  1 done, 0 the
 * reference must run instead, -1 error. */
static int
fl_receive(FlCtx *c, int i, PyObject *sig)
{
    PyObject *tp = (PyObject *)Py_TYPE(sig);
    FlSide *s = &c->side[i], *peer = &c->side[1 - i];
    int j = 1 - i, st;

    if (tp == g_sig_open) {
        if (!c->commit && s->medium != Py_None && peer->medium != Py_None) {
            st = PyObject_RichCompareBool(s->medium, peer->medium, Py_NE);
            if (st != 0)
                return st < 0 ? -1 : 0;   /* PreconditionError */
        }
        if (fl_set_flag(c, c->utd, j, &peer->utd, 0) < 0)
            return -1;
        if (peer->state == ST_CLOSED) {
            if ((st = fl_open_through(c, j)) <= 0)
                return st;
        }
        else if (peer->state == ST_CLOSING) {
            if (fl_set_flag(c, c->reopen, j, &peer->reopen, 1) < 0)
                return -1;
        }
        return fl_work(c);
    }
    if (tp == g_sig_oack || tp == g_sig_describe) {
        if (fl_set_flag(c, c->utd, j, &peer->utd, 0) < 0)
            return -1;
        return fl_work(c);
    }
    if (tp == g_sig_select) {
        PyObject *selector = PyObject_GetAttr(sig, S.selector);
        if (selector == NULL)
            return -1;
        if (!c->commit) {
            c->fresh = 0;
            if (peer->state == ST_FLOWING && peer->rd != Py_None) {
                c->fresh = sel_answers(selector, peer->rd);
                if (c->fresh < 0) {
                    Py_DECREF(selector);
                    return -1;
                }
            }
        }
        if (c->fresh) {
            st = fl_send_select(c, j, selector);
            if (st > 0 && fl_count(c, S.forwarded_selects) < 0)
                st = -1;
        }
        else
            st = fl_count(c, S.discarded_selects) < 0 ? -1 : 1;
        Py_DECREF(selector);
        return st;
    }
    if (tp == g_sig_close) {
        if (fl_set_flag(c, c->utd, i, &s->utd, 0) < 0
            || fl_set_flag(c, c->utd, j, &peer->utd, 0) < 0)
            return -1;
        if (s->state == ST_CLOSED && ST_LIVE(peer->state))
            return fl_send_close(c, j);
        return 1;
    }
    if (tp == g_sig_closeack)
        return fl_work(c);
    return 0;
}

/* Run goal_receive for an exact FlowLink in C when every gate holds:
 * 1 handled, 0 call the Python goal_receive, -1 error.  The caller
 * (the untraced Process path) has already checked loop.trace. */
static int
flowlink_receive(ProcessObj *p, PyObject *fl, PyObject *slot,
                 PyObject *sig)
{
    FlCtx c;
    FlSide initial[2];
    int idx = 0, st;

    if (g_arena_poison)
        return 0;
    memset(&c, 0, sizeof(c));
    st = fl_snapshot(&c, fl, slot, p->loop, &idx);
    if (st > 0) {
        memcpy(initial, c.side, sizeof(initial));
        st = fl_receive(&c, idx, sig);
        if (st < 0 && !PyErr_ExceptionMatches(PyExc_Exception)) {
            fl_release(&c);
            return -1;
        }
        if (st < 0) {
            /* an exception in the check pass: nothing is applied yet, so
             * the reference re-raises it in context */
            PyErr_Clear();
            st = 0;
        }
        if (st > 0) {
            memcpy(c.side, initial, sizeof(initial));
            c.commit = 1;
            st = fl_receive(&c, idx, sig);
        }
    }
    else if (st < 0 && PyErr_ExceptionMatches(PyExc_Exception)) {
        PyErr_Clear();
        st = 0;
    }
    fl_release(&c);
    return st;
}

static int
call_py_process(ProcessObj *p, PyObject *msg)
{
    PyObject *res = PyObject_CallOneArg(p->py_process, msg);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The accepted-signal upcall.  When the owner's handler is the
 * reference Box.on_tunnel_signal, admission control is off, and a goal
 * controls the slot, the dispatch runs here: goal.goal_receive (in C
 * for a flowlink the kernel above accepts) plus the program poll
 * (Box._poll).  Every other combination -- overridden handlers,
 * admission control installed, unmanaged slots -- calls the bound
 * handler, which owns the bookkeeping. */
static int
upcall_accepted(ProcessObj *p, PyObject *slot, PyObject *sig)
{
    PyObject *handler, *res;
    int done = 0;

    handler = PyObject_GetAttr(p->owner, S.on_tunnel_signal);
    if (handler == NULL)
        return -1;
    if (p->by_slot != NULL && PyMethod_Check(handler)
        && PyMethod_GET_FUNCTION(handler) == g_box_ots) {
        PyObject *adm = PyObject_GetAttr(p->owner, S.admission);
        if (adm == NULL)
            goto fail;
        if (adm != Py_None)
            Py_DECREF(adm);
        else {
            PyObject *goal;
            Py_DECREF(adm);
            goal = PyDict_GetItemWithError(p->by_slot, slot); /* borrowed */
            if (goal == NULL) {
                if (PyErr_Occurred())
                    goto fail;
                /* unmanaged slot: the reference method records it */
            }
            else {
                PyObject *cb;
                int fl_done = 0;
                Py_INCREF(goal);
                if (Py_TYPE(goal) == (PyTypeObject *)g_flowlink_type)
                    fl_done = flowlink_receive(p, goal, slot, sig);
                if (fl_done == 0) {
                    PyObject *gr = PyObject_GetAttr(goal, S.goal_receive);
                    if (gr == NULL)
                        fl_done = -1;
                    else {
                        res = PyObject_CallFunctionObjArgs(gr, slot, sig,
                                                           NULL);
                        Py_DECREF(gr);
                        if (res == NULL)
                            fl_done = -1;
                        Py_XDECREF(res);
                    }
                }
                Py_DECREF(goal);
                if (fl_done < 0)
                    goto fail;
                /* Box._poll */
                cb = PyObject_GetAttr(p->owner, S.after_stimulus);
                if (cb == NULL)
                    goto fail;
                res = (cb == Py_None) ? Py_NewRef(Py_None)
                    : PyObject_CallNoArgs(cb);
                Py_DECREF(cb);
                if (res == NULL)
                    goto fail;
                Py_DECREF(res);
                done = 1;
            }
        }
    }
    if (!done) {
        res = PyObject_CallFunctionObjArgs(handler, slot, sig, NULL);
        if (res == NULL)
            goto fail;
        Py_DECREF(res);
    }
    Py_DECREF(handler);
    return 0;
fail:
    Py_DECREF(handler);
    return -1;
}

static int
process_impl(ProcessObj *p, PyObject *msg)
{
    PyObject *trace, *tid, *slot, *sig;
    int flag, accepted;

    flag = get_attr_bool(p->chend, S.alive);
    if (flag < 0)
        return -1;
    if (!flag)
        return 0;
    if (ensure_protocol() < 0)
        return -1;
    if ((PyObject *)Py_TYPE(msg) != g_tunnelmsg_type)
        return call_py_process(p, msg);
    trace = PyObject_GetAttr(p->loop, S.trace);
    if (trace == NULL)
        return -1;
    if (trace != Py_None) {
        /* traced runs take the full Python path (pre/post state capture,
         * SignalReceived emission, pooled release) */
        Py_DECREF(trace);
        return call_py_process(p, msg);
    }
    Py_DECREF(trace);
    tid = PyObject_GetAttr(msg, S.tunnel_id);
    if (tid == NULL)
        return -1;
    slot = PyDict_GetItemWithError(p->slots, tid);
    Py_DECREF(tid);
    if (slot == NULL) {
        if (PyErr_Occurred())
            return -1;
        /* unknown tunnel: Python path raises the descriptive error */
        return call_py_process(p, msg);
    }
    if ((PyObject *)Py_TYPE(slot) != g_slot_type)
        return call_py_process(p, msg);
    Py_INCREF(slot);   /* the handler below may drop the channel's slots */
    sig = PyObject_GetAttr(msg, S.signal);
    if (sig == NULL) {
        Py_DECREF(slot);
        return -1;
    }
    accepted = slot_receive_inline(slot, sig);
    if (accepted < 0) {
        Py_DECREF(sig);
        Py_DECREF(slot);
        return -1;
    }
    if (accepted) {
        if (upcall_accepted(p, slot, sig) < 0) {
            Py_DECREF(sig);
            Py_DECREF(slot);
            return -1;
        }
    }
    Py_DECREF(sig);
    Py_DECREF(slot);
    /* envelope reset contract: exactly one delivery happened (pooling
     * is only enabled on hook-free links), so release the envelope */
    flag = get_attr_bool(msg, S.pooled);
    if (flag < 0)
        return -1;
    if (flag) {
        if (PyObject_SetAttr(msg, S.signal, Py_None) < 0)
            return -1;
        if (PyList_Check(p->env_pool) &&
            PyList_GET_SIZE(p->env_pool) < ENV_POOL_MAX) {
            if (PyList_Append(p->env_pool, msg) < 0)
                return -1;
        }
    }
    return 0;
}

static int
process_init(ProcessObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *chend;
    if (!PyArg_ParseTuple(args, "O", &chend))
        return -1;
    Py_INCREF(chend);
    Py_XSETREF(self->chend, chend);
    Py_XSETREF(self->loop, PyObject_GetAttr(chend, S._loop));
    if (self->loop == NULL)
        return -1;
    Py_XSETREF(self->owner, PyObject_GetAttr(chend, S.owner));
    if (self->owner == NULL)
        return -1;
    Py_XSETREF(self->slots, PyObject_GetAttr(chend, S.slots));
    if (self->slots == NULL || !PyDict_Check(self->slots)) {
        if (self->slots != NULL)
            PyErr_SetString(PyExc_TypeError, "chend.slots must be a dict");
        return -1;
    }
    Py_XSETREF(self->py_process, PyObject_GetAttr(chend, S._process));
    if (self->py_process == NULL)
        return -1;
    Py_XSETREF(self->env_pool, PyObject_GetAttr(self->loop, S._env_pool));
    if (self->env_pool == NULL)
        return -1;
    /* owner.maps._by_slot, cached for C-side goal dispatch.  Sound
     * because both attributes are assigned once at construction and
     * the dict is only ever mutated in place.  Owners without goal
     * maps (devices, gateways) leave it NULL and take the
     * bound-method path. */
    {
        PyObject *maps = PyObject_GetAttr(self->owner, S.maps);
        if (maps == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return -1;
            PyErr_Clear();
        }
        else {
            PyObject *by_slot = PyObject_GetAttr(maps, S._by_slot);
            Py_DECREF(maps);
            if (by_slot == NULL) {
                if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                    return -1;
                PyErr_Clear();
            }
            else if (PyDict_CheckExact(by_slot))
                Py_XSETREF(self->by_slot, by_slot);
            else
                Py_DECREF(by_slot);
        }
    }
    return 0;
}

static PyObject *
process_call(ProcessObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg;
    if (!PyArg_ParseTuple(args, "O", &msg))
        return NULL;
    if (process_impl(self, msg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
process_traverse(ProcessObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->chend);
    Py_VISIT(self->loop);
    Py_VISIT(self->owner);
    Py_VISIT(self->slots);
    Py_VISIT(self->py_process);
    Py_VISIT(self->env_pool);
    Py_VISIT(self->by_slot);
    return 0;
}

static int
process_clear(ProcessObj *self)
{
    Py_CLEAR(self->chend);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->owner);
    Py_CLEAR(self->slots);
    Py_CLEAR(self->py_process);
    Py_CLEAR(self->env_pool);
    Py_CLEAR(self->by_slot);
    return 0;
}

static void
process_dealloc(ProcessObj *self)
{
    PyObject_GC_UnTrack(self);
    process_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.Process",
    .tp_basicsize = sizeof(ProcessObj),
    .tp_dealloc = (destructor)process_dealloc,
    .tp_call = (ternaryfunc)process_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled ChannelEnd._process fast path (untraced tunnel "
              "messages; everything else falls back to Python).",
    .tp_traverse = (traverseproc)process_traverse,
    .tp_clear = (inquiry)process_clear,
    .tp_init = (initproc)process_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* LinkTransmit                                                        */
/* ------------------------------------------------------------------ */

/* Prune fired entries from link._pending in place, harvesting
 * recyclable events (fired, not cancelled) onto link._free.  Mirrors
 * Link._compact_pending. */
static int
compact_pending_c(TransmitObj *t)
{
    PyObject *alive = PyList_New(0);
    Py_ssize_t i, n;
    long long threshold;
    PyObject *th;
    if (alive == NULL)
        return -1;
    n = PyList_GET_SIZE(t->pending);
    for (i = 0; i < n; i++) {
        PyObject *e = PyList_GET_ITEM(t->pending, i);
        CEvent *c = (CEvent *)e;
        if (!CEvent_CheckExact(e)) {
            /* every scheduler that appends here builds eventloop.Event,
             * which is the C type under this backend */
            PyErr_Format(PyExc_TypeError,
                         "link._pending entry is not an Event: %R", e);
            goto fail;
        }
        if (c->loop != NULL) {
            if (PyList_Append(alive, e) < 0)
                goto fail;
        }
        else if (!c->cancelled &&
                 PyList_GET_SIZE(t->freelist) < FREELIST_MAX) {
            if (PyList_Append(t->freelist, e) < 0)
                goto fail;
        }
    }
    if (PyList_SetSlice(t->pending, 0, n, alive) < 0)
        goto fail;
    threshold = 2 * (long long)PyList_GET_SIZE(alive);
    if (threshold < 16)
        threshold = 16;
    th = PyLong_FromLongLong(threshold);
    if (th == NULL)
        goto fail;
    if (PyObject_SetAttr(t->link, S._compact_at, th) < 0) {
        Py_DECREF(th);
        goto fail;
    }
    Py_DECREF(th);
    Py_DECREF(alive);
    return 0;
fail:
    Py_DECREF(alive);
    return -1;
}

static int
transmit_impl(TransmitObj *t, PyObject *origin, PyObject *msg)
{
    PyObject *lat, *fd, *deliver;
    double delay, now, deliver_at, horizon;
    long long compact_at, seq;
    CEvent *ev;
    Py_ssize_t fn;
    int flag;

    flag = get_attr_bool(t->link, S.down);
    if (flag < 0)
        return -1;
    if (flag)
        return 0;
    if (attr_add_ll(t->link, S.sent, 1, NULL) < 0)
        return -1;
    lat = PyObject_GetAttr(t->link, S.latency);
    if (lat == NULL)
        return -1;
    fd = PyObject_GetAttr(lat, S.fixed_delay);
    if (fd == NULL) {
        Py_DECREF(lat);
        return -1;
    }
    if (fd == Py_None) {
        PyObject *res = PyObject_CallMethodObjArgs(lat, S.sample, t->rng,
                                                   NULL);
        Py_DECREF(fd);
        Py_DECREF(lat);
        if (res == NULL)
            return -1;
        delay = PyFloat_AsDouble(res);
        Py_DECREF(res);
        if (delay == -1.0 && PyErr_Occurred())
            return -1;
    }
    else {
        delay = PyFloat_AsDouble(fd);
        Py_DECREF(fd);
        Py_DECREF(lat);
        if (delay == -1.0 && PyErr_Occurred())
            return -1;
    }
    if (get_attr_double(t->loop, S._now, &now) < 0)
        return -1;
    deliver_at = now + delay;
    if (get_attr_double(origin, S._horizon, &horizon) < 0)
        return -1;
    if (deliver_at < horizon)
        deliver_at = horizon;
    if (set_attr_double(origin, S._horizon, deliver_at) < 0)
        return -1;
    deliver = (origin == t->end0) ? t->deliver1 : t->deliver0;

    if (get_attr_ll(t->link, S._compact_at, &compact_at) < 0)
        return -1;
    if ((long long)PyList_GET_SIZE(t->pending) >= compact_at) {
        if (compact_pending_c(t) < 0)
            return -1;
    }
    seq = next_seq(t->seq_iter);
    if (seq < 0 && PyErr_Occurred())
        return -1;
    fn = PyList_GET_SIZE(t->freelist);
    if (fn > 0) {
        PyObject *margs;
        ev = (CEvent *)PyList_GET_ITEM(t->freelist, fn - 1);
        Py_INCREF(ev);
        if (PyList_SetSlice(t->freelist, fn - 1, fn, NULL) < 0) {
            Py_DECREF(ev);
            return -1;
        }
        margs = PyTuple_Pack(1, msg);
        if (margs == NULL) {
            Py_DECREF(ev);
            return -1;
        }
        ev->time = deliver_at;
        ev->priority = 0;
        ev->seq = seq;
        Py_INCREF(deliver);
        Py_XSETREF(ev->callback, deliver);
        Py_XSETREF(ev->args, margs);
        Py_INCREF(t->loop);
        Py_XSETREF(ev->loop, t->loop);
    }
    else {
        PyObject *margs = PyTuple_Pack(1, msg);
        if (margs == NULL)
            return -1;
        ev = cevent_make(deliver_at, 0, seq, deliver, margs, t->loop);
        Py_DECREF(margs);
        if (ev == NULL)
            return -1;
    }
    if (deliver_at == now) {
        PyObject *res = PyObject_CallOneArg(t->ready_append,
                                            (PyObject *)ev);
        if (res == NULL) {
            Py_DECREF(ev);
            return -1;
        }
        Py_DECREF(res);
    }
    else {
        if (heap_push(t->heap, (PyObject *)ev) < 0) {
            Py_DECREF(ev);
            return -1;
        }
    }
    if (attr_add_ll(t->loop, S._live, 1, NULL) < 0) {
        Py_DECREF(ev);
        return -1;
    }
    if (PyList_Append(t->pending, (PyObject *)ev) < 0) {
        Py_DECREF(ev);
        return -1;
    }
    Py_DECREF(ev);
    return 0;
}

static int
transmit_init(TransmitObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *link, *ends;
    if (!PyArg_ParseTuple(args, "O", &link))
        return -1;
    Py_INCREF(link);
    Py_XSETREF(self->link, link);
    Py_XSETREF(self->loop, PyObject_GetAttr(link, S.loop));
    if (self->loop == NULL)
        return -1;
    Py_XSETREF(self->heap, PyObject_GetAttr(self->loop, S._heap));
    if (self->heap == NULL || !PyList_Check(self->heap)) {
        if (self->heap != NULL)
            PyErr_SetString(PyExc_TypeError, "loop._heap must be a list");
        return -1;
    }
    Py_XSETREF(self->ready, PyObject_GetAttr(self->loop, S._ready));
    if (self->ready == NULL)
        return -1;
    Py_XSETREF(self->seq_iter, PyObject_GetAttr(self->loop, S._seq));
    if (self->seq_iter == NULL)
        return -1;
    Py_XSETREF(self->rng, PyObject_GetAttr(self->loop, S.rng));
    if (self->rng == NULL)
        return -1;
    ends = PyObject_GetAttr(link, S.ends);
    if (ends == NULL)
        return -1;
    if (!PyTuple_Check(ends) || PyTuple_GET_SIZE(ends) != 2) {
        Py_DECREF(ends);
        PyErr_SetString(PyExc_TypeError, "link.ends must be a 2-tuple");
        return -1;
    }
    Py_INCREF(PyTuple_GET_ITEM(ends, 0));
    Py_XSETREF(self->end0, PyTuple_GET_ITEM(ends, 0));
    Py_INCREF(PyTuple_GET_ITEM(ends, 1));
    Py_XSETREF(self->end1, PyTuple_GET_ITEM(ends, 1));
    Py_DECREF(ends);
    Py_XSETREF(self->deliver0, PyObject_GetAttr(self->end0, S._cdeliver));
    if (self->deliver0 == NULL)
        return -1;
    Py_XSETREF(self->deliver1, PyObject_GetAttr(self->end1, S._cdeliver));
    if (self->deliver1 == NULL)
        return -1;
    Py_XSETREF(self->pending, PyObject_GetAttr(link, S._pending));
    if (self->pending == NULL || !PyList_Check(self->pending)) {
        if (self->pending != NULL)
            PyErr_SetString(PyExc_TypeError, "link._pending must be a list");
        return -1;
    }
    Py_XSETREF(self->freelist, PyObject_GetAttr(link, S._free));
    if (self->freelist == NULL || !PyList_Check(self->freelist)) {
        if (self->freelist != NULL)
            PyErr_SetString(PyExc_TypeError, "link._free must be a list");
        return -1;
    }
    Py_XSETREF(self->ready_append, PyObject_GetAttr(self->ready, S.append));
    if (self->ready_append == NULL)
        return -1;
    return 0;
}

static PyObject *
transmit_call(TransmitObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *origin, *msg;
    if (!PyArg_ParseTuple(args, "OO", &origin, &msg))
        return NULL;
    if (transmit_impl(self, origin, msg) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
transmit_traverse(TransmitObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->link);
    Py_VISIT(self->loop);
    Py_VISIT(self->heap);
    Py_VISIT(self->ready);
    Py_VISIT(self->seq_iter);
    Py_VISIT(self->rng);
    Py_VISIT(self->end0);
    Py_VISIT(self->end1);
    Py_VISIT(self->deliver0);
    Py_VISIT(self->deliver1);
    Py_VISIT(self->pending);
    Py_VISIT(self->freelist);
    Py_VISIT(self->ready_append);
    return 0;
}

static int
transmit_clear(TransmitObj *self)
{
    Py_CLEAR(self->link);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->heap);
    Py_CLEAR(self->ready);
    Py_CLEAR(self->seq_iter);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->end0);
    Py_CLEAR(self->end1);
    Py_CLEAR(self->deliver0);
    Py_CLEAR(self->deliver1);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->freelist);
    Py_CLEAR(self->ready_append);
    return 0;
}

static void
transmit_dealloc(TransmitObj *self)
{
    PyObject_GC_UnTrack(self);
    transmit_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject LinkTransmitType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.LinkTransmit",
    .tp_basicsize = sizeof(TransmitObj),
    .tp_dealloc = (destructor)transmit_dealloc,
    .tp_call = (ternaryfunc)transmit_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled Link._base_transmit twin (hook-chain bottom).",
    .tp_traverse = (traverseproc)transmit_traverse,
    .tp_clear = (inquiry)transmit_clear,
    .tp_init = (initproc)transmit_init,
    .tp_new = PyType_GenericNew,
};


/* ------------------------------------------------------------------ */
/* SlotTransmit                                                        */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject_HEAD
    PyObject *slot;
    PyObject *end;               /* slot._end (ChannelEnd) */
    PyObject *wire;              /* end._wire (LinkEnd) */
    PyObject *hooks;             /* wire._link._hooks (list, in place) */
    PyObject *env_pool;          /* loop._env_pool (list) */
    PyObject *tunnel_id;         /* slot.tunnel_id (immutable) */
} SlotTransmitObj;

static PyTypeObject SlotTransmitType;

/* The envelope for one slot send: drawn from the loop's pool when
 * exactly one delivery is proven (`pooled`), fresh and never pooled
 * otherwise. */
static PyObject *
slot_envelope(SlotTransmitObj *st, PyObject *sig, int pooled)
{
    PyObject *msg;
    Py_ssize_t pn = PyList_GET_SIZE(st->env_pool);
    if (!pooled)
        return PyObject_CallFunctionObjArgs(g_tunnelmsg_type, st->tunnel_id,
                                            sig, NULL);
    if (pn == 0)
        return PyObject_CallFunctionObjArgs(g_tunnelmsg_type, st->tunnel_id,
                                            sig, Py_True, NULL);
    msg = PyList_GET_ITEM(st->env_pool, pn - 1);
    Py_INCREF(msg);
    if (PyList_SetSlice(st->env_pool, pn - 1, pn, NULL) < 0 ||
        PyObject_SetAttr(msg, S.tunnel_id, st->tunnel_id) < 0 ||
        PyObject_SetAttr(msg, S.signal, sig) < 0) {
        Py_DECREF(msg);
        return NULL;
    }
    return msg;
}

/* ------------------------------------------------------------------ */
/* FaultHook                                                           */
/* ------------------------------------------------------------------ */

/* C twin of FaultyLink._hook for the plans it decides alone: drop and
 * duplicate, no jitter, no reorder, and an exemption that is a class
 * (or tuple of classes) or none.  It sits in link._hooks in place of
 * the bound _hook and is called like it, (origin, message, forward);
 * a traced loop hands the message to the reference _hook, which emits
 * the FaultInjected events.  SlotTransmit fuses it: when it is the
 * link's only hook over the C LinkTransmit, a slot send decides in C
 * and builds its envelope only for the copies that survive. */
typedef struct {
    PyObject_HEAD
    PyObject *faulty;            /* the FaultyLink */
    PyObject *link;              /* faulty.link */
    PyObject *loop;              /* link.loop */
    PyObject *exempt;            /* faulty.exempt (class/tuple) or NULL */
    double drop, duplicate;      /* faulty.plan's rates (frozen plan) */
} FaultHookObj;

static PyTypeObject FaultHookType;

/* The audited accessors: RC805 checks each name against the class in
 * faults.py (FaultyLink fields and methods, FaultStats counters,
 * FaultPlan rates). */
#define faulty_get(faulty, name) PyObject_GetAttr((faulty), (name))
#define faulty_flag(faulty, name) get_attr_bool((faulty), (name))
#define stats_incr(stats, name) attr_add_ll((stats), (name), 1, NULL)
#define plan_rate(plan, name, out) get_attr_double((plan), (name), (out))

/* `rng.random() < p`, drawn only when p is non-zero: the draws and
 * their order are the contract with the reference. */
static int
fault_draw(PyObject *rng, double p)
{
    PyObject *v;
    double r;
    if (p == 0.0)
        return 0;
    if ((v = PyObject_CallMethodNoArgs(rng, S.random)) == NULL)
        return -1;
    r = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (r == -1.0 && PyErr_Occurred())
        return -1;
    return r < p;
}

/* Forward one surviving copy.  On the fused path (*msg NULL) the
 * envelope is built on first use: pooled when the decision proved a
 * single delivery, fresh when it may carry two copies. */
static int
fault_emit(PyObject *forward, PyObject *origin, PyObject **msg,
           SlotTransmitObj *st, PyObject *sig, int single)
{
    PyObject *res;
    if (*msg == NULL && (*msg = slot_envelope(st, sig, single)) == NULL)
        return -1;
    if (Py_TYPE(forward) == &LinkTransmitType)
        return transmit_impl((TransmitObj *)forward, origin, *msg);
    res = PyObject_CallFunctionObjArgs(forward, origin, *msg, NULL);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* FaultyLink._hook's decision, untraced: outage and teardown, the
 * exemption, the dup draw and one drop draw per copy from loop.rng
 * (each copy forwarded before the next draw: a sampled latency draws
 * from the same rng), the FaultStats counts through faulty.stats
 * (shared across links), and the link.sent pin (one per offer). */
static int
fault_run(FaultHookObj *h, PyObject *origin, PyObject **msg,
          PyObject *forward, SlotTransmitObj *st, PyObject *sig)
{
    PyObject *stats, *rng = NULL, *v;
    long long offered;
    int flag, copies = 1, k, rc = -1;

    if ((flag = get_attr_bool(h->link, S.down)) != 0 ||
        (flag = faulty_flag(h->faulty, S._outage)) != 0)
        return flag < 0 ? -1 : 0;
    if ((stats = faulty_get(h->faulty, S.stats)) == NULL)
        return -1;
    if (h->exempt != NULL) {
        /* the fused path's envelope is an exact TunnelMessage */
        flag = *msg != NULL ? PyObject_IsInstance(*msg, h->exempt)
                            : PyObject_IsSubclass(g_tunnelmsg_type,
                                                  h->exempt);
        if (flag != 0) {
            if (flag > 0 && stats_incr(stats, S.exempted) == 0)
                rc = fault_emit(forward, origin, msg, st, sig, 1);
            goto done;
        }
    }
    if ((rng = PyObject_GetAttr(h->loop, S.rng)) == NULL ||
        get_attr_ll(h->link, S.sent, &offered) < 0 ||
        (flag = fault_draw(rng, h->duplicate)) < 0)
        goto done;
    if (flag) {
        copies = 2;
        if (stats_incr(stats, S.duplicated) < 0)
            goto done;
    }
    for (k = 0; k < copies; k++) {
        if ((flag = fault_draw(rng, h->drop)) < 0)
            goto done;
        if (flag ? stats_incr(stats, S.dropped) < 0
                 : (stats_incr(stats, S.forwarded) < 0 ||
                    fault_emit(forward, origin, msg, st, sig,
                               copies == 1) < 0))
            goto done;
    }
    if ((v = PyLong_FromLongLong(offered + 1)) != NULL) {
        rc = PyObject_SetAttr(h->link, S.sent, v);
        Py_DECREF(v);
    }
done:
    Py_XDECREF(rng);
    Py_DECREF(stats);
    return rc;
}

/* loop.trace is not None; read per message, a tracer may come and go */
static int
fault_traced(FaultHookObj *h)
{
    PyObject *trace = PyObject_GetAttr(h->loop, S.trace);
    int traced = trace == NULL ? -1 : trace != Py_None;
    Py_XDECREF(trace);
    return traced;
}

/* SlotTransmit's fused path: 1 when the hook decided and sent, 0 to
 * decline (traced loop, or a forward other than the C LinkTransmit --
 * backpressure, a replaced _base_transmit), -1 on error. */
static int
fault_fused(FaultHookObj *h, SlotTransmitObj *st, PyObject *sig)
{
    PyObject *base, *msg = NULL;
    int rc = fault_traced(h);

    if (rc != 0)
        return rc < 0 ? -1 : 0;
    if ((base = PyObject_GetAttr(h->link, S._base_transmit)) == NULL)
        return -1;
    if (Py_TYPE(base) == &LinkTransmitType) {
        Py_INCREF(h);
        rc = fault_run(h, st->wire, &msg, base, st, sig) < 0 ? -1 : 1;
        Py_DECREF(h);
        Py_XDECREF(msg);
    }
    Py_DECREF(base);
    return rc;
}

static PyObject *
fault_hook_call(FaultHookObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *origin, *msg, *forward, *hook;
    int rc;
    if (!PyArg_ParseTuple(args, "OOO", &origin, &msg, &forward) ||
        (rc = fault_traced(self)) < 0)
        return NULL;
    if (rc) {
        if ((hook = faulty_get(self->faulty, S._hook)) == NULL)
            return NULL;
        Py_SETREF(hook, PyObject_CallFunctionObjArgs(hook, origin, msg,
                                                     forward, NULL));
        return hook;
    }
    Py_INCREF(msg);
    rc = fault_run(self, origin, &msg, forward, NULL, NULL);
    Py_DECREF(msg);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
fault_hook_init(FaultHookObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *faulty, *plan;
    double jitter = 0.0, reorder = 0.0;
    int st;
    if (!PyArg_ParseTuple(args, "O", &faulty))
        return -1;
    Py_INCREF(faulty);
    Py_XSETREF(self->faulty, faulty);
    Py_XSETREF(self->link, faulty_get(faulty, S.link));
    if (self->link == NULL)
        return -1;
    Py_XSETREF(self->loop, PyObject_GetAttr(self->link, S.loop));
    if (self->loop == NULL || (plan = faulty_get(faulty, S.plan)) == NULL)
        return -1;
    st = plan_rate(plan, S.drop, &self->drop) < 0 ||
         plan_rate(plan, S.duplicate, &self->duplicate) < 0 ||
         plan_rate(plan, S.jitter, &jitter) < 0 ||
         plan_rate(plan, S.reorder, &reorder) < 0;
    Py_DECREF(plan);
    Py_XSETREF(self->exempt, faulty_get(faulty, S.exempt));
    if (st || self->exempt == NULL)
        return -1;
    if (self->exempt == Py_None)
        Py_CLEAR(self->exempt);
    if (jitter != 0.0 || reorder != 0.0 || (self->exempt != NULL &&
        !PyType_Check(self->exempt) && !PyTuple_Check(self->exempt))) {
        PyErr_SetString(PyExc_ValueError,
                        "FaultHook decides drop/duplicate plans with a "
                        "class exemption only");
        return -1;
    }
    return 0;
}

static int
fault_hook_traverse(FaultHookObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->faulty);
    Py_VISIT(self->link);
    Py_VISIT(self->loop);
    Py_VISIT(self->exempt);
    return 0;
}

static int
fault_hook_clear(FaultHookObj *self)
{
    Py_CLEAR(self->faulty);
    Py_CLEAR(self->link);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->exempt);
    return 0;
}

static void
fault_hook_dealloc(FaultHookObj *self)
{
    PyObject_GC_UnTrack(self);
    fault_hook_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject FaultHookType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.FaultHook",
    .tp_basicsize = sizeof(FaultHookObj),
    .tp_dealloc = (destructor)fault_hook_dealloc,
    .tp_call = (ternaryfunc)fault_hook_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled FaultyLink._hook twin (drop/duplicate plans).",
    .tp_traverse = (traverseproc)fault_hook_traverse,
    .tp_clear = (inquiry)fault_hook_clear,
    .tp_init = (initproc)fault_hook_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* SlotTransmit kernel                                                 */
/* ------------------------------------------------------------------ */

/* Mirror of Slot._transmit: counter bump, dead-end drop, then one of
 * three paths: the fused fault decision (above), the hooked path
 * (fresh, never-pooled envelope through the generic chain), or the
 * pooled fast path straight into the C link transmit. */
static int
slot_transmit_impl(SlotTransmitObj *st, PyObject *sig)
{
    PyObject *msg, *chain, *res;
    int alive, hooked;

    if (((PyObject *)Py_TYPE(st->slot) == g_slot_type
         ? slot_incr(st->slot, SF_SIGNALS_SENT)
         : attr_add_ll(st->slot, S.signals_sent, 1, NULL)) < 0)
        return -1;
    alive = get_attr_bool(st->end, S.alive);
    if (alive < 0)
        return -1;
    if (!alive)
        return 0;
    hooked = PyList_GET_SIZE(st->hooks) != 0;
    if (hooked && PyList_GET_SIZE(st->hooks) == 1 &&
        Py_TYPE(PyList_GET_ITEM(st->hooks, 0)) == &FaultHookType) {
        int fused = fault_fused(
            (FaultHookObj *)PyList_GET_ITEM(st->hooks, 0), st, sig);
        if (fused != 0)
            return fused < 0 ? -1 : 0;
    }
    /* A hooked link (fault layer, tracer tap) may duplicate the
     * envelope or deliver it late; never pool those. */
    msg = slot_envelope(st, sig, !hooked);
    if (msg == NULL)
        return -1;
    chain = PyObject_GetAttr(st->wire, S._chain);
    if (chain == NULL) {
        Py_DECREF(msg);
        return -1;
    }
    if (!hooked && Py_TYPE(chain) == &LinkTransmitType) {
        int stx = transmit_impl((TransmitObj *)chain, st->wire, msg);
        Py_DECREF(chain);
        Py_DECREF(msg);
        return stx;
    }
    res = PyObject_CallFunctionObjArgs(chain, st->wire, msg, NULL);
    Py_DECREF(chain);
    Py_DECREF(msg);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* slot._tx(sig) for the FSM and flowlink kernels (exact Slot only):
 * fuse into the SlotTransmit kernel when the slot carries one (the
 * compiled-backend default), call the generic callable otherwise. */
static int
fsm_tx(PyObject *slot, PyObject *sig)
{
    PyObject *tx = slot_get(slot, SF_TX);
    int st;
    if (tx == NULL) {
        PyErr_SetString(PyExc_AttributeError, "Slot._tx is unset");
        return -1;
    }
    Py_INCREF(tx);
    if (Py_TYPE(tx) == &SlotTransmitType)
        st = slot_transmit_impl((SlotTransmitObj *)tx, sig);
    else {
        PyObject *res = PyObject_CallOneArg(tx, sig);
        st = (res == NULL) ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(tx);
    return st;
}

static int
slot_transmit_init(SlotTransmitObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *slot, *link, *loop;
    if (!PyArg_ParseTuple(args, "O", &slot))
        return -1;
    if (ensure_protocol() < 0)
        return -1;
    Py_INCREF(slot);
    Py_XSETREF(self->slot, slot);
    Py_XSETREF(self->end, PyObject_GetAttr(slot, S._end));
    if (self->end == NULL)
        return -1;
    Py_XSETREF(self->wire, PyObject_GetAttr(self->end, S._wire));
    if (self->wire == NULL)
        return -1;
    link = PyObject_GetAttr(self->wire, S._link);
    if (link == NULL)
        return -1;
    Py_XSETREF(self->hooks, PyObject_GetAttr(link, S._hooks));
    Py_DECREF(link);
    if (self->hooks == NULL || !PyList_Check(self->hooks)) {
        if (self->hooks != NULL)
            PyErr_SetString(PyExc_TypeError, "link._hooks must be a list");
        return -1;
    }
    loop = PyObject_GetAttr(slot, S._loop);
    if (loop == NULL)
        return -1;
    Py_XSETREF(self->env_pool, PyObject_GetAttr(loop, S._env_pool));
    Py_DECREF(loop);
    if (self->env_pool == NULL || !PyList_Check(self->env_pool)) {
        if (self->env_pool != NULL)
            PyErr_SetString(PyExc_TypeError, "loop._env_pool must be a list");
        return -1;
    }
    Py_XSETREF(self->tunnel_id, PyObject_GetAttr(slot, S.tunnel_id));
    if (self->tunnel_id == NULL)
        return -1;
    return 0;
}

static PyObject *
slot_transmit_call(SlotTransmitObj *self, PyObject *args, PyObject *kwds)
{
    PyObject *sig;
    if (!PyArg_ParseTuple(args, "O", &sig))
        return NULL;
    if (slot_transmit_impl(self, sig) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
slot_transmit_traverse(SlotTransmitObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->slot);
    Py_VISIT(self->end);
    Py_VISIT(self->wire);
    Py_VISIT(self->hooks);
    Py_VISIT(self->env_pool);
    Py_VISIT(self->tunnel_id);
    return 0;
}

static int
slot_transmit_clear(SlotTransmitObj *self)
{
    Py_CLEAR(self->slot);
    Py_CLEAR(self->end);
    Py_CLEAR(self->wire);
    Py_CLEAR(self->hooks);
    Py_CLEAR(self->env_pool);
    Py_CLEAR(self->tunnel_id);
    return 0;
}

static void
slot_transmit_dealloc(SlotTransmitObj *self)
{
    PyObject_GC_UnTrack(self);
    slot_transmit_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject SlotTransmitType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.network._ccore.SlotTransmit",
    .tp_basicsize = sizeof(SlotTransmitObj),
    .tp_dealloc = (destructor)slot_transmit_dealloc,
    .tp_call = (ternaryfunc)slot_transmit_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled Slot._transmit twin (per-signal send path).",
    .tp_traverse = (traverseproc)slot_transmit_traverse,
    .tp_clear = (inquiry)slot_transmit_clear,
    .tp_init = (initproc)slot_transmit_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* drain(loop, limit)                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
mod_drain(PyObject *mod, PyObject *args)
{
    PyObject *loop;
    long long limit, executed = 0;
    PyObject *heap, *ready, *ready_popleft;
    int failed = 0;

    if (!PyArg_ParseTuple(args, "OL", &loop, &limit))
        return NULL;
    heap = PyObject_GetAttr(loop, S._heap);
    if (heap == NULL)
        return NULL;
    if (!PyList_Check(heap)) {
        Py_DECREF(heap);
        PyErr_SetString(PyExc_TypeError, "loop._heap must be a list");
        return NULL;
    }
    ready = PyObject_GetAttr(loop, S._ready);
    if (ready == NULL) {
        Py_DECREF(heap);
        return NULL;
    }
    ready_popleft = PyObject_GetAttr(ready, S.popleft);
    if (ready_popleft == NULL) {
        Py_DECREF(heap);
        Py_DECREF(ready);
        return NULL;
    }

    for (;;) {
        CEvent *ev;
        PyObject *ev_obj = NULL;
        Py_ssize_t hs, rs;
        double now;
        PyObject *cb;
        int st;

        if (executed == limit)
            break;
        hs = PyList_GET_SIZE(heap);
        rs = PyObject_Length(ready);
        if (rs < 0) {
            failed = 1;
            break;
        }
        if (rs > 0) {
            PyObject *r0 = PySequence_GetItem(ready, 0);
            if (r0 == NULL) {
                failed = 1;
                break;
            }
            if (hs > 0) {
                PyObject *f0 = PyList_GET_ITEM(heap, 0);
                int lt = ev_lt(f0, r0);
                Py_DECREF(r0);
                if (lt < 0) {
                    failed = 1;
                    break;
                }
                if (lt) {
                    ev_obj = heap_pop(heap);
                }
                else {
                    ev_obj = PyObject_CallNoArgs(ready_popleft);
                }
            }
            else {
                Py_DECREF(r0);
                ev_obj = PyObject_CallNoArgs(ready_popleft);
            }
        }
        else if (hs > 0) {
            ev_obj = heap_pop(heap);
        }
        else {
            break;
        }
        if (ev_obj == NULL) {
            failed = 1;
            break;
        }
        if (!CEvent_CheckExact(ev_obj)) {
            /* eventloop.Event is the C type under this backend, so
             * anything else on a lane is a caller's bug */
            PyErr_Format(PyExc_TypeError,
                         "drain: lane entry is not an Event: %R", ev_obj);
            Py_DECREF(ev_obj);
            failed = 1;
            break;
        }
        ev = (CEvent *)ev_obj;
        if (ev->cancelled) {
            Py_DECREF(ev_obj);
            continue;
        }
        executed++;
        /* detach before the callback so a post-hoc cancel() cannot
         * double-count */
        Py_CLEAR(ev->loop);
        /* clock: one store per same-timestamp batch; re-read per event
         * because a callback may run nested timed drains */
        if (get_attr_double(loop, S._now, &now) < 0) {
            Py_DECREF(ev_obj);
            failed = 1;
            break;
        }
        if (ev->time != now) {
            if (set_attr_double(loop, S._now, ev->time) < 0) {
                Py_DECREF(ev_obj);
                failed = 1;
                break;
            }
        }
        cb = ev->callback;
        if (Py_TYPE(cb) == &DeliverType && PyTuple_GET_SIZE(ev->args) == 1) {
            st = deliver_impl((DeliverObj *)cb,
                              PyTuple_GET_ITEM(ev->args, 0));
        }
        else if (Py_TYPE(cb) == &FinishType &&
                 PyTuple_GET_SIZE(ev->args) == 0) {
            st = finish_impl((FinishObj *)cb);
        }
        else {
            PyObject *res = PyObject_CallObject(cb, ev->args);
            st = (res == NULL) ? -1 : 0;
            Py_XDECREF(res);
        }
        Py_DECREF(ev_obj);
        if (st < 0) {
            failed = 1;
            break;
        }
    }

    /* deferred counter flush (exception-safe, mirrors the Python
     * drain's finally block) */
    {
        PyObject *etype = NULL, *eval = NULL, *etb = NULL;
        if (failed)
            PyErr_Fetch(&etype, &eval, &etb);
        if (attr_add_ll(loop, S._live, -executed, NULL) < 0 ||
            attr_add_ll(loop, S.executed, executed, NULL) < 0) {
            if (failed)
                PyErr_Clear();   /* keep the original exception */
            else
                failed = 1;
        }
        if (etype != NULL || eval != NULL || etb != NULL)
            PyErr_Restore(etype, eval, etb);
    }
    Py_DECREF(heap);
    Py_DECREF(ready);
    Py_DECREF(ready_popleft);
    if (failed)
        return NULL;
    return PyLong_FromLongLong(executed);
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */
static PyMethodDef ccore_methods[] = {
    {"drain", mod_drain, METH_VARARGS,
     "drain(loop, limit) -> int\n\n"
     "Untimed batched two-lane drain; executes events in strict\n"
     "(time, priority, seq) order until both lanes empty or `limit`\n"
     "events have run (limit < 0 means no budget).  Returns the number\n"
     "of events executed.  Mirrors EventLoop._drain_py exactly."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.network._ccore",
    .m_doc = "Compiled kernels for the repro event core "
             "(see repro.network.backend).",
    .m_size = -1,
    .m_methods = ccore_methods,
};

static int
intern_all(void)
{
#define INTERN(field, text)                                   \
    do {                                                      \
        S.field = PyUnicode_InternFromString(text);           \
        if (S.field == NULL)                                  \
            return -1;                                        \
    } while (0)
    INTERN(_heap, "_heap");
    INTERN(_ready, "_ready");
    INTERN(_now, "_now");
    INTERN(_live, "_live");
    INTERN(executed, "executed");
    INTERN(_seq, "_seq");
    INTERN(trace, "trace");
    INTERN(_env_pool, "_env_pool");
    INTERN(rng, "rng");
    INTERN(_compact, "_compact");
    INTERN(popleft, "popleft");
    INTERN(append, "append");
    INTERN(sample, "sample");
    INTERN(down, "down");
    INTERN(sent, "sent");
    INTERN(latency, "latency");
    INTERN(fixed_delay, "fixed_delay");
    INTERN(_pending, "_pending");
    INTERN(_compact_at, "_compact_at");
    INTERN(_free, "_free");
    INTERN(_horizon, "_horizon");
    INTERN(_receiver, "_receiver");
    INTERN(_peer, "_peer");
    INTERN(_cdeliver, "_cdeliver");
    INTERN(ends, "ends");
    INTERN(loop, "loop");
    INTERN(offline, "offline");
    INTERN(dropped_while_offline, "dropped_while_offline");
    INTERN(_inbox, "_inbox");
    INTERN(_busy, "_busy");
    INTERN(_stim_event, "_stim_event");
    INTERN(handled, "handled");
    INTERN(cost, "cost");
    INTERN(_finish_cb, "_finish_cb");
    INTERN(_link, "_link");
    INTERN(_node, "_node");
    INTERN(_loop, "_loop");
    INTERN(_process, "_process");
    INTERN(_process_fn, "_process_fn");
    INTERN(alive, "alive");
    INTERN(slots, "slots");
    INTERN(owner, "owner");
    INTERN(on_tunnel_signal, "on_tunnel_signal");
    INTERN(signal, "signal");
    INTERN(tunnel_id, "tunnel_id");
    INTERN(pooled, "pooled");
    INTERN(state, "state");
    INTERN(_retx_kind, "_retx_kind");
    INTERN(signals_received, "signals_received");
    INTERN(signals_sent, "signals_sent");
    INTERN(_cancel_retx, "_cancel_retx");
    INTERN(_wire, "_wire");
    INTERN(_chain, "_chain");
    INTERN(_end, "_end");
    INTERN(_transmit, "_transmit");
    INTERN(_hooks, "_hooks");
    INTERN(qualname, "__qualname__");
    INTERN(retransmit, "retransmit");
    INTERN(strict, "strict");
    INTERN(failed, "failed");
    INTERN(medium, "medium");
    INTERN(remote_descriptor, "remote_descriptor");
    INTERN(local_descriptor, "local_descriptor");
    INTERN(selector_received, "selector_received");
    INTERN(selector_sent, "selector_sent");
    INTERN(descriptor, "descriptor");
    INTERN(selector, "selector");
    INTERN(race_drops, "race_drops");
    INTERN(stale_drops, "stale_drops");
    INTERN(side, "side");
    INTERN(_tx, "_tx");
    INTERN(_retx_timer, "_retx_timer");
    INTERN(_stale_timer, "_stale_timer");
    INTERN(_busy_timer, "_busy_timer");
    INTERN(maps, "maps");
    INTERN(_by_slot, "_by_slot");
    INTERN(goal_receive, "goal_receive");
    INTERN(after_stimulus, "after_stimulus");
    INTERN(admission, "admission");
    INTERN(_utd, "_utd");
    INTERN(_reopen, "_reopen");
    INTERN(attached, "attached");
    INTERN(answers, "answers");
    INTERN(id, "id");
    INTERN(codec, "codec");
    INTERN(codecs, "codecs");
    INTERN(is_real, "is_real");
    INTERN(_no_media, "_no_media");
    INTERN(_busy_medium, "_busy_medium");
    INTERN(_busy_descriptor, "_busy_descriptor");
    INTERN(_busy_attempts, "_busy_attempts");
    INTERN(opens_sent, "opens_sent");
    INTERN(describes_sent, "describes_sent");
    INTERN(forwarded_selects, "forwarded_selects");
    INTERN(discarded_selects, "discarded_selects");
    INTERN(_arm_retx, "_arm_retx");
    INTERN(_arm_stale, "_arm_stale");
    INTERN(_cancel_stale, "_cancel_stale");
    INTERN(_cancel_busy, "_cancel_busy");
    INTERN(_retx_signal, "_retx_signal");
    INTERN(duplicate_drops, "duplicate_drops");
    INTERN(invalid_drops, "invalid_drops");
    INTERN(_base_transmit, "_base_transmit");
    INTERN(random, "random");
    INTERN(link, "link");
    INTERN(plan, "plan");
    INTERN(stats, "stats");
    INTERN(exempt, "exempt");
    INTERN(_outage, "_outage");
    INTERN(_hook, "_hook");
    INTERN(forwarded, "forwarded");
    INTERN(dropped, "dropped");
    INTERN(duplicated, "duplicated");
    INTERN(exempted, "exempted");
    INTERN(drop, "drop");
    INTERN(duplicate, "duplicate");
    INTERN(jitter, "jitter");
    INTERN(reorder, "reorder");
#undef INTERN
    return 0;
}

PyMODINIT_FUNC
PyInit__ccore(void)
{
    PyObject *mod;
    if (intern_all() < 0)
        return NULL;
    g_empty_tuple = PyTuple_New(0);
    if (g_empty_tuple == NULL)
        return NULL;
    if (PyType_Ready(&CEventType) < 0 ||
        PyType_Ready(&DeliverType) < 0 ||
        PyType_Ready(&ReceiveType) < 0 ||
        PyType_Ready(&FinishType) < 0 ||
        PyType_Ready(&ProcessType) < 0 ||
        PyType_Ready(&LinkTransmitType) < 0 ||
        PyType_Ready(&SlotTransmitType) < 0 ||
        PyType_Ready(&FaultHookType) < 0)
        return NULL;
    mod = PyModule_Create(&ccore_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddIntConstant(mod, "ABI_VERSION", CCORE_ABI_VERSION) < 0)
        goto fail;
    Py_INCREF(&CEventType);
    if (PyModule_AddObject(mod, "Event", (PyObject *)&CEventType) < 0)
        goto fail;
    Py_INCREF(&DeliverType);
    if (PyModule_AddObject(mod, "Deliver", (PyObject *)&DeliverType) < 0)
        goto fail;
    Py_INCREF(&ReceiveType);
    if (PyModule_AddObject(mod, "Receive", (PyObject *)&ReceiveType) < 0)
        goto fail;
    Py_INCREF(&FinishType);
    if (PyModule_AddObject(mod, "Finish", (PyObject *)&FinishType) < 0)
        goto fail;
    Py_INCREF(&ProcessType);
    if (PyModule_AddObject(mod, "Process", (PyObject *)&ProcessType) < 0)
        goto fail;
    Py_INCREF(&LinkTransmitType);
    if (PyModule_AddObject(mod, "LinkTransmit",
                           (PyObject *)&LinkTransmitType) < 0)
        goto fail;
    Py_INCREF(&SlotTransmitType);
    if (PyModule_AddObject(mod, "SlotTransmit",
                           (PyObject *)&SlotTransmitType) < 0)
        goto fail;
    Py_INCREF(&FaultHookType);
    if (PyModule_AddObject(mod, "FaultHook", (PyObject *)&FaultHookType) < 0)
        goto fail;
    return mod;
fail:
    Py_DECREF(mod);
    return NULL;
}
