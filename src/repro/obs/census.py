"""A heap census scoped to what one run allocates.

The soak harness, the audit leak gate and the live leak test all ask
the same question: after a full collection, how many objects are
alive, and how many are instances of these classes?  Walking the whole
heap answers it for every object the interpreter ever imported too,
and a full collection traverses all of them.  :func:`heap_scope`
freezes that pre-existing heap out of the collector (``gc.freeze``
moves it to the permanent generation, which neither ``gc.collect()``
nor ``gc.get_objects()`` visits), so each :func:`census` inside the
scope walks only what the scope allocated.

Classes are matched by identity, never by ``__name__``: a
``threading.Event`` is not a scheduler ``Event``.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, NamedTuple

__all__ = ["Census", "census", "heap_scope"]


class Census(NamedTuple):
    """One walk of the collector's tracked objects."""

    #: Live instances of each requested class (exact type, so a
    #: subclass is not counted under its base).
    counts: Dict[type, int]
    #: Every object the walk visited: all tracked objects outside the
    #: frozen heap.
    walked: int


@contextmanager
def heap_scope() -> Iterator[None]:
    """Freeze the heap that exists on entry out of the collector.

    One full collection runs first, so the garbage of whatever ran
    before is freed rather than pinned until the exit.  The exit
    unfreezes, on every path.  Inside a freeze someone else made
    (``gc.get_freeze_count()`` nonzero on entry) the scope leaves the
    collector alone: it never unfreezes a heap it did not freeze, and
    its censuses then also see what was allocated since that freeze.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def census(classes: Iterable[type] = ()) -> Census:
    """Collect, then count the tracked objects and the live instances
    of each of ``classes``, so cycles awaiting collection never read
    as leaks."""
    gc.collect()
    objects = gc.get_objects()
    histogram = Counter(map(type, objects))
    return Census({cls: histogram[cls] for cls in classes}, len(objects))
