"""Shared-memory blocks backing the distributed ingest tier.

Each collector worker owns one ``multiprocessing.shared_memory``
segment holding the worker's additive oracle state — the mechanism's
:class:`~repro.frequency_oracles.base.SupportAccumulator` support
vectors, bound in place via
:meth:`~repro.core.base.RangeQueryMechanism.bind_accumulator_views` —
so ``partial_fit`` updates are visible to the merge coordinator with
no serialization at all (this replaces the JSON ``shard_state``
round-trip on the hot path).

A segment starts with an int64 header::

    [total_reports, batches_done, last_seq, slot counts...]

followed by the float64 support vectors.  Workers publish the header
and payload under a per-worker lock; the coordinator takes the same lock
to copy a consistent cut (always "exactly after some completed
batch", never a torn mid-batch state).

Lifecycle: the parent process creates and eventually ``close`` +
``unlink``\\ s every segment; workers ``attach`` by name and only
``close`` their mapping.  Under the ``spawn`` start method the
attaching process additionally unregisters the segment from its own
``resource_tracker`` — before Python 3.13 an attach *registers* the
segment too, and the tracker of an exiting worker would otherwise
unlink memory the parent is still serving from.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: Fixed int64 header fields, before the per-slot report counters.
HEADER_TOTAL_REPORTS = 0
HEADER_BATCHES_DONE = 1
HEADER_LAST_SEQ = 2
HEADER_FIXED_FIELDS = 3

_WORD = 8  # bytes per int64/float64 word


def _unregister_attachment(shm: shared_memory.SharedMemory) -> None:
    """Forget an attached segment in this process's resource tracker.

    Only needed (and only safe) when the attaching process has its own
    tracker — i.e. under ``spawn``.  Under ``fork`` the tracker is
    shared with the creating parent, and unregistering here would
    erase the parent's crash-cleanup registration.
    """
    if os.name == "posix":
        resource_tracker.unregister(shm._name, "shared_memory")


class AccumulatorLayout:
    """Byte layout of one worker's shared accumulator block.

    ``slots`` is the mechanism's ordered ``(slot key, vector length)``
    list from :meth:`~repro.core.base.RangeQueryMechanism.
    accumulator_slots`; every process that builds the layout from the
    same mechanism configuration agrees on it byte for byte.
    """

    def __init__(self, slots: list[tuple[str, int]]):
        self.slots = [(str(key), int(length)) for key, length in slots]
        if not self.slots:
            raise ValueError("accumulator layout needs at least one slot")
        self._offsets: dict[str, tuple[int, int]] = {}
        cursor = 0
        for key, length in self.slots:
            if length < 1:
                raise ValueError(f"slot {key!r} has non-positive length")
            if key in self._offsets:
                raise ValueError(f"duplicate slot key {key!r}")
            self._offsets[key] = (cursor, length)
            cursor += length
        self.payload_floats = cursor

    @property
    def header_words(self) -> int:
        """Fixed header fields plus one per-slot report counter."""
        return HEADER_FIXED_FIELDS + len(self.slots)

    @property
    def nbytes(self) -> int:
        return _WORD * (self.header_words + self.payload_floats)

    def slot_range(self, key: str) -> tuple[int, int]:
        """``(start, length)`` of one slot within the payload region."""
        return self._offsets[key]


class SharedAccumulatorBlock:
    """One worker's shared-memory view of its additive oracle state."""

    def __init__(self, layout: AccumulatorLayout,
                 shm: shared_memory.SharedMemory, owner: bool):
        self.layout = layout
        self._shm = shm
        self._owner = owner
        self.header = np.ndarray((layout.header_words,), dtype=np.int64,
                                 buffer=shm.buf)
        self._payload = np.ndarray((layout.payload_floats,),
                                   dtype=np.float64, buffer=shm.buf,
                                   offset=_WORD * layout.header_words)

    @classmethod
    def create(cls, layout: AccumulatorLayout) -> "SharedAccumulatorBlock":
        shm = shared_memory.SharedMemory(create=True, size=layout.nbytes)
        block = cls(layout, shm, owner=True)
        block.header[:] = 0
        block._payload[:] = 0.0
        return block

    @classmethod
    def attach(cls, layout: AccumulatorLayout, name: str, *,
               unregister: bool = False) -> "SharedAccumulatorBlock":
        shm = shared_memory.SharedMemory(name=name)
        if unregister:
            _unregister_attachment(shm)
        return cls(layout, shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def views(self) -> dict[str, np.ndarray]:
        """Per-slot float64 views, ready for ``bind_accumulator_views``."""
        views = {}
        for key, _ in self.layout.slots:
            start, length = self.layout.slot_range(key)
            views[key] = self._payload[start:start + length]
        return views

    def slot_counts(self) -> np.ndarray:
        """View of the per-slot report counters (header tail)."""
        return self.header[HEADER_FIXED_FIELDS:]

    def close(self) -> None:
        """Drop this mapping (and the segment itself for the owner)."""
        self.header = None
        self._payload = None
        self._shm.close()
        if self._owner:
            self._shm.unlink()
