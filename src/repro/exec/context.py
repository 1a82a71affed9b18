"""Ambient *unit context*: which checkpoint unit this thread is executing.

The acquisition pipeline partitions every sequential random stream —
Deep-Web fault streams, backoff jitter — by checkpoint unit
``(phase, interface_id, attribute)``. A stream keyed by unit starts at
position 0 whenever that unit runs, so its draws cannot depend on which
units ran before it or on how much of the run was replayed from a
journal. That makes "a resumed run draws exactly what an uninterrupted
one did" a structural property, and it removes the need to fast-forward
streams on resume.

The acquirer brackets each unit's work with :func:`unit_scope`, and the
fault and retry layers ask :func:`current_unit` which per-unit stream
to draw from.
The context is thread-local, so a thread that shares a substrate with
the run never sees the run's unit. Code running
outside any unit (direct substrate use in tests, the ``discover`` CLI)
sees ``None``; the streams then use the empty unit key ``()``, one
shared stream per source and one for backoff jitter.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

__all__ = ["UnitKey", "unit_scope", "current_unit"]

#: (phase, interface_id, attribute_name) — the checkpoint unit identity.
UnitKey = Tuple[str, str, str]

_state = threading.local()


@contextmanager
def unit_scope(unit: UnitKey) -> Iterator[None]:
    """Mark this thread as executing ``unit`` for the duration of the block."""
    previous = getattr(_state, "unit", None)
    _state.unit = tuple(unit)
    try:
        yield
    finally:
        _state.unit = previous


def current_unit() -> Optional[UnitKey]:
    """The unit this thread is executing, or ``None`` outside any unit."""
    return getattr(_state, "unit", None)
