"""Request handles returned by non-blocking operations of the simulator.

These mirror ``MPI_Request``: a rank program posts an ``Isend``/``Irecv`` and
receives a request handle back; it later completes the operation with ``Wait``
/ ``Waitall`` or polls it with ``Test``.  As in an MPI library, the handle is
opaque to the program but it *is* the engine's record of the operation, not a
key into a table: it points at the message it sends or receives (a receive's
is set when a send matches it), an unmatched receive queues in the engine as
its handle, and a blocked rank remembers the handle it blocks on.  The engine
keeps a handle only while the operation is unmatched or blocking its rank and
a message only while it is unmatched or in flight, so a finished operation and
its payload live exactly as long as the program holds the handle.  The message
never points back at its handles: there is no reference cycle, and dropping
the handles frees the payload at once.

A program may read ``rank``, ``tag`` and ``dest`` / ``source`` (slot
coordinates); ``owner``, ``message`` and ``post_time`` belong to the engine.
Only the rank that posted an operation may complete or poll it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Request", "SendRequest", "RecvRequest"]


@dataclass(slots=True, eq=False)
class Request:
    """Base request handle: one posted operation of ``rank`` towards ``peer``."""

    rank: int
    peer: int
    tag: int
    #: the engine's state of the posting rank; ``Wait``/``Test`` compare it by
    #: identity, which tells apart ranks and engines alike
    owner: Any = field(repr=False)
    #: the engine's message record (``None`` on a receive until it is matched)
    message: Any = field(default=None, repr=False)


@dataclass(slots=True, eq=False)
class SendRequest(Request):
    """Handle for a posted non-blocking send."""

    @property
    def dest(self) -> int:
        return self.peer


@dataclass(slots=True, eq=False)
class RecvRequest(Request):
    """Handle for a posted non-blocking receive."""

    #: virtual time of the ``Irecv`` (the match starts at the later post)
    post_time: float = 0.0

    @property
    def source(self) -> int:
        return self.peer
