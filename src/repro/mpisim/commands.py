"""Commands that rank programs yield to the simulation engine.

A *rank program* is a Python generator: it yields command objects describing
MPI calls and modelled compute, and receives the command's result back from
the engine at the same ``yield`` expression::

    def program(rank, size):
        req = yield Irecv(source=(rank - 1) % size)
        yield Isend(dest=(rank + 1) % size, data=my_chunk)
        yield Compute(seconds=0.002, category="ComDecom")   # e.g. compression
        incoming = yield Wait(req, category="Wait")
        ...

``source`` and ``dest`` are ranks of the program's own job (for a simulation
started with a program factory: of the whole engine); the engine resolves
them to its slots.

The engine advances each rank's *virtual clock*; ``Compute`` advances it by a
caller-supplied duration (typically derived from
:class:`repro.perfmodel.CostModel`), communication commands advance it
according to the network model.  Every timed command carries a ``category``
label used to build the per-category execution-time breakdowns shown in the
paper's figures (ComDecom / Allgather / Memcpy / Wait / Reduction / Others).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.mpisim.requests import Request

__all__ = [
    "Command",
    "Compute",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Test",
    "Probe",
    "Barrier",
    "CATEGORY_OTHERS",
]

#: default category for unattributed time
CATEGORY_OTHERS = "Others"


class Command:
    """Marker base class for engine commands."""

    __slots__ = ()


@dataclass(slots=True)
class Compute(Command):
    """Advance the rank's virtual clock by ``seconds`` of local computation.

    ``category`` attributes the time in the breakdown (e.g. "ComDecom",
    "Reduction", "Memcpy", "Others").  The result of the yield is ``None``.
    """

    seconds: float
    category: str = CATEGORY_OTHERS

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"Compute.seconds must be >= 0, got {self.seconds}")


@dataclass(slots=True)
class Isend(Command):
    """Post a non-blocking send.  The yield result is a :class:`SendRequest`.

    ``data`` is delivered to the receiver *by reference* (no copy); rank
    programs must not mutate a buffer they have already sent.  ``nbytes``
    overrides the payload size seen by the network model — this is how the
    harness simulates paper-scale messages (hundreds of MB) while carrying
    proportionally smaller real arrays (see ``CCollConfig.size_multiplier``).
    Without it the payload must size itself (``None``, an array, a bytes-like):
    any other object is an ``InvalidCommandError``, never serialised for a guess.
    """

    dest: int
    data: Any = None
    tag: int = 0
    nbytes: Optional[int] = None


@dataclass(slots=True)
class Irecv(Command):
    """Post a non-blocking receive.  The yield result is a :class:`RecvRequest`."""

    source: int
    tag: int = 0


@dataclass(slots=True)
class Wait(Command):
    """Block until ``request`` completes.

    The yield result is the received data for receive requests and ``None``
    for send requests.  Any time spent blocked is attributed to ``category``.
    """

    request: Request
    category: str = "Wait"


@dataclass(slots=True)
class Waitall(Command):
    """Block until every request in ``requests`` completes.

    The yield result is a list with one entry per request (received data for
    receives, ``None`` for sends), in the order given.
    """

    requests: Sequence[Request] = field(default_factory=list)
    category: str = "Wait"


@dataclass(slots=True)
class Test(Command):
    """Poll the progress engine (MPI_Test).

    Entering the progress engine lets *all* of this rank's in-flight transfers
    advance (this is the hook the pipelined compression uses to overlap
    communication with compression).  The yield result is ``True`` when
    ``request`` has completed.  The call itself consumes no virtual time.
    """

    request: Request


@dataclass(slots=True)
class Probe(Command):
    """Non-destructively ask whether a matching message has been posted.

    The yield result is ``True`` if a send matching (source, tag) has been
    posted, ``False`` otherwise.  Consumes no virtual time.
    """

    source: int
    tag: int = 0


@dataclass(slots=True)
class Barrier(Command):
    """Synchronise the ranks of the issuing rank's job: every one of them
    resumes at the same virtual time (the maximum arrival time), with the
    blocked span attributed to ``category``.

    The barrier spans the job and nothing else — idle slots and other jobs
    sharing the engine neither wait in it nor hold it up.
    """

    category: str = "Others"
