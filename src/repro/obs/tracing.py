"""Structured event tracing for the simulated engine.

The engine (:mod:`repro.sim.engine`) can emit one :class:`TraceEvent` per
interesting instant of a transaction attempt — dispatch, defer decision,
per-operation access, lock block/wake, validation entry, commit install,
abort, and completion — all stamped in *virtual cycles* on the simulated
clock, so a saved trace replays the exact interleaving the run executed.

Tracing is strictly opt-in: a tracer reaches the engine inside its one
:class:`~repro.obs.instrument.Instrument`, which is None when there is
neither a tracer nor a profiler, so a disabled tracer costs one
``is not None`` test per event site and cannot perturb the simulation
(events never touch the clock or any RNG stream — see
``tests/obs/test_tracing.py`` for the byte-identical-result check).

Event kinds (the ``kind`` field; see docs/observability.md for the full
schema):

==========  ========================================================
kind        meaning / extra attrs
==========  ========================================================
dispatch    transaction fetched from the thread-local buffer
defer       TsDEFER sent the transaction to the back of the buffer
op          one read/write/insert access (``op``, ``key``, ``rw``)
block       access blocked on a lock (pessimistic CC)
wake        blocked thread resumed (``waited`` cycles)
validate    commit-phase validation began
commit      validation passed; writes installed at this instant
abort       attempt aborted (``attempt``, ``reason``, ``restart``,
            plus ``requeue`` when the restart policy migrated the retry)
finish      commit stall served; transaction left the thread
fault       injected fault fired (``fault`` kind, ``applied``,
            ``duration``; see repro.faults)
epoch       one serving epoch finished executing (``epoch`` id,
            ``start_cycles``, ``committed``, ``aborts``; emitted by
            the serve pipeline, stamped at the epoch's end cycle)
==========  ========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Optional

#: Every kind the engine emits, in no particular order.
EVENT_KINDS = (
    "dispatch",
    "defer",
    "op",
    "block",
    "wake",
    "validate",
    "commit",
    "abort",
    "finish",
    "fault",
    "epoch",
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured span point on the virtual clock."""

    #: Virtual time in cycles.
    t: int
    #: Simulated thread id.
    thread: int
    #: Event kind — one of :data:`EVENT_KINDS`.
    kind: str
    #: Transaction id the event concerns.
    tid: int
    #: Kind-specific attributes (JSON-serialisable values only).
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"t": self.t, "thread": self.thread, "kind": self.kind,
               "tid": self.tid}
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        return cls(t=d["t"], thread=d["thread"], kind=d["kind"],
                   tid=d["tid"], attrs=d.get("attrs", {}))


class Tracer:
    """Sink interface the engine emits into; subclasses store or stream."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any underlying resource."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ListTracer(Tracer):
    """Collects events in memory — the tracer tests and tools use."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_tid(self, tid: int) -> list[TraceEvent]:
        return [e for e in self.events if e.tid == tid]


class JsonlTracer(Tracer):
    """Streams events to a JSONL file, one event object per line."""

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._file: IO[str] = path_or_file
            self._owned = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owned = True
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), sort_keys=True))
        self._file.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owned and not self._file.closed:
            self._file.close()


def load_trace(path) -> Iterator[TraceEvent]:
    """Replay a saved JSONL span log as :class:`TraceEvent` objects."""
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                yield TraceEvent.from_dict(json.loads(line))


def span_sequence(events: Iterable[TraceEvent], tid: int) -> list[str]:
    """The ordered kind sequence one transaction went through."""
    return [e.kind for e in events if e.tid == tid]


def validate_events(events: Iterable[TraceEvent]) -> Optional[str]:
    """Sanity-check a trace; returns a problem description or None.

    Checks that kinds are known and the virtual clock never runs
    backwards (events are emitted in heap-pop order, so timestamps are
    non-decreasing across the whole stream).
    """
    last_t = None
    for i, e in enumerate(events):
        if e.kind not in EVENT_KINDS:
            return f"event {i}: unknown kind {e.kind!r}"
        if last_t is not None and e.t < last_t:
            return f"event {i}: clock regressed {last_t} -> {e.t}"
        last_t = e.t
    return None
