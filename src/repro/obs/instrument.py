"""The engines' one instrumentation hook: span events and profiler sections.

An engine reports what happens inside it through one optional
:class:`Instrument` over a tracer (:mod:`repro.obs.tracing`), a profiler
(:mod:`repro.obs.prof`), or both.  With neither there is no instrument:
the engine holds ``None`` and each event site costs one ``is None`` test.

* **Event sites.**  Each engine event is one guarded call.  It emits the
  :class:`~repro.obs.tracing.TraceEvent` when tracing (charged to the
  ``obs.trace`` section when profiling) and attributes the event's
  virtual cycles to its section.
* **Wall-time sections.**  :meth:`Instrument.wrap` puts a section around
  each collaborator call (CC protocol hooks, the dispatch filter,
  progress-table probes, the engine's phase handlers) once, at engine
  construction; the engine then calls them unconditionally.  Without a
  profiler nothing is wrapped.

Nothing here reads the virtual clock or draws from any RNG stream, so an
instrumented run schedules bit-identically to a bare one.
"""

from __future__ import annotations

from typing import Optional

from .prof import Profiler
from .tracing import TraceEvent, Tracer


def _in_section(prof: Profiler, name: str, fn):
    push, pop = prof.push, prof.pop

    def sectioned(*args, **kwargs):
        push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()

    return sectioned


class Instrument:
    """A tracer and/or a profiler, behind one set of event methods."""

    __slots__ = ("tracer", "prof")

    def __init__(self, tracer: Optional[Tracer] = None,
                 prof: Optional[Profiler] = None):
        self.tracer = tracer
        self.prof = prof

    @classmethod
    def of(cls, tracer: Optional[Tracer] = None,
           prof: Optional[Profiler] = None) -> Optional["Instrument"]:
        """The instrument over these sinks, or None when both are None."""
        if tracer is None and prof is None:
            return None
        return cls(tracer, prof)

    def wrap(self, obj, **sections: str) -> None:
        """Shadow each named method of ``obj`` (attribute -> section name)
        with a wrapper that runs it inside that profiler section."""
        prof = self.prof
        if prof is not None:
            for attr, name in sections.items():
                setattr(obj, attr, _in_section(prof, name, getattr(obj, attr)))

    def event(self, t: int, thread: int, kind: str, tid: int, attrs: dict,
              section: Optional[str] = None, cycles: int = 0) -> None:
        """One span event; ``cycles`` virtual cycles go to ``section``."""
        prof = self.prof
        if prof is not None and section is not None:
            prof.add_vcycles(section, cycles)
        if self.tracer is None:
            return
        if prof is None:
            self.tracer.emit(TraceEvent(t, thread, kind, tid, attrs))
            return
        # Emission is tracing's own cost, so it is its own section rather
        # than part of whichever engine section emitted the event.
        prof.push("obs.trace")
        self.tracer.emit(TraceEvent(t, thread, kind, tid, attrs))
        prof.pop()

    def dispatch(self, now: int, thread: int, tid: int, ts: int, ops: int,
                 cost: int, filter_cost: Optional[int]) -> None:
        """A transaction left its buffer to run.  ``cost`` includes the
        dispatch filter's ``filter_cost`` (None when no filter ran)."""
        self._dispatch_cycles(cost, filter_cost)
        if self.tracer is not None:
            self.event(now, thread, "dispatch", tid, {"ts": ts, "ops": ops})

    def defer(self, now: int, thread: int, tid: int, cost: int,
              filter_cost: int) -> None:
        """TsDEFER sent a transaction to the back of its buffer."""
        self._dispatch_cycles(cost, filter_cost)
        if self.tracer is not None:
            self.event(now, thread, "defer", tid, {"cost": cost})

    def _dispatch_cycles(self, cost: int, filter_cost: Optional[int]) -> None:
        prof = self.prof
        if prof is not None:
            if filter_cost is not None:
                prof.add_vcycles("tsdefer.filter", filter_cost)
                cost -= filter_cost
            prof.add_vcycles("engine.dispatch", cost)

    def op(self, now: int, thread: int, tid: int, index: int, key,
           is_write: bool, cycles: int) -> None:
        """One access; its span attributes are built only when tracing."""
        if self.prof is not None:
            self.prof.add_vcycles("engine.op", cycles)
        if self.tracer is not None:
            self.event(now, thread, "op", tid,
                       {"op": index, "key": repr(key),
                        "rw": "w" if is_write else "r"})
