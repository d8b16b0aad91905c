"""Runtime side of fault injection: walk the plan as virtual time passes.

The :class:`FaultInjector` owns a compiled :class:`~.plan.FaultPlan` and
a cursor over its timeline.  The engine drains due events between heap
pops (:meth:`pop_due`), applies them, and reports back what happened
(:meth:`record`); windowed faults are answered as point queries
(:meth:`io_extra`, :meth:`probe_corrupt`).  The injector draws no
randomness — every decision was made at plan-compile time — so it can
sit inside the engine's event loop without perturbing any RNG stream.

An injector over :meth:`FaultPlan.none` is inert: ``pop_due`` never fires,
the window queries return falsy, and :meth:`publish` writes nothing, so
a run with an installed-but-empty injector is byte-identical to a run
with no injector at all (the differential contract in docs/faults.md).
"""

from __future__ import annotations

from typing import Optional

from .plan import FAULT_KINDS, FaultEvent, FaultPlan


class FaultInjector:
    """Stateful cursor over one run's fault timeline."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._cursor = 0
        self.applied: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.missed: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        #: Commits whose stall was inflated by an I/O spike window.
        self.io_spike_commits = 0
        #: Probe observations redirected to a stale headp.
        self.corrupted_probes = 0
        #: thread -> virtual time of the earliest unrecovered fault.
        self._recovery_pending: dict[int, int] = {}
        #: Cycles from a thread-scoped fault to that thread's next commit.
        self.recovery_cycles: list[int] = []

    @property
    def enabled(self) -> bool:
        return self.plan.enabled

    # ------------------------------------------------------------------
    # timeline cursor
    # ------------------------------------------------------------------
    def peek(self) -> Optional[FaultEvent]:
        """The next unfired event, or None when the timeline is drained."""
        events = self.plan.events
        return events[self._cursor] if self._cursor < len(events) else None

    def pop_due(self, upto: int) -> Optional[FaultEvent]:
        """Consume the next event if it is stamped at or before ``upto``."""
        ev = self.peek()
        if ev is not None and ev.when <= upto:
            self._cursor += 1
            return ev
        return None

    # ------------------------------------------------------------------
    # windowed faults (point queries, no cursor interaction)
    # ------------------------------------------------------------------
    def io_extra(self, now: int) -> int:
        """Extra commit-stall cycles from I/O spike windows covering ``now``."""
        extra = 0
        for w in self.plan.io_windows:
            if w.when <= now < w.end:
                extra += w.magnitude
        if extra:
            self.io_spike_commits += 1
        return extra

    def probe_corrupt(self, now: int) -> bool:
        """True when ``now`` falls inside a probe-corruption window."""
        for w in self.plan.probe_windows:
            if w.when <= now < w.end:
                self.corrupted_probes += 1
                return True
        return False

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def record(self, ev: FaultEvent, applied: bool, now: int) -> None:
        """Note one fired event; track recovery for thread-scoped hits."""
        (self.applied if applied else self.missed)[ev.kind] += 1
        if applied and ev.thread >= 0:
            self._recovery_pending.setdefault(ev.thread, now)

    def note_recovery(self, thread_id: int, now: int) -> None:
        """A thread committed: close its recovery window, if one is open."""
        t0 = self._recovery_pending.pop(thread_id, None)
        if t0 is not None:
            self.recovery_cycles.append(now - t0)

    def retarget_recovery(self, old_thread: int, new_thread: int) -> None:
        """Move an open recovery window (crash requeued its transaction)."""
        t0 = self._recovery_pending.pop(old_thread, None)
        if t0 is not None:
            self._recovery_pending.setdefault(new_thread, t0)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def publish(self, registry) -> None:
        """Fault metrics into a MetricsRegistry; no-op when plan is empty."""
        if not self.enabled:
            return
        for kind in FAULT_KINDS:
            if self.applied[kind]:
                registry.counter(f"faults.applied.{kind}").inc(self.applied[kind])
            if self.missed[kind]:
                registry.counter(f"faults.missed.{kind}").inc(self.missed[kind])
        registry.counter("faults.io_spike_commits").inc(self.io_spike_commits)
        registry.counter("faults.corrupted_probes").inc(self.corrupted_probes)
        registry.counter("faults.recovered").inc(len(self.recovery_cycles))
        registry.gauge("faults.mean_recovery_cycles").set(
            sum(self.recovery_cycles) // len(self.recovery_cycles)
            if self.recovery_cycles else 0)

    def summary(self) -> str:
        """One human line per fired fault kind (CLI output)."""
        lines = []
        for kind in FAULT_KINDS:
            a, m = self.applied[kind], self.missed[kind]
            if a or m:
                lines.append(f"  {kind:18s} applied={a} missed={m}")
        if self.io_spike_commits:
            lines.append(f"  {'io-hit commits':18s} {self.io_spike_commits}")
        if self.corrupted_probes:
            lines.append(f"  {'corrupted probes':18s} {self.corrupted_probes}")
        if self.recovery_cycles:
            mean = sum(self.recovery_cycles) // len(self.recovery_cycles)
            lines.append(f"  {'mean recovery':18s} {mean:,} cycles "
                         f"({len(self.recovery_cycles)} recoveries)")
        return "\n".join(lines) if lines else "  (no faults fired)"
