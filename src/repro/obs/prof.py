"""Section-accounting profiler for the DES hot loop.

The ROADMAP's "make a single run fast" item needs to know where a run's
wall-clock time actually goes before anything can be flattened: the
event-loop machinery itself, the per-protocol CC calls, TsDEFER's
progress-table probes, fault application, or the tracing layer.  This
module answers that with a *section stack*: instrumented components push
a named section on entry and pop on exit, and every elapsed nanosecond
is attributed to whichever section is on top at the time — so nested
sections report **self time** (a ``cc.occ.access`` call inside
``engine.op`` is charged to the CC section, not double-counted), and the
per-section self times sum to the profiled window exactly.

Two attribution modes:

* **wall** (default, ``Profiler(timing=True)``) — ``perf_counter_ns``
  deltas per section, plus call counts and deterministic virtual-cycle
  tallies.  This is what ``repro run --profile`` prints.
* **virtual** (``timing=False``) — no wall clock is read at all; the
  profile holds only call counts and virtual-cycle attributions, both
  pure functions of the simulated run, so two profiles of the same
  seeded run are byte-identical (the reproducible mode CI can diff).

The engines never call a profiler directly: it reaches them inside an
:class:`~repro.obs.instrument.Instrument`, which wraps each collaborator
call in its section once, at engine construction, and charges each
event's virtual cycles at the event site.  An unprofiled, untraced
engine holds no instrument at all, and an attached profiler never
touches the virtual clock or any RNG stream — a profiled run produces
bit-identical results (see ``tests/obs/test_prof.py``).

Section name inventory (dotted, component first):

==========================  ============================================
section                     covers
==========================  ============================================
other                       profiled window outside any named section
engine.loop                 heap pops, event dispatch, spurious wakeups
engine.arrival              open-system arrival handling
engine.dispatch             buffer pop, gate/filter decision, regPos
engine.op                   one operation step (minus nested CC time)
engine.precommit            pre-commit entry (minus nested CC time)
engine.commit               validation/install step (minus CC time)
engine.finish               commit-stall completion bookkeeping
engine.abort                abort path incl. restart-policy decision
cc.<proto>.begin            protocol ``begin`` (snapshot refresh)
cc.<proto>.access           protocol ``on_access``
cc.<proto>.precommit        protocol ``pre_commit`` (lock acquisition)
cc.<proto>.validate         protocol ``on_commit`` (validation)
cc.<proto>.install          protocol ``install``
cc.<proto>.cleanup          protocol ``cleanup`` (commit or abort)
tsdefer.filter              dispatch-filter call (minus probe time)
progress_table.probe        Section 5 lookup probes
faults.apply                injected-fault application
obs.trace                   tracer emission (tracing's own cost)
bench.warmup                history-cost warm-up before the run
bench.schedule              TSKD prepare, conflict graph included
==========================  ============================================
"""

from __future__ import annotations

import time
from typing import Optional

#: Root section: time inside the profiled window not claimed by any
#: pushed section (workload construction, result assembly, ...).
ROOT_SECTION = "other"


class SectionStat:
    """Accumulated self-time of one named section."""

    __slots__ = ("calls", "wall_ns", "vcycles")

    def __init__(self):
        self.calls = 0
        self.wall_ns = 0
        self.vcycles = 0

    def to_dict(self) -> dict:
        return {"calls": self.calls, "wall_ns": self.wall_ns,
                "vcycles": self.vcycles}


class Profiler:
    """Self-time section stack; see the module docstring for semantics.

    ``start()`` opens the profiled window (pushing :data:`ROOT_SECTION`),
    ``push``/``pop`` bracket instrumented regions, ``stop()`` closes the
    window.  ``add_vcycles`` attributes deterministic virtual-cycle
    spans independently of the wall clock.
    """

    def __init__(self, timing: bool = True):
        #: False selects the deterministic virtual-cycle mode: the wall
        #: clock is never read, so the profile is reproducible.
        self.timing = timing
        self.sections: dict[str, SectionStat] = {}
        self._stack: list[SectionStat] = []
        self._last_ns = 0
        self._total_ns = 0
        self._running = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("profiler already started")
        self._running = True
        self._stack = [self._section(ROOT_SECTION)]
        if self.timing:
            self._last_ns = time.perf_counter_ns()

    def stop(self) -> None:
        if not self._running:
            raise RuntimeError("profiler is not running")
        while len(self._stack) > 1:  # pragma: no cover - defensive
            self.pop()
        if self.timing:
            now = time.perf_counter_ns()
            self._stack[-1].wall_ns += now - self._last_ns
            self._total_ns += now - self._last_ns
        self._stack = []
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    @property
    def total_wall_ns(self) -> int:
        """Wall nanoseconds attributed so far (0 in virtual mode)."""
        return self._total_ns

    # -- hot-path hooks --------------------------------------------------
    def _section(self, name: str) -> SectionStat:
        got = self.sections.get(name)
        if got is None:
            got = self.sections[name] = SectionStat()
        return got

    def push(self, name: str) -> None:
        """Enter a section: suspend the current one, start attributing
        to ``name``.  Must be balanced with :meth:`pop`."""
        stat = self.sections.get(name)
        if stat is None:
            stat = self.sections[name] = SectionStat()
        stat.calls += 1
        if self.timing:
            now = time.perf_counter_ns()
            top = self._stack[-1]
            top.wall_ns += now - self._last_ns
            self._total_ns += now - self._last_ns
            self._last_ns = now
        self._stack.append(stat)

    def pop(self) -> None:
        """Leave the current section, resuming its parent."""
        stat = self._stack.pop()
        if self.timing:
            now = time.perf_counter_ns()
            stat.wall_ns += now - self._last_ns
            self._total_ns += now - self._last_ns
            self._last_ns = now

    def count(self, name: str, n: int = 1) -> None:
        """Bump a section's call count without entering it."""
        self._section(name).calls += n

    def add_vcycles(self, name: str, cycles: int) -> None:
        """Attribute deterministic virtual cycles to a section."""
        self._section(name).vcycles += cycles

    # -- results ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Serializable profile: mode, total, per-section self stats."""
        return {
            "mode": "wall" if self.timing else "virtual",
            "total_wall_ns": self._total_ns,
            "sections": {name: stat.to_dict()
                         for name, stat in sorted(self.sections.items())},
        }


# ---------------------------------------------------------------------------
# process-wide active profiler (the ``experiment --profile`` path)
# ---------------------------------------------------------------------------
#: One profiler the bench runner picks up when no explicit one is passed
#: — how ``repro experiment --profile`` profiles every run of a sweep
#: without threading a parameter through the experiment registry.
_ACTIVE: Optional[Profiler] = None


def activate_profiler(prof: Profiler) -> None:
    """Install ``prof`` as the process-wide default for run_system."""
    global _ACTIVE
    _ACTIVE = prof


def deactivate_profiler() -> None:
    global _ACTIVE
    _ACTIVE = None


def get_active_profiler() -> Optional[Profiler]:
    return _ACTIVE
