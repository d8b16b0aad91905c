"""Deterministic fault plans: seeded chaos, compiled ahead of execution.

A :class:`FaultSpec` says *how much* chaos a run should suffer — so many
spurious aborts, thread stalls, crashes, I/O latency spikes, and
progress-table probe-corruption windows — and from which seed.
:meth:`FaultPlan.compile` turns the spec into a concrete timeline of
:class:`FaultEvent` instances, each stamped at virtual-cycle precision.

All randomness is drawn at *compile* time, from named forks of one
:class:`~repro.common.rng.Rng` seeded by the spec (one stream per fault
kind), never during execution.  Two consequences:

* every chaos run is bit-reproducible: the same ``(spec, num_threads)``
  pair always compiles to the same timeline, on any machine, under any
  ``PYTHONHASHSEED`` — which is what makes the differential and
  invariant test harness possible (docs/faults.md);
* injecting one extra fault cannot shift the draws behind any other
  fault, and cannot shift the engine's restart jitter either (the
  engine's restart stream is its own named stream; see
  ``MulticoreEngine``).

``FaultPlan.digest`` content-addresses the compiled timeline, and the
parallel executor folds it into each run cell's key so cached cells are
never reused across different fault plans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..common.errors import ConfigError
from ..common.hashing import config_hash
from ..common.rng import Rng

#: Fault kinds a plan may contain, in documentation order.
FAULT_KINDS = (
    "spurious_abort",
    "stall",
    "crash",
    "io_spike",
    "probe_corruption",
)


@dataclass(frozen=True)
class FaultSpec:
    """Seeded description of how much chaos to inject into one run.

    All counts default to zero, so ``FaultSpec()`` is the no-fault spec
    (and :meth:`FaultPlan.none` compiles it to an empty timeline).
    Event times are drawn uniformly over ``[0, horizon)`` virtual
    cycles; events that land after the run finishes simply never fire.
    """

    seed: int = 0
    #: Virtual-cycle window over which fault times are drawn.
    horizon: int = 2_000_000
    #: Forced aborts of whatever transaction a thread is executing
    #: (poisoned transactions; they retry under the restart policy).
    spurious_aborts: int = 0
    #: Thread stalls: the thread's next step is delayed by ~stall_cycles.
    stalls: int = 0
    stall_cycles: int = 50_000
    #: Fail-stop thread crashes.  The crashed thread's buffer is
    #: redistributed to survivors so no transaction is lost; at most
    #: ``num_threads - 1`` threads crash (one always survives).
    crashes: int = 0
    #: Transient I/O latency spikes: commits inside a spike window pay
    #: ``io_spike_cycles`` extra commit-stall cycles.
    io_spikes: int = 0
    io_spike_cycles: int = 25_000
    io_spike_len: int = 100_000
    #: Progress-table corruption windows: every probe observation inside
    #: the window reads the *previous* headp (a forced stale read),
    #: stressing TsDEFER's lock-free probing.
    probe_corruptions: int = 0
    probe_corruption_len: int = 100_000

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        for name in ("spurious_aborts", "stalls", "crashes", "io_spikes",
                     "probe_corruptions"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("stall_cycles", "io_spike_cycles", "io_spike_len",
                     "probe_corruption_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def enabled(self) -> bool:
        """True when the spec injects at least one fault."""
        return (self.spurious_aborts + self.stalls + self.crashes
                + self.io_spikes + self.probe_corruptions) > 0

    def with_(self, **kw) -> "FaultSpec":
        return replace(self, **kw)


@dataclass(frozen=True)
class ShardFailStop:
    """Fail-stop one serving-cluster shard worker mid-run.

    A process-level fault for :mod:`repro.serve.server`: the worker for
    ``shard`` hard-exits (``os._exit``) upon receiving its
    ``after_epochs``-th epoch, before executing it.  Unlike the
    engine-level ``crash`` kind above (a simulated thread dying inside
    one engine), this kills a whole engine process; the cluster must
    answer every affected admitted transaction with an explicit
    backpressure reject and keep serving the surviving shards.
    """

    shard: int
    #: The worker dies on receipt of its Nth epoch (1-based).
    after_epochs: int = 1

    def __post_init__(self):
        if self.shard < 0:
            raise ConfigError(f"shard must be >= 0, got {self.shard}")
        if self.after_epochs < 1:
            raise ConfigError(
                f"after_epochs must be >= 1, got {self.after_epochs}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """One injection, stamped at virtual-cycle precision.

    ``thread`` is the target thread for thread-scoped kinds and ``-1``
    for run-scoped windows (I/O spikes, probe corruption).  ``duration``
    is the window length for windowed kinds and the stall length for
    stalls; ``magnitude`` is the extra commit-stall for I/O spikes.
    """

    when: int
    kind: str
    thread: int = -1
    duration: int = 0
    magnitude: int = 0

    @property
    def end(self) -> int:
        return self.when + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """A compiled, immutable fault timeline for one run."""

    spec: FaultSpec
    num_threads: int
    #: All events, sorted by (when, kind, thread) — total order, so two
    #: compilations of the same (spec, k) are element-wise equal.
    events: tuple[FaultEvent, ...] = ()

    @property
    def enabled(self) -> bool:
        return bool(self.events)

    @property
    def digest(self) -> str:
        """Content hash of the full timeline (cell-key component)."""
        return config_hash({
            "schema": "repro.faultplan/1",
            "spec": self.spec,
            "num_threads": self.num_threads,
            "events": list(self.events),
        })

    def of_kind(self, kind: str) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def io_windows(self) -> list[FaultEvent]:
        return self.of_kind("io_spike")

    @property
    def probe_windows(self) -> list[FaultEvent]:
        return self.of_kind("probe_corruption")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: an installed injector that never injects."""
        return cls(spec=FaultSpec(), num_threads=0, events=())

    @classmethod
    def compile(cls, spec: FaultSpec, num_threads: int) -> "FaultPlan":
        """Draw the timeline for ``spec`` on a ``num_threads`` engine.

        Each fault kind draws from its own named fork of the spec's
        seed, so changing one kind's count never shifts another kind's
        draws.  Crash targets are distinct threads and at most
        ``num_threads - 1`` of them, so at least one thread survives to
        absorb redistributed buffers.
        """
        if num_threads < 0:
            raise ConfigError(f"num_threads must be >= 0, got {num_threads}")
        if not spec.enabled or num_threads == 0:
            return cls(spec=spec, num_threads=num_threads, events=())
        root = Rng(spec.seed * 7919 + 13)
        events: list[FaultEvent] = []

        r = root.fork(1)
        for _ in range(spec.spurious_aborts):
            events.append(FaultEvent(
                when=r.randint(0, spec.horizon - 1), kind="spurious_abort",
                thread=r.randint(0, num_threads - 1)))

        r = root.fork(2)
        for _ in range(spec.stalls):
            events.append(FaultEvent(
                when=r.randint(0, spec.horizon - 1), kind="stall",
                thread=r.randint(0, num_threads - 1),
                duration=r.randint(spec.stall_cycles // 2,
                                   spec.stall_cycles * 3 // 2)))

        r = root.fork(3)
        n_crashes = min(spec.crashes, num_threads - 1)
        for victim in r.sample(range(num_threads), n_crashes):
            events.append(FaultEvent(
                when=r.randint(0, spec.horizon - 1), kind="crash",
                thread=victim))

        r = root.fork(4)
        for _ in range(spec.io_spikes):
            events.append(FaultEvent(
                when=r.randint(0, spec.horizon - 1), kind="io_spike",
                duration=spec.io_spike_len,
                magnitude=spec.io_spike_cycles))

        r = root.fork(5)
        for _ in range(spec.probe_corruptions):
            events.append(FaultEvent(
                when=r.randint(0, spec.horizon - 1), kind="probe_corruption",
                duration=spec.probe_corruption_len))

        events.sort(key=lambda e: (e.when, e.kind, e.thread))
        return cls(spec=spec, num_threads=num_threads, events=tuple(events))


def plan_for(spec: Optional[FaultSpec], num_threads: int) -> Optional[FaultPlan]:
    """Compile ``spec`` when it injects anything; None otherwise."""
    if spec is None or not spec.enabled:
        return None
    return FaultPlan.compile(spec, num_threads)
