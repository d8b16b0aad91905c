"""Epoch micro-batching: admitted transactions -> closed epochs.

Batch-epoch scheduling is the natural unit for a scheduling front door
(Strife schedules whole batches; TSKD's TsPAR needs a bundle to build
RC-free queues from).  The batcher accumulates admitted submissions into
the *current* epoch and closes it when either bound trips:

* **size** — the epoch reached ``max_txns`` transactions, or
* **deadline** — ``max_ms`` wall milliseconds elapsed since the epoch's
  first admission (an epoch's clock starts at its first transaction, so
  an idle server never spins closing empty epochs).

Every closed epoch goes to ``sink``, a queue the server's dispatcher
consumes; ``flush`` closes a partial epoch early (drain path) and
``shutdown`` additionally puts an end-of-stream ``None`` on the sink.

The server (:mod:`repro.serve.server`) runs one batcher per shard plus
one for cross-shard traffic, all sharing one sink and one ``id_source``:
a monotone counter, so epoch ids are globally unique and ordered by
close time across all batchers.  Deadline timers stay strictly
per-batcher and generation-counted: an idle shard's batcher never arms
a timer, and one batcher's deadline can never close another batcher's
epoch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..txn.transaction import Transaction

#: Why an epoch closed.
CLOSE_SIZE = "size"
CLOSE_DEADLINE = "deadline"
CLOSE_DRAIN = "drain"


@dataclass
class Submission:
    """One admitted transaction riding through the serving pipeline."""

    tid: int
    req_id: int
    txn: Transaction
    #: Wall (monotonic) instant the submit frame was admitted.
    submitted_at: float
    #: Resolves to the outcome dict the server turns into a response
    #: frame; None for driver-internal submissions (tests).
    future: Optional[asyncio.Future] = None
    #: Opaque connection handle the response goes back over.
    conn: object = None


@dataclass
class Epoch:
    """A closed batch, ready for the scheduling stage."""

    epoch_id: int
    subs: list[Submission]
    opened_at: float
    closed_at: float
    reason: str
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.subs)

    def transactions(self) -> list[Transaction]:
        return [s.txn for s in self.subs]


class EpochBatcher:
    """Size/deadline epoch closer over an asyncio event loop."""

    def __init__(
        self,
        max_txns: int,
        max_ms: float,
        sink: asyncio.Queue,
        id_source: Callable[[], int],
        meta: Optional[dict] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_txns <= 0:
            raise ValueError(f"max_txns must be positive, got {max_txns}")
        if max_ms <= 0:
            raise ValueError(f"max_ms must be positive, got {max_ms}")
        self.max_txns = max_txns
        self.max_ms = max_ms
        self._clock = clock
        self._id_source = id_source
        self._sink = sink
        #: Copied into every closed epoch's ``meta`` so a shared-sink
        #: consumer can tell which batcher (shard) it came from.
        self._meta = dict(meta) if meta else {}
        self._current: list[Submission] = []
        self._opened_at = 0.0
        self._closed = 0
        #: Bumps on every close so a stale deadline timer can recognise
        #: that "its" epoch is already gone.
        self._generation = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._shut = False
        #: Epochs closed so far, by reason (observability).
        self.closed_by_reason: dict[str, int] = {}

    # -- producer side (event-loop thread only) -------------------------
    @property
    def pending(self) -> int:
        """Transactions sitting in the not-yet-closed epoch."""
        return len(self._current)

    @property
    def epochs_closed(self) -> int:
        return self._closed

    @property
    def timer_armed(self) -> bool:
        """True while a deadline timer is pending (idle batchers arm none)."""
        return self._timer is not None

    def put(self, sub: Submission) -> None:
        """Admit one submission into the current epoch."""
        if self._shut:
            raise RuntimeError("batcher is shut down")
        if not self._current:
            self._opened_at = self._clock()
            self._arm_deadline()
        self._current.append(sub)
        if len(self._current) >= self.max_txns:
            self._close(CLOSE_SIZE)

    def flush(self, reason: str = CLOSE_DRAIN) -> None:
        """Close the current epoch now, even if partial (drain path)."""
        if self._current:
            self._close(reason)

    def shutdown(self) -> None:
        """Flush and signal end-of-stream to the consumer."""
        if self._shut:
            return
        self.flush()
        # Defensive: flush closes any open epoch (which cancels its
        # timer), so no timer should survive to here — but a cancelled
        # straggler firing after shutdown must find nothing armed.
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._shut = True
        self._sink.put_nowait(None)

    # -- internals -------------------------------------------------------
    def _arm_deadline(self) -> None:
        loop = asyncio.get_running_loop()
        generation = self._generation
        self._timer = loop.call_later(
            self.max_ms / 1_000.0, self._deadline, generation
        )

    def _deadline(self, generation: int) -> None:
        if generation != self._generation or not self._current:
            return  # the epoch this timer guarded already closed
        self._close(CLOSE_DEADLINE)

    def _close(self, reason: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._generation += 1
        epoch = Epoch(
            epoch_id=self._id_source(),
            subs=self._current,
            opened_at=self._opened_at,
            closed_at=self._clock(),
            reason=reason,
            meta=dict(self._meta),
        )
        self._closed += 1
        self._current = []
        self.closed_by_reason[reason] = self.closed_by_reason.get(reason, 0) + 1
        self._sink.put_nowait(epoch)
