"""Spans around calls into the program's layers, recorded from outside.

The benchmark does not edit the program to trace it.  Instead a traced
pass replaces a handful of public entry points with wrappers that record
one span per call: its name, start, end and the span that was open when
it started (its parent).  Spans stay in memory until the pass ends.  A
layer's self time is the span's duration minus the time its child spans
cover, so the self times of one pass add up to the pass's wall time.

Wrapped entry points, one per layer:

* ``warmup``: ``repro.bench.runner.warm_up_history``;
* ``conflict_graph``: ``Workload.conflict_graph``;
* ``partition``: ``partition`` of Strife, Schism and Horticulture;
* ``tsgen``: ``TSKD.prepare``, whose partition child is subtracted;
* ``engine``: ``MulticoreEngine.run``, inherited by ``FastEngine``;
* ``progress_table``: ``ProgressTable.probe``, called by TsDEFER's filter;
* ``predict.end_epoch``: ``OnlinePolicy.end_epoch``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Optional


class Tracer:
    """In-memory span recorder that wraps functions in place."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        #: Values a wrapper observed, such as the last conflict graph built.
        self.seen: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner: object, attr: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(result, args)`` runs after the call, outside the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                observe(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the entry point of every layer listed in the module docstring."""
    from repro.bench import runner
    from repro.core.progress_table import ProgressTable
    from repro.core.tskd import TSKD
    from repro.partition import (
        HorticulturePartitioner,
        SchismPartitioner,
        StrifePartitioner,
    )
    from repro.predict.policy import OnlinePolicy
    from repro.sim.engine import MulticoreEngine
    from repro.txn.workload import Workload

    def note_graph(graph, _args):
        tracer.seen["graph"] = graph

    def note_partition(plan, args):
        # partition(self, workload, k, ...): residual share of the input.
        sizes = tracer.seen.setdefault("partition", [0, 0])
        sizes[0] += len(plan.residual)
        sizes[1] += len(args[1])

    tracer.wrap(runner, "warm_up_history", "warmup")
    tracer.wrap(Workload, "conflict_graph", "conflict_graph", note_graph)
    for cls in (StrifePartitioner, SchismPartitioner, HorticulturePartitioner):
        tracer.wrap(cls, "partition", "partition", note_partition)
    tracer.wrap(TSKD, "prepare", "tsgen")
    tracer.wrap(MulticoreEngine, "run", "engine")
    tracer.wrap(ProgressTable, "probe", "progress_table")
    tracer.wrap(OnlinePolicy, "end_epoch", "predict.end_epoch")
