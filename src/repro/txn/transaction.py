"""The transaction object and its derived access sets.

Transactions here are *logical programs already instantiated with their
parameters*: a template name, the parameter assignment, and the full
operation sequence.  Read and write sets are derived once and frozen.
The runtime-skew and I/O-latency extensions of Section 6.1 attach
per-transaction ``min_runtime_cycles`` and ``io_delay_cycles`` so that a
given seed produces identical workloads for every system under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from ..common.errors import WorkloadError
from .operation import Key, Operation


@dataclass
class Transaction:
    """An instantiated transaction.

    Attributes:
        tid: Unique id within its workload (dense, 0-based).
        template: Logical program name, e.g. ``"NewOrder"`` or ``"ycsb"``.
        ops: The materialised operation sequence.
        params: Template parameters (used by history-based cost estimation:
            "if T is instantiated with the same parameters as T' ...").
        min_runtime_cycles: Lower bound on runtime (runtime-skew extension);
            0 means no bound.
        io_delay_cycles: Artificial commit-time I/O stall (I/O extension).
        has_range: True when the transaction contains a SCAN whose key set
            was resolved optimistically; such transactions are never
            scheduled into RC-free queues.
    """

    tid: int
    template: str
    ops: tuple[Operation, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    min_runtime_cycles: int = 0
    io_delay_cycles: int = 0
    has_range: bool = False

    read_set: frozenset[Key] = field(init=False)
    write_set: frozenset[Key] = field(init=False)

    def __post_init__(self):
        if not self.ops:
            raise WorkloadError(f"transaction {self.tid} has no operations")
        reads, writes = set(), set()
        # Scans are not writes: they read their (optimistically) resolved keys.
        for op in self.ops:
            if op.is_write:
                writes.add(op.record_key)
            else:
                reads.add(op.record_key)
        self.read_set = frozenset(reads)
        self.write_set = frozenset(writes)

    @cached_property
    def access_set(self) -> frozenset[Key]:
        """All keys the transaction touches (computed once, then cached —
        TsDEFER's dispatch filter reads it on every probe check)."""
        return self.read_set | self.write_set

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def param_signature(self) -> tuple:
        """Hashable parameter signature for history-based cost estimation."""
        return tuple(sorted(self.params.items(), key=lambda kv: kv[0]))

    def __hash__(self) -> int:
        return hash(self.tid)

    def __eq__(self, other) -> bool:
        return isinstance(other, Transaction) and other.tid == self.tid

    def __repr__(self) -> str:
        return f"T{self.tid}({self.template}, {self.num_ops} ops)"


def make_transaction(
    tid: int,
    ops: Iterable[Operation],
    template: str = "adhoc",
    params: Optional[Mapping[str, object]] = None,
    **kw,
) -> Transaction:
    """Convenience constructor used pervasively in tests and examples."""
    return Transaction(tid=tid, template=template, ops=tuple(ops), params=params or {}, **kw)
