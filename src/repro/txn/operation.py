"""Database actions: the reads, writes and inserts that make up transactions.

A record is addressed by a :data:`Key` — a ``(table, primary_key)`` pair.
Operations are immutable; the workload generators materialise each
transaction's full operation sequence up-front (the stored-procedure /
hard-coded-template assumption of Section 3's Limitations).
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Tuple

#: Global address of a record: (table name, primary key).
Key = Tuple[str, object]


class OpKind(enum.Enum):
    """The kinds of database actions a transaction may contain."""

    READ = "R"
    WRITE = "W"
    INSERT = "I"
    #: A range read whose exact key set is not known before execution;
    #: transactions containing one are always executed with CC
    #: (Section 3, Limitations (1)).
    SCAN = "S"


# Module constants: enum member lookups through the class cost a
# descriptor call each, once per operation built.
_WRITE, _INSERT = OpKind.WRITE, OpKind.INSERT


class Operation(tuple):
    """One action on one record.

    ``value`` carries an optional payload for writes/inserts so that
    integration tests can run transactions with real data semantics; the
    synthetic benchmark generators leave it ``None`` and the engine writes
    a version token instead.

    An immutable tuple ``(kind, table, key, value, record_key, is_write)``
    with no per-instance ``__dict__``: the two derived fields the engine
    reads on every simulated access are computed once, at construction,
    not on first touch.
    """

    __slots__ = ()

    def __new__(cls, kind: OpKind, table: str, key: object,
                value: object = None) -> "Operation":
        return tuple.__new__(cls, (
            kind, table, key, value, (table, key),
            kind is _WRITE or kind is _INSERT,
        ))

    kind = property(itemgetter(0))
    table = property(itemgetter(1))
    key = property(itemgetter(2))
    value = property(itemgetter(3))
    record_key = property(itemgetter(4))
    is_write = property(itemgetter(5))

    def __getnewargs__(self) -> tuple:  # pickle rebuilds through __new__
        return self[:4]

    def __repr__(self) -> str:  # compact: W[item:42]
        return f"{self.kind.value}[{self.table}:{self.key}]"


def read(table: str, key: object) -> Operation:
    """Shorthand for a read operation."""
    return Operation(OpKind.READ, table, key)


def write(table: str, key: object, value: object = None) -> Operation:
    """Shorthand for a write (update) operation."""
    return Operation(OpKind.WRITE, table, key, value)


def insert(table: str, key: object, value: object = None) -> Operation:
    """Shorthand for an insert operation."""
    return Operation(OpKind.INSERT, table, key, value)
