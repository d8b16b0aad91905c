"""How fast the machine runs Python right now, to scale wall-clock figures.

The benchmark's machine shares its host: its speed changes by a quarter
or more from one minute to the next, with no steal time to show for it,
and that change moves every wall-clock figure of a run alike.  ``probe``
times a fixed piece of pure-Python work that uses no code of the
program: dict inserts of small tuples and lists, then a sort and a walk.
``factor`` is how much faster than ``REF_S`` the machine ran it.  A
wall-clock figure scaled by the factor measured around it reads what it
would on a machine of reference speed, so it moves with the program and
less with the host.  The unscaled figures are per-layer metrics.
"""

from __future__ import annotations

import gc
import time

#: Seconds ``probe`` takes at reference speed: its median on a 2-vCPU
#: Intel Xeon VM (2.1 GHz) with Python 3.11.
REF_S = 0.11


def probe() -> float:
    """Seconds spent on the fixed work.

    The collector is off meanwhile: the work makes no cycles, and a
    collection would scan whatever heap the calling process holds, so
    the time would depend on the program after all.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(150_000):
            table[(i * 7919) % 150_001] = (i, [i])
        total = 0
        for key in sorted(table):
            total += table[key][0]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def factor(probe_s: float) -> float:
    """Machine speed relative to reference: above 1 is faster."""
    return REF_S / probe_s
