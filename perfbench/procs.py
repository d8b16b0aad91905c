"""Child processes that cannot outlive the benchmark.

Every child asks the kernel, before it execs, to be killed when the
benchmark dies (``PR_SET_PDEATHSIG``): if the benchmark is killed with
SIGKILL, no ``finally`` block of its own can run.  Every child also runs
in a process group of its own, so ``stop`` can kill it together with
anything it started.  ``stop`` reaps the child with ``wait4``, which
also returns the child's peak resident memory.
``live_children`` scans ``/proc`` for anything still running that the
benchmark started; the benchmark fails if it finds one at exit.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                        ctypes.c_ulong, ctypes.c_ulong]
_LIBC.prctl.restype = ctypes.c_int

#: Process groups created by ``spawn`` in this process.
_GROUPS: set[int] = set()


def _die_with(parent: int):
    """``preexec_fn``: SIGKILL this child when ``parent`` exits.

    The setting survives ``exec``.  It is tied to the thread that forked,
    so ``spawn`` must be called from the benchmark's main thread.
    """
    def arm() -> None:
        if _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            os._exit(1)
        if os.getppid() != parent:  # the parent died before prctl took effect
            os._exit(1)
    return arm


def spawn(argv: list[str], env: dict, **popen_kw) -> subprocess.Popen:
    """Start ``argv`` (a Python script and its arguments) guarded."""
    proc = subprocess.Popen([sys.executable, *argv], env=env,
                            start_new_session=True,
                            preexec_fn=_die_with(os.getpid()), **popen_kw)
    _GROUPS.add(proc.pid)
    return proc


def reap(proc: subprocess.Popen, timeout: float) -> Optional[float]:
    """Wait up to ``timeout`` s for ``proc`` to exit by itself.

    Returns its peak RSS in MiB, or None if it is still running.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() >= deadline:
            return None
        time.sleep(0.02)


def stop(proc: subprocess.Popen, grace: float = 5.0) -> Optional[float]:
    """Make sure ``proc`` and its process group are gone; reap it.

    A child that is still running gets SIGTERM, then SIGKILL after
    ``grace`` seconds.  Returns the peak RSS (MiB) of the child.
    """
    rss = None
    if proc.returncode is None:
        rss = reap(proc, 0.0)
        if rss is None:
            _kill_group(proc.pid, signal.SIGTERM)
            rss = reap(proc, grace)
        if rss is None:
            _kill_group(proc.pid, signal.SIGKILL)
            rss = reap(proc, 30.0)
    # Anything the child left in its group goes too.
    _kill_group(proc.pid, signal.SIGKILL)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return rss


def kill_all() -> None:
    """SIGKILL every process group ``spawn`` created (last resort)."""
    for pgid in _GROUPS:
        _kill_group(pgid, signal.SIGKILL)


def _kill_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def live_children() -> list[str]:
    """Processes started by this benchmark that still exist.

    A process counts if its parent is this process (an unreaped zombie
    too) or it belongs to a process group that ``spawn`` created.
    """
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == me:
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # pid (comm) state ppid pgrp ...; comm may itself hold spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        ppid, pgrp = int(fields[1]), int(fields[2])
        if ppid == me or pgrp in _GROUPS:
            found.append(f"pid {entry.name} ({stat[stat.index('(') + 1:stat.rindex(')')]})")
    return found
