"""The benchmark's clock: CPU time, which leaves out hypervisor steal.

On a virtual machine the host can take a virtual CPU away from the guest for a
while ("steal").  A wall clock runs on through it, so the same work reads
slower whenever the host is busy; on shared hosts steal has reached half of a
pass's wall time.  The guest kernel does not count stolen time as time a task
ran, so CPU time does not move with the host's load:

- in-process work: CPU time of the whole process, every thread included;
- work in a child process: the child's user plus system time, every thread
  included, from ``wait4``.

For single-threaded work that neither sleeps nor waits on files, CPU time is
wall time less steal.  Wall time and the machine's steal (from
``/proc/stat``) are recorded beside it.
"""
from __future__ import annotations

import os
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def machine_steal_s():
    """Steal of the whole machine since boot, every CPU summed; 0 if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        # cpu user nice system idle iowait irq softirq steal ...
        return int(fields[8]) * _TICK_S
    except (OSError, ValueError, IndexError):
        return 0.0


def sample():
    """(wall, CPU time of this process) in seconds."""
    return time.perf_counter(), time.process_time()


def child_cpu_s(usage):
    """User plus system time of a child from its ``wait4`` resource usage."""
    return usage.ru_utime + usage.ru_stime
