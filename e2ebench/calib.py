"""Host-speed calibration: timings rescaled to a reference host speed.

A virtual machine whose cores other tenants share can change speed by
up to a factor of two within a second (measured on a 2-vCPU x86_64 VM;
CPU time slows with wall time there, so it is no escape).  So every timed interval is
paired with the time of :func:`probe`, a fixed piece of pure-Python
work run next to it, and is reported as the seconds it would have
taken on a host where the probe takes ``REFERENCE_S``.

The probe is the simulator's kind of work (generator processes resumed
from a heap-ordered clock, small dicts, float arithmetic) and uses no
code of the program, so a change to the program cannot change it.
"""

from __future__ import annotations

import heapq
import signal
import time

#: probe seconds on a quiet 2-vCPU x86_64 host (Python 3.11); only sets
#: the scale of the reported seconds, never their ratios
REFERENCE_S = 0.002
#: a probe runs this often (host seconds) while a :class:`Clock` times
INTERVAL_S = 0.1
_PROCS = 75
_STEPS = 40


def _work():
    def proc(i):
        acc = {}
        for k in range(_STEPS):
            acc[k % 7] = acc.get(k % 7, 0) + i
            yield (k * 0.37 + i * 0.011) % 5.0

    heap = [(0.0, i, proc(i)) for i in range(_PROCS)]
    heapq.heapify(heap)
    seq = _PROCS
    while heap:
        now, _, p = heapq.heappop(heap)
        try:
            dt = next(p)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + dt, seq, p))


def probe():
    """Host seconds of one run of the fixed calibration work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def rescale(seconds, probes, elasticity=1.0):
    """*seconds* at reference speed, given probes spread evenly over them.

    A probe of ``d`` seconds means the host ran at ``REFERENCE_S / d``
    of reference speed then.  Work whose time follows host speed only
    in part (numpy passes over large arrays slow less than interpreted
    code) gives the mean speed an *elasticity* below 1.
    """
    speed = REFERENCE_S * sum(1.0 / d for d in probes) / len(probes)
    return seconds * speed**elasticity


class Clock:
    """Times intervals of work in this process, at reference host speed.

    Each interval gets a probe before and after it (the one after also
    serves the next interval).  With ``ticks`` on, a ``SIGALRM`` every
    ``INTERVAL_S`` runs one more probe inside the interval, and the
    seconds spent in those probes are taken out of it.
    """

    def __init__(self, elasticity):
        self.elasticity = elasticity
        self.last = None
        self._probes = []
        self._spent = 0.0
        self._t0 = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._probes.append(probe())
        self._spent += time.perf_counter() - t0

    def start(self, ticks=True):
        if self.last is None:
            self.last = probe()
        self._probes = [self.last]
        self._spent = 0.0
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()

    def stop(self):
        """End the interval; returns (host seconds, seconds at reference speed)."""
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = t1 - self._t0 - self._spent
        self.last = probe()
        self._probes.append(self.last)
        return seconds, rescale(seconds, self._probes, self.elasticity)
