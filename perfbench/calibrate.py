"""Measure how fast the host runs while a pass runs, to scale its times.

On a shared host the same code can take twice the CPU time it takes on
an idle one, for minutes at a time, while the operating system reports
almost no steal time; process CPU time does not exclude that.  So while a pass
runs, a ``Sampler`` interrupts it every ``INTERVAL_S`` of process CPU
time and times a small fixed kernel, which never changes and calls
nothing in ``repro``.  The samples cover the same stretches of time as
the program, in proportion to its CPU time, so their mean tracks the
speed the program ran at.  The benchmark scales the program's CPU times
by ``REFERENCE_S / mean sample``.  A change to the program moves its
CPU time and not the kernel's, so it moves a scaled time by the same
factor; a slower host moves both, so it does not.

The kernel is plain Python: message passing over dicts and small
objects, as in the CONGEST engine, and dict/set churn with a sort, as
in routing and the solvers.  It uses no numpy, so it warms up nothing
the program would otherwise pay for on first use.
"""

import gc
import random
import signal
import time

# CPU seconds of process time between two samples.
INTERVAL_S = 0.05

# A typical sample on the machine the benchmark was defined on (2 vCPUs
# of an Intel Xeon at 2.1 GHz, Python 3.11).  It only fixes the unit:
# scaled times are CPU seconds at the speed that machine ran at when it
# read this value.
REFERENCE_S = 0.003


class _Node:
    __slots__ = ("ident", "neighbours", "value")

    def __init__(self, ident):
        self.ident = ident
        self.neighbours = []
        self.value = ident


def kernel(n=80, rounds=8, steps=2500):
    """A fixed few milliseconds of interpreter work."""
    nodes = [_Node(i) for i in range(n)]
    for i in range(n):
        for j in ((i + 1) % n, (i + 7) % n):
            nodes[i].neighbours.append(j)
            nodes[j].neighbours.append(i)
    rng = random.Random(2)
    for _ in range(rounds):
        inbox = {}
        for v in nodes:
            for u in v.neighbours:
                inbox.setdefault(u, []).append((v.ident, v.value))
        for u, messages in inbox.items():
            if rng.random() < 0.9:
                nodes[u].value = min(value for _, value in messages)
    counts, present, log = {}, set(), []
    for i in range(steps):
        key = rng.randrange(500)
        counts[key] = counts.get(key, 0) + 1
        if key in present:
            present.discard(key)
        else:
            present.add(key)
        if i % 7 == 0:
            log.append((key, len(present)))
    log.sort()


class Sampler:
    """Times ``kernel()`` every ``INTERVAL_S`` of this process's CPU time.

    ``spent`` is the CPU time the samples took, which callers subtract
    from their own CPU readings.  The garbage collector is off during a
    sample, so the objects the program holds do not change its cost.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        # The thread clock: while a process-wide CPU timer is armed, the
        # process clock advances only at scheduler ticks (4 ms here).
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def scale(self):
        """``REFERENCE_S`` over the mean sample: >1 when the host is slow."""
        return REFERENCE_S * len(self.samples) / self.spent
