"""Host speed probe: a fixed piece of work timed throughout every fit.

The benchmark runs on a shared machine whose speed switches between a fast
and a slow state (a probe takes up to 1.7 times longer in the slow one),
each lasting from under a second to several seconds.  Raw wall times of
fits made at different moments are therefore not comparable, and probes
timed between fits miss the switches within a fit.

So fitproc.py runs a ``Ticker`` in the fit's coordinator process: a timer
signal interrupts the program every ``INTERVAL_S`` seconds of wall time, and
the handler times one ``probe()`` on the same thread.  The probe does the
same kind of work as the sampler's per-point kernel (a Python loop over
small NumPy and LAPACK calls) but uses no dpgibbs code, so a change to the
program cannot change it.  It is timed in thread CPU seconds: in a
distributed fit the handler may wait for a core the workers hold, and that
queueing is not host speed, while the slow state still shows, since it
slows the thread while it runs.  ``at_reference`` turns a wall-time window
into seconds on a host where one probe takes exactly ``REFERENCE_PROBE_S``.

In a distributed fit the probe shares the two cores with the workers, so
it also sees the slowdown the workers cause each other; the scaled times
of that workload credit part of that contention to the host.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_PROBE_S = 0.0005
INTERVAL_S = 0.05

_SCALE = np.tile(np.eye(2) * 2.0, (8, 1, 1))
_POINTS = np.linspace(-1.0, 1.0, 64).reshape(32, 2)


def probe(points=_POINTS):
    total = 0.0
    for x in points:
        chol = np.linalg.cholesky(_SCALE + (x[:, None] * x)[None])
        log_det = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        weights = np.exp(log_det - log_det.max())
        total += float(weights.sum() / weights.size)
    return total


class Ticker:
    """Times probe() every INTERVAL_S seconds from a SIGALRM handler.

    ``samples`` holds (monotonic start, thread CPU seconds) pairs.  Each
    tick first runs a quarter of the probe untimed, so a coordinator woken
    from a wait is not timed on cold caches.  The handler is
    inherited by forked processes but the interval timer is not, so it
    only ever fires in the process that called start().
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        started = time.monotonic()
        probe(_POINTS[:8])
        cpu = time.thread_time()
        probe()
        self.samples.append((started, time.thread_time() - cpu))

    def start(self):
        probe()  # warm-up, untimed
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference(seconds, samples):
    """Wall seconds, less the probes' own time, at the reference host speed.

    The probes are evenly spaced in wall time, so the mean of
    REFERENCE_PROBE_S / probe over them is the window's mean speed relative
    to the reference host.  A tick costs about 1.25 times its timed probe,
    warm-up included.
    """
    speed = sum(REFERENCE_PROBE_S / s for _, s in samples) / len(samples)
    return (seconds - 1.25 * sum(s for _, s in samples)) * speed
