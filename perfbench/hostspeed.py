"""The host's speed, measured by a fixed calibration kernel.

A small shared host can change speed while a benchmark runs: on the 2-vCPU
Xeon the references were taken on, everything -- the interpreter, numpy,
SuperLU -- slows by about the same factor, up to about 2, for stretches of
a second to a minute, set by load this process cannot see.  A single-process benchmark
cannot steady that, but it can measure it.  While a timed repetition runs,
a SIGALRM every INTERVAL_S seconds times a fixed kernel (a small SuperLU
factorization, a numpy pass and an interpreter loop, like the workloads'
own mix), and each stretch of wall time between two samples is converted
to reference seconds:

    reference seconds = wall seconds * REF_KERNEL_S / kernel seconds

REF_KERNEL_S is the kernel's time on the reference host at full speed, so
a reference second is a wall second on that host when nothing slows it.
The kernel's own time is left out of both the wall and the reference time.
The kernel does not depend on disclat, so a change to the library moves the
reference time in proportion to the wall time.
"""

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_KERNEL_S = 0.0010
INTERVAL_S = 0.1
KERNEL_REPEATS = 3      # one sample is the median of this many kernel runs
LONG_STRETCH_S = 3 * INTERVAL_S
WINDOW_S = 0.5


class Kernel:
    """A fixed piece of work whose time tracks the host's speed."""

    def __init__(self):
        n = 20
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.vector = np.linspace(0.0, 1.0, 4000)

    def once(self):
        start = time.perf_counter()
        spla.splu(self.matrix)
        np.sort(np.sin(self.vector))
        total = 0
        for i in range(2000):
            total += i * i % 7
        return time.perf_counter() - start

    def sample(self):
        """(start, end, seconds of one kernel run) for the present moment."""
        start = time.perf_counter()
        seconds = statistics.median(self.once() for _ in range(KERNEL_REPEATS))
        return start, time.perf_counter(), seconds


def reference_seconds(samples):
    """(wall seconds, reference seconds) of the time between the samples.

    samples are (start, end, kernel seconds) in time order.  The stretch
    from one sample's end to the next one's start is scaled by the mean
    kernel time of the two.  A stretch longer than LONG_STRETCH_S, where a
    long call into C held the sampler off, is scaled by the median kernel
    time of the samples within WINDOW_S of it instead: scaled by two
    samples alone, one that caught a brief stall of the host would
    misjudge seconds of work."""
    wall = ref = 0.0
    for i in range(len(samples) - 1):
        end, before = samples[i][1], samples[i][2]
        start, after = samples[i + 1][0], samples[i + 1][2]
        stretch = start - end
        if stretch > LONG_STRETCH_S:
            near = [s[2] for s in samples
                    if s[1] >= end - WINDOW_S and s[0] <= start + WINDOW_S]
            kernel_s = statistics.median(near)
        else:
            kernel_s = 0.5 * (before + after)
        wall += stretch
        ref += stretch * REF_KERNEL_S / kernel_s
    return wall, ref


class Sampler:
    """Samples the kernel at the start, every INTERVAL_S, and at the end.

    A sample costs about 4% of the time it covers.

    The SIGALRM handler runs in the main thread between bytecodes, so a
    long call into C (a large factorization) delays the next sample to its
    end; the stretch it covers is then scaled by the samples around it."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(self.kernel.sample())

    def __enter__(self):
        self.samples = [self.kernel.sample()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(self.kernel.sample())
        return False

    def times(self):
        return reference_seconds(self.samples)
