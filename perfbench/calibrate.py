"""How fast the CPU runs right now, sampled during the work it times.

On a shared 2-vCPU virtual machine the same operation's CPU time swings by
up to 1.7x within minutes, nearly all of it user time: the core itself
runs slower at times.  A tiny fixed kernel (interpreted Python, NumPy on a
few thousand rows, a small sparse direct solve: the kinds of work the
workloads do) slows with it.  ``Probe`` runs the kernel every
``INTERVAL`` seconds of process CPU time from a ``SIGPROF`` handler while
an operation runs, and the benchmark scales the operation's CPU time by
``REF_S / (median kernel time)``.  The kernel's inputs are fixed and share
nothing with ``--seed`` or with the code under test, so a change to the
program moves the scaled time as it moves the raw one.

``Probe.clock`` is the thread's CPU time minus the time spent in the
kernel, so the kernel's own cost (about 2%) stays out of every measured
span.
"""

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve  # bound before layers.py wraps the module's name

# The kernel's time at which a scaled time equals the measured one: about
# its time on a 2-core 2 GHz Xeon at that machine's faster speed.  The
# constant only sets the scale of the figures.
REF_S = 0.004
INTERVAL = 0.25  # process CPU seconds between samples during an operation
BRACKET = 4  # samples taken back to back before and after the work timed

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((2000, 3))
_B = _rng.standard_normal((2000, 3))
_GRID = 12
_line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
_eye = sp.eye(_GRID)
_LAPLACE = (sp.kron(_line, _eye) + sp.kron(_eye, _line) + sp.eye(_GRID * _GRID)).tocsc()
_RHS = np.ones(_GRID * _GRID)


def _kernel():
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    for _ in range(20):
        c = np.cross(_A, _B)
        acc += (c / np.linalg.norm(c, axis=1)[:, None]).sum()
    return acc + sum(spsolve(_LAPLACE, _RHS)[0] for _ in range(2))


class Probe:
    """Kernel samples around and, from a ``SIGPROF`` timer, during a piece of work."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # thread CPU seconds spent in the kernel so far
        signal.signal(signal.SIGPROF, lambda signum, frame: self.samples.append(self.sample()))

    def clock(self):
        """Thread CPU seconds, less the time spent sampling the kernel."""
        return time.thread_time() - self.spent

    def sample(self):
        """CPU seconds of one pass over the kernel."""
        t0 = time.thread_time()
        _kernel()
        dt = time.thread_time() - t0
        self.spent += dt
        return dt

    def __enter__(self):
        self.samples = [self.sample() for _ in range(BRACKET)]
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.samples.extend(self.sample() for _ in range(BRACKET))
        return False

    def scale(self):
        """Factor from CPU seconds of the work to seconds at the reference speed."""
        return REF_S / statistics.median(self.samples)
