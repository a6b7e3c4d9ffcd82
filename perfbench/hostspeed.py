"""The host's speed, from a fixed kernel timed between operations.

The benchmark runs on a few cores of a shared host, whose other tenants
slow every instruction of a run by a factor that changes within seconds
and over minutes: on a 2-vCPU VM the same ``mc-farima-m1`` call took
0.25 s in one minute and 0.40 s a few minutes later, with its CPU time
equal to its wall time.  The kernel below does the package's kinds of work
on fixed data -- interpreted Python, numpy calls on short arrays, FFTs of a
long array and sweeps over a block larger than a core's L2 cache -- so its
time moves with that factor alone.  Sweeps slow down about half as much as
interpreted code does, so the kernel spends about half its time in them.

``speed()`` is ``REFERENCE_S`` over the kernel's time: 1 at the reference
speed, below 1 on a slower host.  An operation's wall time times the speed
measured around it is its time at the reference speed, which is what the
benchmark reports.
"""

import statistics
import time

import numpy as np

# About the kernel's time on a 2-vCPU Xeon VM at 2.1 GHz (Python 3.11,
# numpy 2.4); it only sets the scale of the reported times.
REFERENCE_S = 0.005
# A measurement runs the kernel at least REPEATS times and for about SHARE
# of the time it is set against, so that a long operation is set against
# the speed over more than an instant.
REPEATS = 5
SHARE = 0.05

_LONG = np.random.default_rng(0).standard_normal(1 << 14)
_SHORT = _LONG[:64].copy()
_BLOCK = np.ones(1 << 19)  # 4 MiB


def _kernel():
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(200):
        acc += float(np.dot(_SHORT, np.log1p(np.abs(_SHORT))))
    for _ in range(4):
        acc += float(np.fft.irfft(np.fft.rfft(_LONG))[0])
    for _ in range(12):
        np.negative(_BLOCK, out=_BLOCK)
    return acc


def speed(seconds=0.0):
    """Reference time over the median time of the kernel, run for about
    ``SHARE`` of ``seconds`` and at least ``REPEATS`` times."""
    times = []
    for _ in range(max(REPEATS, round(SHARE * seconds / REFERENCE_S))):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)
