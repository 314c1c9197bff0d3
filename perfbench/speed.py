"""Speed meter: how fast the CPU under a pass runs, sampled while the pass runs.

On a shared host the speed a process gets changes by up to about 1.5x, and
stays changed for seconds to minutes (the host core's other hardware thread
busy or idle, turbo frequency).  Wall and CPU time of the same work swing
with it, so two runs of the same code can differ by more than a regression
bound.  The meter measures that speed inside the pass: every INTERVAL_S of
wall time, SIGALRM runs a fixed reference kernel (pure-Python arithmetic,
NumPy operations on small and mid-sized arrays, a short convolution and FFT,
and a block of masked integer mode arithmetic: the kinds of work kdvlab's hot
paths do) and times it.  On the four workloads the kernel's time follows the
pass times closely: scaling by it cut the pass-to-pass spread of the same
work from 9-17% to 2-4% (coefficient of variation).  The kernel does not
depend on kdvlab, so a change to kdvlab moves the pass times and not the
kernel.

The host also takes the vCPU away for milliseconds at a time (steal time);
``stolen_s`` reads that from the kernel's own count, so that a pass's wall
time can leave it out.

A pass's timings are reported at reference speed: measured time, less the
time spent in the kernel and the time stolen, times ``factor()`` =
REF_KERNEL_S / mean kernel time of the pass.  Python runs signal handlers between bytecodes of the main
thread, so a sample lands between two operations of the pass, on the CPU and
in the machine state the pass sees.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# A kernel time typical of the machine the bounds were set on (2-vCPU Xeon
# KVM guest, NumPy 2.4, Python 3.11), where it ranged from 1.3 to 3.2 ms.
# Any constant serves; it only sets the scale of the reported seconds.
REF_KERNEL_S = 2.6e-3
# a sample this many times the pass median was descheduled mid-kernel
OUTLIER = 3.0

_SMALL = np.linspace(0.0, 1.0, 64)
_MID = np.linspace(0.0, 1.0, 8192)
_WAVE = np.linspace(0.0, 1.0, 512) + 0.5j
_MODES = np.arange(-12, 12) * 5
_COEFFS = np.linspace(0.1, 1.0, _MODES.size) + 0.1j


def _interpreter() -> float:
    acc = 0.0
    for i in range(7500):
        acc += i * 0.5
    return acc


def _small_arrays() -> float:
    v = _SMALL
    for _ in range(300):
        v = v * 0.999 + 0.001
    return float(v[0])


def _mid_arrays() -> float:
    acc = 0.0
    for _ in range(3):
        acc += float(np.sqrt(_MID * _MID + 1.0).sum() + (_MID[::-1] * _MID).sum())
    return acc


def _convolution() -> float:
    z = 0j
    for _ in range(3):
        z += np.convolve(_WAVE, _WAVE)[3] + np.fft.fft(_WAVE)[1]
    return z.real


def _quartic_block() -> float:
    # integer mode arithmetic, masked division and a scatter-add on a
    # 24 x 24 block, the shape of a sparse quartic gradient
    out = np.zeros(257, dtype=np.complex128)
    k2, k3 = _MODES[:, None], _MODES[None, :]
    q23 = _COEFFS[:, None] * _COEFFS[None, :]
    for k1, q1 in zip(_MODES[:4], _COEFFS[:4]):
        m = k1 + k2 + k3
        mask = (np.abs(m) <= 128) & (m != 0)
        cube = k1**3 + k2**3 + k3**3 - m**3
        ab = np.abs(k1 * k2).astype(np.float64)
        cd = np.abs(k3 * m).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = -1.5 * np.sqrt(ab / np.where(cd == 0, 1.0, cd)) / np.where(cube == 0, 1, cube)
        np.add.at(out, np.clip(m + 128, 0, 256), np.where(mask, c * q1 * q23, 0.0))
    return out[0].real


def kernel() -> float:
    """The reference work: one of each kind, about 2.5 ms in all."""
    return (_interpreter() + _small_arrays() + _mid_arrays() + _convolution()
            + _quartic_block())


def stolen_s() -> float:
    """Steal time of all CPUs since boot, in seconds; 0 where Linux's
    /proc/stat is not there."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ..., in USER_HZ ticks
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def running_s(wall: float, cpu: float, stolen: float) -> float:
    """Wall time less the steal counted meanwhile, but at most less the time
    the process did not run (wall - cpu): steal on another CPU is not ours."""
    return wall - min(stolen, max(wall - cpu, 0.0))


class SpeedMeter:
    """Samples the reference kernel every INTERVAL_S while started."""

    def __init__(self):
        self.samples = []
        self.spent_wall = 0.0  # seconds of wall and CPU time spent in the kernel
        self.spent_cpu = 0.0

    def _tick(self, signum, frame) -> None:
        c0, w0 = time.process_time(), time.perf_counter()
        kernel()
        w = time.perf_counter() - w0
        self.samples.append(w)
        self.spent_wall += w
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self) -> float:
        """Mean kernel time of the samples taken, less descheduled ones."""
        cut = OUTLIER * statistics.median(self.samples)
        return statistics.fmean(s for s in self.samples if s <= cut)

    def factor(self) -> float:
        """Multiplier that takes a time measured in this pass to reference speed."""
        return REF_KERNEL_S / self.kernel_s()
