"""Machine-speed probe that does not call the program.

On a shared machine the same job takes up to 1.5 times longer in a busy
spell than in a quiet one, and a spell can last longer than a whole run.
The worker therefore runs this fixed kernel between jobs and scales each
job's wall time by ``REF_KERNEL_S / kernel time`` measured around it:
the scaled time is what the job would take at the speed at which the
kernel takes ``REF_KERNEL_S``.  The kernel mixes the two kinds of work
the program does, exact rational arithmetic in Python integers and
numpy array arithmetic on complex grids, and shares no code with it, so
a change to the program moves the job times and not the kernel's.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Kernel time in a quiet spell on the reference machine (2-core Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread).  It only fixes the unit of
# the scaled times; any fixed value would do.
REF_KERNEL_S = 0.003

_GRID = (0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64 * 256))).reshape(64, 256)


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 100):
        total += Fraction(3 ** k, 2 ** (2 * k + 1) * (10 * k + 1))
    zn = _GRID ** 10
    ratio = np.abs((0.6 + zn) / (2.0 - 0.6 * zn)) / np.abs(_GRID * (1.0 + 0.6 * zn) / (2.0 - 0.6 * zn))
    float(ratio.max())
    np.polynomial.legendre.leggauss(48)
    return time.perf_counter() - start


def speed_scale(samples: int = 3) -> float:
    """REF_KERNEL_S over the median of ``samples`` kernel runs."""
    return REF_KERNEL_S / statistics.median(kernel_s() for _ in range(samples))
