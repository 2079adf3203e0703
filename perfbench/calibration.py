"""Host-speed calibration: a fixed kernel timed next to the timed work.

The shared host this benchmark runs on drifts in speed over tens of
seconds to minutes, by 20% and more, and every timing drifts with it.
Each timed operation is therefore bracketed by samples of a fixed
kernel that does not touch ``repro``, and its wall time is scaled by
``NOMINAL_S / kernel seconds``: the reported timings are seconds on a
host that runs the kernel in ``NOMINAL_S``. A change to the package
cannot move the kernel, so it moves the scaled timings as much as the
raw ones.

The kernel mixes the kinds of work the package's hot paths do: gathers
and segment sums over small integer-indexed numpy arrays (annealing),
elementwise complex arithmetic on 4096-entry vectors (statevector
training) and pure-Python dict and loop work (solver and service
overhead). Timed next to a 1000-spin ``anneal_many`` and a 14-variable
p=2 solve in two three-minute experiments, in ten-second windows,
dividing by this kernel cut the standard deviation of log time from
0.100 and 0.126 to 0.049 and 0.045 (annealing) and from 0.092 and 0.109
to 0.048 and 0.035 (the solve), with log-log slopes between 0.80 and
1.09. Adding passes over an 8 MB array helped in one experiment, hurt
in the other and raised the process's peak RSS, so the kernel has none.
numpy is imported on first use, so importing this module does not take
``import numpy`` out of the measured set-up time.
"""

from __future__ import annotations

import statistics
import time

CLOCK = time.perf_counter

#: About what one kernel call takes on the host this benchmark was built
#: on (a shared two-core x86 host, where run medians read 0.03-0.04 s).
#: It only sets the scale of every reported timing.
NOMINAL_S = 0.04
#: Kernel calls per sample; a sample is their median.
REPEATS = 5


def kernel() -> None:
    """A fixed amount of mixed numpy and Python work."""
    import numpy as np

    rng = np.random.default_rng(12345)
    values = rng.standard_normal(4000)
    index = rng.integers(0, 4000, size=20000)
    segments = np.sort(rng.integers(0, 20000, size=3000))
    for _ in range(60):
        gathered = values[index]
        sums = np.add.reduceat(gathered, segments)
        accept = rng.random(3000) < np.exp(-np.abs(sums))
        values[:3000] += np.where(accept, 1e-3, -1e-3) * sums
    state = np.exp(1j * rng.standard_normal(4096))
    for _ in range(300):
        state = state * np.conj(state[::-1])
        state /= np.abs(state)
    table: dict = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i


def sample() -> float:
    """Median seconds of :data:`REPEATS` kernel calls."""
    times = []
    for _ in range(REPEATS):
        start = CLOCK()
        kernel()
        times.append(CLOCK() - start)
    return statistics.median(times)


def scale(*samples: float) -> float:
    """Factor from this host's wall seconds to nominal-host seconds."""
    return NOMINAL_S / statistics.fmean(samples)
