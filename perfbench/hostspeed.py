"""Host speed kernel: a fixed piece of work like the program's, timed
between calls so that each call's time can be put on a common scale.

The machines this benchmark was built on change speed by a factor of 1.5
to 2 in phases of seconds to minutes that no process inside them causes:
CPU time equals wall time in both phases, steal time stays near 2%, and no
hardware counters are exposed.  A call's wall time divided by the kernel's
time measured around it varies far less: over ten 22 s runs per workload
the median of that ratio spread 4.3-5.4% between quartiles, the median
wall time 6-20% (README, "Reference figures").

The kernel does in small what the workloads do in large: the reference
filter pair over a 10-step scenario (Python float arithmetic, small NumPy
arrays, LAPACK calls), 600 reference RK4 steps, and the CSV text of those
600 rows in the program's number format.  It shares no code with the
program, so a change to the program does not change the kernel.
"""

from __future__ import annotations

import gc
import io
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

# Normalized times are seconds on a machine where one kernel run takes
# this long (the kernel's typical time on an idle 2-vCPU Xeon VM).
NOMINAL_KERNEL_S = 0.0125


class _Work:
    """The kernel's work, set up once per process."""

    def __init__(self):
        config = Path(__file__).resolve().parent / "configs" / "estimate.json"
        self._filter_setup = ref.load_setup(config, t_end=0.2)
        self._truth_setup = ref.load_setup(config, t_end=12.0)
        steps = self._filter_setup.steps + 1
        self._measurements = np.column_stack(
            (np.full(steps, 0.8), np.full(steps, 1.0), np.full(steps, 0.8))
        )
        self()  # the first run pays for lazy imports and cold caches

    def __call__(self) -> None:
        ref.run_filters(self._filter_setup, self._measurements)
        rows = ref.truth(self._truth_setup)
        io.StringIO().write("".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist()
        ))


class Kernel:
    """Times the kernel.  Each timing runs it `repeats` times in a row;
    longer calls need more to sample the machine's speed as well as the
    call does.  A garbage collection and one untimed run go first: the
    first run after a call pays for the garbage and the cold caches the
    call left behind (about 2.5% on `estimate`), so without them the kernel
    time, and every time divided by it, would depend on the program's
    memory footprint as well as on the host's speed."""

    def __init__(self, repeats: int = 1):
        self._work = _Work()
        self._repeats = repeats

    def __call__(self) -> float:
        """Wall time per kernel run, in seconds."""
        gc.collect()
        self._work()
        started = perf_counter()
        for _ in range(self._repeats):
            self._work()
        return (perf_counter() - started) / self._repeats


def normalized(wall_s: float, kernel_s: float) -> float:
    """A wall time on the nominal scale."""
    return wall_s / kernel_s * NOMINAL_KERNEL_S
