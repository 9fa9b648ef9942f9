"""CPU speed sampling, to scale timings to a reference speed.

The benchmark's host shares its cores with other machines, and the
speed of a core drifts with their load: the same two-day replay took
24 s and 44 s a quarter of an hour apart.  While a measurement runs, a
probe thread per core runs a fixed, tiny piece of pure-Python work every
:data:`PERIOD_S` seconds and times it in its own CPU time.  It runs on
each core the workload may run on, so it slows down when the workload
does; the mean chunk time over the measurement, divided by
:data:`REFERENCE_CHUNK_S`, is the measurement's slowdown.

A probe on the other core of the same host did not follow the
workload's slowdowns (correlation 0.6-0.7 over 13 one-day replays); one
on the workload's own core did (0.95), which is why a single-process
workload is pinned to one core and the probe shares it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: CPU seconds one chunk takes at the reference speed (about the
#: median chunk time on the 2-core reference host)
REFERENCE_CHUNK_S = 4.2e-4

#: seconds the probe waits between chunks: it keeps about 2 % of a core
PERIOD_S = 0.02


def chunk() -> int:
    """The probe's unit of work: dictionary updates and integer sums."""
    counts: dict[int, int] = {}
    acc = 0
    for k in range(2000):
        counts[k & 255] = counts.get(k & 255, 0) + k
        acc += k % 7
    return acc


class SpeedProbe:
    """Samples the speed of every core this thread may run on, during a
    ``with`` block, with one probe thread pinned to each.

    After the block, :attr:`slowdown` is the mean chunk time divided by
    :data:`REFERENCE_CHUNK_S` (above 1 on cores slower than the
    reference) and :attr:`cpu_seconds` the CPU time the probes used,
    which the process's own CPU time includes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._cpu: list[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        start = time.thread_time()
        while True:
            t0 = time.thread_time()
            chunk()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PERIOD_S):
                break
        self._cpu.append(time.thread_time() - start)

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    @property
    def cpu_seconds(self) -> float:
        return sum(self._cpu)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_CHUNK_S


def pin_to_one_core() -> None:
    """Keep this thread, and the threads and processes it starts, on
    one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
