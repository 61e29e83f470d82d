"""A low-priority process that measures the CPU's momentary speed.

On a shared host the same operation runs tens of percent faster or slower
from one moment to the next, with the load other tenants put on the same
physical core, in phases of seconds to tens of seconds.  The sampler runs
a fixed numpy step in a loop on the benchmark's own CPU at reduced priority,
so the scheduler interleaves it with the operation every few milliseconds.
Its CPU time per step over an operation's window tracks the speed that
operation saw, and the operation's CPU time divided by that step time is a
cost in steps from which the host's load largely cancels.

The sampler answers each line on its stdin with "<steps> <cpu seconds>" and
exits when its stdin closes.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

import numpy as np

NICE = 10  # the sampler gets about a tenth of the CPU: enough steps per operation, little taken from it


def _step(x: np.ndarray, z: np.ndarray) -> float:
    """A power-series loop over a short array, as in the Bessel kernel, and a
    complex exponential feeding a matrix product, as in the ECF; ~0.25 ms."""
    term = np.ones_like(x)
    total = term.copy()
    for m in range(1, 40):
        term = term * (-(x * x) / (4.0 * m * m))
        total += term
    return float(total.sum()) + float(np.abs(np.exp(1j * z) @ z.T).sum())


def _serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    x = np.linspace(0.0, 10.0, 153)
    z = np.exp(1j * np.linspace(0.0, 3.0, 33 * 32)).reshape(33, 32)
    requests = sys.stdin.buffer
    steps = 0
    while True:
        _step(x, z)
        steps += 1
        if select.select([requests], [], [], 0)[0]:
            if not requests.readline():
                return
            sys.stdout.write(f"{steps} {time.thread_time()!r}\n")
            sys.stdout.flush()


class SpeedSampler:
    """Pins this process to one CPU and runs the sampler beside it there.

    read() returns (steps done, sampler CPU seconds); differences of two
    readings give the sampler's CPU time per step between them.
    """

    def __enter__(self) -> "SpeedSampler":
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.read()  # returns once the sampler is stepping
        except BaseException:
            self.__exit__()
            raise
        return self

    def read(self) -> tuple[int, float]:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError("the speed sampler stopped answering")
        return int(reply[0]), float(reply[1])

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        os.sched_setaffinity(0, self._affinity)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
