"""Host-speed probe: fixed NumPy work timed while the program runs.

The benchmark host is a small shared virtual machine whose speed drifts in
phases of seconds to tens of seconds, by up to about 2x, while the process
keeps its CPU (process CPU time tracks wall time).  Over a 30 s run that
drift moves raw throughput by about a fifth from run to run.  The probe
measures the drift: a timer signal runs it every ``INTERVAL_S`` during the
timed repetitions and every ``SETUP_INTERVAL_S`` during set-up, which is
short, so its samples are spread evenly over the time the program runs.
Its mean time against ``REFERENCE_S`` is the host's slowdown, which
``run.py`` divides out of ``seeds_per_s`` and ``setup_s``; the time the
probe itself takes is left out of both.

The probe uses only NumPy and fixed inputs, never the package, so a change
to the program does not change it.  It is many NumPy calls on 16-row
arrays, where interpreter and per-call overhead dominate.  Of the probes
tried, this one followed the drift of all three workloads best (see
NOTES.md).
"""

from __future__ import annotations

import contextlib
import signal

# About the median time of one probe call on the reference host (the 2-vCPU
# virtual machine described in NOTES.md).  It only sets the scale of the
# corrected metrics: two commits measured with the same benchmark share it.
REFERENCE_S = 0.0060
CALLS = 1000
INTERVAL_S = 0.25
SETUP_INTERVAL_S = 0.05


class HostProbe:
    """Calling the probe runs the fixed work once and appends ``(start,
    seconds)`` to ``samples``.  One call at construction warms it up and is
    not kept."""

    def __init__(self, np, clock):
        rng = np.random.default_rng(0)
        self.np, self.clock = np, clock
        self.x = rng.standard_normal((16, 32))
        self.w = rng.standard_normal((32, 32)) / 8.0
        self.samples: list[tuple[float, float]] = []
        self()
        self.samples.clear()

    def __call__(self, *_signal_args) -> None:
        np, x, w = self.np, self.x, self.w
        t0 = self.clock()
        y = x
        for _ in range(CALLS):
            y = np.tanh(y @ w) + x
        self.samples.append((t0, self.clock() - t0))

    def between(self, t0: float, t1: float) -> list[float]:
        """Times of the samples that started in ``[t0, t1)``."""
        return [s for start, s in self.samples if t0 <= start < t1]

    @contextlib.contextmanager
    def sampling(self, interval: float = INTERVAL_S):
        """Run the probe from a timer signal every ``interval`` seconds for
        the length of the block."""
        previous = signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
