"""Seeded schedule perturbation.

Installed as :attr:`repro.sim.machine.Machine.schedule_perturb`, the
jitter adds a bounded random number of cycles to every completed step's
latency. Stretching one CPU's step slides every later event of that CPU
relative to the others, so sweeping the seed explores many interleavings
of the same program — conflicts land before/after TBEGIN, XIs arrive
mid-transaction, stiff-arm windows open and close — while simulated time
stays monotonic and the run stays fully deterministic per seed.
"""

from __future__ import annotations

import random


class ScheduleJitter:
    """Adds ``0..magnitude`` cycles to each step, from a seeded stream."""

    __slots__ = ("magnitude", "_rng", "_n", "_k")

    def __init__(self, seed: int, magnitude: int) -> None:
        self.magnitude = magnitude
        self._rng = random.Random(seed)
        # Draw bound and its bit width, for the rejection sampling below.
        self._n = magnitude + 1
        self._k = self._n.bit_length()

    def __call__(self, index: int, latency: int) -> int:
        if self.magnitude <= 0:
            return latency
        # ``randrange(n)`` by hand: draw ``n.bit_length()`` bits and
        # reject values >= n. This is the algorithm ``randrange`` itself
        # runs (Python 3.9 through 3.12), so the stream is identical,
        # without its argument checks.
        n = self._n
        getrandbits = self._rng.getrandbits
        draw = getrandbits(self._k)
        while draw >= n:
            draw = getrandbits(self._k)
        return latency + draw
