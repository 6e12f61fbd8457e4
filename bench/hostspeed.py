"""Host-speed reference: fixed bursts of work run in the middle of the checks.

On a shared host, identical work ran up to ~30% slower in some spells than
in others, and the speed changed within a single 2-s check (README.md,
"Steadiness").  A Probe fires a fixed burst every ``period`` seconds of wall
time while it is armed, by an interval timer whose signal handler runs in
the checking thread between two Python bytecodes.  The bursts thus sample
the host's speed during the check itself; their time is taken out of the
check's time, and the check is divided by their slowdown against the
burst's reference time.  A burst does not call luequiv, so a change to the
library cannot move it.

There are two bursts, one per kind of work a workload spends its time on:

- ``python``: small complex SVDs and a Python loop, like the checks of
  ``planted``, ``degenerate`` and ``not_found``, and like set-up.
- ``svd``: one full SVD of a 4x1024 complex matrix, the call that takes
  about half of a 2^6 check on ``large``.  Its 16-MB right factor makes it
  bound by memory traffic, which the ``python`` burst does not track.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

_M = np.random.default_rng(0).standard_normal((8, 16)).view(np.complex128)
_W = np.random.default_rng(1).standard_normal((4, 2048)).view(np.complex128)


def _python_burst() -> None:
    for _ in range(20):
        np.linalg.svd(_M)
    acc = 0
    for k in range(2000):
        acc += k * k % 7


def _svd_burst() -> None:
    np.linalg.svd(_W)


# kind -> (burst, its median time on the recorded host (README.md, "Host")).
# The reference only sets the scale: calibrated times are at that host speed
BURSTS = {
    "python": (_python_burst, 1.0e-3),
    "svd": (_svd_burst, 55.0e-3),
}
# share of wall time an armed probe spends in bursts
SHARE = 0.1


def burst(kind: str) -> float:
    """Seconds taken by one fixed burst of the given kind."""
    fn, _ = BURSTS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Probe:
    """Bursts of one kind fired by a wall-clock timer while armed.

    After an armed block, ``burst_s`` is the time its bursts took (to be
    subtracted from the block's wall time) and ``slowdown()`` the host's
    slowdown over it.  The timer needs the main thread (signals) and POSIX
    (setitimer).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.ref_s = BURSTS[kind][1]
        self.period = self.ref_s / SHARE
        self.burst_s, self.bursts = 0.0, 0

    def _fire(self, signum, frame) -> None:
        self.burst_s += burst(self.kind)
        self.bursts += 1

    @contextlib.contextmanager
    def armed(self):
        """Fire a burst every ``period`` seconds within the block."""
        self.burst_s, self.bursts = 0.0, 0
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        """Mean burst time of the last armed block against the reference.

        Above 1 when the host ran slow.  A block shorter than ``period`` may
        have fired no burst; one burst then runs now, right after it.
        """
        if self.bursts == 0:
            return burst(self.kind) / self.ref_s
        return self.burst_s / self.bursts / self.ref_s
