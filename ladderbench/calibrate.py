"""Machine-speed calibration for the benchmark's end-to-end times.

On a shared machine the speed of one core drifts by up to 2x over minutes,
for the ladder and for any other code alike, so raw times of runs made
minutes apart differ more than any change worth measuring. The benchmark
therefore times a fixed calibration kernel right before and right after
every sampled ladder, and reports each ladder time scaled to a core on
which the kernel takes ``CAL_REF_S``:

    reported = measured * CAL_REF_S / calibration

The kernel uses no gridres code, so a change to the program moves the
reported times in full; only the machine's speed cancels. It mirrors the
ladder's mix of work: an interpreter loop (the Python glue) and a fixed LP
solved by scipy's HiGHS (the solver). It is timed in thread CPU time, so
threads the program may leave running do not slow it down.
"""

from __future__ import annotations

import time

CAL_REF_S = 0.35  # kernel time, in CPU seconds, on the reference core
_LOOP_STEPS = 1_500_000
_LP_SOLVES = 8

_lp = None


def _fixed_lp():
    """max sum(c x) s.t. A x <= b, 0 <= x <= 10: feasible at x = 0 and bounded."""
    global _lp
    if _lp is None:
        import numpy as np
        from scipy import sparse
        from scipy.optimize import linprog

        a = sparse.random(300, 400, density=0.02, random_state=1, format="csr")
        b = a @ np.ones(400) + 1.0
        c = -np.random.default_rng(0).random(400)
        _lp = (linprog, c, a, b)
    return _lp


def _interpreter_loop() -> int:
    total = 0
    for i in range(_LOOP_STEPS):
        total += i * i % 7
    return total


def _solver_loop() -> None:
    linprog, c, a, b = _fixed_lp()
    for _ in range(_LP_SOLVES):
        res = linprog(c, A_ub=a, b_ub=b, bounds=(0, 10), method="highs")
        if res.status != 0:
            raise RuntimeError(f"calibration LP did not solve: {res.message}")


def calibrate() -> float:
    """Thread CPU seconds of one pass of the calibration kernel."""
    _fixed_lp()
    t0 = time.thread_time()
    _interpreter_loop()
    _solver_loop()
    return time.thread_time() - t0


def scale(seconds: float, cal_s: float) -> float:
    """A time measured while the kernel took ``cal_s``, in reference-core seconds."""
    return seconds * CAL_REF_S / cal_s
