"""Operations, their checks, and the closed-loop run of one workload.

A workload names its set-up (timed, repeated) and the fixed, seeded list
of operations that make one round.  A run repeats whole rounds while
another one fits in the measuring time, so every run attempts the same
operations in the same proportions.  Only the program calls are timed;
checks run between them.
"""

from __future__ import annotations

import statistics
import time
import traceback

# Seconds the reference loop takes at the nominal host speed: its time in
# the fast phases of a shared 2-vCPU host.
REF_S = 0.012


def reference() -> float:
    """Time a fixed piece of interpreter work, like the program's hot loops.

    Integer and bit arithmetic, dict and list traffic, calls.  Timed right
    after an operation, it tells how fast the host was just then.
    """
    t0 = time.perf_counter()
    counts, acc = {}, 0
    for i in range(40000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= (x & -x).bit_length()
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t0


def time_steps(steps) -> list:
    """Run the set-up steps in order: (seconds, reference time right after) of each."""
    out = []
    for step in steps:
        t0 = time.perf_counter()
        step()
        out.append((time.perf_counter() - t0, reference()))
    return out


def normalised_s(samples) -> float:
    """Seconds at the nominal host speed of one pass over a list of calls.

    ``samples[i]`` holds the (seconds, reference) pairs of call i, one per
    pass.  Each call's time is divided by the reference time right after
    it; the median of that ratio over the passes, summed over the calls,
    is scaled by REF_S.
    """
    return REF_S * sum(statistics.median(t / r for t, r in pairs) for pairs in samples)


class CheckFailed(Exception):
    """An answer that does not match the model or its construction."""


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


class Op:
    """One timed program call and the check of its answer.

    ``run()`` calls the program and returns what it answered; ``check``
    raises CheckFailed for a wrong answer.  ``known_fault`` marks an
    operation that fails because of a fault the program has today; its
    failure is counted but does not make the run incorrect.
    """

    def __init__(self, name: str, run, check, known_fault: bool = False):
        self.name, self.run, self.check = name, run, check
        self.known_fault = known_fault


def execute(op: Op):
    """Run and check one operation: (seconds, None or the failure text)."""
    t0 = time.perf_counter()
    try:
        answer = op.run()
    except Exception:  # the program raised: a failed operation, not a crash
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    try:
        op.check(answer)
    except CheckFailed as e:
        return dt, f"check failed: {e}"
    except (KeyError, TypeError, ValueError, AttributeError) as e:  # malformed answer
        return dt, f"check failed on the answer's form: {e!r}"
    return dt, None


class Result:
    def __init__(self, n_ops: int):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # (op name, failure) for ops without known_fault
        self.rounds = []      # seconds of program calls per round
        self.op_times = [[] for _ in range(n_ops)]
        self.ref_times = [[] for _ in range(n_ops)]  # reference, right after each op

    @property
    def correct(self) -> bool:
        return not self.unexpected

    @property
    def raw_round_s(self) -> float:
        """One round's time: each operation's median over the rounds, summed."""
        return sum(statistics.median(times) for times in self.op_times)

    @property
    def round_s(self) -> float:
        """One round's time at the nominal host speed (see ``normalised_s``)."""
        return normalised_s([list(zip(times, refs))
                             for times, refs in zip(self.op_times, self.ref_times)])


def run_rounds(ops, seconds: float, on_round=None) -> Result:
    """Repeat the round ``ops`` while another round fits in ``seconds`` (at least once)."""
    res = Result(len(ops))
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        busy = 0.0
        for op, times, refs in zip(ops, res.op_times, res.ref_times):
            dt, failure = execute(op)
            busy += dt
            times.append(dt)
            refs.append(reference())
            res.attempted += 1
            if failure is not None:
                res.failed += 1
                if not op.known_fault:
                    res.unexpected.append((op.name, failure))
        res.rounds.append(busy)
        if on_round is not None:
            on_round()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return res
