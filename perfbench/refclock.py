"""Time calls into heckeforge at a fixed reference speed.

Raw wall-clock seconds do not repeat on a shared 2-core VM: the same
fixed loop of `Fraction` work took anywhere between 0.157 s and 0.246 s
over 15 back-to-back repetitions.  The machine's speed drifts, not the
program's.  So every program call is timed next to a fixed pure-Python
reference loop (integer, `Fraction` and dict work, the same kind of work
heckeforge does), run just before and just after a short segment of
program calls.  A segment's time divided by the median of the reference
timings around it (`REF_WINDOW` on each side), times the nominal
reference duration `REF_NOMINAL_S`, is the segment's time at the fixed
reference speed.
"""

import statistics
import time
from fractions import Fraction

# Nominal duration of one reference loop: it fixes the "reference speed"
# that every normalised figure is expressed in.  Close to the loop's
# measured time on the 2-core VM the README's figures come from.
REF_NOMINAL_S = 0.020

# Program time between two reference loops.  Long enough that the loops
# cost about a tenth of a run, short enough to follow the machine's speed.
SEGMENT_S = 0.2

# A segment is normalised by the median of this many reference timings on
# each side of it (its own two included).  Contention on the shared VM
# comes in bursts of 100-300 ms that can hit one reference loop and miss
# the segment next to it: in one loaded period two adjacent loops differed
# by a median 13-23%.  On the same recorded runs, the median of six loops
# in place of the mean of two cut the gauss-cyclotomic spread across five
# seeds from 4.8% to 2.5%.
REF_WINDOW = 3

REF_ITERATIONS = 9000
REF_RESULT = (822184, 40495500)  # what reference_loop() must return


def reference_loop():
    """The fixed reference work: a Fraction sum, an LCG and a dict."""
    acc = Fraction(0)
    table = {}
    x = 1
    for i in range(1, REF_ITERATIONS):
        acc += Fraction(i % 13 + 1, i % 17 + 2)
        x = (x * 1103515245 + 12345) % 2147483648
        k = x % 251
        table[k] = table.get(k, 0) + i
    return acc.numerator % 1000003, sum(table.values())


def time_reference():
    """Raw seconds of one reference loop; checks the loop's result."""
    t0 = time.perf_counter()
    out = reference_loop()
    dt = time.perf_counter() - t0
    if out != REF_RESULT:
        raise RuntimeError("reference loop result changed")
    return dt


class Clock:
    """Accumulates program time in segments bracketed by reference loops.

    `call(fn, *args)` times one call into the program.  Workloads make a
    round's calls back to back and check the results afterwards, so each
    segment's reference loops sit right next to its calls.  A segment
    closes after `SEGMENT_S` of program time, or at `take()`.  Every call
    in a segment is normalised by the reference loops around it.  A
    profiler, when given, is enabled only around program calls, never
    around reference loops.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.ops = 0
        self._segments = []  # (call seconds, ref before, ref after)
        self._open = []
        self._ref = None

    def call(self, fn, *args):
        if self._ref is None:
            self._ref = time_reference()
        prof = self.profiler
        if prof is not None:
            prof.enable()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
            self.ops += 1
            self._open.append(dt)
            if sum(self._open) >= SEGMENT_S:
                self._close()

    def _close(self):
        after = time_reference()
        self._segments.append((self._open, self._ref, after))
        self._ref = after
        self._open = []

    def take(self):
        """The calls since the last `take()`, as a dict: `op_raw` and
        `op_norm` (seconds per call, raw and at reference speed), their
        sums `raw_s` and `norm_s`, and the reference timings `refs` in
        order.  Clears them; the next call starts with a fresh loop."""
        if self._open:
            self._close()
        segs, self._segments, self._ref = self._segments, [], None
        # chain[i] and chain[i + 1] are the loops before and after segment i
        chain = [b for _, b, _ in segs[:1]] + [a for _, _, a in segs]
        op_raw, op_norm = [], []
        for i, (calls, _, _) in enumerate(segs):
            ref = statistics.median(
                chain[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
            op_raw += calls
            op_norm += [dt / ref * REF_NOMINAL_S for dt in calls]
        return {"raw_s": sum(op_raw), "norm_s": sum(op_norm), "refs": chain,
                "op_raw": op_raw, "op_norm": op_norm}
