"""Per-layer counts and self time, from cProfile grouped by module.

A layer is a heckeforge module (`kernels` covers the backend selector and
both backends), plus stdlib `fractions`, which gets a layer of its own.
Calls into C builtins are charged to the Python function that made them.
Self time is the thread's CPU time (`time.thread_time`), so the worker
threads of `verify --jobs 2` are not charged for each other's turns.

Three ratios are read from call counts at fixed functions:

- `exact.lifts_per_op`: calls from `Cyclo.lift` into
  `_reduce_mod_cyclotomic` (lift makes one exactly when the conductor
  changes) per call of `Cyclo._common` (one per `__add__`, `__mul__` and
  `__eq__`, the operations that align conductors);
- `hecke.iwahori_tests_per_coset`: calls of the `mul_is_iwahori` kernel
  per call of `CosetSum._accumulate` (one per folded coset).
"""

import cProfile
import os
import pstats
import threading
import time

LAYERS = ("fractions", "exact", "gauss", "kernels", "ratmat", "hecke",
          "distributions", "laurent", "matrices", "modules", "weights",
          "suite", "cli")
_KERNELS = {"kernels", "_pykernels", "_ckernels"}
_FRACTIONS = os.path.join(os.path.dirname(os.__file__), "fractions.py")

# (file stem, function) -> counter name; read as the function's call count,
# or, for a (stem, function, caller) key, the calls from that caller.
_COUNTERS = {
    ("exact", "_reduce_mod_cyclotomic", "lift"): "lifts",
    ("exact", "_common"): "cyclo_ops",
    ("_pykernels", "mul_is_iwahori"): "iwahori_tests",
    ("hecke", "_accumulate"): "folded_cosets",
}


def new_profile():
    return cProfile.Profile(time.thread_time, 0.0, True, False)


def _layer(filename):
    if filename == _FRACTIONS:
        return "fractions"
    if os.path.basename(os.path.dirname(filename)) != "heckeforge":
        return None
    stem = os.path.splitext(os.path.basename(filename))[0]
    if stem in _KERNELS:
        return "kernels"
    return stem if stem in LAYERS else None


def empty_summary():
    return {"calls": {name: 0 for name in LAYERS},
            "self_s": {name: 0.0 for name in LAYERS},
            "counters": {name: 0 for name in _COUNTERS.values()}}


def summarize(profiles):
    """Sum the profiles into calls and self seconds per layer, plus the
    counters behind the ratios."""
    out = empty_summary()
    for prof in profiles:
        stats = pstats.Stats(prof).stats
        for (filename, _, func), (_, calls, self_s, _, callers) in stats.items():
            layer = _layer(filename)
            if layer is None:
                continue
            out["calls"][layer] += calls
            out["self_s"][layer] += self_s
            stem = os.path.splitext(os.path.basename(filename))[0]
            name = _COUNTERS.get((stem, func))
            if name:
                out["counters"][name] += calls
            for (_, _, caller), counts in callers.items():
                name = _COUNTERS.get((stem, func, caller))
                if name:
                    out["counters"][name] += counts[1]
    return out


def merge(a, b):
    for part in ("calls", "self_s", "counters"):
        for key, value in b[part].items():
            a[part][key] += value
    return a


class LayerProfiler:
    """The profile of the benchmark's own thread, plus summaries handed
    in from child processes.  `enable`/`disable` bracket program calls."""

    def __init__(self):
        self._profile = new_profile()
        self._children = []

    def enable(self):
        self._profile.enable()

    def disable(self):
        self._profile.disable()

    def add_summary(self, summary):
        self._children.append(summary)

    def summary(self):
        out = summarize([self._profile])
        for child in self._children:
            merge(out, child)
        return out


class ThreadProfiles:
    """Profiles every thread started inside the `with` block, plus the
    current one: a thread's first profile event swaps in its own
    cProfile profiler."""

    def __init__(self):
        self.profiles = []
        self._lock = threading.Lock()

    def _start(self, frame, event, arg):
        prof = new_profile()
        with self._lock:
            self.profiles.append(prof)
        prof.enable()

    def __enter__(self):
        threading.setprofile(self._start)
        self._main = new_profile()
        self.profiles.append(self._main)
        self._main.enable()
        return self

    def __exit__(self, *exc):
        self._main.disable()
        threading.setprofile(None)
        return False
