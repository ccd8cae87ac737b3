"""The verification suites behind `heckeforge verify`.

Each case is a named deterministic check (seeded RNG per case) returning
pass/fail plus a serializable witness.  The cases of a suite live in their
own module, `heckeforge.suites.<suite>` (`-` written `_`), imported only
when that suite runs.  Cases are dispatched to a worker pool and reported
in case-id order as JSON-ready dicts.
"""

import importlib
import random
import time
from concurrent.futures import ThreadPoolExecutor

SUITES = ("matrices", "hecke", "projections", "gauss", "weights",
          "distributions", "functional-equation")

# suite -> its (suite, case id, fn, params) entries in definition order
_REGISTRY = {s: [] for s in SUITES}


def case(suite, name, **params):
    def deco(fn):
        _REGISTRY[suite].append((suite, f"{suite}/{name}", fn, params))
        return fn
    return deco


def _ok(cond, witness=None):
    return ("pass", None) if cond else ("fail", witness)


def _entries(suites, include_corrupted_fixture):
    """The entries of `suites` in SUITES order, whatever order their case
    modules were imported in, and the corrupted fixture last."""
    reg = []
    for s in SUITES:
        if s in suites:
            importlib.import_module("heckeforge.suites." + s.replace("-", "_"))
            reg += _REGISTRY[s]
    if include_corrupted_fixture and "distributions" in suites:
        from heckeforge.suites.distributions import corrupted_distribution_case
        reg.append(("distributions", "distributions/zz-corrupted-fixture",
                    corrupted_distribution_case, {}))
    return reg


def registry(include_corrupted_fixture=False):
    return _entries(SUITES, include_corrupted_fixture)


def run_suite(suites=None, seed=0, jobs=1, include_corrupted_fixture=False,
              n_values=None, p_values=None, r_values=None):
    """Execute the selected suites; returns reports sorted by case id.

    n_values / p_values / r_values restrict the parameter-grid cases
    (cases without pinned parameters always run; every grid case lives at
    level r = 1).  Unselected suites contribute one skip record each, so
    nothing is ever silently dropped; grid cases excluded by the ranges
    are reported as skips too.  Deterministic for a fixed seed (timings
    aside).
    """
    selected = set(suites) if suites else set(SUITES)
    unknown = selected - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    to_run, range_skips = [], []
    for (s, cid, fn, params) in _entries(selected, include_corrupted_fixture):
        if n_values is not None and "n" in params and params["n"] not in n_values:
            range_skips.append((s, cid))
            continue
        if p_values is not None and "p" in params and params["p"] not in p_values:
            range_skips.append((s, cid))
            continue
        if r_values is not None and "n" in params and params.get("r", 1) not in r_values:
            range_skips.append((s, cid))
            continue
        to_run.append((s, cid, fn))
    reports = []

    def execute(item):
        s, cid, fn = item
        rng = random.Random(f"{seed}:{cid}")
        t0 = time.perf_counter()
        try:
            status, witness = fn(rng)
        except Exception as exc:  # a crash is a failure with a witness
            status, witness = "fail", {"exception": repr(exc)}
        ms = round((time.perf_counter() - t0) * 1000, 3)
        return {"suite": s, "case": cid, "status": status,
                "witness": witness, "ms": ms}

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(execute, to_run))
    else:
        reports = [execute(item) for item in to_run]
    for s, cid in range_skips:
        reports.append({"suite": s, "case": cid, "status": "skip",
                        "witness": "outside configured n/p ranges", "ms": 0})
    for s in sorted(set(SUITES) - selected):
        reports.append({"suite": s, "case": f"{s}/(all)", "status": "skip",
                        "witness": None, "ms": 0})
    reports.sort(key=lambda rep: rep["case"])
    return reports
