"""The verification suites behind `heckeforge verify`.

Each case is a named deterministic check (seeded RNG per case) returning
pass/fail plus a serializable witness.  A grid case is one function
registered once per grid point, and the params `case()` records for the
point reach it as keyword arguments after the rng.  The cases of a suite
live in their own module, `heckeforge.suites.<suite>` (`-` written `_`),
imported only when that suite runs.  Cases run one at a time in case-id
order, and each is reported as a JSON-ready dict as soon as it ends.
"""

import importlib
import random
import time

SUITES = ("matrices", "hecke", "projections", "gauss", "weights",
          "distributions", "functional-equation")

# suite -> its (suite, case id, fn, params) entries in definition order
_REGISTRY = {s: [] for s in SUITES}


def case(suite, name, **params):
    """Register fn as case `<suite>/<name>`; the runner calls
    fn(rng, **params), so a case without params is fn(rng).  The params
    n, p and r are also what the range filter of run_suite reads."""
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


def run_suite(suites=None, seed=0, include_corrupted_fixture=False,
              n_values=None, p_values=None, r_values=None):
    """Check the arguments and list the selected work; returns an iterator
    that runs it in case-id order and yields one record per case.

    An unknown suite raises ValueError here, before any case runs.
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
    # (case id, suite, fn, params, witness): fn None is a skip, else a run
    work = []
    for (s, cid, fn, params) in _entries(selected, include_corrupted_fixture):
        if ((n_values is not None and "n" in params
             and params["n"] not in n_values)
                or (p_values is not None and "p" in params
                    and params["p"] not in p_values)
                or (r_values is not None and "n" in params
                    and params.get("r", 1) not in r_values)):
            work.append((cid, s, None, {}, "outside configured n/p ranges"))
        else:
            work.append((cid, s, fn, params, None))
    for s in sorted(set(SUITES) - selected):
        work.append((f"{s}/(all)", s, None, {}, None))
    work.sort(key=lambda item: item[0])
    return _run(work, seed)


def _run(work, seed):
    for cid, s, fn, params, witness in work:
        if fn is None:
            yield {"suite": s, "case": cid, "status": "skip",
                   "witness": witness, "ms": 0}
            continue
        rng = random.Random(f"{seed}:{cid}")
        t0 = time.perf_counter()
        try:
            status, witness = fn(rng, **params)
        except Exception as exc:  # a crash is a failure with a witness
            status, witness = "fail", {"exception": repr(exc)}
        ms = round((time.perf_counter() - t0) * 1000, 3)
        yield {"suite": s, "case": cid, "status": status,
               "witness": witness, "ms": ms}
