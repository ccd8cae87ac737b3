"""verify-cli: repeated `heckeforge verify --jobs 2 --seed <seed>`
subprocesses, read back as JSON Lines.

The only workload that measures `laurent`, `modules`, `weights`, process
start-up, `suite` dispatch with its worker pool, and the JSONL output.
One round runs one invocation per suite over `matrices`, `projections`,
`weights`, `distributions` and `functional-equation`, one over `hecke`
restricted by a config to p = 2 (at p = 3, `hecke/indices-n3-p3` alone
takes 6 s), and one with the corrupted distribution fixture switched on.

Inputs: the seed is passed to every invocation; the config files are
written at set-up.  The seed changes the cases' random data, not the
cases run.
"""

import json
import os
import re
import subprocess
import sys
import time

from heckeforge import suite

from oracle import require
from workloads import OUT, ROOT, SRC

NAME = "verify-cli"

SUITES = ["matrices", "projections", "weights", "distributions",
          "functional-equation"]
SHORT_SUITES = ["weights", "functional-equation"]
JOBS = 2
TIMEOUT_S = 150
# Every call is a fresh process, so there are no in-process caches for a
# warm-up round to fill; the set-up probes have already read the sources.
WARM_UP = False
CORRUPTED_CASE = "distributions/zz-corrupted-fixture"
TRACED_CLI = os.path.join(ROOT, "perfbench", "traced_cli.py")


class Invocation:
    """One `heckeforge verify` command line and the records it must give."""

    def __init__(self, seed, suites, config=None, p_values=None,
                 corrupted=False):
        self.argv = ["verify", "--jobs", str(JOBS), "--seed", str(seed)]
        if config is None:
            for s in suites:
                self.argv += ["--suite", s]
        else:
            self.argv += ["--config", config]
        self.corrupted = corrupted
        self.passing, self.skipped = set(), set()
        for s, cid, _, params in suite.registry(corrupted):
            if s not in suites:
                continue
            if p_values is not None and params.get("p", p_values[0]) not in p_values:
                self.skipped.add(cid)
            elif cid != CORRUPTED_CASE:
                self.passing.add(cid)
        self.skipped |= {f"{s}/(all)" for s in suite.SUITES if s not in suites}
        self.reference = None  # the first round's report, without timings


def _write_config(name, lines):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        fh.write("".join(f"{line}\n" for line in lines))
    return path


def build(seed, short=False):
    os.makedirs(OUT, exist_ok=True)
    suites = SHORT_SUITES if short else SUITES
    invs = [Invocation(seed, [s]) for s in suites]
    if not short:
        hecke_cfg = _write_config("verify-hecke.cfg", ["suites = hecke", "p = 2"])
        invs.append(Invocation(seed, ["hecke"], hecke_cfg, p_values=[2]))
    bad_cfg = _write_config("verify-corrupted.cfg", [
        "suites = distributions", "corrupted_distribution_fixture = true"])
    invs.append(Invocation(seed, ["distributions"], bad_cfg, corrupted=True))
    return {"invocations": invs}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def verify(argv, trace_path=None):
    """Run one `heckeforge verify` child; (exit code, stdout, stderr, wall
    seconds).  With trace_path, the child runs under the layer profiler
    and writes its per-layer summary there."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "heckeforge.cli"] + argv
    else:
        cmd = [sys.executable, TRACED_CLI, trace_path] + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def run_round(inp, clock):
    out = []
    profiler = clock.profiler
    for k, inv in enumerate(inp["invocations"]):
        if profiler is None:
            out.append(clock.call(verify, inv.argv))
        else:
            path = os.path.join(OUT, f"trace-child-{k}.json")
            out.append(clock.call(verify, inv.argv, path))
            with open(path) as fh:
                profiler.add_summary(json.load(fh))
    return out


_MS = re.compile(r', "ms": [0-9.eE+-]+\}$')


def _without_ms(line):
    return _MS.sub("}", line)


def check(inp, results):
    require(len(results) == len(inp["invocations"]), "one report per invocation")
    for inv, (code, stdout, stderr, _) in zip(inp["invocations"], results):
        where = " ".join(inv.argv)
        require(code == (1 if inv.corrupted else 0),
                f"exit code {code}, {where}: {stderr.strip()[-300:]}")
        lines = stdout.splitlines()
        records = [json.loads(line) for line in lines]
        ids = [r["case"] for r in records]
        want_ids = inv.passing | inv.skipped | (
            {CORRUPTED_CASE} if inv.corrupted else set())
        require(len(ids) == len(want_ids) and set(ids) == want_ids,
                f"{len(ids)} records, want the registry's {len(want_ids)} cases, "
                f"{where}")
        for r in records:
            cid, status = r["case"], r["status"]
            want = ("skip" if cid in inv.skipped
                    else "fail" if cid == CORRUPTED_CASE else "pass")
            require(status == want, f"{cid} is {status}, want {want}, {where}")
        report = [_without_ms(line) for line in lines]
        if inv.reference is None:
            inv.reference = report
        require(report == inv.reference,
                f"report differs from the first one at the same seed, {where}")


def parallelism(results):
    """Sum of the records' ms over the children's wall time: below 1 for
    a serial run, up to --jobs for a parallel one."""
    ms = sum(json.loads(line)["ms"] for _, stdout, _, _ in results
             for line in stdout.splitlines())
    return ms / 1000 / sum(wall for _, _, _, wall in results)
