#!/usr/bin/env python3
"""The heckeforge benchmark: one workload per run, every result checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--short]

Workloads: gauss-cyclotomic, coset-fold, distribution-tower, verify-cli
(see README.md).  A run builds the workload's inputs from the seed, runs
one untimed warm-up round where the workload has caches to fill, then
repeats rounds of the same calls for --seconds (at least MIN_ROUNDS),
checking every round's results.  Each call into
heckeforge is timed between reference loops and reported at reference
speed (see refclock.py).

Standard output: a header line, a line of raw wall-clock figures, and as
the last line one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones (verdict_s, setup_s,
peak_rss_mb); with --trace 1 the per-layer ones, from rounds run under
the layer profiler.  The same, with per-round detail, goes to
perfbench/out/result-<workload>-seed<seed>-trace<t>.json.

--short runs one round on smaller inputs with one set-up probe, a smoke
test of the whole path that takes seconds.  Exit code 0 when every check
passed, 1 when one failed, 2 on a usage error or missing sources.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402
from refclock import REF_NOMINAL_S, Clock, time_reference  # noqa: E402

SETUP_PROBES = 5
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MODULES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    return ap.parse_args(argv)


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def setup_probes(name, seed, short, count):
    """Fresh interpreters that import heckeforge and build the inputs,
    each bracketed by reference loops.  One warm probe first writes the
    bytecode caches and is not counted."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed),
           str(int(short))]
    out = []
    for k in range(count + 1):
        before = time_reference()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        after = time_reference()
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        rec["refs"] = [before, after]
        if k:
            out.append(rec)
    return out


def median_of(values):
    return statistics.median(values) if values else 0.0


def per_call_median(rounds, key):
    """Sum over a round's calls of each call's median over the rounds.

    Rounds repeat the same calls, so the k-th call of every round is the
    same work: a slow moment of the machine that hits one call in one
    round is dropped, where a median of round totals would keep a round
    that had a few of them."""
    seqs = [r[key] for r in rounds]
    if not seqs:
        return 0.0
    if len({len(s) for s in seqs}) != 1:
        raise RuntimeError("rounds made different numbers of calls")
    return sum(statistics.median(col) for col in zip(*seqs))


class Run:
    """One benchmark run: probes, warm-up, timed rounds, result."""

    def __init__(self, name):
        self.mod = workloads.load(name)
        self.correct = True
        self.failed = 0
        self.attempted = 0
        self.errors = []
        self.rounds = []
        self.last_results = None

    def round(self, inp, clock):
        """One round, checked.  Returns the results, or None once a call
        raised or a check failed."""
        ops0 = clock.ops
        gc.collect()  # every round starts from the same heap
        try:
            res = self.mod.run_round(inp, clock)
        except Exception:
            clock.take()
            self.failed += 1
            self.attempted += clock.ops - ops0
            self.correct = False
            self.errors.append(traceback.format_exc())
            return None
        timing = clock.take()
        self.attempted += clock.ops - ops0
        try:
            self.mod.check(inp, res)
        except CheckError as exc:
            self.correct = False
            self.errors.append(f"check failed: {exc}")
            return None
        self.rounds.append(timing)
        self.last_results = res
        return res

    def timed_rounds(self, inp, clock, seconds, min_rounds):
        """Rounds until `seconds` passed and `min_rounds` were made."""
        start, first = time.perf_counter(), len(self.rounds)
        while (len(self.rounds) - first < min_rounds
               or time.perf_counter() - start < seconds):
            if self.round(inp, clock) is None:
                break
        return self.rounds[first:]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heckeforge", "__init__.py")):
        print(f"error: no heckeforge sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT, exist_ok=True)
    run = Run(args.workload)
    short = args.short

    probes = setup_probes(args.workload, args.seed, short,
                          1 if short else SETUP_PROBES)
    refs0 = [time_reference() for _ in range(5)]
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "short": short,
              "backend": probes[0]["backend"],
              "python": platform.python_version(),
              "git_revision": git_revision(), "nproc": os.cpu_count(),
              "ref_loop_s": statistics.median(refs0),
              "ref_nominal_s": REF_NOMINAL_S}
    print(json.dumps({"header": header}), flush=True)

    inp = run.mod.build(args.seed, short)
    # the probes take a few seconds: one median of all their reference
    # loops sees past a contention burst that hits a single loop
    probe_ref = statistics.median(r for p in probes for r in p["refs"])
    setup_norm = statistics.median(p["import_s"] + p["build_s"] for p in probes) \
        / probe_ref * REF_NOMINAL_S
    import_norm = statistics.median(p["import_s"] for p in probes) \
        / probe_ref * REF_NOMINAL_S
    clock = Clock()
    if not short and getattr(run.mod, "WARM_UP", True):
        run.round(inp, clock)  # warm-up: fills the program's caches
        run.rounds.clear()
    seconds = 0 if short else args.seconds
    min_rounds = 1 if short else MIN_ROUNDS

    detail = {}
    if args.trace == 0:
        timed = run.timed_rounds(inp, clock, seconds, min_rounds) if run.correct else []
        metrics = {
            "verdict_s": {"value": per_call_median(timed, "op_norm"), "unit": "s"},
            "setup_s": {"value": setup_norm, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
        raw = {"verdict_s": per_call_median(timed, "op_raw"),
               "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes)}
    else:
        metrics, raw, detail = traced(run, inp, seconds, import_norm)

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps({"raw": raw, "rounds": len(run.rounds)}), flush=True)
    for err in run.errors:
        print(err, file=sys.stderr)
    path = os.path.join(workloads.OUT, f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"header": header, "result": result, "raw": raw,
                   "rounds": run.rounds, "probes": probes, "errors": run.errors,
                   **detail}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if run.correct else 1


def peak_rss_mb():
    """The benchmark process's peak plus the largest child's peak: an
    upper bound on what was resident at once (children run one at a
    time, while this process is alive)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def traced(run, inp, seconds, import_norm):
    """Per-layer metrics: one untraced round for the overhead baseline,
    then rounds under the layer profiler for the rest of the time."""
    from layers import LAYERS, LayerProfiler, empty_summary

    untraced = run.timed_rounds(inp, Clock(), 0, 1)
    parallelism = getattr(run.mod, "parallelism", None)
    if parallelism is not None and run.correct:
        parallelism = parallelism(run.last_results)
    summaries, traced_rounds = [], []
    start = time.perf_counter()
    while run.correct and (not traced_rounds or time.perf_counter() - start < seconds):
        profiler = LayerProfiler()
        got = run.timed_rounds(inp, Clock(profiler), 0, 1)
        if not got:
            break
        traced_rounds += got
        summaries.append((profiler.summary(), statistics.median(got[0]["refs"])))
    metrics = {}
    first = summaries[0][0] if summaries else empty_summary()
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": first["calls"][layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {
            "value": median_of([s["self_s"][layer] / ref * REF_NOMINAL_S
                                for s, ref in summaries]),
            "unit": "s"}
    counters = first["counters"]
    metrics["exact.lifts_per_op"] = {
        "value": ratio(counters["lifts"], counters["cyclo_ops"]), "unit": "ratio"}
    metrics["hecke.iwahori_tests_per_coset"] = {
        "value": ratio(counters["iwahori_tests"], counters["folded_cosets"]),
        "unit": "ratio"}
    metrics["suite.parallelism"] = {"value": parallelism or 0.0, "unit": "ratio"}
    metrics["import_s"] = {"value": import_norm, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": per_call_median(traced_rounds, "op_norm")
        - per_call_median(untraced, "op_norm"),
        "unit": "s"}
    raw = {"verdict_s_untraced": per_call_median(untraced, "op_raw"),
           "verdict_s_traced": per_call_median(traced_rounds, "op_raw")}
    return metrics, raw, {"layer_summaries": [s for s, _ in summaries]}


def ratio(num, den):
    return num / den if den else 0.0


if __name__ == "__main__":
    sys.exit(main())
