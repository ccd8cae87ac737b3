"""Tests of the benchmark itself: every workload's check rejects a planted
wrong result, and the whole path runs end to end in short mode.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402
from refclock import REF_NOMINAL_S, REF_RESULT, Clock, reference_loop  # noqa: E402

from heckeforge import hecke  # noqa: E402
from heckeforge.exact import Cyclo  # noqa: E402

WORKLOADS = sorted(workloads.MODULES)


class DirectClock:
    """Calls straight through, untimed."""

    profiler = None

    def call(self, fn, *args):
        return fn(*args)


def short_round(name, seed=0):
    mod = workloads.load(name)
    inp = mod.build(seed, short=True)
    res = mod.run_round(inp, DirectClock())
    mod.check(inp, res)
    return mod, inp, res


def test_reference_loop_is_fixed():
    assert reference_loop() == REF_RESULT


def test_clock_normalises_by_neighbouring_references():
    clock = Clock()
    clock.call(sum, range(1000))
    clock.call(sum, range(2000))
    t = clock.take()
    assert len(t["refs"]) == 2 and len(t["op_raw"]) == 2
    assert t["norm_s"] == pytest.approx(
        t["raw_s"] / (sum(t["refs"]) / 2) * REF_NOMINAL_S)
    assert clock.take()["op_raw"] == []


def test_gauss_check_rejects_a_changed_coefficient():
    mod, inp, res = short_round("gauss-cyclotomic")
    blob = res[-1]["tau"].to_json()
    blob["coeffs"][0] = str(Fraction(blob["coeffs"][0]) + 1)
    res[-1]["tau"] = Cyclo.from_json(blob)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_gauss_check_rejects_a_wrong_twisted_sum():
    mod, inp, res = short_round("gauss-cyclotomic")
    item = next(r for r in res if r["twisted"])
    item["twisted"][0] = item["twisted"][0] + 1
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_coset_check_rejects_a_count_off_by_one():
    mod, inp, res = short_round("coset-fold")
    ctx = inp["items"][0]["ctx"]
    vp = res[0]["Vp"]
    res[0]["Vp"] = hecke.CosetSum(ctx, vp.pairs()[:-1], folded=True)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_coset_check_rejects_coinciding_cosets():
    mod, inp, res = short_round("coset-fold")
    ctx = inp["items"][0]["ctx"]
    pairs = res[0]["V"][0].pairs()
    res[0]["V"][0] = hecke.CosetSum(ctx, pairs[:-1] + pairs[:1], folded=True)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_coset_check_rejects_a_wrong_index():
    mod, inp, res = short_round("coset-fold")
    res[0]["unipotent_index"] += 1
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_distribution_check_rejects_a_corrupted_value():
    mod, inp, res = short_round("distribution-tower")
    tower = res["towers"][0]
    tower["mu"] = mod.corrupted(tower["mu"], 1, 0)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_distribution_check_rejects_a_wrong_integral():
    mod, inp, res = short_round("distribution-tower")
    ints = res["towers"][0]["integrals"]
    ints[-1] = (ints[-1][0] + 1, ints[-1][1])
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_distribution_check_rejects_a_broken_functional_equation():
    mod, inp, res = short_round("distribution-tower")
    mu, mu_dual, out = res["fe"][0]
    res["fe"][0] = (mu, mod.corrupted(mu_dual, 2, 0), out)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_verify_check_rejects_a_record_flipped_to_fail():
    mod, inp, res = short_round("verify-cli")
    code, stdout, stderr, wall = res[0]
    lines = stdout.splitlines()
    k = next(i for i, line in enumerate(lines) if '"status": "pass"' in line)
    lines[k] = lines[k].replace('"status": "pass"', '"status": "fail"')
    res[0] = (code, "\n".join(lines) + "\n", stderr, wall)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def test_verify_check_rejects_a_changed_report():
    mod, inp, res = short_round("verify-cli")
    code, stdout, stderr, wall = res[0]
    res[0] = (code, stdout.replace('"witness": null', '"witness": 0', 1),
              stderr, wall)
    with pytest.raises(CheckError):
        mod.check(inp, res)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_mode_end_to_end(name, trace):
    proc = _run(["--workload", name, "--seed", "5", "--short",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = json.loads(lines[0])["header"]
    assert header["workload"] == name and header["seed"] == 5
    assert header["backend"] and header["ref_loop_s"] > 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "coset-fold", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
