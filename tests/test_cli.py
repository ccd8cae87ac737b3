import json
import os
import re
import signal
import subprocess
import sys

import pytest

from heckeforge import cli, suite


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "case", "status", "witness", "ms"],
    "properties": {
        "suite": {"type": "string"},
        "case": {"type": "string"},
        "status": {"enum": ["pass", "fail", "skip"]},
        "ms": {"type": "number"},
    },
}


def test_verify_single_suite(capsys, tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, "verify", "--suite", "weights",
                             "--seed", "0", "--json-out", str(out_path))
    assert code == 0
    jsonschema = pytest.importorskip("jsonschema")
    lines = out_path.read_text().strip().splitlines()
    assert lines
    seen = set()
    for line in lines:
        rep = json.loads(line)
        jsonschema.validate(rep, REPORT_SCHEMA)
        assert rep["case"] not in seen
        seen.add(rep["case"])
    # unselected suites appear as skip records
    skips = [json.loads(li) for li in lines if json.loads(li)["status"] == "skip"]
    assert {s["suite"] for s in skips} == {
        "matrices", "hecke", "projections", "gauss", "distributions",
        "functional-equation"}


def test_verify_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(capsys, "verify", "--suite", "weights", "--seed", "7",
                   "--json-out", str(p1))[0] == 0
    assert run_cli(capsys, "verify", "--suite", "weights", "--seed", "7",
                   "--json-out", str(p2))[0] == 0

    def strip_ms(path):
        return [{k: v for k, v in json.loads(line).items() if k != "ms"}
                for line in path.read_text().splitlines()]

    assert strip_ms(p1) == strip_ms(p2)


SEED5_REPORT = os.path.join(os.path.dirname(__file__), "data",
                            "verify-seed5.jsonl")


def test_verify_seed5_report_is_pinned():
    """`verify --seed 5` over every suite, each record serialised as
    cmd_verify writes it and with its ms stripped, is byte for byte the
    committed report (the CI workflow diffs the threaded run against it)."""
    lines = [re.sub(r', "ms": [0-9.eE+-]+\}$', "}",
                    json.dumps(rep, default=str))
             for rep in suite.run_suite(seed=5)]
    with open(SEED5_REPORT) as fh:
        assert "".join(line + "\n" for line in lines) == fh.read()


def test_corrupted_fixture_config(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "# corrupted-distribution fixture demo\n"
        "suites = distributions\n"
        "corrupted_distribution_fixture = true\n")
    out_path = tmp_path / "r.jsonl"
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg),
                             "--seed", "0", "--json-out", str(out_path))
    assert code == 1
    reports = [json.loads(li) for li in out_path.read_text().splitlines()]
    fails = [r for r in reports if r["status"] == "fail"]
    assert len(fails) == 1
    assert fails[0]["case"] == "distributions/zz-corrupted-fixture"
    assert fails[0]["witness"] is not None


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_config_parameter_ranges(capsys, tmp_path):
    cfg = tmp_path / "ranges.cfg"
    cfg.write_text("suites = hecke\nn = 2\np = 2\nr = 1\n")
    out_path = tmp_path / "ranged.jsonl"
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg),
                         "--seed", "0", "--json-out", str(out_path))
    assert code == 0
    reports = [json.loads(li) for li in out_path.read_text().splitlines()]
    ran = [r["case"] for r in reports if r["status"] != "skip"]
    assert any("gritsenko-n2-p2" in c for c in ran)
    assert not any("n3" in c or "p3" in c for c in ran)
    skipped = [r["case"] for r in reports if r["status"] == "skip"]
    assert any("gritsenko-n3-p2" in c for c in skipped)


def test_env_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HECKE_FORGE_SEED", "13")
    p1 = tmp_path / "env.jsonl"
    code, _, _ = run_cli(capsys, "verify", "--suite", "weights",
                         "--json-out", str(p1))
    assert code == 0
    p2 = tmp_path / "flag.jsonl"
    run_cli(capsys, "verify", "--suite", "weights", "--seed", "13",
            "--json-out", str(p2))

    def strip_ms(path):
        return [{k: v for k, v in json.loads(line).items() if k != "ms"}
                for line in path.read_text().splitlines()]

    assert strip_ms(p1) == strip_ms(p2)


def test_compute_gauss_sum(capsys):
    code, out, _ = run_cli(capsys, "compute", "gauss-sum", "--p", "5",
                           "--order", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["square"] == {"m": 1, "coeffs": ["5"]}
    assert blob["abs_square_is_ps"]


def test_compute_hecke_expand(capsys):
    code, out, _ = run_cli(capsys, "compute", "hecke-expand", "--n", "2",
                           "--p", "2", "--op", "V1")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 2
    mats = {tuple(tuple(row) for row in c["matrix"]) for c in blob["cosets"]}
    assert (("2", "0"), ("0", "1")) in mats


def test_compute_satake(capsys):
    code, out, _ = run_cli(capsys, "compute", "satake", "--n", "2", "--nu", "1")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["terms"]) == 2


def test_compute_branch_and_critical(capsys):
    code, out, _ = run_cli(capsys, "compute", "branch", "--mu", "2,0")
    assert code == 0
    assert json.loads(out)["branch"] == [[0], [1], [2]]
    code, out, _ = run_cli(capsys, "compute", "critical", "--mu", "3,1,-1",
                           "--nu", "1,-1")
    assert code == 0
    blob = json.loads(out)
    assert blob["emb"] == [0, 1, 2]
    assert blob["center"] == "3/2"
    assert blob["s_min"] == "1/2" and blob["s_max"] == "5/2"


def test_compute_kappa_hat(capsys):
    code, out, _ = run_cli(capsys, "compute", "kappa-hat", "--n", "3",
                           "--p", "2", "--s", "1", "--nu", "1",
                           "--nu-min", "0", "--kappa", "2")
    assert code == 0
    assert json.loads(out)["value"] == "8"


def test_compute_integrate(capsys):
    code, out, _ = run_cli(capsys, "compute", "integrate", "--p", "3",
                           "--depth", "2", "--conductor", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["distribution"]["p"] == 3
    assert len(blob["integral"]) == 1


def test_integrate_roundtrip_from_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "compute", "integrate", "--p", "5",
                           "--depth", "2", "--conductor", "2", "--seed", "3")
    assert code == 0
    blob = json.loads(out)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(blob["distribution"]))
    code2, out2, _ = run_cli(capsys, "compute", "integrate",
                             "--from-json", str(path), "--conductor", "2")
    assert code2 == 0
    assert json.loads(out2)["integral"] == blob["integral"]


def test_integrate_rejects_corrupted_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "compute", "integrate", "--p", "3",
                           "--depth", "2", "--conductor", "1")
    blob = json.loads(out)["distribution"]
    blob["levels"][1]["cosets"][0]["value"][0] = "999"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code2, _, err = run_cli(capsys, "compute", "integrate",
                            "--from-json", str(path), "--conductor", "1")
    assert code2 == 1
    assert "distribution relation" in err


def test_verify_with_jobs(capsys, tmp_path):
    p1, p2 = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
    assert run_cli(capsys, "verify", "--suite", "weights", "--seed", "4",
                   "--json-out", str(p1))[0] == 0
    assert run_cli(capsys, "verify", "--suite", "weights", "--seed", "4",
                   "--jobs", "4", "--json-out", str(p2))[0] == 0

    def strip_ms(path):
        return [{k: v for k, v in json.loads(line).items() if k != "ms"}
                for line in path.read_text().splitlines()]

    assert strip_ms(p1) == strip_ms(p2)


@pytest.mark.parametrize("jobs", ["-3", "0"])
def test_verify_rejects_jobs_below_one(capsys, tmp_path, jobs):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"jobs = {jobs}\n")
    for argv in (["--jobs", jobs], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, "verify", "--suite", "weights",
                                 *argv)
        assert code == 2 and not out
        assert err == f"error: jobs = {jobs}; it must be at least 1\n"


def _child(*argv):
    """The command and environment that run the CLI in a child process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return ([sys.executable, "-m", "heckeforge.cli", *argv],
            dict(os.environ, PYTHONPATH=src))


def _run_child(*argv, timeout):
    """Run the CLI in a child process, so that a hang fails the test
    instead of stalling the suite."""
    cmd, env = _child(*argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_closed_reader_exits_without_traceback(tmp_path):
    """The reader of stdout is gone before the CLI prints its result."""
    cmd, env = _child("compute", "gauss-sum", "--p", "5", "--s", "4",
                      "--order", "500")
    err_path = tmp_path / "err.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        proc.stdout.close()
        code = proc.wait(timeout=60)
    stderr = err_path.read_text()
    assert code == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_gauss_sum_rejects_non_prime_p():
    proc = _run_child("compute", "gauss-sum", "--p", "4", timeout=60)
    assert proc.returncode == 2
    assert "not prime" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gauss_sum_filters_by_order_before_building_characters():
    # 625 has 500 characters; none of order 2 has conductor 5^4
    proc = _run_child("compute", "gauss-sum", "--p", "5", "--s", "4",
                      timeout=10)
    assert proc.returncode == 2
    assert "no character" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gauss_sum_rejects_modulus_above_bound():
    proc = _run_child("compute", "gauss-sum", "--p", "5", "--s", "9",
                      timeout=10)
    assert proc.returncode == 2
    assert "MAX_MODULUS" in proc.stderr and "1953125" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gauss_sum_rejects_conductor_above_bound(capsys):
    code, _, err = run_cli(capsys, "compute", "gauss-sum", "--p", "101",
                           "--order", "100")
    assert code == 2
    assert "conductor 10100" in err and "MAX_MODULUS" in err


def test_gauss_sum_reduces_to_the_smallest_conductor(capsys):
    # the sum is formed at conductor 506 and printed at 253
    code, out, _ = run_cli(capsys, "compute", "gauss-sum", "--p", "23",
                           "--order", "22")
    assert code == 0
    blob = json.loads(out)
    assert blob["gauss_sum"]["m"] == 253 and blob["abs_square_is_ps"]


def test_gauss_sum_rejects_s_below_one(capsys):
    code, _, err = run_cli(capsys, "compute", "gauss-sum", "--p", "5",
                           "--s", "0")
    assert code == 2
    assert "s = 0" in err


def _level(m, xs, value=("0",)):
    return {"m": m, "cosets": [{"x": x, "value": list(value)} for x in xs]}


@pytest.mark.parametrize("blob, field", [
    ({"p": 3, "nus": [0]}, "'levels'"),
    ({"p": 3, "nus": [0], "levels": {"m": 1}}, "'levels' must be list"),
    ({"p": 3, "nus": [0], "levels": [{"m": "1", "cosets": []}]},
     "'m' must be int"),
    ({"p": 3, "nus": [0],
      "levels": [{"m": 1, "cosets": [{"x": 1, "value": [None]}]}]},
     "levels[0].cosets[0].value"),
    ({"p": 1, "nus": [0], "levels": [_level(1, [1, 2])]}, "p = 1 is not prime"),
    ({"p": -3, "nus": [0], "levels": [_level(1, [1, 2])]},
     "p = -3 is not prime"),
    # level 2 without the coset 4 (mod 9)
    ({"p": 3, "nus": [0],
      "levels": [_level(1, [1, 2]), _level(2, [1, 2, 5, 7, 8])]},
     "levels[1]: the cosets are not those of (Z/3^2)^*"),
    ({"p": 3, "nus": [0],
      "levels": [_level(1, [1, 2]), _level(2, [1, 2, 4, 5, 7, 8, 8])]},
     "levels[1]: the cosets are not those of (Z/3^2)^*"),
    ({"p": 3, "nus": [0], "levels": [_level(1, [1, 2]), _level(3, [1])]},
     "levels[1]: m = 3; the levels must be consecutive"),
    ({"p": 3, "nus": [0], "levels": [_level(0, [])]},
     "levels[0]: m = 0; the levels must be consecutive, from some m >= 1"),
    ({"p": 3, "nus": [0, 1], "levels": [_level(1, [1, 2])]},
     "levels[0].cosets[0].value: 1 entries for 2 nus"),
    ({"p": 3, "nus": [0], "levels": [_level(1, [1, 2], value=["1/0"])]},
     "levels[0].cosets[0].value: not a scalar: '1/0'"),
    ({"p": 3, "nus": [0],
      "levels": [_level(1, [1, 2], value=[{"m": 0, "coeffs": []}])]},
     "levels[0].cosets[0].value: field 'm' = 0 must be an int from 1"),
    ({"p": 3, "nus": [0], "levels": [_level(1, [1, 2], value=[
        {"m": 1000000000000000009, "coeffs": ["1"]}])]},
     "levels[0].cosets[0].value: field 'm' = 1000000000000000009"),
])
def test_integrate_rejects_malformed_json(capsys, tmp_path, blob, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))

    def too_slow(signum, frame):
        pytest.fail("--from-json took more than 5 s to reject its input")

    # pytest.fail raises an exception that cli.main does not catch
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        code, _, err = run_cli(capsys, "compute", "integrate",
                               "--from-json", str(path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "{missing}"],
    ["verify", "--suite", "weights", "--json-out", "{missing}/report.jsonl"],
    ["compute", "integrate", "--from-json", "{missing}"],
])
def test_missing_path_exits_2_without_traceback(tmp_path, argv):
    missing = str(tmp_path / "absent")
    proc = _run_child(*(a.format(missing=missing) for a in argv), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and missing in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 3\nsuite = weights\n")
    proc = _run_child("verify", "--config", str(cfg), timeout=120)
    assert proc.returncode == 2
    assert "unknown key 'suite'" in proc.stderr and ":2:" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("line, message", [
    ("seed = abc", "seed: invalid literal for int() with base 10: 'abc'"),
    ("jobs = 2.5", "jobs: invalid literal for int() with base 10: '2.5'"),
    ("n = 2,x", "n: invalid literal for int() with base 10: 'x'"),
    ("corrupted_distribution_fixture = maybe",
     "corrupted_distribution_fixture: expected true or false, not 'maybe'"),
])
def test_config_rejects_bad_values(capsys, tmp_path, line, message):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"suites = weights\n{line}\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and not out
    assert err == f"error: {cfg}:2: {message}\n"


@pytest.mark.parametrize("value, fails", [
    ("TRUE", True), ("yes", True), ("1", True),
    ("false", False), ("No", False), ("0", False),
])
def test_config_fixture_flag_values(capsys, tmp_path, value, fails):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("suites = distributions\n"
                   f"corrupted_distribution_fixture = {value}\n")
    out_path = tmp_path / "r.jsonl"
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg),
                         "--json-out", str(out_path))
    assert code == (1 if fails else 0)
    ids = [json.loads(li)["case"] for li in out_path.read_text().splitlines()]
    assert ("distributions/zz-corrupted-fixture" in ids) == fails


def test_hecke_expand_rejects_non_prime_p():
    proc = _run_child("compute", "hecke-expand", "--n", "2", "--p", "4",
                      "--op", "V1", timeout=60)
    assert proc.returncode == 2
    assert "p = 4 is not prime" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("op, count", [
    ("Vp", "p^(r(n+1)n(n-1)/6) = 7^35 cosets"),
    ("U1", "p^(n(n-1)) = 7^30 candidates"),
    ("V3", "p^(nu(n-nu)) = 7^9 cosets"),
    ("T3", "the triangular candidates"),
])
def test_hecke_expand_refuses_enumerations_above_bound(op, count):
    proc = _run_child("compute", "hecke-expand", "--n", "6", "--p", "7",
                      "--op", op, timeout=30)
    assert proc.returncode == 2
    assert count in proc.stderr and "MAX_ENUMERATION = 100000" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["satake", "--n", "60", "--nu", "30"],
     "C(n, nu) = C(60, 30) terms exceed MAX_ENUMERATION = 100000"),
    (["integrate", "--p", "3", "--depth", "40"],
     "level 40: p^m = 3^40 exceeds MAX_MODULUS = 2500"),
    (["integrate", "--p", "7", "--depth", "5"],
     "level 5: p^m = 7^5 exceeds MAX_MODULUS = 2500"),
])
def test_compute_refuses_enumerations_above_bound(argv, message):
    proc = _run_child("compute", *argv, timeout=30)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_kappa_hat_names_the_zero_eigenvalue():
    proc = _run_child("compute", "kappa-hat", "--n", "3", "--p", "2", "--s",
                      "1", "--nu", "1", "--nu-min", "0", "--kappa", "0",
                      timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: kappa kappa' = 0")
    assert "Traceback" not in proc.stderr and not proc.stdout
