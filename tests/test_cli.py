import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heckeforge import cli, suite


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def _deadline(seconds, what):
    """Fail the test naming `what` if the body runs past `seconds`, so
    that a hang in process fails instead of stalling the run.  The alarm
    raises pytest.fail's exception, which neither cli.main nor the verify
    runner catches."""
    def too_slow(signum, frame):
        pytest.fail(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_deadline_fails_a_hang():
    with pytest.raises(pytest.fail.Exception, match=r"\['spin'\] ran past"):
        with _deadline(0.05, ["spin"]):
            while True:
                pass


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
    committed report (the CI workflow diffs the command's output, run
    with the ignored `--jobs 2`, against it)."""
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
def test_verify_rejects_jobs_below_one(capsys, jobs):
    """`--jobs` is accepted and ignored, but below 1 it is still a usage
    error; a `jobs` config key is an unknown key (see
    test_config_rejects_unknown_keys)."""
    code, out, err = run_cli(capsys, "verify", "--suite", "weights",
                             "--jobs", jobs)
    assert code == 2 and not out
    assert err == f"error: jobs = {jobs}; it must be at least 1\n"


def _fake_cases(monkeypatch, *cases):
    """Make `verify` run only `cases`, (case id, fn) pairs of the weights
    suite."""
    entries = [("weights", cid, fn, {}) for cid, fn in cases]
    monkeypatch.setattr(suite, "_entries", lambda suites, fixture: [
        e for e in entries if e[0] in suites])


def test_verify_bad_json_out_exits_before_any_case_runs(capsys, tmp_path,
                                                       monkeypatch):
    ran = []
    _fake_cases(monkeypatch, ("weights/must-not-run",
                              lambda rng: ran.append(1) or ("pass", None)))
    missing = tmp_path / "absent" / "r.jsonl"
    code, out, err = run_cli(capsys, "verify", "--seed", "5",
                             "--json-out", str(missing))
    assert code == 2 and not out and not ran
    assert err.startswith("error: ") and str(missing) in err


def test_verify_writes_each_record_as_its_case_ends(capsys, tmp_path,
                                                   monkeypatch):
    """When a case starts, the file already holds the record of every
    case before it in case-id order."""
    out_path = tmp_path / "r.jsonl"
    seen = {}

    def probe(rng):
        seen[len(seen)] = [json.loads(line)["case"]
                           for line in out_path.read_text().splitlines()]
        return "pass", None

    _fake_cases(monkeypatch, *((f"weights/probe-{k}", probe)
                               for k in (2, 0, 1)))
    code, _, _ = run_cli(capsys, "verify", "--suite", "weights",
                         "--json-out", str(out_path))
    assert code == 0
    ids = [json.loads(line)["case"]
           for line in out_path.read_text().splitlines()]
    assert ids == sorted(ids) and len(ids) == 6 + 3
    assert [seen[k] for k in range(3)] == [ids[:6 + k] for k in range(3)]


def test_verify_closed_reader_exits_without_traceback(tmp_path):
    """The reader of stdout takes one record and goes: the run stops
    there and exits 1 without a traceback."""
    cmd, env = _child("verify", "--seed", "5")
    err_path = tmp_path / "err.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        code = proc.wait(timeout=60)
    stderr = err_path.read_text()
    assert first["case"] == "distributions/abstract-tower-relation"
    assert code == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


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
    assert err == ("error: the Gauss sum's conductor lcm(N, p^t) = 10100 "
                   "exceeds MAX_MODULUS = 2500\n")


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
    ({"p": 3, "nus": [0, 0],
      "levels": [_level(1, [1, 2], value=["1", "2"])]},
     "distribution: field 'nus' = [0, 0] repeats a nu"),
    ({"p": 3, "nus": ["a"], "levels": [_level(1, [1, 2])]},
     "distribution: field 'nus' = ['a'] must hold ints only"),
    ({"p": 3, "nus": [True], "levels": [_level(1, [1, 2])]},
     "distribution: field 'nus' = [True] must hold ints only"),
    ({"p": 3, "nus": [1.5], "levels": [_level(1, [1, 2])]},
     "distribution: field 'nus' = [1.5] must hold ints only"),
])
def test_integrate_rejects_malformed_json(capsys, tmp_path, blob, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    with _deadline(5, "--from-json"):
        code, _, err = run_cli(capsys, "compute", "integrate",
                               "--from-json", str(path))
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


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("HECKE_FORGE_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suite", "weights")
    assert code == 2 and not out
    assert err == ("error: HECKE_FORGE_SEED: invalid literal for int() "
                   "with base 10: 'abc'\n")


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seed = 3\nsuite = weights\n")
    proc = _run_child("verify", "--config", str(cfg), timeout=120)
    assert proc.returncode == 2
    assert "unknown key 'suite'" in proc.stderr and ":2:" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("line, message", [
    ("seed = abc", "seed: invalid literal for int() with base 10: 'abc'"),
    ("r = 1.5", "r: invalid literal for int() with base 10: '1.5'"),
    ("n = 2,x", "n: invalid literal for int() with base 10: 'x'"),
    ("corrupted_distribution_fixture = maybe",
     "corrupted_distribution_fixture: expected true or false, not 'maybe'"),
    ("suites = gauss, bogus",
     "suites: unknown suite 'bogus'; known: matrices, hecke, projections, "
     "gauss, weights, distributions, functional-equation"),
    # an empty list used to read as no filter (suites) or as a filter
    # that skips every grid case (n, p, r)
    ("suites =", "suites: expected at least one comma-separated value"),
    ("suites = ,", "suites: expected at least one comma-separated value"),
    ("n =", "n: expected at least one comma-separated value"),
    ("p = , ,", "p: expected at least one comma-separated value"),
    ("r = # none", "r: expected at least one comma-separated value"),
])
def test_config_rejects_bad_values(capsys, tmp_path, line, message):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"suites = weights\n{line}\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and not out
    assert err == f"error: {cfg}:2: {message}\n"


_FLAG_SPELLINGS = {True: ("true", "TRUE", "yes", "Yes", "1"),
                   False: ("false", "False", "no", "NO", "0")}
_INTS = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4)
_CONFIG_VALUES = {
    "suites": st.lists(st.sampled_from(suite.SUITES), min_size=1,
                       max_size=4),
    "n": _INTS, "p": _INTS, "r": _INTS,
    "seed": st.integers(-10**12, 10**12),
    "corrupted_distribution_fixture": st.booleans(),
}


def _render(key, value, draw):
    if key == "corrupted_distribution_fixture":
        return draw(st.sampled_from(_FLAG_SPELLINGS[value]))
    if isinstance(value, list):
        sep = draw(st.sampled_from([",", ", ", " , "]))
        return sep.join(str(x) for x in value)
    return str(value)


@st.composite
def _configs(draw):
    """A config dict over the known keys and a file text that spells it,
    with blank lines, comments and spacing drawn too."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)),
                         unique=True))
    cfg = {key: draw(_CONFIG_VALUES[key]) for key in keys}
    lines = []
    for key, value in cfg.items():
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
        pad = draw(st.sampled_from(["", " ", "  "]))
        tail = draw(st.sampled_from(["", "  # note", "#"]))
        lines.append(f"{pad}{key}{pad}={pad}{_render(key, value, draw)}"
                     f"{tail}")
    return cfg, "".join(line + "\n" for line in lines)


@settings(max_examples=100, deadline=None)
@given(_configs())
def test_parse_config_round_trip(tmp_path_factory, drawn):
    cfg, text = drawn
    path = tmp_path_factory.getbasetemp() / "round-trip.cfg"
    path.write_text(text)
    assert cli.parse_config(str(path)) == cfg


@settings(max_examples=40, deadline=None)
@given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,12}", fullmatch=True).filter(
    lambda key: key not in cli._CONFIG_KEYS), st.integers(0, 3))
@example("jobs", 1)
def test_config_rejects_unknown_keys(tmp_path_factory, key, before):
    """Any key but the known ones, `jobs` among them, exits 2 naming the
    file, the line and the key, before any case runs."""
    path = tmp_path_factory.getbasetemp() / "unknown-key.cfg"
    path.write_text("suites = weights\n" * before + f"{key} = 2\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--config", str(path)])
    assert code == 2 and not out.getvalue()
    assert err.getvalue() == (f"error: {path}:{before + 1}: "
                              f"unknown key {key!r}\n")


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


_REFUSED_EXPANSIONS = [
    ("Vp", "p^((n+1)n(n-1)/6) = 7^35 cosets", "6", "7"),
    # U1 has p^(n-1) cosets: 7^5 at n = 6 is below the bound, 7^7 at n = 8
    ("U1", "p^(n-i) = 7^7 cosets", "8", "7"),
    ("V3", "p^(nu(n-nu)) = 7^9 cosets", "6", "7"),
    ("T3", "[n choose nu]_p = [6 choose 3]_7 cosets", "6", "7"),
    # refused before any block is listed: the count of each block is
    # formed from its pivots or in closed form, and the C(60, 30) blocks
    # of T30 are drawn lazily, the first already past the bound
    ("U1", "p^(n-i) = 2^99999 cosets", "100000", "2"),
    ("T30", "[n choose nu]_p = [60 choose 30]_2 cosets", "60", "2"),
    ("Vp", "p^((n+1)n(n-1)/6) = 2^166666666650000 cosets", "100000", "2"),
    ("V1500", "p^(nu(n-nu)) = 2^2250000 cosets", "3000", "2"),
]


@pytest.mark.parametrize("op, count, n, p", _REFUSED_EXPANSIONS,
                         ids=[f"{op}-{count}" for op, count, _, _
                              in _REFUSED_EXPANSIONS])
def test_hecke_expand_refuses_enumerations_above_bound(op, count, n, p):
    proc = _run_child("compute", "hecke-expand", "--n", n, "--p", p,
                      "--op", op, timeout=30)
    assert proc.returncode == 2
    assert count in proc.stderr and "MAX_ENUMERATION = 100000" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("op", ["V0", "T0"])
def test_hecke_expand_refuses_matrices_above_bound(op):
    """One coset passes the count bound at any n; its n x n matrix is
    bounded apart, before any entry is formed."""
    proc = _run_child("compute", "hecke-expand", "--n", "100000", "--p", "2",
                      "--op", op, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == ("error: 100000 x 100000 matrices: n^2 = "
                           "10000000000 entries exceeds MAX_MATRIX_ENTRIES = "
                           "100000\n")
    assert not proc.stdout


@pytest.mark.parametrize("op", ["V1", "Vp", "T2"])
def test_hecke_expand_refuses_a_rank_above_the_matrix_bound(op):
    """A rank past MAX_MATRIX_ENTRIES is refused in closed form: the
    operator's lists of length n ran past any budget at n = 10^20."""
    n = 10 ** 20
    proc = _run_child("compute", "hecke-expand", "--n", str(n), "--p", "3",
                      "--op", op, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {n} x {n} matrices: n^2 = {n * n} "
                           "entries exceeds MAX_MATRIX_ENTRIES = 100000\n")
    assert not proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["satake", "--n", "60", "--nu", "30"],
     "satake: C(n, nu) = C(60, 30) = 118264581564861424 terms exceeds "
     "MAX_ENUMERATION = 100000"),
    (["integrate", "--p", "3", "--depth", "40"],
     "level 40: p^m = 3^40 exceeds MAX_MODULUS = 2500"),
    (["integrate", "--p", "7", "--depth", "5"],
     "level 5: p^m = 7^5 = 16807 exceeds MAX_MODULUS = 2500"),
    # unchecked, the branch ran past 20 s and the first critical past
    # 10 s; the second has no twists but a strip of 2 * 10^8 - 1 values
    (["branch", "--mu", ",".join(str(x) for x in range(30, -1, -2))],
     "branch: 14348907 interlacing weights exceeds MAX_ENUMERATION = 100000"),
    (["critical", "--mu", "100000000,-100000000", "--nu", "0"],
     "emb_set: 200000001 twists exceeds MAX_ENUMERATION = 100000"),
    (["critical", "--mu", "0,0,0", "--nu", "100000000,-100000000"],
     "critical strip: 199999999 half-integers exceeds MAX_ENUMERATION"),
    # p ** -1 is a float, which range() refused with a traceback
    (["integrate", "--depth=-1"],
     "level -1: a tower level must be at least 1"),
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


@pytest.mark.parametrize("argv", [
    ["integrate"],
    ["kappa-hat", "--n", "3", "--p", "2", "--s", "1", "--nu", "1",
     "--nu-min", "0"]])
@pytest.mark.parametrize("kappa", ["1/0", "abc"])
def test_kappa_flag_names_itself(capsys, argv, kappa):
    code, out, err = run_cli(capsys, "compute", *argv, "--kappa", kappa)
    assert code == 2 and not out
    assert err == f"error: --kappa: not a scalar: {kappa!r}\n"


def test_hecke_expand_rejects_t_above_n():
    proc = _run_child("compute", "hecke-expand", "--n", "2", "--p", "2",
                      "--op", "T9", timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: 0 <= nu <= n required\n"
    assert not proc.stdout


@pytest.mark.parametrize("op", ["Ux", "U", "V", "T", "T1x", "V-1", "W2"])
def test_hecke_expand_names_a_malformed_tag(capsys, op):
    code, out, err = run_cli(capsys, "compute", "hecke-expand", "--n", "2",
                             "--p", "2", "--op", op)
    assert code == 2 and not out
    assert err == f"error: unknown operator tag {op!r}\n"


DATA = os.path.join(os.path.dirname(__file__), "data")


def _assert_golden_outputs(capsys, monkeypatch, command,
                           stem="compute-{}"):
    """Each line of <stem>.args, run as `compute <command>` from the
    repository root, prints the same line of <stem>.jsonl, the stem
    compute-<command> unless given (the CI workflow diffs the installed
    command against it too)."""
    monkeypatch.chdir(os.path.dirname(os.path.dirname(DATA)))
    stem = os.path.join(DATA, stem.format(command))
    with open(stem + ".args") as fh:
        invocations = [line.split() for line in fh if line.strip()]
    with open(stem + ".jsonl") as fh:
        golden = fh.read().splitlines()
    assert len(invocations) == len(golden)
    for argv, want in zip(invocations, golden):
        code, out, err = run_cli(capsys, "compute", command, *argv)
        assert (code, err) == (0, ""), argv
        assert out == want + "\n", argv


def test_compute_integrate_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "integrate")


def test_compute_gauss_sum_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "gauss-sum")


def test_compute_hecke_expand_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "hecke-expand", "{}")


def test_compute_kappa_hat_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "kappa-hat")


def test_compute_branch_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "branch")


def test_compute_critical_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "critical")


def test_compute_satake_matches_the_golden_outputs(capsys, monkeypatch):
    _assert_golden_outputs(capsys, monkeypatch, "satake")


def test_compute_refusals_match_the_golden_lines(capsys):
    """Each line of compute-refusals.args, one `compute` invocation per
    input bound, exits 2 at once with the same line of
    compute-refusals.txt and prints nothing else (the CI workflow runs the
    installed command against it too)."""
    with open(os.path.join(DATA, "compute-refusals.args")) as fh:
        invocations = [line.split() for line in fh if line.strip()]
    with open(os.path.join(DATA, "compute-refusals.txt")) as fh:
        golden = fh.read().splitlines()
    assert len(invocations) == len(golden)
    for argv, want in zip(invocations, golden):
        with _deadline(10, argv):
            assert run_cli(capsys, "compute", *argv) == (2, "", want + "\n")


def test_integrate_takes_its_character_without_the_dual_group():
    """Building all 2162 characters mod 47^2 took past 100 s; the lazy
    loop stops at the first one of conductor 47^2."""
    proc = _run_child("compute", "integrate", "--p", "47", "--depth", "2",
                      "--conductor", "2", timeout=30)
    assert proc.returncode == 0 and not proc.stderr
    assert json.loads(proc.stdout)["conductor"] == 2


def test_integrate_names_a_conductor_no_character_has(capsys):
    # every character mod 2 is trivial, of conductor 2^0
    code, out, err = run_cli(capsys, "compute", "integrate", "--p", "2",
                             "--depth", "2", "--conductor", "1")
    assert (code, out) == (2, "")
    assert err == "error: no character has conductor 2^1\n"


@pytest.mark.parametrize("argv, message", [
    (["gauss-sum", "--p", "1000000000000000003"],
     "error: p^s = 1000000000000000003 exceeds MAX_MODULUS = 2500"),
    (["gauss-sum", "--p", "3", "--s", "1000000000"],
     "error: p^s = 3^1000000000 exceeds MAX_MODULUS = 2500"),
    (["hecke-expand", "--n", "2", "--p", "1000000000000000003", "--op", "V0"],
     "error: p = 1000000000000000003 exceeds MAX_PRIME = 1000000000000"),
    (["kappa-hat", "--n", "3", "--p", "3", "--s", "1000000000", "--nu", "1",
      "--nu-min", "0", "--kappa", "2"],
     "error: p^s = 3^1000000000 exceeds MAX_MODULUS = 2500"),
], ids=["gauss-sum-p", "gauss-sum-s", "hecke-expand-p", "kappa-hat-s"])
def test_compute_refuses_a_huge_p_or_s_at_once(argv, message):
    """The bounds on p and s are checked before any trial division or
    p^s is formed; each of these ran for minutes before."""
    proc = _run_child("compute", *argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("n, nu", [("40", "1"), ("400", "1"),
                                   ("3", "-1000000000")])
def test_kappa_hat_refuses_a_huge_power_at_once(n, nu):
    """p^(s e), e = n(n-1)(n-2)/6 + (nu - nu_min) n(n-1)/2, is bounded
    before it is formed, so the message names n and nu, not Python's
    limit on int-to-string conversion."""
    proc = _run_child("compute", "kappa-hat", "--n", n, "--p", "3", "--s",
                      "1", f"--nu={nu}", "--nu-min", "0", "--kappa", "2",
                      timeout=2)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        f"error: kappa-hat at n = {n}, nu = {nu}, nu-min = 0: ")
    assert "MAX_KAPPA_HAT_BITS" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_kappa_hat_refuses_a_huge_kappa_at_once():
    """kappa^s is bounded with p^(s e), before either power is formed, so
    a 2000-digit kappa at s = 3 is refused by its bit length, not by
    Python's limit on int-to-string conversion."""
    proc = _run_child("compute", "kappa-hat", "--n", "3", "--p", "7", "--s",
                      "3", "--nu", "0", "--nu-min", "0", "--kappa", "7" * 2000,
                      timeout=2)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: kappa-hat at n = 3, nu = 0, nu-min = 0: ")
    assert "a kappa of 6645 bits" in proc.stderr
    assert "MAX_KAPPA_HAT_BITS" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_kappa_hat_checks_p_and_s(capsys):
    for argv, message in ([("--p", "4", "--s", "1"), "p = 4 is not prime"],
                          [("--p", "3", "--s", "0"), "s = 0 must be at least 1"],
                          [("--p", "7", "--s", "5"), "p^s = 16807 exceeds"]):
        code, out, err = run_cli(capsys, "compute", "kappa-hat", "--n", "3",
                                 *argv, "--nu", "1", "--nu-min", "0",
                                 "--kappa", "2")
        assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("command", [
    ["integrate", "--p", "2", "--depth", "2", "--conductor", "2"],
    ["kappa-hat", "--n", "3", "--p", "2", "--s", "1", "--nu", "1",
     "--nu-min", "0"],
])
def test_negative_kappa_after_a_space(command, capsys, monkeypatch):
    """--kappa -3/5 prints the line --kappa=-3/5 does, though argparse's
    negative-number pattern has no '/', and the help of --kappa shows a
    negative fraction."""
    joined = _run_child("compute", *command, "--kappa=-3/5", timeout=30)
    assert joined.returncode == 0 and joined.stdout.count("\n") == 1
    spaced = _run_child("compute", *command, "--kappa", "-3/5", timeout=30)
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == (
        0, joined.stdout, "")
    monkeypatch.setenv("COLUMNS", "200")  # no line break inside the help
    code, help_text, _ = run_cli(capsys, "compute", command[0], "--help")
    assert code == 0 and "-3/5" in help_text


# A fuzz of every `compute` subcommand, run in process.  Each option takes
# a small valid value, 0, a negative, a value of at least 10^20 or a
# malformed string, spelled --opt=value so that a negative one parses.

_INTS = ["1", "2", "3", "5", "0", "-1", "-7", str(10 ** 20), str(-10 ** 20),
         str(10 ** 30 + 7)]
_LISTS = ["3,1", "1,0,-1", "4,2,0", "0", "-2,-5", f"{10 ** 20},0"]
_OPS = ["V1", "U1", "T1", "Vp", "Vp'", "V0", "T2"]
_KAPPAS = ["2", "3/5", "-3/5", "0", str(10 ** 20)]
_MALFORMED = ["abc", "1/0", "2.5", "", ","]
# subcommand -> option -> (values, required)
_COMPUTE = {
    "gauss-sum": {"p": (_INTS, True), "s": (_INTS, False),
                  "order": (_INTS, False)},
    "hecke-expand": {"n": (_INTS, True), "p": (_INTS, True),
                     "r": (_INTS, False), "op": (_OPS, True)},
    "satake": {"n": (_INTS, True), "nu": (_INTS, True)},
    "branch": {"mu": (_LISTS, True)},
    "critical": {"mu": (_LISTS, True), "nu": (_LISTS, True)},
    "kappa-hat": {"n": (_INTS, True), "p": (_INTS, True), "s": (_INTS, True),
                  "nu": (_INTS, True), "nu-min": (_INTS, True),
                  "kappa": (_KAPPAS, True)},
    "integrate": {"p": (_INTS, False), "depth": (_INTS, False),
                  "conductor": (_INTS, False), "kappa": (_KAPPAS, False),
                  "seed": (_INTS, False), "from-json": (_INTS, False)},
}


@st.composite
def _compute_argv(draw):
    command = draw(st.sampled_from(sorted(_COMPUTE)))
    argv = ["compute", command]
    for opt, (values, required) in _COMPUTE[command].items():
        if required or draw(st.booleans()):
            value = draw(st.sampled_from(values + _MALFORMED))
            argv.append(f"--{opt}={value}")
    return argv


def _single_error(err):
    """Empty, one `error: ` line, or argparse's usage lines ending in its
    one `<prog>: error: ` line."""
    lines = err.splitlines()
    if len(lines) < 2:
        return not lines or lines[0].startswith("error: ")
    return (lines[0].startswith("usage: ") and ": error: " in lines[-1]
            and not any("error" in line for line in lines[:-1]))


@settings(max_examples=1000, derandomize=True, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_compute_argv())
@example(["compute", "integrate", "--depth=-1"])
def test_compute_fuzz_exits_0_or_2_without_traceback(tmp_path, argv):
    """Any argument vector exits 0 or 2 within 10 s, and prints at most
    one error line and no traceback; --from-json names a file in an empty
    directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with _deadline(10, argv):
                code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert _single_error(err.getvalue()), (argv, err.getvalue())


# A fuzz of `verify --config`, run in process.  A file holds `suites` and
# up to three other keys, known (cli._CONFIG_KEYS) or not (`jobs` among
# them); each value is valid, empty, malformed, negative or at least
# 10^20.  A valid suite is one of the three whose cases take tens of ms
# in all, so `suites` is always drawn: without it every suite runs.

_FAST_SUITES = ["weights", "distributions", "functional-equation"]
_VALID_VALUES = {
    "suites": st.lists(st.sampled_from(_FAST_SUITES), min_size=1,
                       max_size=3).map(", ".join),
    "n": st.sampled_from(["2", "3", "2, 3"]),
    "p": st.sampled_from(["2", "3", "2, 3, 5"]),
    "r": st.sampled_from(["1", "1, 2"]),
    "seed": st.sampled_from(["0", "5"]),
    "corrupted_distribution_fixture": st.sampled_from(["true", "no"]),
}
_ODD_VALUES = ["", ",", "abc", "1.5", "2,x", "-3", "-1, -7", str(10 ** 20),
               f"2, {10 ** 20}", str(-10 ** 30)]
_UNKNOWN_KEYS = ["jobs", "suite", "threads"]


@st.composite
def _verify_config(draw):
    """The text of a config file."""
    others = sorted(set(cli._CONFIG_KEYS) - {"suites"}) + _UNKNOWN_KEYS
    keys = ["suites"] + draw(st.lists(st.sampled_from(others), unique=True,
                                      max_size=3))
    lines = []
    for key in keys:
        valid = _VALID_VALUES.get(key, st.just("2"))
        value = draw(st.one_of(valid, st.sampled_from(_ODD_VALUES)))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_verify_config())
@example("suites = ,\n")
@example("suites = distributions\ncorrupted_distribution_fixture = true\n")
def test_verify_config_fuzz_exits_0_1_or_2_without_traceback(
        tmp_path, monkeypatch, text):
    """Any config file exits within 10 s and prints no traceback: 2 with
    one error line naming the file, or else 1 exactly when a case of the
    report failed, and 0 otherwise."""
    monkeypatch.delenv("HECKE_FORGE_SEED", raising=False)
    cfg, report = tmp_path / "fuzz.cfg", tmp_path / "report.jsonl"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _deadline(10, text):
            code = cli.main(["verify", "--config", str(cfg),
                             "--json-out", str(report)])
    err = err.getvalue()
    assert "Traceback" not in err and not out.getvalue(), text
    if code == 2:
        assert err.startswith(f"error: {cfg}:"), (text, err)
        assert err.count("\n") == 1, (text, err)
        return
    records = [json.loads(line) for line in report.read_text().splitlines()]
    failed = sum(rec["status"] == "fail" for rec in records)
    assert (code, err) == ((1, f"{failed} case(s) failed\n") if failed
                           else (0, "")), text
