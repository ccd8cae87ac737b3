"""The suite runner loads each suite's case module only when it runs, and
the registry does not depend on the order those modules were loaded in."""

import json
import os
import subprocess
import sys

from heckeforge import cli, suite

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _python(code, *argv):
    """Run `code` in a fresh interpreter with the package on its path and
    return what it printed."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PRINT_REGISTRY = (
    "import json\n"
    "print(json.dumps([[s, cid, params]"
    " for s, cid, _, params in suite.registry()]))\n")


def test_registry_order_does_not_depend_on_load_order():
    fresh = json.loads(_python("from heckeforge import suite\n"
                               + _PRINT_REGISTRY))
    after_weights = json.loads(_python(
        "from heckeforge import suite\n"
        "suite.run_suite(suites=['weights'])\n" + _PRINT_REGISTRY))
    assert len(fresh) == 90
    assert after_weights == fresh
    assert [s for s, _, _ in fresh] == sorted(
        (s for s, _, _ in fresh), key=suite.SUITES.index)
    assert fresh == [[s, cid, params]
                     for s, cid, _, params in suite.registry()]


def _loaded(code, *argv):
    return set(_python(code + "\nimport sys\nprint(' '.join(sys.modules))",
                       *argv).split())


def test_cli_import_loads_only_the_suite_runner():
    loaded = _loaded("import heckeforge.cli")
    assert {m for m in loaded if m.startswith("heckeforge.")} == {
        "heckeforge.cli", "heckeforge.suite"}


def test_verify_one_suite_loads_only_its_modules(tmp_path):
    loaded = _loaded(
        "import sys\nfrom heckeforge import cli\n"
        "assert cli.main(['verify', '--suite', 'weights', '--json-out',"
        " sys.argv[1]]) == 0",
        str(tmp_path / "report.jsonl"))
    assert {"heckeforge.weights", "heckeforge.suites.weights"} <= loaded
    for name in ("hecke", "matrices", "laurent", "modules", "distributions"):
        assert f"heckeforge.{name}" not in loaded
        assert f"heckeforge.suites.{name}" not in loaded
