"""pyproject.toml alone declares the package: its console script must
resolve to a callable and its package discovery must point at src/.  And
every input bound and primality refusal is raised in one module, every
valuation is taken in one module, and a vector is brought over one
denominator in one module (and in RatMat.from_rows).  No math module,
CLI or verify suite module loads dataclasses or inspect at import."""

import ast
import functools
import glob
import importlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)


def test_console_script_resolves():
    target = _pyproject()["project"]["scripts"]["heckeforge"]
    assert target == "heckeforge.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_packages_found_under_src():
    find = _pyproject()["tool"]["setuptools"]["packages"]["find"]
    assert find["where"] == ["src"]
    assert os.path.isfile(os.path.join(ROOT, "src", "heckeforge",
                                       "__init__.py"))
    setuptools = pytest.importorskip("setuptools")
    found = setuptools.find_packages(os.path.join(ROOT, *find["where"]))
    assert {"heckeforge", "heckeforge.suites"} <= set(found)


def test_bound_and_prime_refusals_are_raised_in_exact_only():
    """No raise outside exact.py names a MAX_* bound, in its text or as a
    name, or says "not prime" or "must be prime": each module passes the
    subject of its message to exact.check_bound or exact.check_prime."""
    package = os.path.join(ROOT, "src", "heckeforge")
    paths = sorted(glob.glob(os.path.join(package, "**", "*.py"),
                             recursive=True))
    assert os.path.join(package, "exact.py") in paths
    offending = []
    for path in paths:
        if os.path.basename(path) == "exact.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            words = [sub.value for sub in ast.walk(node)
                     if isinstance(sub, ast.Constant)
                     and isinstance(sub.value, str)]
            words += [sub.id for sub in ast.walk(node)
                      if isinstance(sub, ast.Name)]
            if any(re.search(r"MAX_[A-Z]|not prime|must be prime", w)
                   for w in words):
                offending.append(f"{os.path.relpath(path, ROOT)}:"
                                 f"{node.lineno}")
    assert not offending


def _divides_out(loop):
    """Whether a while loop tests `... % q` and divides by the same q in
    its body: a loop that takes a valuation by hand."""
    mods = {ast.dump(node.right) for node in ast.walk(loop.test)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)}
    divs = {ast.dump(node.right if isinstance(node, ast.BinOp)
                     else node.value)
            for stmt in loop.body for node in ast.walk(stmt)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, (ast.Div, ast.FloorDiv))}
    return bool(mods & divs)


def test_valuations_are_taken_in_exact_only():
    """Outside exact.py no function is named vp*, and no while loop tests
    `% p` and divides by p, but the pivot loops of kernels._eliminate and
    _triangular_columns, which keep the unit part as well: every other
    p-adic valuation is exact.vp or exact.vp_int."""
    package = os.path.join(ROOT, "src", "heckeforge")
    paths = sorted(glob.glob(os.path.join(package, "**", "*.py"),
                             recursive=True))
    assert os.path.join(package, "kernels.py") in paths
    kept = {("kernels.py", "_eliminate"), ("kernels.py", "_triangular_columns")}
    offending, seen = [], set()
    for path in paths:
        name = os.path.basename(path)
        if name == "exact.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name.startswith("vp"):
                    offending.append(f"{name}:{node.lineno} def {node.name}")
                if (name, node.name) in kept:
                    seen.add((name, node.name))
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        offending += [f"{name}:{node.lineno} while"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.While) and _divides_out(node)
                      and node.lineno not in allowed]
    assert seen == kept
    assert not offending


def test_common_denominators_are_taken_in_exact_only():
    """Outside exact.py and ratmat.py no call to lcm reads a .denominator:
    a vector of scalars is brought over one denominator by exact.split
    and back by exact.join."""
    package = os.path.join(ROOT, "src", "heckeforge")
    paths = sorted(glob.glob(os.path.join(package, "**", "*.py"),
                             recursive=True))
    assert os.path.join(package, "exact.py") in paths
    offending = []
    for path in paths:
        if os.path.basename(path) in ("exact.py", "ratmat.py"):
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None)) == "lcm"
                    and any(isinstance(sub, ast.Attribute)
                            and sub.attr == "denominator"
                            for arg in node.args for sub in ast.walk(arg))):
                offending.append(f"{os.path.relpath(path, ROOT)}:"
                                 f"{node.lineno}")
    assert not offending


def _modules_loaded(code):
    """The module names in sys.modules after `code` runs in a fresh
    interpreter with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(out.stdout.split())


@functools.cache
def _bare_modules():
    return _modules_loaded("pass")


_SUITES = os.path.join(ROOT, "src", "heckeforge", "suites")


_COVERAGE_CALLS = """
from heckeforge import hecke
from heckeforge.matrices import GlnContext
for tag in ("V1", "T1"):
    assert hecke.check_coverage(GlnContext(2, 2, 1), tag) == (True, None)
"""


@pytest.mark.parametrize("code, absent", [
    ("import heckeforge.distributions",
     {"heckeforge.modules", "heckeforge.ratmat", "heckeforge.kernels"}),
    ("import heckeforge.suites.projections",
     {"heckeforge.distributions", "heckeforge.gauss"}),
    ("import heckeforge.hecke", {"random"}),
    pytest.param(_COVERAGE_CALLS, {"heckeforge.gauss"},
                 id="hecke.check_coverage-absent3")],
    ids=lambda v: v.removeprefix("import ") if isinstance(v, str) else None)
def test_module_loads_only_what_it_calls(code, absent):
    """With no bytecode cache, each module a `verify` child imports is
    compiled in that child, so a suite's process loads only the modules
    its cases call: after `code` runs, none of `absent` is loaded."""
    loaded = _modules_loaded(code) - _bare_modules()
    assert "heckeforge" in loaded
    assert not absent & loaded


@pytest.mark.parametrize("module", [
    "heckeforge.gauss", "heckeforge.distributions", "heckeforge.hecke",
    "heckeforge.matrices", "heckeforge.cli",
    *sorted(f"heckeforge.suites.{name[:-3]}" for name in os.listdir(_SUITES)
            if name.endswith(".py") and name != "__init__.py")])
def test_module_imports_no_dataclasses_or_inspect(module):
    """Either would add start-up time and memory to every process that
    builds a tower, a `GlnContext` or a verify suite.  What `site` loads
    differs between machines, so a bare interpreter is the baseline."""
    loaded = _modules_loaded(f"import {module}")
    assert module in loaded
    assert not {"dataclasses", "inspect"} & (loaded - _bare_modules())
