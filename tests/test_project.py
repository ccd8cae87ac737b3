"""pyproject.toml alone declares the package: its console script must
resolve to a callable and its package discovery must point at src/.  And
every input bound and primality refusal is raised in one module."""

import ast
import glob
import importlib
import os
import re

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
