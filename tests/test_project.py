"""pyproject.toml alone declares the package: its console script must
resolve to a callable and its package discovery must point at src/."""

import importlib
import os

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pyproject():
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
