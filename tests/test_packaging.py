"""The distribution metadata agrees with the package it ships."""

import re
from pathlib import Path

import airpfl
import airpfl.cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _table(name):
    """The body of one top-level table of pyproject.toml (tomllib is not in Python 3.10)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match, f"no [{name}] table"
    return match.group(1)


def _string_field(table, key):
    match = re.search(rf'^{re.escape(key)} = "([^"]*)"$', table, re.M)
    assert match, f"no string field {key}"
    return match.group(1)


def test_distribution_is_named_after_the_package():
    assert _string_field(_table("project"), "name") == "airpfl"


def test_pyproject_version_is_the_package_version():
    assert _string_field(_table("project"), "version") == airpfl.__version__


def test_console_script_names_the_cli_entry_point():
    assert _string_field(_table("project.scripts"), "airpfl") == "airpfl.cli:main"
    assert callable(airpfl.cli.main)


def test_build_requirements_include_wheel():
    # setuptools older than 70.1 builds the editable wheel only when the
    # separate `wheel` package is installed.
    match = re.search(r"^requires = \[(.*)\]$", _table("build-system"), re.M)
    assert match, "no build requirements"
    requires = [r.strip().strip('"') for r in match.group(1).split(",")]
    assert requires == ["setuptools>=68", "wheel"]
