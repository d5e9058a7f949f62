"""The package version agrees with the project metadata."""

import pathlib
import re

import hadamard_jsr

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert hadamard_jsr.__version__ == match.group(1)
