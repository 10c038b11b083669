"""Checks on the package as shipped: the README's library example runs,
and every module parses at the oldest Python that pyproject.toml allows."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import teamtrace

PACKAGE = Path(teamtrace.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
MIN_PYTHON = (3, 10)


def test_requires_python_is_the_parse_floor():
    text = (ROOT / "pyproject.toml").read_text()
    assert f'requires-python = ">={MIN_PYTHON[0]}.{MIN_PYTHON[1]}"' in text


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=MIN_PYTHON)


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-B", "-c", snippet], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
