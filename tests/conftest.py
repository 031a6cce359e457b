"""Python subprocesses started by the tests import the package from this
checkout, as the tests themselves do (`pythonpath` in pyproject.toml)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
