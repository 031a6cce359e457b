"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "ndqc")
             .glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_linalg_names_no_float_dtype():
    # the exact kernels run on Python ints and int64 arrays only
    path = next(p for p in SRC if p.name == "linalg.py")
    text = path.read_text(encoding="utf-8")
    found = [name for name in ("float64", "astype(float", "np.float",
                               "dtype=float")
             if name in text]
    assert found == [], f"linalg.py names {found}"
