"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

from helpers import load_tracer

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "ndqc")
             .glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    # an unreachable branch raises a typed error saying which engine
    # invariant broke, not a bare AssertionError
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert lines == [], f"{path.name}: raise AssertionError at lines {lines}"


def test_linalg_names_no_float_dtype():
    # the exact kernels and the degree bounds run on Python ints and int64
    # arrays only: bounds come from bit lengths and counts, not logarithms
    found = [(path.name, word) for path in SRC
             if path.name in ("linalg.py", "polys.py")
             for word in ("float64", "astype(float", "np.float",
                          "dtype=float", "log2(", "math.log")
             if word in path.read_text(encoding="utf-8")]
    assert found == [], f"float or logarithm names: {found}"


def test_unused_imports_are_tracer_pins():
    # an import kept under `# noqa: F401` has no caller in its module; the
    # only reason to keep one is a name the tracer must rebind there
    pinned = set(load_tracer().MUST_REBIND)
    found = set()
    for path in SRC:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                found |= {(path.stem, alias.asname or alias.name)
                          for alias in node.names}
    assert found and found <= pinned, f"not pinned: {sorted(found - pinned)}"


# the engines behind report.Measures; the CLI reads measures from it only
MEASURE_ENGINES = {
    "polys": {"ndeg", "ndeg_decide", "symmetric_ndeg", "exact_poly"},
    "boolfn": {"SubcubeTable", "n_query", "c_zero", "c_one", "bs_zero",
               "bs_one", "decision_tree_depth"},
}


def test_cli_names_no_measure_engine():
    path = next(p for p in SRC if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(node.lineno, f"{node.value.id}.{node.attr}")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.attr in MEASURE_ENGINES.get(node.value.id, ())]
    found += [(node.lineno, f"{node.module}.{alias.name}")
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              for alias in node.names
              if alias.name in MEASURE_ENGINES.get(node.module, ())]
    assert found == [], f"cli.py names measure engines: {found}"
