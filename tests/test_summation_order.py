"""Only ``core`` picks a summation order: outside ``core.py`` the library
makes no BLAS call and no product numpy could hand to BLAS, so that the
order in which every dot, norm and gemv adds is decided in one module."""

import ast
from pathlib import Path

import subgradlab

PACKAGE = Path(subgradlab.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
NUMPY_PRODUCTS = {"dot", "vdot", "inner", "matmul", "einsum", "linalg"}


def _products(path):
    """Each ``.dot``, numpy product or ``np.linalg`` use, ``@`` and import of
    one of them in ``path``, as ``name:line``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            hit = node.attr == "dot" or (on_numpy and node.attr in NUMPY_PRODUCTS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "numpy" and any(
                alias.name in NUMPY_PRODUCTS | {"norm"} for alias in node.names
            )
        else:
            continue
        if hit:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_core_calls_blas():
    assert len(SOURCES) > 1
    assert [hit for path in SOURCES if path.name != "core.py" for hit in _products(path)] == []


def test_core_holds_the_reducers():
    """The scan sees core's own BLAS calls, so an empty scan elsewhere means
    something."""
    assert _products(PACKAGE / "core.py")
