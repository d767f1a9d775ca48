"""Module layering: the data layer (sparse matrices, graphs and their
loaders) sits below autodiff, models and training, and imports none of
them. Node features are arrays or CSR matrices, constants of every
forward, so nothing there needs a Tensor.
Training cuts its contexts through ``models`` and does no CSR or
block-layout index arithmetic, so it imports nothing from ``sparse``.
Neighbourhoods are built in ``graph_data`` alone, so that one edge rule
holds for every architecture: ``models`` merges no pairs itself.
The tape ops sum rows only through ``sparse.row_sums``, so numpy's slow
path on narrow rows cannot come back unnoticed. The sparse product sums
by entry position alone: neither it nor a method it calls scatters
through ``scatter_add`` or ``np.bincount``, so a second product path
cannot come back unnoticed either."""

import ast
from pathlib import Path

import pytest

import bgnn

PACKAGE = Path(bgnn.__file__).parent
ABOVE = {"tensor", "models", "pipeline"}


def imported_modules(path: Path) -> set[str]:
    """Every ``bgnn`` module the file imports, by its name inside the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("bgnn"):
                continue
            base = base.removeprefix("bgnn").lstrip(".")
            # ``from . import tensor`` names the module in its import list
            names = [base] if base else [a.name for a in node.names]
            names = [f"bgnn.{n}" for n in names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("bgnn."))
    return found


def called_names(path: Path) -> set[str]:
    """The last name of every callee in the file: ``unique`` for
    ``np.unique(...)``, ``from_coo`` for ``SparseMatrix.from_coo(...)``."""
    return callees(ast.parse(path.read_text(encoding="utf-8")))


def callees(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return found


def method_callees(path: Path, cls: str, name: str) -> set[str]:
    """The last name of every callee in method ``name`` of class ``cls``
    and, in turn, in each method of ``cls`` that it calls."""
    [klass] = [n for n in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(n, ast.ClassDef) and n.name == cls]
    methods = {n.name: n for n in klass.body if isinstance(n, ast.FunctionDef)}
    found, todo, seen = set(), [name], set()
    while todo:
        method = todo.pop()
        seen.add(method)
        names = callees(methods[method])
        found |= names
        todo += [n for n in names if n in methods and n not in seen]
    return found


def row_sum_calls(path: Path) -> list[str]:
    """Every ``sum`` call in the file along axis 1 or -1, by keyword or
    by position, as source text."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) != "sum":
            continue
        # np.sum(x, 1) takes the axis second, x.sum(1) first
        on_array = isinstance(func, ast.Attribute) and ast.unparse(func.value) not in ("np", "numpy")
        axes = [k.value for k in node.keywords if k.arg == "axis"]
        axes += node.args[0 if on_array else 1:][:1]
        if any(ast.unparse(a) in ("1", "-1") for a in axes):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", ["sparse", "graph_data"])
def test_data_layer_imports_nothing_above_it(module):
    assert imported_modules(PACKAGE / f"{module}.py") & ABOVE == set()


def test_training_layer_imports_nothing_from_sparse():
    assert "sparse" not in imported_modules(PACKAGE / "pipeline.py")


@pytest.mark.parametrize("source, want", [
    ("from .tensor import Tensor", {"tensor"}),
    ("from . import tensor as T", {"tensor"}),
    ("from .models import init_model", {"models"}),
    ("import bgnn.pipeline", {"pipeline"}),
    ("from bgnn.tensor import Tensor", {"tensor"}),
    ("from .errors import FormatError\nimport numpy as np", {"errors"}),
])
def test_the_import_scan_sees_every_form(tmp_path, source, want):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert imported_modules(path) == want


def test_models_merges_no_edge_pairs():
    assert called_names(PACKAGE / "models.py") & {"from_coo", "unique"} == set()


@pytest.mark.parametrize("source, want", [
    ("np.unique(e, axis=0)", {"unique"}),
    ("SparseMatrix.from_coo(n, n, r, c, v)", {"from_coo"}),
    ("from numpy import unique\nunique(e)", {"unique"}),
    ("x = np.unique", set()),
])
def test_the_call_scan_sees_every_form(tmp_path, source, want):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert called_names(path) == want


def test_tape_ops_sum_rows_through_one_helper():
    assert row_sum_calls(PACKAGE / "tensor.py") == []


@pytest.mark.parametrize("source, n_found", [
    ("x.sum(axis=1)", 1),
    ("(g * y).sum(axis=1, keepdims=True)", 1),
    ("x.sum(1)", 1),
    ("x.sum(-1)", 1),
    ("np.sum(x, axis=1)", 1),
    ("np.sum(x, 1)", 1),
    ("from numpy import sum\nsum(x, 1)", 1),
    ("x.sum(axis=0)", 0),
    ("x.sum()", 0),
    ("np.sum(x)", 0),
    ("row_sums(x)", 0),
])
def test_the_row_sum_scan_sees_every_form(tmp_path, source, n_found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert len(row_sum_calls(path)) == n_found


def test_sparse_product_sums_by_position_alone():
    names = method_callees(PACKAGE / "sparse.py", "SparseMatrix", "matmul_dense")
    assert "_position_layout" in names
    assert names & {"scatter_add", "bincount"} == set()


def test_the_method_scan_follows_calls_within_the_class(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class M:\n"
        "    def product(self, d):\n        return self._sum(d)\n"
        "    def _sum(self, d):\n        return np.bincount(d)\n"
        "    def other(self):\n        return scatter_add()\n"
    )
    assert method_callees(path, "M", "product") == {"_sum", "bincount"}
