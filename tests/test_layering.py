"""Module layering: the data layer (sparse matrices, graphs and their
loaders) sits below autodiff, models and training, and imports none of
them. Node features are arrays or CSR matrices, constants of every
forward, so nothing there needs a Tensor.
Training cuts its contexts through ``models`` and does no CSR or
block-layout index arithmetic, so it imports nothing from ``sparse``.
Neighbourhoods are built in ``graph_data`` alone, so that one edge rule
holds for every architecture: ``models`` merges no pairs itself."""

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
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
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
