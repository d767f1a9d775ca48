"""The op set stays honest: every tape op of ``bgnn.tensor`` is used by
another module of the package, so an op that no path needs is deleted
rather than kept alive by its own tests."""

import ast
from pathlib import Path

import bgnn

PACKAGE = Path(bgnn.__file__).parent

# ops kept for the tests alone, each with its reason
UNUSED_BY_DESIGN = {
    "mul": "criterion 1 and the finite-difference harness reduce every op's output through it",
    "sum_all": "criterion 1 and the finite-difference harness reduce every op's output through it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def tape_ops() -> set[str]:
    """Top-level public functions of tensor.py that call ``_record``."""
    return {
        node.name
        for node in _parse(PACKAGE / "tensor.py").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "_record" for n in ast.walk(node))
    }


def tensor_names_used(path: Path) -> set[str]:
    """Names of ``bgnn.tensor`` the module uses, as ``T.name`` through a
    module alias or as a name imported from it; an op passed on as a
    value (``act = T.elu``) counts as used."""
    tree = _parse(path)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "bgnn.tensor"):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "bgnn"):
            aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in names}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return used


def test_every_tape_op_is_used_by_another_module():
    ops = tape_ops()
    assert set(UNUSED_BY_DESIGN) <= ops
    used = set().union(*(tensor_names_used(p) for p in PACKAGE.glob("*.py")
                         if p.name != "tensor.py"))
    assert ops - used == set(UNUSED_BY_DESIGN)


def test_the_scan_sees_both_import_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import tensor as T\nfrom .tensor import spmm\n"
                    "act = T.elu\nh = spmm(a, T.relu(x))\n")
    assert tensor_names_used(path) == {"elu", "relu", "spmm"}
