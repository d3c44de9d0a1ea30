"""No module of the package imports another module's private names, or keeps a name it never uses."""

import ast
from pathlib import Path

import peca

PACKAGE = Path(peca.__file__).resolve().parent


def private_imports(path):
    """``module:line: name`` for every ``_``-prefixed name a package-internal import pulls in."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "peca":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno}: {alias.name}"


def exported_names(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path):
    """``module:line: name`` for every name an import binds that the module neither reads nor exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield f"{path.name}:{node.lineno}: {bound}"


def unread_private_names(path):
    """``module:line: name`` for every ``_``-prefixed module-level name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__") and name not in read:
                yield f"{path.name}:{node.lineno}: {name}"


def test_no_module_imports_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in unused_imports(path)] == []


def test_unused_import_check_flags_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport sys as system\n"
                      "from .multi import compute_tcp, tcp_nll\nfrom .adjust import adjust\n"
                      "__all__ = ['adjust']\n"
                      "def f():\n    return compute_tcp, os.path\n", encoding="utf-8")
    assert list(unused_imports(module)) == ["m.py:3: system", "m.py:4: tcp_nll"]


def test_no_module_keeps_a_private_name_it_never_reads():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in unread_private_names(path)] == []


def test_unread_private_name_check_flags_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n__all__ = ['f']\n"
                      "_FACTOR = 4\n_OLD_FACTOR, _SPARE = 2, 3\n_seen: int = 1\n"
                      "def _helper():\n    return _FACTOR + _SPARE\n"
                      "def _leftover():\n    return np.zeros(_seen)\n"
                      "class _Unused:\n    pass\n"
                      "def f():\n    _local = 1\n    return _helper() + _local\n", encoding="utf-8")
    assert list(unread_private_names(module)) == ["m.py:4: _OLD_FACTOR", "m.py:8: _leftover",
                                                  "m.py:10: _Unused"]
