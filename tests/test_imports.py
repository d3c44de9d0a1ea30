"""No module of the package imports another module's private names, keeps a name it never
uses, exports a name it does not bind or imports a module that loads OpenSSL, only the
output writers open files for writing, only ``series.integer_scalar`` raises the floor
messages of integers, and only ``series.real_array`` and ``series.real_scalar`` raise the
finite and range messages of real numbers."""

import ast
import importlib
import re
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


# modules that load OpenSSL's libcrypto or need _hashlib, which the entry blocks; peca
# hashes nothing
OPENSSL_MODULES = ("hashlib", "hmac", "secrets", "ssl", "_hashlib")


def test_no_module_imports_what_loads_openssl():
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno}: {name}" for name in names
                     if name.split(".")[0] in OPENSSL_MODULES]
    assert hits == []


def test_every_export_is_bound():
    # ``from module import *`` raises AttributeError for an __all__ entry the module does not
    # bind; __main__ has no __all__, and importing it would set OPENBLAS_NUM_THREADS and
    # block _hashlib
    names = ["peca"] + [f"peca.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                        if not path.stem.startswith("__")]
    checked = [name for name in names if hasattr(importlib.import_module(name), "__all__")]
    assert len(checked) >= 8
    for name in checked:
        exec(f"from {name} import *", {})


# the functions that may create or change a file: one writer per output format, and the
# writer of the series sidecar that spares a later run the parse
WRITERS = {"qtr.write_csv", "qtr.write_qtr_svg", "cli._emit_report", "ingest._write_cache"}


def opens_for_writing(call):
    """``open(path, mode)`` or ``path.open(mode)`` with a mode holding w, a or x (or not a
    literal), or a ``.write_text`` / ``.write_bytes`` call."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False   # the default mode reads
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True    # a mode known only at run time may write
    return bool(set(mode.value) & set("wax"))


def file_writes(path):
    """``module.function:line`` for every call that opens a file for writing."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and opens_for_writing(child):
                yield f"{scope}:{child.lineno}"
            yield from visit(child, scope)

    yield from visit(tree, path.stem)


def test_only_the_writers_open_files_for_writing():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    hits = [hit for path in modules for hit in file_writes(path)]
    assert [hit for hit in hits if hit.split(":")[0] not in WRITERS] == []
    assert {hit.split(":")[0] for hit in hits} == WRITERS   # no stale entry


def test_file_write_check_flags_a_writer(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from pathlib import Path\n"
                      "def read(p):\n    with open(p, encoding='utf-8') as fh:\n"
                      "        return fh.read() + open(p, 'rb').read().decode()\n"
                      "def save(p, mode):\n    open(p, 'w').close()\n"
                      "    open(p, mode='ab').close()\n    open(p, mode).close()\n"
                      "    Path(p).open('x').close()\n"
                      "class Report:\n    def dump(self, p):\n        Path(p).write_bytes(b'')\n"
                      "Path('x.txt').open().close()\nPath('out.txt').write_text('')\n",
                      encoding="utf-8")
    assert list(file_writes(module)) == ["m.save:6", "m.save:7", "m.save:8", "m.save:9",
                                         "m.Report.dump:12", "m:14"]


# "<what> must be non-negative" and "<what> must be at least <floor>", an f-string's fields
# read as {}: the messages of ``series.integer_scalar``'s floor, which reads every integer
FLOOR_MESSAGE = re.compile(r"[\w {}]+ must be (non-negative|at least [\w{}]+)")
# "<what> must be finite" and "<what> must lie in [<number>, <number>]": the messages of
# ``series.real_array`` and ``series.real_scalar``, which read every real number
REAL_MESSAGE = re.compile(r"[\w {}-]+ must (be finite|lie in \[-?[\d.]+, -?[\d.]+\])")


def message_texts(node):
    """The string literals in ``node``, each f-string whole, with its fields as ``{}``."""
    if isinstance(node, ast.JoinedStr):
        yield "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    else:
        for child in ast.iter_child_nodes(node):
            yield from message_texts(child)


def message_checks(path, message):
    """``module.function:line`` for every ``raise ValueError`` whose message ``message`` matches."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id == "ValueError"
                    and any(message.fullmatch(text)
                            for arg in exc.args for text in message_texts(arg))):
                yield f"{scope}:{child.lineno}"
            yield from visit(child, scope)

    yield from visit(tree, path.stem)


def test_only_integer_scalar_checks_a_floor():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    hits = [hit for path in modules for hit in message_checks(path, FLOOR_MESSAGE)]
    assert [hit for hit in hits if hit.split(":")[0] != "series.integer_scalar"] == []
    assert hits   # the check still finds the rule's own messages


def test_only_the_real_readers_check_finite_or_range():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    readers = {"series.real_array", "series.real_scalar"}
    hits = [hit for path in modules for hit in message_checks(path, REAL_MESSAGE)]
    assert [hit for hit in hits if hit.split(":")[0] not in readers] == []
    assert {hit.split(":")[0] for hit in hits} == readers   # it finds the readers' own messages


def test_floor_check_flags_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(n, what):\n"
                      "    if n < 0:\n        raise ValueError('n must be non-negative')\n"
                      "    if n < 2:\n        raise ValueError(f'{what} must be at least 2')\n"
                      "    if n > 9:\n        raise ValueError('n must be at most 9')\n"
                      "    raise ValueError('values must be non-negative and finite')\n"
                      "class Config:\n    def check(self, k, floor):\n"
                      "        raise ValueError(f'k must be at least {floor}' if k else 'k')\n"
                      "    def other(self):\n        raise TypeError('k must be non-negative')\n",
                      encoding="utf-8")
    assert list(message_checks(module, FLOOR_MESSAGE)) == ["m.f:3", "m.f:5", "m.Config.check:11"]


def test_real_check_flags_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\n"
                      "def f(p, tau, field):\n"
                      "    if not math.isfinite(tau):\n"
                      "        raise ValueError('tau must be finite')\n"
                      "    if not 0.0 <= p <= 1.0:\n"
                      "        raise ValueError('p-values must lie in [0, 1]')\n"
                      "    if not 0.0 < p < 1.0:\n"
                      "        raise ValueError('alpha must lie in (0, 1)')\n"
                      "    if p > 2:\n"
                      "        raise ValueError(f'rungs must lie in [0, {p}]')\n"
                      "    raise ValueError(f'GEV {field} must be finite')\n"
                      "class Ladder:\n    def check(self, lv):\n"
                      "        raise ValueError('levels must lie in [0.5, 1]' if lv else 'x')\n"
                      "    def fit(self):\n"
                      "        raise RuntimeError('block maxima must be finite')\n",
                      encoding="utf-8")
    assert list(message_checks(module, REAL_MESSAGE)) == ["m.f:4", "m.f:6", "m.f:11",
                                                          "m.Ladder.check:14"]
