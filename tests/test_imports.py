"""Every name a module of the package or of the tests imports is read there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "blockbp").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """(line, name) of each imported name the module never reads.

    A name counts as read where it is loaded or deleted, or where it is a
    string in `__all__`.  `from __future__ import ...` is exempt.
    """
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in read]


def test_scan_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import log, pi as PI\n"
        "from numpy import inf\n"
        "__all__ = ['inf']\n"
        "json = os.sep\n"
        "print(log)\n"
    )
    assert unused_imports(source) == [(3, "json"), (4, "PI")]


def test_no_module_imports_a_name_it_never_reads():
    assert MODULES
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imported but never read:\n" + "\n".join(found)
