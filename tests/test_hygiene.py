"""Source hygiene: no module imports a name it never reads.

Every module under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``.  A package ``__init__.py`` imports to re-export, and
``from __future__`` imports switch on language features, so both are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = [p for top in ("src", "tests", "demos") for p in sorted((ROOT / top).rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > 20
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []
