"""Every name a package module imports is used in that module."""
import ast
from pathlib import Path

import torodef

PACKAGE = Path(torodef.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_detector():
    assert _unused_imports("import os\nfrom typing import Mapping, Optional\n"
                           "x: Optional[int] = os.sep\n") == ["Mapping (line 2)"]


def test_package_modules_have_no_unused_imports():
    # __init__ imports names only to re-export them.
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}
