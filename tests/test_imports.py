"""Every name a package module imports is used in that module, and every
private module-level function is used somewhere in the package."""
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


def _dead_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions that no code of ``sources`` outside
    their own body refers to."""
    defined, uses = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                owner = node.name
                defined[owner] = f"{module}:{node.lineno}"
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
            uses.append((owner, names))
    return [f"{name} ({where})" for name, where in sorted(defined.items())
            if not any(name in names for owner, names in uses if owner != name)]


def test_dead_private_function_detector():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n",
               "b.py": "from a import _used\n\nx = _used()\n\n\ndef __dunder():\n    pass\n",
               "c.py": "import a\n\ny = a._used\n\n\ndef _recursive():\n    return _recursive()\n"}
    assert _dead_private_functions(sources) == ["_dead (a.py:5)", "_recursive (c.py:6)"]


def test_package_has_no_dead_private_functions():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_functions(sources) == []
