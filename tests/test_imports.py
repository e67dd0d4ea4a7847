"""Every name a package module imports is used in that module, the package
imports only the standard library and itself, every private module-level
function is used somewhere in the package, every public name is used by the
package or the benchmark, every defaulted parameter of a package function is
set by some call, only the rotation system's cached properties compute
what it keeps: its faces, genus, shortest non-contractible cycle and cut,
and only the embedding module reads its dart table."""
import ast
import sys
from pathlib import Path

import torodef

PACKAGE = Path(torodef.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _foreign_imports(sources: dict[str, str]) -> list[str]:
    """Absolute imports in ``sources`` of anything but the standard library
    and ``torodef``, as module:line (imported module)."""
    allowed = sys.stdlib_module_names | {"torodef"}
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}:{node.lineno} ({name})" for name in names
                      if name.split(".")[0] not in allowed]
    return found


def test_foreign_import_detector():
    sources = {"a.py": "from __future__ import annotations\n\nimport os.path, networkx as nx\n"
                       "from . import b\nfrom .b import f\nfrom torodef.graph import Graph\n",
               "b.py": "def f():\n    from numpy.linalg import det\n    import collections\n"}
    assert _foreign_imports(sources) == ["a.py:3 (networkx)", "b.py:2 (numpy.linalg)"]


def test_package_imports_only_the_standard_library():
    # networkx, the planarity oracle, is a test dependency only.
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _foreign_imports(sources) == []


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


def _used_names(node) -> set[str]:
    """Names that ``node`` uses: loaded names, attributes, imported names
    and keyword arguments."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.keyword) and sub.arg:
            names.add(sub.arg)
    return names


def _public_definitions(node) -> list[str]:
    """Public names a ``def``, ``class`` or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _unreferenced_public_names(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """Public module-level names and class members of ``package`` that no
    code of ``users`` uses outside their own definition.

    A member ``K.m`` counts as used wherever the name ``m`` is used, so one
    that shares its name with a used member of another class passes."""
    defined = {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            for name in _public_definitions(node):
                defined[name] = f"{module}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    for name in _public_definitions(member):
                        defined[f"{node.name}.{name}"] = f"{module}:{member.lineno}"
    uses = []  # (the names a scope defines, the names it uses)
    for source in users.values():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                uses.append((set(_public_definitions(node)), _used_names(node)))
                continue
            header = node.bases + node.keywords + node.decorator_list
            uses.append(({node.name}, set().union(*map(_used_names, header))))
            for member in node.body:
                owners = {node.name} | {f"{node.name}.{m}" for m in _public_definitions(member)}
                uses.append((owners, _used_names(member)))
    return [f"{key} ({where})" for key, where in sorted(defined.items())
            if not any(key.rsplit(".", 1)[-1] in names
                       for owners, names in uses if key not in owners)]


def test_unreferenced_public_name_detector():
    module = ("LIMIT = 3\nUNUSED = 4\n\n\ndef used():\n    return LIMIT\n\n\n"
              "def dead():\n    return dead()\n\n\n"
              "class K:\n    size: int\n    hidden: int = 0\n\n"
              "    def get(self):\n        return self.size\n\n"
              "    def unused(self):\n        return K(size=1)\n\n"
              "    def _private(self):\n        pass\n")
    users = {"m.py": module, "u.py": "from m import used\n\nused().get()\n"}
    assert _unreferenced_public_names({"m.py": module}, users) == [
        "K (m.py:13)", "K.hidden (m.py:15)", "K.unused (m.py:20)", "UNUSED (m.py:2)",
        "dead (m.py:9)"]


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # Tests keep their own oracles; re-exports in __init__ are no use.
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = {str(path.relative_to(ROOT)): path.read_text()
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
             if path.name != "__init__.py"}
    assert _unreferenced_public_names(package, users) == []


def _unset_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions in ``package`` that no call in
    ``callers`` sets, by keyword or by position.  Calls are matched by the
    function's name; a method's positions count from after ``self``."""
    defaults = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(a.defaults)
            for i in range(first, len(positional)):
                defaults.append((node.name, positional[i].arg, i - skip, f"{module}:{node.lineno}"))
            defaults += [(node.name, arg.arg, None, f"{module}:{node.lineno}")
                         for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    keywords, positions = set(), {}
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords.update((name, kw.arg) for kw in call.keywords)
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            reach = float("inf") if starred else len(call.args)
            positions[name] = max(positions.get(name, 0), reach)
    return sorted(f"{fn}({param}) ({where})" for fn, param, index, where in defaults
                  if (fn, param) not in keywords
                  and (index is None or positions.get(fn, 0) <= index))


def test_unset_default_detector():
    package = {"m.py": "def f(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
                       "class K:\n    def g(self, x=0, y=0):\n        pass\n"}
    callers = ["f(1, 2, c=5)\n", "K().g(7)\n"]
    assert _unset_defaults(package, callers) == ["f(d) (m.py:1)", "g(y) (m.py:6)"]
    assert _unset_defaults(package, ["f(*xs, d=1)\nK().g(x=1, y=2)\n"]) == ["f(c) (m.py:1)"]


def test_every_default_is_set_by_some_call():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    callers = [path.read_text() for top in ("src", "tests", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(callers) > len(package)
    assert _unset_defaults(package, callers) == []


# Each function whose result a rotation system keeps, and the one scope that calls it.
KEPT_BY = {"trace_faces": "RotationSystem.faces", "euler_genus": "RotationSystem.genus",
           "shortest_noncontractible_cycle": "RotationSystem.sncc",
           "cut_and_contract": "RotationSystem.cut"}


def _uncached_calls(sources: dict[str, str]) -> list[str]:
    """Calls in ``sources`` of a function in ``KEPT_BY`` made anywhere but in
    the body of its scope there, as module:line (enclosing scope)."""
    found = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in KEPT_BY and scope != KEPT_BY[name]:
                    found.append(f"{module}:{child.lineno} ({scope or 'module'})")
            visit(child, inner, module)

    for module, source in sources.items():
        visit(ast.parse(source), "", module)
    return found


def test_trace_faces_call_detector():
    sources = {"a.py": "class RotationSystem:\n    def faces(self):\n        return trace_faces(self)\n"
                       "\n    def genus(self):\n        return len(trace_faces(self))\n",
               "b.py": "from . import embedding\n\nF = embedding.trace_faces(r)\n"}
    assert _uncached_calls(sources) == ["a.py:6 (RotationSystem.genus)", "b.py:3 (module)"]
    sources = {"c.py": "class RotationSystem:\n    def cut(self):\n"
                       "        return cut_and_contract(self, self.sncc)\n\n"
                       "    def sncc(self):\n        return euler_genus(self)\n\n\n"
                       "def color(rot):\n    return cut_and_contract(rot, rot.sncc)\n"}
    assert _uncached_calls(sources) == ["c.py:6 (RotationSystem.sncc)", "c.py:10 (color)"]


def test_only_the_rotation_system_traces_faces():
    # Every reader of an embedding's faces, genus, cycle or cut shares the cached one.
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _uncached_calls(sources) == []


def _dart_readers(sources: dict[str, str]) -> list[str]:
    """Reads of a ``.darts`` attribute in ``sources`` outside ``embedding.py``,
    as module:line."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            if module != "embedding.py" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "darts"]


def test_dart_reader_detector():
    sources = {"embedding.py": "off, head, twin, succ = rot.darts\n",
               "cli.py": "x = 1\n_, head, _, _ = rot.darts\n",
               "iso.py": "darts = 2 * g.m\n"}
    assert _dart_readers(sources) == ["cli.py:2"]


def test_only_the_embedding_reads_the_dart_table():
    # The dart numbering stays private to the embedding layer.
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dart_readers(sources) == []
