"""Source hygiene: no module of the package imports a name it never uses,
exports a name it does not define, or imports the test suite."""

import ast
import importlib
from pathlib import Path

import glspec

SRC = Path(glspec.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, name in _unused_imports(ast.parse(path.read_text())):
            found.append(f"{path.name}:{line} {name}")
    assert not found, "unused imports: " + ", ".join(found)


def test_exported_names_are_defined():
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "glspec" if path.stem == "__init__" else f"glspec.{path.stem}"
        mod = importlib.import_module(name)
        found += [f"{path.name}: {n}" for n in getattr(mod, "__all__", ())
                  if not hasattr(mod, n)]
    assert not found, "names in __all__ but not defined: " + ", ".join(found)


def test_package_does_not_import_tests():
    # tests/oracles.py holds the independent routes; production code must not reach them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] in ("oracles", "tests", "conftest")]
    assert not found, "imports of the test suite: " + ", ".join(found)
