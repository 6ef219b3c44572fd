"""Source hygiene: no module of the package or of the test suite imports a
name it never uses, no package module exports a name it does not define or
imports the test suite, every exported function is used by a test or a
benchmark op, and every private function or class of the package is named
somewhere in the package or the tests."""

import ast
import importlib
import inspect
from pathlib import Path

import glspec

SRC = Path(glspec.__file__).parent
TESTS = Path(__file__).parent


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
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for line, name in _unused_imports(ast.parse(path.read_text())):
            found.append(f"{path.parent.name}/{path.name}:{line} {name}")
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


def test_private_definitions_are_referenced():
    # a module-level private function or class that no module of the package
    # and no test names is dead code
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.parent == SRC:
            defined += [(path.name, node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named |= {alias.name for alias in node.names}
    found = [f"{file}: {name}" for file, name in defined if name not in named]
    assert not found, "private definitions never referenced: " + ", ".join(found)


def test_traced_caches_report_cache_info():
    # bench/tracing.py reads the hit ratio of these caches from cache_info();
    # without it `bench/run.py --trace 1` raises KeyError
    from glspec import coeigen, eigen, quad
    for fn in (eigen.p_coeffs, coeigen.r_coeffs, quad.build_rule):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0, fn.__name__


def test_exported_names_are_exercised():
    # a function in a package module's __all__ that no test and no
    # benchmark op refers to is untested public surface
    seen = set()
    for path in sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen |= {alias.name for alias in node.names}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"glspec.{path.stem}")
        found += [f"{path.stem}.{n}" for n in getattr(mod, "__all__", ())
                  if inspect.isfunction(getattr(mod, n)) and n not in seen]
    assert not found, "exported but never used by a test or bench/: " + ", ".join(found)
