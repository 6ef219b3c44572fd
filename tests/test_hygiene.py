"""Source hygiene: no module of the package imports a name it never uses."""

import ast
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
