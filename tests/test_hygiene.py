"""Source hygiene: no module of the package imports a name it never uses."""

import ast
import pathlib

import triality

PACKAGE = pathlib.Path(triality.__file__).parent


def imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
