"""Source hygiene: no module of the package imports a name it never uses,
every top-level function or class of the package is referenced, and no
function of the package takes a parameter it never reads."""

import ast
import collections
import pathlib
import re

import triality

PACKAGE = pathlib.Path(triality.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def referenced_names(tree):
    """Every identifier a tree mentions: names, attribute names, and the
    parts of dotted-name strings (the benchmark's tracer and mock.patch
    name functions as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            yield from node.value.split(".")


def test_no_unreferenced_definitions():
    package = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    users = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = list(package.values()) + [ast.parse(path.read_text(encoding="utf-8")) for path in users]
    counts = collections.Counter(name for tree in trees for name in referenced_names(tree))
    unreferenced = []
    for path, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a recursive call inside the definition does not count
                own = sum(name == node.name for name in referenced_names(node))
                if counts[node.name] == own:
                    unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, "unreferenced definitions: " + ", ".join(unreferenced)


def test_no_unread_parameters():
    from triality.cli import SUITES

    # the verify suites share one (args, mod) signature through the dispatch table
    exempt = {("cli.py", fn.__name__) for fn in SUITES.values()}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if (path.name, name) in exempt:
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params if p not in read and p not in ("self", "cls")]
    assert not unread, "unread parameters: " + ", ".join(unread)
