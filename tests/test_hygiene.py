"""Source hygiene: no module of the package imports a name it never uses,
every top-level function or class and every method of the package is
referenced, and no function of the package takes a parameter it never
reads."""

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


def references(tree):
    """(module, name) for every reference a tree makes to a name of another
    module of the package: `from .M import name` or `from triality.M import
    name`, an attribute `M.name`, and a dotted string containing `M.name`
    (the benchmark's tracer and mock.patch name functions as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("triality.") if node.level == 0 else node.module
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                yield owner.id, node.attr
            elif isinstance(owner, ast.Attribute):
                yield owner.attr, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            parts = node.value.split(".")
            yield from zip(parts, parts[1:])


def parsed_sources():
    """({module: tree} of the package, trees of the package, tests and
    benchmark)."""
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    users = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return package, list(package.values()) + [ast.parse(path.read_text(encoding="utf-8")) for path in users]


def test_no_unreferenced_definitions():
    """A top-level definition of module M counts as referenced by a name in
    M itself outside the definition (a recursive call does not count), or
    by a reference to M.name from anywhere in the package, tests or
    benchmark."""
    package, trees = parsed_sources()
    referenced = {ref for tree in trees for ref in references(tree)}
    unreferenced = []
    for module, tree in package.items():
        names = collections.Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = sum(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node))
                if names[node.name] == own and (module, node.name) not in referenced:
                    unreferenced.append(f"{module}.py:{node.lineno} {node.name}")
    assert not unreferenced, "unreferenced definitions: " + ", ".join(unreferenced)


def test_no_unreferenced_methods():
    """A method of a package class, dunders aside, counts as referenced
    when an attribute `.name` or a dotted string naming it (as the
    benchmark's tracer names `linalg.Echelon.insert`) occurs anywhere in the
    package, tests or benchmark."""
    package, trees = parsed_sources()
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"\w+(\.\w+)+", node.value):
                named.update(node.value.split("."))
    unreferenced = [
        f"{module}.py:{node.lineno} {cls.name}.{node.name}"
        for module, tree in package.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert not unreferenced, "unreferenced methods: " + ", ".join(unreferenced)


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


def stored_fields(cls):
    """(name, line) for every attribute a class stores on self in its
    methods, and every annotated field of a dataclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if any(getattr(d, "id", None) == "dataclass" for d in decorators):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id, node.lineno
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or not method.args.args:
            continue
        me = method.args.args[0].arg
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == me:
                    yield node.attr, node.lineno


def self_loads(cls):
    """Every attribute a class's methods load from their first parameter."""
    return {
        node.attr
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and method.args.args
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == method.args.args[0].arg
    }


def related_classes(package):
    """{class name: the names of the class, its ancestors and its
    descendants among the package's classes}."""
    bases = {
        cls.name: {b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))}
        for tree in package.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
    }

    def ancestors(name):
        out = set()
        for b in bases[name] & bases.keys():
            out |= {b} | ancestors(b)
        return out

    up = {name: ancestors(name) for name in bases}
    return {name: {name} | up[name] | {other for other in bases if name in up[other]} for name in bases}


def unread_fields(package, trees):
    """Every field a package class stores that is loaded nowhere in the
    trees.  A load that is called on a receiver other than self does not
    count: `keys.sort()` reads no field `sort`, while `self._coords(vec)`
    reads the field `_coords`.  A field that is loaded only through
    `self.<name>` must be loaded by a method of its own class, of an
    ancestor or of a descendant: `self.V` in one class does not read the
    field `V` of another."""
    foreign = set()
    for tree in trees:
        foreign_calls = {
            id(node.func)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "self")
        }
        foreign.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in foreign_calls
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        )
    classes = {cls.name: cls for tree in package.values() for cls in tree.body if isinstance(cls, ast.ClassDef)}
    loads = {name: self_loads(cls) for name, cls in classes.items()}
    related = related_classes(package)
    return sorted(
        {
            f"{module}.py:{line} {cls.name}.{name}"
            for module, tree in package.items()
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for name, line in stored_fields(cls)
            if name not in foreign and not any(name in loads[other] for other in related[cls.name])
        }
    )


def test_no_unread_fields():
    package, trees = parsed_sources()
    unread = unread_fields(package, trees)
    assert not unread, "unread fields: " + ", ".join(unread)


def test_unread_field_rule_is_per_class():
    source = """
class Base:
    def size(self):
        return self.n

class Sub(Base):
    def __init__(self):
        self.n = 1

class Reader:
    def __init__(self, V):
        self.V = V

    def dim(self):
        return self.V

class Leftover(ValueError):
    def __init__(self, V):
        self.V = V
"""
    package = {"m": ast.parse(source)}
    assert unread_fields(package, list(package.values())) == ["m.py:19 Leftover.V"]
    # a load on another receiver may be of either class, so it reads both
    other = ast.parse("def f(x):\n    return x.V\n")
    assert unread_fields(package, [*package.values(), other]) == []
