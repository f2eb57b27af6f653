"""Source hygiene: no module of the package imports a name it never uses;
every top-level function or class of the package is reached, by name and
transitively, from the package's module-level code (the CLI's dispatch
table and entry point) or from a benchmark reference, and a test reference
does not count (a short list, by ROADMAP item, names the definitions still
waiting to be wired in); every method is referenced somewhere in the
package or benchmark, and here too a test reference does not count; no
function takes a parameter it never reads or binds a local it never reads;
no class stores a field that nothing reads; every function the
benchmark's tracer wraps by name is defined; no function outside the
kernels of `linalg` adds into a sparse vector by hand; and no module builds
a Type III family tuple outside its constructors or reads G or h off a
record's tuple."""

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


def package_import(node):
    """(module, name, bound name) for each name an import statement takes
    from the package: `from .M import name` or `from triality.M import
    name`."""
    if isinstance(node, ast.ImportFrom) and node.module:
        module = node.module.removeprefix("triality.") if node.level == 0 else node.module
        for alias in node.names:
            yield module, alias.name, alias.asname or alias.name


def named_references(tree):
    """(module, name) for every attribute `M.name` and every dotted string
    containing `M.name` (the benchmark's tracer and mock.patch name
    functions as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                yield owner.id, node.attr
            elif isinstance(owner, ast.Attribute):
                yield owner.attr, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            parts = node.value.split(".")
            yield from zip(parts, parts[1:])


def package_sources():
    """{module: tree} of the package."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def user_sources(*dirs):
    """Trees of the Python files under the given directories of the repository."""
    return [ast.parse(path.read_text(encoding="utf-8")) for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]


def parsed_sources():
    """({module: tree} of the package, trees of the package, tests and
    benchmark)."""
    package = package_sources()
    return package, list(package.values()) + user_sources("tests", "perfbench")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreached(package, users):
    """The top-level definitions of the package that no chain of uses
    reaches.  The chains start at the package's module-level code (imports
    aside: the CLI's dispatch table and its `__main__` call) and at every
    package name a user tree imports or names.  Inside the package a use is
    a bare name, read through the module's package imports at any depth,
    an attribute `M.name` or a dotted string; importing a name is not a
    use, and neither is a definition's use of itself."""
    defined = {(module, node.name) for module, tree in package.items() for node in tree.body if isinstance(node, DEFINITIONS)}
    roots = set()
    for tree in users:
        roots.update((module, name) for node in ast.walk(tree) for module, name, _ in package_import(node))
        roots.update(named_references(tree))
    edges = {}
    for module, tree in package.items():
        imported = {bound: (m, name) for node in ast.walk(tree) for m, name, bound in package_import(node)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            used = {imported.get(n.id, (module, n.id)) for n in ast.walk(node) if isinstance(n, ast.Name)}
            used.update(named_references(node))
            if isinstance(node, DEFINITIONS):
                edges[module, node.name] = used & defined
            else:
                roots |= used
    seen = set()
    stack = list(roots & defined)
    while stack:
        ref = stack.pop()
        if ref not in seen:
            seen.add(ref)
            stack.extend(edges[ref])
    return defined - seen


# The top-level definitions that no CLI command or benchmark reaches yet,
# grouped by the ROADMAP item that is to wire them in.  The list may only
# shrink: a listed definition that is reached, or deleted, fails the test as
# an unlisted unreached one does.
UNREACHED = {
    "items 14 and 16, witness maps of the similarity bullets": {
        "classify.witness_map",
        "classify._witness_rank2_shift",
        "classify._witness_rank0_flip",
        "classify.okubo_involution",
        "classify.verify_graded_iso",
        "classify._conj_tensor_tau_cols",
        "cyclic.para_subalgebra_from_idempotent",
        "cyclic.cut_on_basis",
    },
}


def test_no_unreferenced_definitions():
    found = {f"{module}.{name}" for module, name in unreached(package_sources(), user_sources("perfbench"))}
    listed = set().union(*UNREACHED.values())
    assert not found - listed, "unreached definitions: " + ", ".join(sorted(found - listed))
    assert not listed - found, "listed as unreached, but reached or gone: " + ", ".join(sorted(listed - found))


def test_traced_spans_are_defined():
    """Every name the benchmark's tracer wraps is a module-level function or
    a class method defined in its module: `Tracer.install` reads
    `owner.__dict__[attr]`, so a deleted or renamed one makes every traced
    run raise KeyError.  And `trilie` binds `null_space` by name, which the
    benchmark's selftest asserts the tracer rebinds."""
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (spans,) = [
        node.value for node in tracing.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets)
    ]
    package = package_sources()
    missing = []
    for spec in (elt.value for elt in spans.elts):
        module, *owner, attr = spec.split(".")
        body = package[module].body if module in package else []
        for cls in owner:
            body = next((node.body for node in body if isinstance(node, ast.ClassDef) and node.name == cls), [])
        if not any(isinstance(node, ast.FunctionDef) and node.name == attr for node in body):
            missing.append(spec)
    assert not missing, "traced but not defined: " + ", ".join(missing)
    bound = {name: module for node in ast.walk(package["trilie"]) for module, _name, name in package_import(node)}
    assert bound.get("null_space") == "linalg"


def test_reachability_rule_on_a_synthetic_package():
    cli = """
from .m import run


def main():
    return run()


if __name__ == "__main__":
    main()
"""
    m = """
def run():
    return _step()


def _step():
    return 1


def traced():
    return 2


def tabled():
    return 3


def only_tested():
    return only_tested()


TABLE = {"x": tabled}
"""
    package = {"cli": ast.parse(cli), "m": ast.parse(m)}
    bench = ast.parse('SPANS = ["m.traced"]\n')
    test = ast.parse("from triality.m import only_tested\n\n\ndef test_it():\n    assert only_tested()\n")
    # main -> run -> _step from `__main__`, tabled from module-level code,
    # traced from the benchmark; a recursive call reaches nothing
    assert unreached(package, [bench]) == {("m", "only_tested")}
    assert unreached(package, []) == {("m", "traced"), ("m", "only_tested")}
    # the rule reads the benchmark only: a test tree passed as a user would
    # reach the definition, which is why the hygiene test never passes one
    assert unreached(package, [bench, test]) == set()


def test_no_unreferenced_methods():
    """A method of a package class, dunders aside, counts as referenced
    when an attribute `.name` or a dotted string naming it (as the
    benchmark's tracer names `linalg.Echelon.insert`) occurs anywhere in the
    package or benchmark.  A test reference does not count, as for the
    top-level definitions: a method only tests call is not part of the
    program."""
    package = package_sources()
    trees = list(package.values()) + user_sources("perfbench")
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


# Calls that only add to a container: a local whose only loads are such
# calls, made as statements, is written and never read.
GROWERS = ("append", "extend", "add", "update")


def unread_locals(tree):
    """(first line, function, name) for every name a function binds
    (assignment, loop or comprehension target, `with ... as`) and never loads, nested
    functions included; a load that is the receiver of a statement
    `name.append(...)` (or another grower) does not count as a read.  Names
    that start with `_` are exempt."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        grown = {
            id(stmt.value.func.value)
            for stmt in ast.walk(fn)
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute) and stmt.value.func.attr in GROWERS
        }
        names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        loaded = {n.id for n in names if isinstance(n.ctx, ast.Load) and id(n) not in grown}
        first = {}
        for n in names:
            if isinstance(n.ctx, ast.Store) and not n.id.startswith("_") and n.id not in loaded:
                first[n.id] = min(n.lineno, first.get(n.id, n.lineno))
        out |= {(line, fn.name, name) for name, line in first.items()}
    return sorted(out)


def test_no_unread_locals():
    unread = [
        f"{path.name}:{line} {fn}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, fn, name in unread_locals(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unread, "unread locals: " + ", ".join(unread)


def test_unread_local_rule_on_a_synthetic_function():
    source = """
def f(rows, parser):
    seen = []
    kept = []
    total = 0
    for k, row in enumerate(rows):
        seen.append(row)
        kept.append(row)
        total += k
    parser.add_argument("x")
    sub = parser
    sub.set_defaults(x=1)
    _, last = rows
    return kept, [y for x, y in rows]
"""
    # seen is only appended to and total only updated; row is read as an
    # argument, and sub as the receiver of a call that is not a grower;
    # `_` is exempt
    assert unread_locals(ast.parse(source)) == [(3, "f", "seen"), (5, "f", "total"), (13, "f", "last"), (14, "f", "x")]


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


def literal_true_checks(tree):
    """(line, function) for every literal True that a module-level
    `_suite_*` function stores as a check value: assigned to a subscript,
    held in a dict display, passed as the value of `dict.fromkeys` or as a
    keyword of `update`."""
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_")):
            continue
        for node in ast.walk(fn):
            values = []
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Subscript) for t in node.targets):
                values = [node.value]
            elif isinstance(node, ast.Dict):
                values = node.values
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "fromkeys":
                    values = node.args[1:]
                elif node.func.attr == "update":
                    values = [k.value for k in node.keywords]
            if any(isinstance(v, ast.Constant) and v.value is True for v in values):
                found.append((node.lineno, fn.name))
    return sorted(found)


def test_suite_checks_are_computed():
    """A check of `verify` reports a decision: no suite writes the literal
    True for one."""
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert literal_true_checks(cli) == []
    source = """
def _suite_x(args, mod):
    checks = {"a": True}
    checks["b"] = True
    checks["c"] = len(mod) == 2
    checks.update(dict.fromkeys(["d"], True), e=True)
    return checks


def helper():
    return {"f": True}
"""
    assert literal_true_checks(ast.parse(source)) == [(3, "_suite_x"), (4, "_suite_x"), (6, "_suite_x"), (6, "_suite_x")]


# The functions that add into a sparse vector by hand on purpose, each with
# its reason.  The list may only shrink: a listed function that no longer
# matches fails the test as an unlisted match does.
HAND_SUM_KERNELS = {
    # the accumulate step itself, which every other sum goes through
    "linalg.axpy": "the kernel",
    # the inner loop of every elimination: axpy in reduce made the
    # tri(S)-to-Brauer path 8-14 % slower (2-core VM, medians of 3)
    "linalg.Echelon.reduce": "measured: 8-14 % slower through axpy",
    "linalg.Echelon.insert": "the elimination step of reduce, on the stored rows",
}


def functions(tree):
    """(qualified name, node) for every module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def hand_sums(tree):
    """The functions that add into a sparse vector by hand: a local read by
    `d.get(k)` is an operand of + or - in a value written back to `d[...]`,
    directly or through another local, as in `t = out.get(k)`, `t2 = a * c
    if t is None else t + a * c`, `out[k] = t2`.  A read with a default,
    `vec.get(j, 0)`, is not matched: it reads the integer relation vectors
    of the grading layer, which are sums over Z, not over the field that
    `linalg`'s kernels work in."""
    found = []
    for name, fn in functions(tree):
        assigns = [node for node in ast.walk(fn) if isinstance(node, ast.Assign)]
        reads = {}  # local -> the dict it was read from
        for node in assigns:
            call = node.value
            if (
                len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "get"
                and isinstance(call.func.value, ast.Name) and len(call.args) == 1
            ):
                reads[node.targets[0].id] = call.func.value.id

        def added(expr):
            return {
                reads[op.id]
                for b in ast.walk(expr)
                if isinstance(b, ast.BinOp) and isinstance(b.op, (ast.Add, ast.Sub))
                for op in (b.left, b.right)
                if isinstance(op, ast.Name) and op.id in reads
            }

        sums = {}  # local -> the dicts whose reads it adds to
        for node in assigns:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    sums.setdefault(target.id, set()).update(added(node.value))
        for node in assigns:
            written = added(node.value) | sums.get(getattr(node.value, "id", None), set())
            if any(isinstance(t, ast.Subscript) and getattr(t.value, "id", None) in written for t in node.targets):
                found.append(name)
                break
    return found


def test_no_hand_written_sparse_sums():
    found = {f"{module}.{name}" for module, tree in package_sources().items() for name in hand_sums(tree)}
    assert not found - HAND_SUM_KERNELS.keys(), "hand-written sparse sums: " + ", ".join(sorted(found - HAND_SUM_KERNELS.keys()))
    assert not HAND_SUM_KERNELS.keys() - found, "listed, but no hand-written sum: " + ", ".join(sorted(HAND_SUM_KERNELS.keys() - found))


def test_hand_sum_rule_on_a_synthetic_module():
    source = """
def direct(out, x):
    for k, c in x.items():
        t = out.get(k)
        out[k] = c if t is None else t + c


def through_a_local(out, x, a):
    for k, c in x.items():
        t = out.get(k)
        t2 = a * c if t is None else t - a * c
        if t2:
            out[k] = t2


class Table:
    def add(self, acc, k):
        t = acc.get(k)
        acc[k] = t + 1


def counted(vec, ins):
    for j in ins:
        vec[j] = vec.get(j, 0) + 1


def grouped_terms(x):
    terms = {}
    for k, c in x.items():
        terms.setdefault(k, []).append(c)
    return terms


def cached(cache, key, f):
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = f(key) + 1
    return hit


def other_dict(out, src, k):
    t = src.get(k)
    out[k] = t + 1
"""
    # the integer counter with a default, grouping without a sum, a cache
    # whose value is not added to, and a read written to another dict are
    # not hand-written sums
    assert hand_sums(ast.parse(source)) == ["direct", "through_a_local", "Table.add"]


# The family constructors, the only functions that build a TypeIIIParams.
FAMILY_CONSTRUCTORS = {"params_r0", "params_r1", "params_r2", "params_r4", "params_r8"}


def tuple_sources(tree):
    """(line, what) for every call `TypeIIIParams(...)` outside the family
    constructors, and for every read `.params.group` or `.params.h`: a
    Type III record is (kind, alpha), and its G and h are read off its
    grading, so an invented tuple or a second source for G and h is one of
    these."""
    allowed = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in FAMILY_CONSTRUCTORS
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            if getattr(func, "id", None) == "TypeIIIParams" or getattr(func, "attr", None) == "TypeIIIParams":
                found.append((node.lineno, "TypeIIIParams("))
        elif isinstance(node, ast.Attribute) and node.attr in ("group", "h"):
            if isinstance(node.value, ast.Attribute) and node.value.attr == "params":
                found.append((node.lineno, f".params.{node.attr}"))
    return sorted(found)


def test_no_invented_tuples():
    found = [f"{module}.py:{line} {what}" for module, tree in package_sources().items() for line, what in tuple_sources(tree)]
    assert not found, "tuples outside the family constructors: " + ", ".join(found)


def test_tuple_rule_on_a_synthetic_module():
    source = """
def params_r8(G, h, t):
    return validate(TypeIIIParams(8, G, h, t=t))


def fine(U):
    return classify.TypeIIIParams(2, U, U.generator(2))


def quotient_of(built):
    return quotient(built.params.group, [built.params.h])


def describe(built):
    return built.params.describe(), built.grading.group, built.h, built.params
"""
    # the constructor's call is allowed; the record's own readings and its
    # tuple's describe are not sources of G and h
    assert tuple_sources(ast.parse(source)) == [(7, "TypeIIIParams("), (11, ".params.group"), (11, ".params.h")]
