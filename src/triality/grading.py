"""Generic grading engine.

A grading assigns a group degree to every distinguished basis element of a
structure.  Structures expose their multiplication, bilinear forms, module
actions and involutions uniformly as sparse *structure maps*; verification
then reduces to one exact rule: for every nonzero entry of every map, the
output degree must equal the product of the input degrees (and the identity
degree for scalar-valued forms).  No tolerances anywhere -- a grading passes
iff every would-be violation is the exact zero scalar.

Multi-sorted structures (a module over a graded ring, a form with values in
a graded algebra) fit the same rule by giving each sort its own degree map.
The scalar sort "F" is implicit and always sits in degree e.

`StructAlgebra` is the one table-defined algebra type: S, tri(S) and its
adapted forms, the Albert algebra, the triple model V, End_L(V) and the
related algebras End(S) of a Type I grading all store their product as one
sparse table and share its arithmetic and grading protocol.  Only the even Clifford
algebra, whose product is computed lazily per monomial pair, is not one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem

from .fgab import AbGroup, GroupElem, GroupHom, _cokernel, _relation_columns
from .linalg import axpy, bilinear, grouped


SCALAR_SORT = "F"


@dataclass
class SMap:
    """A sparse multilinear structure map between sorts.

    table maps input basis-index tuples to {output basis index: scalar};
    for scalar-valued maps the output index is always 0.  No table stores
    a zero: `entries` walks every stored entry, and verify_grading and
    universal_group read each one as a relation of the grading.
    """

    name: str
    inputs: tuple
    output: str
    table: dict

    def entries(self):
        for key, outs in self.table.items():
            for out_idx, c in outs.items():
                yield key, out_idx, c


class StructAlgebra:
    """A finite-dimensional algebra given by structure constants.

    `mul` is a sparse bilinear table {(i, j): {k: c}} with no stored zero;
    `product` evaluates it with `linalg.bilinear`, reading `mul` on each
    call, so a copy with an edited table multiplies by the edited table.
    Optional data: scalar-valued symmetric bilinear forms, an involution,
    a unit vector.  The verifiers of each law set (associative, Lie,
    Jordan, composition) live with the modules that construct the algebras.
    """

    def __init__(self, field, labels, mul, forms=None, involution=None, unit=None):
        self.field = field
        self.labels = list(labels)
        self.mul = mul  # dict (i, j) -> dict k -> scalar
        self.forms = forms or {}
        self.involution = involution  # dict i -> dict j -> scalar, or None
        self.unit = unit  # dict i -> scalar, or None
        self.main_sort = "A"

    @property
    def dim(self):
        return len(self.labels)

    # -- vector arithmetic on sparse {index: scalar} dicts

    def basis_vec(self, i):
        return {i: self.field.one}

    def add(self, x, y):
        return axpy(dict(x), None, y)

    def scale(self, c, x):
        return axpy({}, c, x)

    def product(self, x, y):
        return bilinear(self.mul, x, y)

    def form_value(self, name, x, y):
        tab = self.forms[name]
        total = self.field.zero
        for i, a in x.items():
            for j, b in y.items():
                c = tab.get((i, j))
                if c is not None:
                    total = total + a * b * c
        return total

    def conj(self, x):
        out = {}
        for i, a in x.items():
            axpy(out, a, self.involution[i])
        return out

    # -- grading protocol

    def grading_sorts(self):
        return {"A": self.dim}

    def grading_maps(self):
        maps = [SMap("mul", ("A", "A"), "A", self.mul)]
        for name, tab in self.forms.items():
            maps.append(SMap(f"form:{name}", ("A", "A"), SCALAR_SORT, {k: {0: c} for k, c in tab.items()}))
        if self.involution is not None:
            maps.append(SMap("involution", ("A",), "A", {(i,): row for i, row in self.involution.items()}))
        return maps


class VerificationError(ValueError):
    """A structure failed one of the package's exact checks.  The error of
    each layer derives from it, so the CLI tells a failed proof (exit 1)
    from an internal error (exit 3)."""


@dataclass
class Report:
    """The verdict of an exact verifier: the violations it found, empty iff
    every identity holds, and the number of identities it evaluated."""

    violations: list
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def require(self, error_cls, what: str):
        """Raise error_cls naming the first violations unless the report is ok."""
        if not self.ok:
            raise error_cls(f"{what} failed to verify: {self.violations[:3]}")


class Grading:
    """A degree assignment on the distinguished bases of a structure."""

    def __init__(self, structure, group: AbGroup, degrees: dict):
        self.structure = structure
        self.group = group
        self.degrees = {s: tuple(ds) for s, ds in degrees.items()}
        sorts = structure.grading_sorts()
        if set(self.degrees) != set(sorts):
            raise ValueError(f"degree maps must cover the sorts {sorted(sorts)}")
        for s, n in sorts.items():
            if len(self.degrees[s]) != n:
                raise ValueError(f"sort {s} needs {n} degrees")
            for d in self.degrees[s]:
                if d.group != group:
                    raise ValueError("degree in the wrong group")
        self.verified = False

    def components(self, sort=None) -> dict:
        """{canonical degree coords: sorted basis indices} for one sort."""
        sort = sort or self.structure.main_sort
        return grouped((d.canonical(), i) for i, d in enumerate(self.degrees[sort]))

    def support(self, sort=None):
        return sorted(self.components(sort))

    def identity_component(self, sort=None):
        return self.components(sort).get(self.group.identity().canonical(), [])

    def copy_with_degree(self, sort, index, new_deg):
        degs = {s: list(ds) for s, ds in self.degrees.items()}
        degs[sort][index] = new_deg
        return Grading(self.structure, self.group, degs)


class AdaptedRows:
    """An adapted homogeneous basis: the reduced rows of independent spans,
    one `linalg.Echelon` per degree, in the order given.  A product of rows
    of degrees g1 and g2 must lie in the span of degree g1 + g2, and
    `expand` writes it over that span's rows only, by the span's
    `Echelon.coordinates` shifted by the row offset of the span."""

    def __init__(self, spans, error):
        self.error = error  # the caller's exception class
        self.rows, self.degrees, self._block, self._spans, self._sums = [], [], [], {}, {}
        for g, ech in spans:
            self._block += [len(self._spans)] * ech.rank
            self._spans[g] = (ech, len(self.rows))
            self.rows += ech.basis()
            self.degrees += [g] * ech.rank

    def expand(self, vec, factors, message):
        """{row index: coefficient} of vec over the rows of the degree that
        the degrees of the rows `factors` add up to: (a, b) for a product of
        rows a and b, (a,) for an image in the degree of row a.  Raises
        error(message) outside the span of that degree."""
        key = tuple(self._block[k] for k in factors)
        if key not in self._sums:
            g = self.degrees[factors[0]]
            for k in factors[1:]:
                g = g + self.degrees[k]
            self._sums[key] = self._spans.get(g)
        span = self._sums[key]
        if span is None:
            if vec:
                raise self.error(message)
            return {}
        ech, offset = span
        coords = ech.coordinates(vec)
        if coords is None:
            raise self.error(message)
        return {offset + k: c for k, c in coords.items()}


def verify_grading(grading: Grading) -> Report:
    """Exact check that every structure map is degree-compatible.

    For a product entry U_a x U_b -> U_c the rule is deg(c) = deg(a)+deg(b);
    scalar-valued forms require deg(a)+deg(b) = e; unary maps (involutions)
    must preserve the degree.  Violations are reported as
    (map name, input indices, output index, scalar repr).

    Degrees are compared as canonical coordinates, and the sum of each
    distinct tuple of input degrees is formed and reduced once.
    """
    G = grading.group
    e = G.identity().canonical()
    coords = {s: [d.canonical() for d in ds] for s, ds in grading.degrees.items()}
    sums = {}
    violations = []
    checked = 0
    for smap in grading.structure.grading_maps():
        in_degs = [coords[s] for s in smap.inputs]
        out_degs = None if smap.output == SCALAR_SORT else coords[smap.output]
        for key, out_idx, c in smap.entries():
            checked += 1
            ins = tuple(map(getitem, in_degs, key))
            total = sums.get(ins)
            if total is None:
                total = sums[ins] = G.reduce([sum(x) for x in zip(*ins)])
            if total != (e if out_degs is None else out_degs[out_idx]):
                violations.append((smap.name, key, out_idx, repr(c)))
    report = Report(violations, checked)
    grading.verified = report.ok
    return report


def _support(grading: Grading) -> list:
    """The distinct canonical degrees of every sort, in order of first occurrence."""
    return list(dict.fromkeys(d.canonical() for ds in grading.degrees.values() for d in ds))


def coarsen(grading: Grading, hom: GroupHom) -> Grading:
    """Push the grading forward along a group homomorphism.

    Each distinct degree is mapped once (`AbGroup.images`) and its image
    shared.  The composition of a grading with a homomorphism is again a
    grading, so the verified flag carries over.
    """
    if hom.domain != grading.group:
        raise ValueError("homomorphism domain does not match the grading group")
    G = hom.codomain
    support = _support(grading)
    image = {s: GroupElem(G, c, c) for s, c in zip(support, G.images(hom.matrix, support, hom.domain.ndim))}
    degs = {s: [image[d.canonical()] for d in ds] for s, ds in grading.degrees.items()}
    out = Grading(grading.structure, G, degs)
    out.verified = grading.verified
    return out


@dataclass
class UniversalResult:
    group: AbGroup
    grading: Grading          # same structure, relabeled over the universal group
    to_original: GroupHom     # universal -> original, sending [s] to s


class RelationLattice:
    """A basis of the integer lattice spanned by the vectors inserted so
    far: sparse columns {row: int} in echelon form, keyed by pivot row (the
    first nonzero row), so at most one column per row.  An insertion runs
    Euclid's algorithm on the pivot entries; its steps (subtract a multiple,
    swap) are unimodular, so the spanned lattice, and with it the cokernel,
    is that of all the inserted vectors.  A vector of the lattice reduces
    to 0 (at the least pivot of its expansion the column's entry divides
    its own), so inserting it again changes nothing."""

    def __init__(self):
        self.columns = {}

    def reduce(self, vec: dict) -> dict:
        """vec minus multiples of the pivot columns, up to the first pivot
        that has no column or leaves a remainder; empty iff vec lies in the
        lattice.  The subtractions work in place on one copy of vec, so
        neither vec nor a stored column changes."""
        vec = dict(vec)
        while vec:
            p = min(vec)
            col = self.columns.get(p)
            if col is None:
                return vec
            q = vec[p] // col[p]
            for i, c in col.items():
                r = vec.get(i, 0) - q * c
                if r:
                    vec[i] = r
                else:
                    vec.pop(i, None)
            if p in vec:
                return vec
        return vec

    def insert(self, vec: dict):
        vec = self.reduce(vec)
        while vec:
            # a new pivot, or a remainder smaller than the old one, whose
            # column is then reduced in its turn
            p = min(vec)
            col = self.columns.get(p)
            self.columns[p] = vec
            vec = self.reduce(col) if col else {}


def universal_group(grading: Grading) -> UniversalResult:
    """The universal group of the grading: free abelian on the support of
    every graded sort modulo the relations s1*s2 = s3 collected from every
    nonzero structure map entry (products, module actions, algebra-valued
    forms; scalar forms force s1*s2 = e).

    One walk of the structure maps reads each entry as the support numbers
    of its degrees and collects the distinct relation vectors (inputs minus
    output) in order of first occurrence; each goes once into a
    `RelationLattice`, whose basis, at most one column per support element,
    is the input of the Smith normal form.  A repeated vector would reduce
    to 0 and leave the lattice unchanged, so the basis is that of every
    entry's relation.

    The relabeled grading gives a basis element of support number j the
    degree pi(e_j), where pi: Z^m -> U is the cokernel projection.  An
    entry's degree rule there reads pi(v) = 0 for its relation vector v,
    and every entry's vector is among those collected, so mapping each of
    them through pi decides the rule for every entry of every map."""
    if not grading.verified:
        raise ValueError("verify the grading before computing its universal group")
    G = grading.group
    support = sorted({d.canonical() for ds in grading.degrees.values() for d in ds})
    index = {s: i for i, s in enumerate(support)}
    m = len(support)
    numbers = {s: [index[d.canonical()] for d in ds] for s, ds in grading.degrees.items()}

    patterns = {}  # insertion-ordered set of (input numbers, output number or None)
    for smap in grading.structure.grading_maps():
        in_nums = [numbers[s] for s in smap.inputs]
        out_nums = None if smap.output == SCALAR_SORT else numbers[smap.output]
        for key, outs in smap.table.items():
            ins = tuple(map(getitem, in_nums, key))
            for out_idx in outs:
                patterns[ins, None if out_nums is None else out_nums[out_idx]] = None
    relations = {}  # distinct relation vectors, in order of first occurrence
    for ins, out in patterns:
        vec = {}
        for j in ins:
            vec[j] = vec.get(j, 0) + 1
        if out is not None:  # a scalar output makes the sum of the inputs trivial
            c = vec.pop(out, 0) - 1  # only the output can cancel
            if c:
                vec[out] = c
        relations.setdefault(frozenset(vec.items()), vec)
    lattice = RelationLattice()
    for vec in relations.values():
        lattice.insert(vec)

    basis = [[col.get(i, 0) for i in range(m)] for _p, col in sorted(lattice.columns.items())]
    U, rows, lifts = _cokernel(m, basis)
    degree_of = {s: U.element(tuple(row[j] for row in rows)) for j, s in enumerate(support)}
    degs = {s: [degree_of[d.canonical()] for d in ds] for s, ds in grading.degrees.items()}
    relabeled = Grading(grading.structure, U, degs)
    # universal -> original: generator j of U maps to the integer
    # combination of support elements of G that its lift names
    to_original = GroupHom(U, G, [[sum(c * s[a] for c, s in zip(lift, support)) for lift in lifts] for a in range(G.ndim)])
    wrong = [v for v in relations.values() if any(U.reduce([sum(row[j] * c for j, c in v.items()) for row in rows]))]
    Report(wrong, len(relations)).require(AssertionError, "universal relabeling")
    relabeled.verified = True
    return UniversalResult(U, relabeled, to_original)


def coarsened_universal(result: UniversalResult, hom: GroupHom, grading: Grading) -> UniversalResult:
    """The universal group of `grading`, read off the universal result of a
    refinement Gamma~ of it, with no walk of the structure maps.  `grading`
    must be the pushforward of Gamma~ along hom, that is of result.grading
    along a = hom o result.to_original, on the same structure; anything
    else raises ValueError (one comparison of every degree).

    Let U~ = result.group, S the support of result.grading in U~ (every
    sort), N = <s - s' : s, s' in S, a(s) = a(s')> and pi: U~ -> U~/N.
    Then U~/N is the universal group of `grading`, pi pushes result.grading
    forward to its relabeling, and a induces to_original:

    - a kills N, so it factors through U~/N as the map sending pi(s) to
      a(s); and pi(s) = pi(s') iff s - s' lies in N iff a(s) = a(s'),
      since a kills N and N contains every s - s' with a(s) = a(s').  So
      pi o deg has the components of `grading`, and it is a grading, the
      pushforward of one along a homomorphism.
    - An H-grading with the components of `grading` is refined by Gamma~,
      so the universal property of U~ gives a homomorphism U~ -> H sending
      s to the degree of the component holding Gamma~_s.  It sends s and
      s' with a(s) = a(s') to one degree, so it kills N and factors
      through U~/N, uniquely since pi(S) generates U~/N.

    U~/N is U~'s presentation with the differences added, one Smith normal
    form.  `AbGroup.images` maps S through a and into U~/N, one image per
    element, and the lifts of U~/N's generators through a (to_original)."""
    fine = result.grading
    G = hom.codomain
    U = result.group
    if hom.domain != result.to_original.codomain:
        raise ValueError("homomorphism domain does not match the original group of the result")
    a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*result.to_original.matrix)] for row in hom.matrix]
    support = _support(fine)
    image = dict(zip(support, G.images(a, support, U.ndim)))
    first, differences = {}, []
    for s, g in image.items():
        s0 = first.setdefault(g, s)
        if s0 != s:
            differences.append([x - y for x, y in zip(s, s0)])
    if (
        grading.structure is not fine.structure
        or grading.group != G
        or any([image[d.canonical()] for d in fine.degrees[sort]] != [d.canonical() for d in ds] for sort, ds in grading.degrees.items())
    ):
        raise ValueError("the grading is not the pushforward of the refinement along the homomorphism")
    Q, rows, lifts = _cokernel(U.ndim, _relation_columns(U) + differences)
    degree_of = {s: GroupElem(Q, c, c) for s, c in zip(support, Q.images(rows, support, U.ndim))}
    relabeled = Grading(fine.structure, Q, {sort: [degree_of[d.canonical()] for d in ds] for sort, ds in fine.degrees.items()})
    relabeled.verified = True
    columns = G.images(a, lifts, U.ndim)  # a on the lifts of Q's generators
    to_original = GroupHom(Q, G, [[c[i] for c in columns] for i in range(G.ndim)])
    return UniversalResult(Q, relabeled, to_original)
