"""Finitely generated abelian groups, Smith normal form, homs and characters.

Groups are kept in the canonical form Z^r x Z_{d_1} x ... x Z_{d_t} with
d_1 | d_2 | ... | d_t (free coordinates first).  Elements carry the
coordinates they were created with; canonical reduction happens on
comparison, so constructor parameters stay readable in reports.

>>> G = make_group(2, [3])
>>> G
Z^2 x Z3
>>> G.element((1, 0, 5)).order()
inf
>>> make_group(0, [2, 2, 2, 3])
Z2 x Z2 x Z6
"""

from __future__ import annotations

import math
from math import gcd


# ---------------------------------------------------------------- SNF


def _identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M):
    """Smith normal form of an integer matrix.

    Returns (D, U, Uinv): D = U*M*V is diagonal with nonnegative entries
    d_1 | d_2 | ..., U is unimodular with inverse Uinv, and V is some
    unimodular column transform that is not kept.  Rows of U past the rank
    span the integer left kernel of M; Uinv lifts quotient coordinates back
    to Z^m.

    >>> D, U, Uinv = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    >>> [[sum(a * b for a, b in zip(row, col)) for col in zip(*Uinv)] for row in U]
    [[1, 0], [0, 1]]
    """
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity_matrix(m)
    Uinv = _identity_matrix(m)

    # each row operation on (A, U) applies its inverse to the columns of Uinv
    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row dst += c * row src
        Ar, Ur = A[src], U[src]
        Ad, Ud = A[dst], U[dst]
        for k in range(n):
            Ad[k] += c * Ar[k]
        for k in range(m):
            Ud[k] += c * Ur[k]
        for row in Uinv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    t = 0
    while t < min(m, n):
        # find smallest nonzero entry in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if A[t][t] < 0:
            negate_row(t)
        # enforce divisibility: A[t][t] must divide the rest of the block
        recheck = False
        d = A[t][t]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d:
                    add_row(i, t, 1)
                    recheck = True
                    break
            if recheck:
                break
        if not recheck:
            t += 1
    D = [[A[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return D, U, Uinv


# ---------------------------------------------------------------- groups


class AbGroup:
    """Z^r x Z_{d_1} x ... x Z_{d_t} with d_1 | d_2 | ... (canonical form)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion=()):
        torsion = tuple(int(d) for d in torsion)
        if free_rank < 0 or any(d < 2 for d in torsion):
            raise ValueError("free rank must be >= 0 and torsion orders >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain; use make_group")
        self.free_rank = free_rank
        self.torsion = torsion

    @property
    def ndim(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self):
        if self.free_rank:
            return math.inf
        return math.prod(self.torsion) if self.torsion else 1

    def exponent(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no finite exponent")
        return self.torsion[-1] if self.torsion else 1

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def identity(self) -> GroupElem:
        return GroupElem(self, (0,) * self.ndim)

    def element(self, coords) -> GroupElem:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {len(coords)}")
        return GroupElem(self, coords)

    def generator(self, i: int) -> GroupElem:
        c = [0] * self.ndim
        c[i] = 1
        return GroupElem(self, tuple(c))

    def elements(self):
        """All elements of a finite group, in lexicographic coordinate order."""
        if self.free_rank:
            raise ValueError("group is infinite")
        import itertools

        for coords in itertools.product(*(range(d) for d in self.torsion)):
            yield GroupElem(self, coords)

    def reduce(self, coords):
        r = self.free_rank
        return tuple(coords[:r]) + tuple(c % d for c, d in zip(coords[r:], self.torsion))

    def __eq__(self, other):
        return (
            isinstance(other, AbGroup)
            and other.free_rank == self.free_rank
            and other.torsion == self.torsion
        )

    def __hash__(self):
        return hash(("AbGroup", self.free_rank, self.torsion))

    def __repr__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "1"


class GroupElem:
    """An element in user coordinates; comparison reduces torsion coords
    (lazily, cached)."""

    __slots__ = ("group", "coords", "_can")

    def __init__(self, group: AbGroup, coords: tuple):
        self.group = group
        self.coords = coords
        self._can = None

    def canonical(self) -> tuple:
        if self._can is None:
            self._can = self.group.reduce(self.coords)
        return self._can

    def __add__(self, other):
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return GroupElem(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElem(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, n: int):
        return GroupElem(self.group, tuple(n * a for a in self.coords))

    def is_identity(self) -> bool:
        return not any(self.canonical())

    def order(self):
        """Least n >= 1 with n*g = 0, or math.inf.

        >>> make_group(1, [3]).element((1, 0)).order()
        inf
        >>> make_group(0, [2, 12]).element((1, 6)).order()
        2
        """
        c = self.canonical()
        r = self.group.free_rank
        if any(c[:r]):
            return math.inf
        n = 1
        for x, d in zip(c[r:], self.group.torsion):
            if x:
                n = n * (d // gcd(d, x)) // gcd(n, d // gcd(d, x))
        return n

    def __eq__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.group == other.group and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.group, self.canonical()))

    def __repr__(self):
        return f"g{self.coords}"


class GroupHom:
    """A homomorphism given by an integer matrix (codomain x domain)."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: AbGroup, codomain: AbGroup, matrix):
        self.domain = domain
        self.codomain = codomain
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if len(self.matrix) != codomain.ndim or any(len(r) != domain.ndim for r in self.matrix):
            raise ValueError("matrix shape does not match the groups")
        # well-definedness: the image of d_i * e_i must vanish in the codomain
        r = domain.free_rank
        for i, d in enumerate(domain.torsion):
            col = [row[r + i] for row in self.matrix]
            img = self.codomain.element(tuple(d * x for x in col))
            if not img.is_identity():
                raise ValueError(f"matrix does not kill the relation {d}*e_{r + i}")

    def __call__(self, g: GroupElem) -> GroupElem:
        if g.group != self.domain:
            raise ValueError("element not in the domain")
        c = g.coords
        return self.codomain.element(tuple(sum(row[j] * c[j] for j in range(len(c))) for row in self.matrix))

    @staticmethod
    def identity(G: AbGroup) -> "GroupHom":
        return GroupHom(G, G, _identity_matrix(G.ndim))

    @staticmethod
    def zero(domain: AbGroup, codomain: AbGroup) -> "GroupHom":
        return GroupHom(domain, codomain, [[0] * domain.ndim for _ in range(codomain.ndim)])


def make_group(free_rank: int, torsion_orders=()) -> AbGroup:
    """Canonical f.g. abelian group; arbitrary torsion orders are normalized
    to a divisibility chain by Smith normal form.

    >>> make_group(0, [3, 3])
    Z3 x Z3
    >>> make_group(0, [6, 4])
    Z2 x Z12
    """
    torsion = [int(d) for d in torsion_orders]
    if any(d < 2 for d in torsion):
        raise ValueError("torsion orders must be >= 2")
    chained = all(b % a == 0 for a, b in zip(torsion, torsion[1:]))
    if not chained:
        D, _, _ = smith_normal_form([[torsion[i] if i == j else 0 for j in range(len(torsion))] for i in range(len(torsion))])
        torsion = [D[i][i] for i in range(len(torsion)) if D[i][i] > 1]
    return AbGroup(free_rank, torsion)


# ------------------------------------------------- subgroups and quotients


def _relation_columns(G: AbGroup):
    """Generators of the relation lattice of G inside Z^ndim (as columns)."""
    n = G.ndim
    cols = []
    for i, d in enumerate(G.torsion):
        v = [0] * n
        v[G.free_rank + i] = d
        cols.append(v)
    return cols


def _cokernel(n: int, columns):
    """Z^n modulo the lattice spanned by the given columns.

    Returns (AbGroup, rows, lifts): rows is the ndim(quotient) x n
    projection matrix sending a vector in Z^n to quotient coordinates (free
    first), and lifts gives, per quotient generator, a vector in Z^n
    projecting onto it (a column of Uinv).
    """
    M = [[col[i] for col in columns] for i in range(n)]
    D, U, Uinv = smith_normal_form(M)
    diag = [D[i][i] if i < len(columns) else 0 for i in range(n)]
    free_rows = [i for i in range(n) if diag[i] == 0]
    torsion_rows = [i for i in range(n) if diag[i] > 1]
    Q = AbGroup(len(free_rows), [diag[i] for i in torsion_rows])
    selected = free_rows + torsion_rows
    rows = [U[i] for i in selected]
    lifts = [[Uinv[i][j] for i in range(n)] for j in selected]
    return Q, rows, lifts


def quotient(G: AbGroup, elems) -> tuple[AbGroup, GroupHom]:
    """G modulo the subgroup generated by elems; returns (Q, projection).

    >>> G = make_group(0, [3, 3, 3])
    >>> Q, pr = quotient(G, [G.element((0, 0, 1))])
    >>> Q
    Z3 x Z3
    """
    cols = _relation_columns(G)
    for g in elems:
        if g.group != G:
            raise ValueError("element not in the group")
        cols.append(list(g.coords))
    Q, rows, _ = _cokernel(G.ndim, cols)
    return Q, GroupHom(G, Q, rows)


def subgroup_generated(G: AbGroup, elems) -> tuple[AbGroup, GroupHom]:
    """The subgroup generated by elems; returns (H, inclusion H -> G).

    >>> G = make_group(0, [2, 4])
    >>> H, incl = subgroup_generated(G, [G.element((0, 2))])
    >>> H
    Z2
    """
    for g in elems:
        if g.group != G:
            raise ValueError("element not in the group")
    k, n = len(elems), G.ndim
    vcols = [list(g.coords) for g in elems]
    # rows of U past the rank span the relations among generators and
    # relation vectors; their generator block presents H on Z^k
    D, U, _ = smith_normal_form(vcols + _relation_columns(G))
    rank = sum(1 for i in range(min(len(D), n)) if D[i][i])
    H, _, lifts = _cokernel(k, [row[:k] for row in U[rank:]])
    incl_cols = [[sum(a[s] * vcols[s][i] for s in range(k)) for i in range(n)] for a in lifts]
    matrix = [[col[i] for col in incl_cols] for i in range(n)]
    return H, GroupHom(H, G, matrix)


def in_subgroup(g: GroupElem, gens) -> bool:
    """Membership of g in the subgroup generated by gens."""
    return quotient(g.group, gens)[1](g).is_identity()


def subgroup_elements(gens) -> frozenset:
    """All canonical coordinates of the (finite) subgroup generated by gens."""
    if not gens:
        raise ValueError("need at least one generator (or use the trivial set)")
    G = gens[0].group
    seen = {G.identity().canonical()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                c = y.canonical()
                if c not in seen:
                    seen.add(c)
                    nxt.append(GroupElem(G, c))
        frontier = nxt
        if len(seen) > 10**6:
            raise ValueError("subgroup is too large or infinite")
    return frozenset(seen)


# ---------------------------------------------------------------- characters


class Character:
    """A character of the torsion part of an abelian group, trivial on its
    free part, with root-of-unity values."""

    __slots__ = ("group", "field", "exps")

    def __init__(self, group: AbGroup, field, exps: tuple):
        self.group = group
        self.field = field
        self.exps = exps

    def __call__(self, g: GroupElem):
        if g.group != self.group:
            raise ValueError("element not in the group")
        N = self.field.conductor
        c = g.canonical()[self.group.free_rank:]
        total = 0
        for x, e, d in zip(c, self.exps, self.group.torsion):
            total += (N // d) * e * x
        return self.field.zeta(total % N)

    def __mul__(self, other):
        exps = tuple((a + b) % d for a, b, d in zip(self.exps, other.exps, self.group.torsion))
        return Character(self.group, self.field, exps)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.group, self.exps))

    def __repr__(self):
        return f"chi{self.exps}"


def has_characters(G: AbGroup, conductor: int) -> bool:
    """Whether Q(zeta_conductor) holds the characters of the finite group
    G: its exponent divides the conductor."""
    return conductor % G.exponent() == 0


def characters(G: AbGroup, field) -> list[Character]:
    """All |G| characters of a finite group with exponent dividing the
    field conductor."""
    if not G.is_finite():
        raise ValueError("characters are only provided for finite groups")
    if not has_characters(G, field.conductor):
        raise ValueError(
            f"exponent {G.exponent()} does not divide the conductor {field.conductor}"
        )
    import itertools

    out = []
    for exps in itertools.product(*(range(d) for d in G.torsion)):
        out.append(Character(G, field, exps))
    return out
