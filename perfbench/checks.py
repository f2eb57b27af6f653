"""Checks of the program's outputs that do not call the program.

Each check recomputes a fact with its own arithmetic: cyclotomic scalars as
tuples of Fractions reduced modulo Phi_N (from sympy), group elements as
integer tuples reduced modulo the group's orders, and the similarity
conditions of the Type III classification restated on plain tuples.  The
program's objects are only read (coefficients, coordinates, tables).  Every
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


# ------------------------------------------------------------ Q(zeta_N)


class Cyclotomic:
    """Q(zeta_N) in the power basis 1, z, ..., z^(d-1), d = deg Phi_N."""

    def __init__(self, conductor: int):
        from sympy import Poly, Symbol, cyclotomic_poly

        x = Symbol("x")
        self.phi = [int(c) for c in reversed(Poly(cyclotomic_poly(conductor, x), x).all_coeffs())]
        self.degree = len(self.phi) - 1
        self.zero = (Fraction(0),) * self.degree
        self.one = (Fraction(1),) + self.zero[1:]

    def parse(self, strings) -> tuple:
        if len(strings) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(strings)}")
        return tuple(Fraction(s) for s in strings)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # Phi_N is monic: z^d = -(phi_0 + ... + phi_(d-1) z^(d-1))
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for i in range(d):
                    prod[k - d + i] -= c * self.phi[i]
        return tuple(prod[:d])


def _vec_add(cf, u, v):
    out = dict(u)
    for k, c in v.items():
        out[k] = cf.add(out[k], c) if k in out else c
    return {k: c for k, c in out.items() if any(c)}


def _vec_mul(cf, table, u, v):
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            xy = cf.mul(x, y)
            for k, c in table.get((a, b), {}).items():
                t = cf.mul(xy, c)
                out[k] = cf.add(out[k], t) if k in out else t
    return {k: c for k, c in out.items() if any(c)}


def parse_product_table(report: dict, cf: Cyclotomic) -> dict:
    """The ``product`` of a ``build --constructor`` report as
    {(i, j): {k: coefficients}}."""
    table = {}
    for key, row in report["product"].items():
        i, j = (int(s) for s in key.split(","))
        table[(i, j)] = {int(k): cf.parse(c) for k, c in row.items()}
    return table


def flexible_violations(table: dict, dim: int, cf: Cyclotomic) -> list:
    """Basis triples that break the polarized flexible law
    (x*y)*z + (z*y)*x = x*(y*z) + z*(y*x), which every symmetric
    composition algebra satisfies."""
    e = [{i: cf.one} for i in range(dim)]
    bad = []
    for i, j, k in itertools.product(range(dim), repeat=3):
        x, y, z = e[i], e[j], e[k]
        lhs = _vec_add(cf, _vec_mul(cf, table, _vec_mul(cf, table, x, y), z), _vec_mul(cf, table, _vec_mul(cf, table, z, y), x))
        rhs = _vec_add(cf, _vec_mul(cf, table, x, _vec_mul(cf, table, y, z)), _vec_mul(cf, table, z, _vec_mul(cf, table, y, x)))
        if lhs != rhs:
            bad.append((i, j, k))
    return bad


# ------------------------------------------------------------ groups


def coords(g) -> tuple:
    """A group element's coordinates reduced modulo its group's orders."""
    G = g.group
    r = G.free_rank
    return tuple(g.coords[:r]) + tuple(c % d for c, d in zip(g.coords[r:], G.torsion))


def _add(a, b, group):
    r = group.free_rank
    s = [x + y for x, y in zip(a, b)]
    return tuple(s[:r]) + tuple(c % d for c, d in zip(s[r:], group.torsion))


def graded_table_violations(mul: dict, degrees, group, antisymmetric: bool) -> list:
    """Entries of a structure-constant table {(a, b): {c: scalar}} that are
    nonzero although deg a + deg b != deg c, and, for a Lie algebra, pairs
    with [a, b] != -[b, a]."""
    deg = [coords(g) for g in degrees]
    bad = []
    for (a, b), row in mul.items():
        for c, coef in row.items():
            if any(coef.coeffs) and _add(deg[a], deg[b], group) != deg[c]:
                bad.append(("degree", a, b, c))
        if not antisymmetric:
            continue
        other = mul.get((b, a), {})
        for c in set(row) | set(other):
            x = tuple(row[c].coeffs) if c in row else None
            y = tuple(other[c].coeffs) if c in other else None
            x = x if x and any(x) else None
            y = y if y and any(y) else None
            if (x is None) != (y is None) or (x is not None and tuple(-v for v in x) != y):
                bad.append(("antisymmetry", a, b, c))
    return bad


def piece_dims(degrees) -> list:
    dims = {}
    for g in degrees:
        dims[coords(g)] = dims.get(coords(g), 0) + 1
    return sorted(dims.values())


def _sign(strings):
    c = [Fraction(s) for s in strings]
    if any(c[1:]) or c[0] not in (1, -1):
        return None
    return int(c[0])


def brauer_factor_problems(factors: dict) -> list:
    """Commutation factors {(chi1, chi2): [c1, c2, c3]} as coefficient
    strings: [E_i]^2 = 1 makes every factor +1 or -1, and [E_1] = [E_2][E_3]
    makes c1 = c2 * c3."""
    if not factors:
        return ["Brauer report has no commutation factors"]
    out = []
    for pair, vals in factors.items():
        signs = [_sign(v) for v in vals]
        if None in signs or signs[0] != signs[1] * signs[2]:
            out.append(f"commutation factors {vals} at {pair} break [E1] = [E2][E3] or [Ei]^2 = 1")
    return out


# ------------------------------------------------------------ CLI reports


def report_problems(name: str, rep: dict, conductor: int = 12) -> list:
    """Fields every passing report carries."""
    out = []
    if rep.get("status") != "pass":
        out.append(f"{name}: status {rep.get('status')!r}")
    if rep.get("field_conductor") != conductor:
        out.append(f"{name}: field_conductor {rep.get('field_conductor')!r}, expected {conductor}")
    return out


# constant True entries of the trialitarian suite: not evidence of anything
CONSTANT_CHECKS = {"sigma_and_unit", "clifford_relations", "kappa_consistent"}

SUITE_CHECKS = {
    "composition": {"zorn_hurwitz", "doubled_hurwitz", "para_cayley_symmetric", "para_doubled_symmetric", "okubo_symmetric"},
    "grading": {"cartan_verifies", "cartan_universal_Z2", "okubo_verifies", "mutation_detected"},
    "cyclic": {"cayley_tensor_axioms", "okubo_tensor_axioms", "opposite_axioms"},
    "trialitarian": {"alpha_bijective_homomorphism", "alpha_involutions", "lie_of_E_dimension_28", "lie_of_E_equals_derivations"},
    "jordan": {"dimension_27", "jordan_identity", "degree3_random_100"},
}


def suite_problems(suite: str, rep: dict) -> list:
    """The suite's checks are exactly the expected ones (constant entries
    aside) and every one of them holds."""
    checks = {k: v for k, v in rep.get("checks", {}).items() if k not in CONSTANT_CHECKS}
    out = []
    if set(checks) != SUITE_CHECKS[suite]:
        out.append(f"verify {suite}: checks {sorted(checks)}")
    out += [f"verify {suite}: {k} is {v!r}" for k, v in sorted(checks.items()) if v is not True]
    return out


# the three fine Type III gradings: identity-component dimension and
# universal group (free rank, torsion in canonical chain form)
FINE = {
    "cartan": (2, 2, [3]),
    "z2cubed": (1, 0, [2, 2, 6]),
    "okubo": (0, 0, [3, 3, 3]),
}


def catalog_problems(rep: dict) -> list:
    out = []
    rows = {row["kind"]: row for row in rep.get("table", [])}
    if set(rows) != set(FINE):
        return [f"catalog: kinds {sorted(rows)}"]
    for kind, (rank, free, torsion) in FINE.items():
        row = rows[kind]
        got = (row["rank"], row["universal_group"]["free_rank"], row["universal_group"]["torsion"])
        if got != (rank, free, torsion):
            out.append(f"catalog {kind}: rank/universal group {got}, expected {(rank, free, torsion)}")
    refs = rep.get("non_refinement", {})
    wanted = {f"{b} refines {a}" for a, b in itertools.permutations(FINE, 2)}
    if set(refs) != wanted:
        out.append(f"catalog: non-refinement entries {sorted(refs)}")
    out += [f"catalog: {k} not refuted" for k, v in sorted(refs.items()) if not v or v == "NOT REFUTED"]
    return out


def invariants_problems(rep: dict, rank: int) -> list:
    """Identity component of the expected rank, type vector accounting for
    all 24 dimensions of V, and for rank 0 an orientation and the universal
    group Z3^3 of a fine grading."""
    inv = rep.get("invariants", {})
    out = []
    if inv.get("rank") != rank:
        out.append(f"invariants: rank {inv.get('rank')}, expected {rank}")
    tv = inv.get("type_vector", [])
    if sum((i + 1) * n for i, n in enumerate(tv)) != 24:
        out.append(f"invariants: type vector {tv} does not add up to 24")
    if rank == 0:
        if inv.get("orientation") not in ("+", "-"):
            out.append(f"invariants: orientation {inv.get('orientation')!r}, expected + or -")
        if inv.get("universal_group") != {"free_rank": 0, "torsion": [3, 3, 3]}:
            out.append(f"invariants: universal group {inv.get('universal_group')}")
    return out


# ------------------------------------------------------------ root system


def _solve(rows, rhs):
    """The solution x of sum_j x_j rows[j] = rhs over Q, rows independent,
    or None."""
    n, m = len(rows), len(rhs)
    aug = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(rhs[i])] for i in range(m)]
    piv = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c]), None)
        if p is None:
            return None
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    if any(aug[i][n] for i in range(r, m)):
        return None
    return [aug[i][n] for i in range(n)]


def root_datum_problems(roots, simple, cartan_matrix) -> list:
    """The roots form a root system of type D4 with the given simple roots:
    24 distinct nonzero roots closed under negation; every root an integer
    combination of the simple roots with coefficients all >= 0 or all <= 0,
    12 of each sign; and the Cartan matrix read off the alpha_i-strings
    through alpha_j (a_ij = -max{k : alpha_j + k alpha_i is a root}) is the
    program's, symmetric, with one node of valence 3 and three of valence 1."""
    roots = [tuple(r) for r in roots]
    rs = set(roots)
    out = []
    if len(roots) != 24 or len(rs) != 24 or any(not any(r) for r in rs):
        out.append(f"root datum: {len(roots)} roots, {len(rs)} distinct nonzero")
    if any(tuple(-x for x in r) not in rs for r in rs):
        out.append("root datum: roots not closed under negation")
    simple = [tuple(a) for a in simple]
    if len(simple) != 4 or not set(simple) <= rs:
        return out + [f"root datum: simple roots {simple} are not 4 roots"]
    signs = {1: 0, -1: 0}
    for r in roots:
        x = _solve(simple, r)
        if x is None or any(c.denominator != 1 for c in x) or (min(x) < 0 < max(x)):
            out.append(f"root datum: root {r} is not a signed integer combination of the simple roots")
            continue
        signs[1 if max(x) > 0 else -1] += 1
    if signs != {1: 12, -1: 12}:
        out.append(f"root datum: {signs[1]} positive and {signs[-1]} negative roots")
    strings = []
    for i in range(4):
        row = []
        for j in range(4):
            if i == j:
                row.append(2)
                continue
            k = 0
            while tuple(b + (k + 1) * a for a, b in zip(simple[i], simple[j])) in rs:
                k += 1
            row.append(-k)
        strings.append(row)
    if [list(r) for r in cartan_matrix] != strings:
        out.append(f"root datum: Cartan matrix {cartan_matrix}, root strings give {strings}")
    off = [(i, j) for i in range(4) for j in range(4) if i != j]
    valences = sorted(sum(1 for j in range(4) if j != i and strings[i][j] == -1) for i in range(4))
    if any(strings[i][j] not in (0, -1) or strings[i][j] != strings[j][i] for i, j in off) or valences != [1, 1, 1, 3]:
        out.append(f"root datum: root strings give {strings}, not the Cartan matrix of D4")
    return out


# ------------------------------------------------------------ similarity


class Tup:
    """A Type III parameter tuple on plain integer tuples.  ``mod`` gives
    the order of each coordinate; K holds generators (r = 0, 1), gamma
    (g1, g2, g3) for r = 2 or (g,) for r = 4."""

    __slots__ = ("mod", "rank", "h", "K", "gamma", "delta", "t")

    def __init__(self, mod, rank, h, K=(), gamma=(), delta="", t=""):
        self.mod, self.rank, self.h = tuple(mod), rank, tuple(h)
        self.K, self.gamma = tuple(map(tuple, K)), tuple(map(tuple, gamma))
        self.delta, self.t = delta, t


def g_add(mod, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, mod))


def g_mul(mod, n, a):
    return tuple((n * x) % m for x, m in zip(a, mod))


@functools.lru_cache(maxsize=None)
def span(mod: tuple, gens: tuple) -> frozenset:
    """The subgroup generated by gens (tuples of tuples, for the cache)."""
    seen = {tuple(0 for _ in mod)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g_add(mod, x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def _frame_det(p: Tup, q: Tup) -> int:
    """Determinant mod 3 of q's generators written in p's generators,
    modulo <h>."""
    mod, H = p.mod, span(p.mod, (p.h,))
    rows = []
    for k in q.K:
        hit = [
            (a, b)
            for a in range(3)
            for b in range(3)
            if g_add(mod, k, g_mul(mod, -1, g_add(mod, g_mul(mod, a, p.K[0]), g_mul(mod, b, p.K[1])))) in H
        ]
        rows.append(hit[0])
    return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % 3


@functools.lru_cache(maxsize=None)
def _rank2_images(mod, gamma, h) -> frozenset:
    """(eps g_sigma(1) h^j, eps g_sigma(2) h^j, eps g_sigma(3) h^j) over every
    permutation sigma, sign eps and j in Z3."""
    return frozenset(
        tuple(g_add(mod, g_mul(mod, eps, gamma[sigma[i]]), g_mul(mod, j, h)) for i in range(3))
        for sigma in itertools.permutations(range(3))
        for eps in (1, -1)
        for j in range(3)
    )


def paper_similar(p: Tup, q: Tup) -> bool:
    """The similarity conditions of the classification, family by family."""
    if p.rank != q.rank:
        return False
    mod = p.mod
    if span(mod, (p.h,)) != span(mod, (q.h,)):
        return False
    if p.rank == 8:
        return p.t == q.t
    if p.rank == 4:
        return q.gamma[0] in (p.gamma[0], g_mul(mod, -1, p.gamma[0]))
    if p.rank == 2:
        return q.gamma in _rank2_images(mod, p.gamma, p.h)
    if p.rank == 1:
        return span(mod, p.K) == span(mod, q.K)
    if span(mod, p.K + (p.h,)) != span(mod, q.K + (q.h,)):
        return False
    det = _frame_det(p, q)
    sign = q.delta if det == 1 else {"+": "-", "-": "+"}[q.delta]
    if q.h == p.h:
        return sign == p.delta
    return sign != p.delta


def paper_classes(tuples) -> list:
    """Similarity classes of a family by plain enumeration of the pairs, as
    sorted lists of indices."""
    parent = list(range(len(tuples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(tuples)), 2):
        if paper_similar(tuples[i], tuples[j]):
            parent[find(i)] = find(j)
    classes = {}
    for i in range(len(tuples)):
        classes.setdefault(find(i), []).append(i)
    return sorted(classes.values())


def rank8_class_count(tuples) -> int:
    """Rank 8: two classes (para-Cayley, Okubo) per subgroup <h> present,
    when both values of t occur for each."""
    spans = {(span(t.mod, (t.h,)), t.t) for t in tuples}
    return len(spans)
