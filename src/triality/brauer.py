"""Graded Brauer data of the algebras related to a Type I grading.

A graded division algebra over an algebraically closed-enough field is a
twisted group algebra F^tau T, classified by its support T and the
alternating bicharacter beta(s,t) with X_s X_t = beta(s,t) X_t X_s.  This
module reads (T, beta) of a graded matrix algebra End_D(W), D = F^tau T,
off the units of its generating characters (their degrees and commutation
factors), propagates a Type I grading on tri(S) to the three
8-dimensional representations (the related triple), and verifies the
Brauer-class relations [E_i]^2 = 1, [E_1] = [E_2][E_3] through
commutation factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fgab import AbGroup, Character, characters, subgroup_generated
from .grading import AdaptedRows, Grading, StructAlgebra, VerificationError, verify_grading
from .linalg import Echelon, axpy, compose, echelon_from, invert_dense, kernel, to_flat


class BrauerError(VerificationError):
    pass


# ------------------------------------------------ division parameters


def _value_to_exponent(field, value):
    for k in range(field.conductor):
        if value == field.zeta(k):
            return k
    raise BrauerError(f"{value!r} is not a root of unity in the field")


@dataclass
class DivisionParams:
    support_group: AbGroup       # canonical form of T
    support: frozenset           # canonical coordinates of T inside G
    beta: dict                   # (s, t) canonical pairs -> CycloScalar
    expo: dict                   # (i, j), i < j -> zeta exponent of c(chi_i, chi_j)

    @property
    def trivial(self) -> bool:
        return self.support_group.is_trivial()

    def elementary_2(self) -> bool:
        return all(d == 2 for d in self.support_group.torsion)

    def beta_pm1(self, field) -> bool:
        one = field.one
        return all(v == one or v == -one for v in self.beta.values())


def _proportionality(F, img, base):
    """img = lam * base, or None if not proportional.  Zero img gives 0."""
    if not img:
        return F.zero
    if not base:
        return None
    piv = min(base)
    c = img.get(piv)
    if c is None:
        return None
    lam = c / base[piv]
    if img != axpy({}, lam, base):
        return None
    return lam


def _pairing(expo, x, y):
    """The zeta exponent of c(prod chi_i^x_i, prod chi_j^y_j) =
    prod_{i<j} c_ij^(x_i y_j - x_j y_i), from the exponents of the c_ij."""
    return sum(e * (x[i] * y[j] - x[j] * y[i]) for (i, j), e in expo.items())


def division_params(A: StructAlgebra, grading: Grading) -> DivisionParams:
    """(T, beta) of the graded division algebra D with A = End_D(W), read
    off the units u_i of the generating characters chi_i of the torsion
    part of G (exps e_i, one per invariant factor, trivial on the free
    part), each the one kernel line of its system (_solve_character_unit).

    - The unit system is graded (the degree-g part of a solution solves
      it), so its single kernel line is homogeneous; a unit whose entries
      do not all share one degree is refused.  Let t_chi be its degree.
    - chi -> t_chi is a homomorphism: for A associative (products of
      matrices; ROADMAP item 9), u_chi u_psi is invertible and solves the
      system of chi psi, so it is that unit up to a scalar.  As u_i^d_i is
      the unit of the trivial character, of degree 0, the t_x = sum x_i t_i,
      x_i < d_i, are the subgroup the t_i generate.
    - related_triple's checks make each related algebra End(S), so
      A = End_D(W), W a graded D-module with a homogeneous D-basis of
      degrees g_1, ..., g_k, and beta nondegenerate on T.  There
      u_chi = diag(chi(g_i)) (x) X_t with beta(t, .) = chi restricted to T;
      every character of T extends to G, so T = {t_chi}, and as diagonal
      matrices commute, beta(t_chi, t_psi) = c(chi, psi), the commutation
      factor u_chi u_psi = c u_psi u_chi.
    - When G has no torsion there is no generating character and T = 1: a
      finite support lies in the torsion part.

    beta is read from the exponents e_ij of c_ij = c(chi_i, chi_j), i < j,
    the table verify_brauer_relations decides its relations on:
    beta(t_x, t_y) = zeta^_pairing(e, x, y), x the first exps of its t_x.
    That is well defined: the unit system at the homogeneous u_psi gives
    c(chi, psi) = chi(t_psi), so the pairing of x and y is chi_x(t_y) =
    chi_y(t_x)^-1, which depends on t_x and t_y only."""
    F = A.field
    G = grading.group
    N = F.conductor
    if any(N % d for d in G.torsion):
        raise BrauerError(f"the field conductor {N} does not provide the characters of {G}")
    degs = grading.degrees["A"]
    r = len(G.torsion)
    units, t = [], []
    for i in range(r):
        u = _solve_character_unit(A, grading, Character(G, F, tuple(int(k == i) for k in range(r))))
        t.append(degs[min(u)])
        if any(degs[a] != t[-1] for a in u):
            raise BrauerError("character unit is not homogeneous")
        units.append(u)
    pairs = itertools.combinations(range(r), 2)
    expo = {(i, j): _value_to_exponent(F, commutation_factor(A, units[i], units[j])) for i, j in pairs}
    pre = {}
    for x in itertools.product(*(range(d) for d in G.torsion)):
        pre.setdefault(sum((c * g for c, g in zip(x, t)), G.identity()).canonical(), x)
    T_group, _incl = subgroup_generated(G, t)
    beta = {(s, v): F.zeta(_pairing(expo, x, y)) for s, x in pre.items() for v, y in pre.items()}
    return DivisionParams(T_group, frozenset(pre), beta, expo)


# ---------------------------------------------------------- related triples


@dataclass
class RelatedTriple:
    algebras: list    # three StructAlgebra on adapted homogeneous bases
    gradings: list    # three verified Gradings


def _index_masks(n, vec):
    """The row and column indices of a flat n x n matrix, as bit masks: a
    product A B can be nonzero only if the columns of A meet the rows of
    B."""
    rows = cols = 0
    for idx in vec:
        rows |= 1 << idx // n
        cols |= 1 << idx % n
    return rows, cols


def related_triple(adapted_coarse, S) -> RelatedTriple:
    """Propagate a Type I grading on tri(S) to End_F(S) through each of the
    three component projections, and check that the degree assignment is
    consistent (the component spans are independent) and sigma_n-stable.
    adapted_coarse pairs each degree with a vector of End(S)^3 in triple
    coordinates (trilie); block comp of it is the comp-th projection, a
    flat matrix.  Products are taken with linalg.compose, and only for
    pairs of matrices where the columns of the left one meet the rows of
    the right one; the others are 0.

    The seeds, the projected derivations that grow the span of their
    degree, are a homogeneous basis s_1, ..., s_m of the projection of
    tri(S), which is so(S, n) by local triality.  As s_j s_i = s_i s_j -
    [s_i, s_j], with the bracket in the seed span of degree g_i + g_j, the
    seeds and the products s_i s_j, i <= j, span so + so.so = End(S)
    (n >= 3).  They are inserted until the span ranks add up to n*n; if
    they fall short (the input is not all of tri(S)), the propagation is
    refused.

    Each span is an Echelon, whose reduced row echelon form is determined
    by the span, so the adapted rows, the table, the involution and the
    degrees (as group elements) do not depend on the order of insertion.
    Independent spans (the union rank check) adding up to n*n and closed
    under products (the table: the product of rows of degrees g1 and g2 is
    written over the rows of degree g1 + g2 only, grading.AdaptedRows, and
    raises BrauerError outside their span) grade End(S), the algebra the
    seeds generate, with every seed homogeneous; so they are the
    components of the closure of the seeds under all products.  A sigma_n
    image outside the span of its row's degree is refused as well."""
    F = S.field
    n = S.dim
    G = adapted_coarse[0][0].group
    Gram = [[S.forms["n"].get((i, j), F.zero) for j in range(n)] for i in range(n)]
    Ginv = to_flat(invert_dense(F, Gram))
    Gram = to_flat(Gram)
    out_algs, out_grads = [], []
    for comp in range(3):
        # spans and degree sums are keyed by canonical coordinates; degree
        # keeps the group element of the first seed or nonzero product of each
        spans, degree, sums = {}, {}, {}
        seeds = []
        for g, trip in adapted_coarse:
            vec = {idx % (n * n): c for idx, c in trip.items() if idx // (n * n) == comp}
            if vec:
                key = g.canonical()
                degree.setdefault(key, g)
                if spans.setdefault(key, Echelon(F)).insert(vec):
                    seeds.append((g, key, vec, *_index_masks(n, vec)))
        total = len(seeds)
        # s_i s_j, i <= j, row j of the triangle after row j - 1
        pairs = ((a, b) for j, b in enumerate(seeds) for a in seeds[: j + 1])
        for (g1, k1, s1, _rows1, cols1), (g2, k2, s2, rows2, _cols2) in pairs:
            if total == n * n:
                break
            if not cols1 & rows2:
                continue
            pv = compose(s1, s2, n)
            if not pv:
                continue
            kk = sums.get((k1, k2))
            if kk is None:
                kk = sums[(k1, k2)] = (g1 + g2).canonical()
            if kk not in degree:
                degree[kk] = g1 + g2
            if spans.setdefault(kk, Echelon(F)).insert(pv):
                total += 1
        if total != n * n:
            raise BrauerError(f"propagation reached dimension {total}, expected {n * n}")
        union = Echelon(F)
        for e in spans.values():
            for row in e.basis():
                union.insert(row)
        if union.rank != n * n:
            raise BrauerError("propagated components are not independent")
        # adapted homogeneous basis and structure constants
        ad = AdaptedRows(((degree[key], spans[key]) for key in sorted(spans)), BrauerError)
        rows = ad.rows
        masks = [_index_masks(n, x) for x in rows]
        mul = {}
        for a, x in enumerate(rows):
            cols = masks[a][1]
            for b, y in enumerate(rows):
                if cols & masks[b][0]:
                    row = ad.expand(compose(x, y, n), (a, b), "product outside the propagated span")
                    if row:
                        mul[(a, b)] = row
        # sigma_n must preserve each component: sigma_n(M) = G^-1 M^T G
        invol = {}
        for a, x in enumerate(rows):
            xt = {(idx % n) * n + idx // n: c for idx, c in x.items()}
            image = compose(Ginv, compose(xt, Gram, n), n)
            invol[a] = ad.expand(image, (a,), "sigma_n does not preserve the propagated components")
        alg = StructAlgebra(F, [f"a{k}" for k in range(len(rows))], mul, involution=invol)
        gr = Grading(alg, G, {"A": ad.degrees})
        verify_grading(gr).require(BrauerError, "propagated grading")
        out_algs.append(alg)
        out_grads.append(gr)
    return RelatedTriple(out_algs, out_grads)


# ------------------------------------------------------ commutation factors


def commutation_factor(A: StructAlgebra, u1, u2):
    """The scalar c with u1 u2 = c u2 u1."""
    lam = _proportionality(A.field, A.product(u1, u2), A.product(u2, u1))
    if lam is None or lam.is_zero():
        raise BrauerError("character units do not commute projectively")
    return lam


def _solve_character_unit(A: StructAlgebra, grading: Grading, chi):
    """The unit u of chi: u a = chi(deg a) a u for every basis element a.
    The kernel of this system must be one line, spanned by an invertible u.
    An invertible solution u makes the kernel u Z(A), Z(A) the centre of A,
    so the one line is the statement Z(A) = F that division_params rests
    on."""
    F = A.field
    negs = [-chi(g) for g in grading.degrees["A"]]
    # the column of e_i holds e_i e_j - chi(deg e_j) e_j e_i at (j, out) for
    # every j: each stored product e_i e_j enters column i at (j, out) and,
    # times -chi(deg e_i), column j at (i, out)
    cols = [{} for _ in range(A.dim)]
    for (i, j), row in A.mul.items():
        axpy(cols[i], None, {(j, out): c for out, c in row.items()})
        axpy(cols[j], negs[i], {(i, out): c for out, c in row.items()})
    sols = kernel(F, cols)
    if not sols:
        raise BrauerError("no character unit (input is not a matrix-algebra grading)")
    if len(sols) > 1:
        raise BrauerError(f"character unit is not unique up to a scalar ({len(sols)} kernel lines: the centre is larger than F)")
    u = sols[0]
    if echelon_from(F, [A.product(u, A.basis_vec(i)) for i in range(A.dim)]).rank != A.dim:
        raise BrauerError("character unit is not invertible")
    return u


@dataclass
class BrauerReport:
    params: list
    elementary2: bool
    beta_pm1: bool
    product_relation: bool
    details: dict

    def ok(self):
        return self.elementary2 and self.beta_pm1 and self.product_relation


def verify_brauer_relations(triple: RelatedTriple, field) -> BrauerReport:
    """[E_i]^2 = 1 (elementary 2-torsion supports, +-1-valued betas) and
    [E_1] = [E_2][E_3] via commutation factors, decided on the generating
    characters chi_i of the finite grading group (exps e_i, one per
    invariant factor).  Both are read off the division_params of the three
    algebras, which solve the units u_i and their factors c_ij; nothing is
    solved here.

    Only the units u_i of the chi_i are solved in each algebra A, each the
    one kernel line of its system and invertible, so the centre of A is F
    and the units of a character form at most a line.  For A associative
    (products of matrices), u_chi u_psi is invertible and solves the system
    of chi psi, so it is the unit of chi psi up to a scalar; and
    u_chi u_psi u_chi^-1 solves that of psi, so u_chi u_psi =
    c(chi, psi) u_psi u_chi, with c an alternating bicharacter
    (c(chi chi', psi) = c(chi, psi) c(chi', psi) from u_chi u_chi' u_psi).
    With c_ij = c(chi_i, chi_j), a root of unity read as a zeta exponent
    (DivisionParams.expo), c(prod chi_i^x_i, prod chi_j^y_j) =
    prod_{i<j} c_ij^(x_i y_j - x_j y_i) (_pairing), so c_1 = c_2 c_3 holds
    on every character pair exactly when it holds on the generator pairs.  details["factors"] holds c on every pair, in the
    order of fgab.characters, one value per algebra."""
    G = triple.gradings[0].group
    if not G.is_finite():
        raise BrauerError("quotient away free directions before checking relations")
    params = [division_params(a, g) for a, g in zip(triple.algebras, triple.gradings)]
    elem2 = all(p.elementary_2() for p in params)
    pm1 = all(p.beta_pm1(field) for p in params)
    e1, e2, e3 = (p.expo for p in params)
    product_ok = all((e1[p] - e2[p] - e3[p]) % field.conductor == 0 for p in e1)
    factors = {}
    for c1, c2 in itertools.combinations(characters(G, field), 2):
        factors[(c1.exps, c2.exps)] = [field.zeta(_pairing(p.expo, c1.exps, c2.exps)).to_strings() for p in params]
    return BrauerReport(params, elem2, pm1, product_ok, {"factors": factors})
