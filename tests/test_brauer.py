import copy
import itertools

import pytest

from triality.brauer import (
    BrauerError,
    RelatedTriple,
    _proportionality,
    _solve_character_unit,
    commutation_factor,
    division_params,
    related_triple,
    verify_brauer_relations,
)
from triality.classify import build, params_r0
from triality.fgab import GroupElem, characters, make_group, quotient, subgroup_elements, subgroup_generated
from triality.grading import AdaptedRows, Grading, StructAlgebra, verify_grading
from triality.trilie import TrialityError, _homogeneous_pieces, induce_tri_grading, operator_degrees, tri_basis
from triality.linalg import Echelon, axpy, compose, echelon_from, invert_dense, kernel, to_flat
from triality.scalars import make_field


def bicharacter(field, beta, s, t, pairs):
    """prod beta[a][b]^(s_a t_b) over the generator pairs (a, b) in pairs,
    for canonical coordinates s and t."""
    value = field.one
    for a, b in pairs:
        for _ in range(s[a] * t[b]):
            value = value * beta[a][b]
    return value


def twisted_group_algebra(field, orders, beta):
    """(F^tau T, its grading by T), T = make_group(0, orders), on the basis
    X_t, t in T in lexicographic order, with X_t in degree t and beta[a][b] =
    beta(g_a, g_b) on the canonical generators g_a of T:
    X_s X_t = tau(s, t) X_(s+t), tau(s, t) = prod_{a>b} beta[a][b]^(s_a t_b).
    tau is a bicharacter, so a 2-cocycle and the table is associative; for
    beta alternating, tau(s, t) / tau(t, s) = beta(s, t), so no symplectic
    ordering of the generators is needed."""
    T = make_group(0, orders)
    elems = list(T.elements())
    index = {g.canonical(): k for k, g in enumerate(elems)}
    below = [(a, b) for a in range(len(T.torsion)) for b in range(a)]
    mul = {}
    for (i, s), (j, t) in itertools.product(enumerate(elems), repeat=2):
        mul[(i, j)] = {index[(s + t).canonical()]: bicharacter(field, beta, s.canonical(), t.canonical(), below)}
    A = StructAlgebra(field, [f"X{list(g.canonical())}" for g in elems], mul)
    gr = Grading(A, T, {"A": elems})
    assert verify_grading(gr).ok
    return A, gr


def minus_one_pair(field):
    """beta = -1 on the two canonical generators."""
    m1 = -field.one
    return [[field.one, m1], [m1, field.one]]


@pytest.fixture(scope="module")
def pauli(field):
    return twisted_group_algebra(field, [2, 2], minus_one_pair(field))


def test_pauli_is_m2(field, pauli):
    A, _gr = pauli
    assert A.dim == 4
    # central simple: the centralizer of everything is the unit line
    from triality.linalg import null_space

    rows = {}
    for j in range(4):
        for i in range(4):
            x = A.basis_vec(i)
            resid = A.add(
                A.product(x, A.basis_vec(j)),
                A.scale(-field.one, A.product(A.basis_vec(j), x)),
            )
            for k, c in resid.items():
                rows.setdefault((j, k), {})[i] = c
    center = null_space(field, 4, list(rows.values()))
    assert len(center) == 1


def matrix_units(field, units):
    """The span of the 2x2 matrix units E_ij, (i, j) in units, as a
    StructAlgebra on that basis (closed under products by assumption)."""
    index = {u: k for k, u in enumerate(units)}
    mul = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                mul[(a, b)] = {index[(i, l)]: field.one}
    return StructAlgebra(field, [f"E{i}{j}" for i, j in units], mul)


# -- the idempotent cut D = eps A eps: the oracle for division_params,
# which reads (T, beta) off the character units.


def graded_simple_check(A):
    """The two-sided ideal generated by the first homogeneous basis element
    is everything; it returns as soon as the ideal has full rank."""
    ideal = Echelon(A.field)
    work = [A.basis_vec(0)]
    while work:
        v = work.pop()
        for i in range(A.dim):
            bi = A.basis_vec(i)
            for x, y in ((bi, v), (v, bi)):
                pv = A.product(x, y)
                if ideal.insert(pv):
                    if ideal.rank == A.dim:
                        return
                    work.append(pv)
    raise BrauerError("algebra is not graded simple at desk scale")


def primitive_idempotent(A, e_indices):
    """A primitive idempotent of the identity component, found through a
    minimal left ideal: for x in a minimal left ideal I of A_e with
    x^2 != 0, right multiplication by x is A_e-linear on I, hence a scalar
    lambda when the component is split, and eps = x / lambda."""
    F = A.field
    sub_idx = list(e_indices)
    pos = {b: i for i, b in enumerate(sub_idx)}

    def to_sub(vec):
        out = {}
        for b, c in vec.items():
            if b not in pos:
                raise BrauerError("product left the identity component")
            out[pos[b]] = c
        return out

    def to_full(vec):
        return {sub_idx[i]: c for i, c in vec.items()}

    def left_ideal(x_sub):
        ech = Echelon(F)
        work = [x_sub] if ech.insert(x_sub) else []
        while work:
            v = to_full(work.pop())
            for b in sub_idx:
                img = to_sub(A.product(A.basis_vec(b), v))
                if img and ech.insert(img):
                    work.append(img)
        return ech

    current = left_ideal({0: F.one})
    shrinking = True
    while shrinking:
        shrinking = False
        for row in current.basis():
            cand = left_ideal(row)
            if 0 < cand.rank < current.rank:
                current = cand
                shrinking = True
                break
    ideal_basis = current.basis()
    row_sum = {}
    for row in ideal_basis:
        axpy(row_sum, None, row)
    for y in ideal_basis + [row_sum]:
        yy = to_sub(A.product(to_full(y), to_full(y)))
        if not yy:
            continue
        # right multiplication by y on the ideal must be the scalar yy/y
        lam = None
        ok = True
        for row in ideal_basis:
            img = to_sub(A.product(to_full(row), to_full(y)))
            lam_here = _proportionality(F, img, row)
            if lam_here is None:
                ok = False
                break
            if lam is None and not lam_here.is_zero():
                lam = lam_here
            elif lam is not None and not lam_here.is_zero() and lam_here != lam:
                ok = False
                break
        if not ok or lam is None or lam.is_zero():
            continue
        eps = {i: c / lam for i, c in to_full(y).items()}
        if A.product(eps, eps) == eps and eps:
            return eps
    raise BrauerError("no split primitive idempotent found (field too small?)")


def cut_division_params(A, grading, eps=None):
    """(T, support, beta) of D = eps A eps, for eps the primitive
    idempotent of the identity component that primitive_idempotent finds,
    or the one given."""
    F = A.field
    G = grading.group
    graded_simple_check(A)
    comps = grading.components("A")
    e_can = G.identity().canonical()
    e_indices = comps.get(e_can)
    if not e_indices:
        raise BrauerError("identity component is zero")
    if eps is None:
        eps = primitive_idempotent(A, e_indices)
    # cut every component
    cut = {}
    for g, idxs in comps.items():
        ech = Echelon(F)
        for i in idxs:
            v = A.product(eps, A.product(A.basis_vec(i), eps))
            if v:
                ech.insert(v)
        if ech.rank > 1:
            raise BrauerError("eps A eps is not graded division (component of dim > 1)")
        if ech.rank == 1:
            cut[g] = ech.basis()[0]
    support = frozenset(cut)
    T_group, _incl = subgroup_generated(G, [G.element(g) for g in support])
    if frozenset(x for x in subgroup_elements([G.element(g) for g in support])) != support:
        raise BrauerError("division support is not a subgroup")
    # invertibility inside D and the commutation bicharacter
    beta = {}
    for s, Xs in cut.items():
        minus = (-G.element(s)).canonical()
        prod = A.product(Xs, cut[minus])
        lam = _proportionality(F, prod, cut[e_can])
        if lam is None or lam.is_zero():
            raise BrauerError("homogeneous element of D is not invertible")
    for s, Xs in cut.items():
        for t, Xt in cut.items():
            st = (G.element(s) + G.element(t)).canonical()
            fwd = A.product(Xs, Xt)
            bwd = A.product(Xt, Xs)
            lf = _proportionality(F, fwd, cut[st])
            lb = _proportionality(F, bwd, cut[st])
            if lf is None or lb is None or lf.is_zero() or lb.is_zero():
                raise BrauerError("division product left its component")
            beta[(s, t)] = lf / lb
    return T_group, support, beta


def test_graded_simple_check(field):
    # the ideal generated by E12 in the upper-triangular matrices is its own line
    with pytest.raises(BrauerError):
        graded_simple_check(matrix_units(field, [(1, 2), (1, 1), (2, 2)]))
    graded_simple_check(matrix_units(field, [(1, 1), (1, 2), (2, 1), (2, 2)]))


def test_division_params_pauli(field, pauli):
    dp = division_params(*pauli)
    assert dp.support_group == make_group(0, [2, 2])
    assert dp.support == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    # beta takes the value -1 on the two generators
    m1 = -field.one
    assert dp.beta[((0, 1), (1, 0))] == dp.beta[((1, 0), (0, 1))] == m1
    assert dp.beta_pm1(field) and dp.elementary_2()


def test_division_params_elementary(field):
    # the grading on End(S) induced by a graded 8-dim space S: T trivial
    G = make_group(0, [2, 2, 2])
    els = sorted(g.canonical() for g in G.elements())
    mul = {}
    labels = []
    idx = {}
    for a in range(8):
        for b in range(8):
            idx[(a, b)] = len(labels)
            labels.append(f"E{a}{b}")
    for a in range(8):
        for b in range(8):
            for c in range(8):
                mul[(idx[(a, b)], idx[(b, c)])] = {idx[(a, c)]: field.one}
    A = StructAlgebra(field, labels, mul)
    degs = []
    for a in range(8):
        for b in range(8):
            degs.append(G.element(els[a]) - G.element(els[b]))
    gr = Grading(A, G, {"A": degs})
    assert verify_grading(gr).ok
    dp = division_params(A, gr)
    assert dp.trivial
    # the cut at E_11 instead of the idempotent the oracle finds, E_00, gives
    # the same answer
    assert cut_division_params(A, gr, {idx[(1, 1)]: field.one}) == (dp.support_group, dp.support, dp.beta)


def pauli_beta(field, orders):
    """beta(a, b) = zeta_d on each pair (a, b) of consecutive generators of
    T = prod Z_d over the (even number of) orders, a divisibility chain that
    make_group keeps as it is: a nondegenerate alternating bicharacter."""
    N = field.conductor
    beta = [[field.one] * len(orders) for _ in orders]
    for a in range(0, len(orders), 2):
        d = orders[a]
        beta[a][a + 1], beta[a + 1][a] = field.zeta(N // d), field.zeta(-N // d)
    return beta


def with_elementary_m2(D, D_grading, G, lead, shift):
    """D (x) M_2(F), graded by G: X_t (x) E_ij in degree t + (i - j) shift,
    with t in G at the coordinates after the first lead ones."""
    mul = {}
    for (a, b), row in D.mul.items():
        for i, j, l in itertools.product(range(2), repeat=3):
            mul[(4 * a + 2 * i + j, 4 * b + 2 * j + l)] = {4 * k + 2 * i + l: c for k, c in row.items()}
    A = StructAlgebra(D.field, [f"{x}E{i}{j}" for x in D.labels for i in range(2) for j in range(2)], mul)
    degs = []
    for t in D_grading.degrees["A"]:
        coords = (0,) * lead + t.canonical()
        g = G.element(coords + (0,) * (G.ndim - len(coords)))
        degs.extend(g + (i - j) * G.element(shift) for i in range(2) for j in range(2))
    gr = Grading(A, G, {"A": degs})
    assert verify_grading(gr).ok
    return A, gr


# name -> (orders of T, None or (G, lead, shift) of with_elementary_m2)
DIVISION_INPUTS = {
    "pauli Z2^2": ([2, 2], None),
    "pauli Z3^2": ([3, 3], None),
    "pauli Z6^2": ([6, 6], None),
    "pauli Z2^4": ([2, 2, 2, 2], None),
    "pauli (x) M2 over Z2^3": ([2, 2], (make_group(0, [2, 2, 2]), 0, (0, 0, 1))),
    "pauli (x) M2 over Z3^3": ([3, 3], (make_group(0, [3, 3, 3]), 0, (0, 0, 1))),
    "pauli (x) M2 over ZxZ2^2": ([2, 2], (make_group(1, [2, 2]), 1, (1, 0, 0))),
}


def division_certificate(A, gr, beta):
    """Whether A, graded by T with X_t in degree t, is the graded division
    algebra with commutation factor beta (on the canonical generators of
    T): its table is associative, X_s X_t = beta(s, t) X_t X_s on every
    pair, and X_s X_-s is a nonzero multiple of X_0."""
    F, elems = A.field, gr.degrees["A"]
    index = {g.canonical(): k for k, g in enumerate(elems)}
    X = [A.basis_vec(k) for k in range(A.dim)]
    pairs = list(itertools.product(range(len(gr.group.torsion)), repeat=2))
    return (
        all(
            A.product(X[i], X[j]) == A.scale(bicharacter(F, beta, s.canonical(), t.canonical(), pairs), A.product(X[j], X[i]))
            for (i, s), (j, t) in itertools.product(enumerate(elems), repeat=2)
        )
        and all(set(A.product(X[i], X[index[(-s).canonical()]])) == {index[gr.group.identity().canonical()]} for i, s in enumerate(elems))
        and all(
            A.product(A.product(X[i], X[j]), X[k]) == A.product(X[i], A.product(X[j], X[k]))
            for i, j, k in itertools.product(range(A.dim), repeat=3)
        )
    )


# the certificate's inputs: the pauli fixture's algebra, the Pauli factors of
# DIVISION_INPUTS, and F^tau(Z3 x Z2^2) with beta = -1 on its generators,
# whose radical is Z3
CERTIFIED = ["pauli"] + [name for name, (_orders, m2) in DIVISION_INPUTS.items() if m2 is None] + ["Z3 x Z2^2"]


@pytest.mark.parametrize("name", CERTIFIED)
def test_twisted_group_algebra_is_certified(name, field):
    # the table is certified; one constant times omega is not: X_s X_t for
    # s != t breaks the commutation relation, and X_0 X_0 or the last square
    # X_s X_s, each still a nonzero multiple of X_2s, only associativity
    if name in DIVISION_INPUTS:
        orders, beta = DIVISION_INPUTS[name][0], pauli_beta(field, DIVISION_INPUTS[name][0])
    else:
        orders, beta = ([2, 2] if name == "pauli" else [3, 2, 2]), minus_one_pair(field)
    A, gr = twisted_group_algebra(field, orders, beta)
    assert division_certificate(A, gr, beta)
    for key in ((1, 2), (0, 0), max(A.mul)):
        ((out, c),) = A.mul[key].items()
        bad = copy.copy(A)
        bad.mul = {**A.mul, key: {out: field.omega * c}}
        assert not division_certificate(bad, gr, beta), key


@pytest.mark.parametrize("name", DIVISION_INPUTS)
def test_division_params_equal_the_cut(name, field, monkeypatch):
    # T, its support in G and beta, read off the character units, equal
    # those of the cut; T is the Pauli factor's group, and each generating
    # character's unit is solved once
    import triality.brauer as brauer

    orders, m2 = DIVISION_INPUTS[name]
    D, D_grading = twisted_group_algebra(field, orders, pauli_beta(field, orders))
    A, gr = (D, D_grading) if m2 is None else with_elementary_m2(D, D_grading, *m2)
    solved = []
    solve = brauer._solve_character_unit
    monkeypatch.setattr(brauer, "_solve_character_unit", lambda A, g, chi: solved.append(chi.exps) or solve(A, g, chi))
    dp = division_params(A, gr)
    assert (dp.support_group, dp.support, dp.beta) == cut_division_params(A, gr)
    assert dp.support_group == make_group(0, orders)
    assert len(set(solved)) == len(solved) == len(gr.group.torsion)


def test_division_params_refuses_an_inhomogeneous_unit(pauli, monkeypatch):
    # each solved unit plus the identity X_0, entries of two degrees: a
    # graded unit system has homogeneous kernel lines, so this is refused
    import triality.brauer as brauer

    solve = brauer._solve_character_unit
    monkeypatch.setattr(brauer, "_solve_character_unit", lambda A, g, chi: axpy(dict(solve(A, g, chi)), None, A.basis_vec(0)))
    with pytest.raises(BrauerError, match="not homogeneous"):
        division_params(*pauli)


def test_division_params_needs_the_characters():
    # the group algebra of Z2 over Q(zeta_3), which lacks the character of
    # order 2
    F3 = make_field(3)
    with pytest.raises(BrauerError, match="does not provide the characters"):
        division_params(*twisted_group_algebra(F3, [2], [[F3.one]]))


def test_commutation_factor_examples(field, pauli):
    A, gr = pauli
    chars = characters(gr.group, field)
    chi_a = next(c for c in chars if c.exps == (1, 0))
    chi_b = next(c for c in chars if c.exps == (0, 1))
    triv = next(c for c in chars if c.exps == (0, 0))
    chi_ab = chi_a * chi_b
    u = {chi: _solve_character_unit(A, gr, chi) for chi in (chi_a, chi_b, triv, chi_ab)}
    m1 = -field.one
    assert commutation_factor(A, u[chi_a], u[chi_b]) == m1
    assert commutation_factor(A, u[triv], u[chi_b]) == field.one
    # bimultiplicativity in the first argument
    v1 = commutation_factor(A, u[chi_ab], u[chi_b])
    v2 = commutation_factor(A, u[chi_a], u[chi_b]) * commutation_factor(A, u[chi_b], u[chi_b])
    assert v1 == v2


def test_related_triple_trivial_divisions(field, okubo_triple):
    for alg, gr in zip(okubo_triple.algebras, okubo_triple.gradings):
        assert gr.verified
        dp = division_params(alg, gr)
        assert dp.trivial


def test_related_triple_rejects_corrupted_degree(fines):
    # one adapted derivation moved to a wrong degree of G/<h> = Z3^2: the
    # closure under products no longer splits End(S) into independent pieces
    built = fines["okubo"]
    Q, _pr = built.brauer_quotient
    coarse = coarse_adapted(built)
    g0, t0 = coarse[0]
    coarse[0] = (g0 + Q.element((0, 1)), t0)
    with pytest.raises(BrauerError):
        related_triple(coarse, built.V.S)


def test_related_triple_from_trivial_grading(field, fines, mod, tri_zorn):
    triple = related_triple(*related_input("trivial", fines, mod, tri_zorn))
    for alg, gr in zip(triple.algebras, triple.gradings):
        assert len(gr.components()) == 1
        dp = division_params(alg, gr)
        assert dp.trivial


def test_cartan_type_I_elementary(field, fines, mod, tri_zorn):
    # over G/<h> = Z^2, not the record's Brauer quotient, which quotients the
    # free directions away as well and leaves the trivial group: a
    # torsion-free grading group must by itself force T trivial
    triple = related_triple(*related_input("cartan", fines, mod, tri_zorn))
    for alg, gr in zip(triple.algebras, triple.gradings):
        dp = division_params(alg, gr)
        assert dp.trivial  # torsion-free support forces T trivial


def test_brauer_relations_z2cubed(field, z2cubed_triple):
    rep = verify_brauer_relations(z2cubed_triple, field)
    assert rep.ok()


def test_brauer_relations_catch_corrupted_constant(field, okubo_triple):
    # one structure constant of the second related algebra, a product of
    # basis elements of different degrees, times omega: the character units
    # of that algebra no longer exist
    assert verify_brauer_relations(okubo_triple, field).ok()
    A, gr = okubo_triple.algebras[1], okubo_triple.gradings[1]
    degs = gr.degrees["A"]
    key = min(k for k in A.mul if degs[k[0]] != degs[k[1]])
    row = A.mul[key]
    out = min(row)
    bad = copy.copy(A)
    bad.mul = {**A.mul, key: {**row, out: field.omega * row[out]}}
    algebras, gradings = list(okubo_triple.algebras), list(okubo_triple.gradings)
    algebras[1], gradings[1] = bad, Grading(bad, gr.group, gr.degrees)
    with pytest.raises(BrauerError, match="no character unit"):
        verify_brauer_relations(RelatedTriple(algebras, gradings), field)


def coarse_adapted(built):
    """The adapted tri(S) basis of a fine grading, with degrees in the
    record's Brauer quotient (G/<h> for the finite groups used here)."""
    _gt, adapted = induce_tri_grading(built.grading, tri_basis(built.V.S))
    _Q, pr = built.brauer_quotient
    return [(pr(g), t) for g, t in adapted]


def related_input(kind, fines, mod, tri_zorn):
    """(adapted, S) for related_triple: the okubo and z2cubed fine gradings
    over their Brauer quotients, the cartan fine grading over G/<h> = Z^2,
    and the trivial grading on para-Zorn."""
    if kind == "trivial":
        T = make_group(0, [])
        return [(T.identity(), vec) for vec in tri_zorn.vectors], mod["para_zorn"]
    built = fines[kind]
    if kind != "cartan":
        return coarse_adapted(built), built.V.S
    _gt, adapted = induce_tri_grading(built.grading, tri_zorn)
    _Q, pr = quotient(built.grading.group, [built.h])
    return [(pr(g), t) for g, t in adapted], built.V.S


def full_closure_rows(adapted, S, comp):
    """(degree, row) of the adapted basis of the comp-th related algebra,
    from the closure run until no product grows a span: every element that
    grows one is multiplied on the left by every seed, with no stop at full
    rank."""
    F, nn = S.field, S.dim * S.dim
    spans, seeds = {}, []
    for g, trip in adapted:
        vec = {idx % nn: c for idx, c in trip.items() if idx // nn == comp}
        if vec and spans.setdefault(g, Echelon(F)).insert(vec):
            seeds.append((g, vec))
    work = list(seeds)
    while work:
        g1, v1 = work.pop()
        for g2, s in seeds:
            pv = compose(s, v1, S.dim)
            if pv and spans.setdefault(g2 + g1, Echelon(F)).insert(pv):
                work.append((g2 + g1, pv))
    return [(g, row) for g in sorted(spans, key=GroupElem.canonical) for row in spans[g].basis()]


@pytest.mark.parametrize("kind", ["okubo", "z2cubed", "cartan", "trivial"])
def test_related_tables_equal_full_closure(kind, fines, mod, tri_zorn):
    # related_triple inserts seed pair products until full rank; its tables
    # are those of the rows of the full closure, read off by linear
    # combinations, and its degrees are the full closure's
    adapted, S = related_input(kind, fines, mod, tri_zorn)
    F, n = S.field, S.dim
    triple = related_triple(adapted, S)
    Gram = [[S.forms["n"].get((i, j), F.zero) for j in range(n)] for i in range(n)]
    Ginv, Gram = to_flat(invert_dense(F, Gram)), to_flat(Gram)
    for comp, (A, gr) in enumerate(zip(triple.algebras, triple.gradings)):
        degs, rows = zip(*full_closure_rows(adapted, S, comp))
        assert degs == tuple(gr.degrees["A"]), (kind, comp)

        def combination(coords):
            out = {}
            for k, c in coords.items():
                axpy(out, c, rows[k])
            return out

        for a, x in enumerate(rows):
            for b, y in enumerate(rows):
                assert compose(x, y, n) == combination(A.mul.get((a, b), {})), (kind, comp, a, b)
            xt = {(idx % n) * n + idx // n: c for idx, c in x.items()}
            assert compose(Ginv, compose(xt, Gram, n), n) == combination(A.involution[a])


def full_system_units(A, gr, chi):
    """The kernel of u a = chi(deg a) a u on every basis element a."""
    negs = [-chi(g) for g in gr.degrees["A"]]
    cols = []
    for i in range(A.dim):
        col = {}
        for j, neg in enumerate(negs):
            for out, c in axpy(dict(A.mul.get((i, j), {})), neg, A.mul.get((j, i), {})).items():
                col[(j, out)] = c
        cols.append(col)
    return kernel(A.field, cols)


def test_character_units_equal_full_system(field, okubo_triple):
    import triality.brauer as brauer

    chars = characters(okubo_triple.gradings[0].group, field)
    for A, gr in zip(okubo_triple.algebras, okubo_triple.gradings):
        for chi in chars:
            full = full_system_units(A, gr, chi)
            assert len(full) == 1
            assert brauer._solve_character_unit(A, gr, chi) == full[0]


def all_characters_relations(triple, field):
    """The decision on every character, kept as the oracle: (factors,
    squares, product, params) with a unit for every character of the
    grading group (the first line of its full system, verified invertible),
    a commutation factor for every character pair, [E_1] = [E_2][E_3] on
    every pair, and the cut's (T, support, beta) of each algebra, from
    which [E_i]^2 = 1 is read."""
    chars = characters(triple.gradings[0].group, field)
    units = []
    for A, gr in zip(triple.algebras, triple.gradings):
        per = {}
        for chi in chars:
            sols = full_system_units(A, gr, chi)
            if not sols:
                raise BrauerError("no character unit")
            if echelon_from(field, [A.product(sols[0], A.basis_vec(i)) for i in range(A.dim)]).rank != A.dim:
                raise BrauerError("character unit is not invertible")
            per[chi] = sols[0]
        units.append(per)
    factors, product = {}, True
    for c1, c2 in itertools.combinations(chars, 2):
        vals = [commutation_factor(A, per[c1], per[c2]) for A, per in zip(triple.algebras, units)]
        factors[(c1.exps, c2.exps)] = [v.to_strings() for v in vals]
        product = product and vals[0] == vals[1] * vals[2]
    params = [cut_division_params(A, gr) for A, gr in zip(triple.algebras, triple.gradings)]
    one = field.one
    squares = all(set(T.torsion) <= {2} and all(v == one or v == -one for v in beta.values()) for T, _s, beta in params)
    return factors, squares, product, params


# the four lines k of K = <k1, k2> of a rank-0 grading over Z3^3, as in the
# tri-brauer benchmark round, which takes the Brauer data on G/<h, k> = Z3
QUOTIENT_LINES = [(1, 0), (0, 1), (1, 1), (1, 2)]


@pytest.fixture(scope="module")
def brauer_inputs(fines, okubo_triple, z2cubed_triple):
    """{name: related triple}: the fine triples, and the quotients G/<h, k>
    of a rank-0 grading with k1 = (1, 1, 0), k2 = (0, 1, 2), h = (0, 0, 1)."""
    G = make_group(0, [3, 3, 3])
    k1, k2, h = G.element((1, 1, 0)), G.element((0, 1, 2)), G.element((0, 0, 1))
    built = build(params_r0(G, k1, k2, h, "-"))
    _gt, adapted = induce_tri_grading(built.grading, tri_basis(built.V.S))
    inputs = {"okubo": okubo_triple, "z2cubed": z2cubed_triple, "cartan": fines["cartan"].related}
    for a, b in QUOTIENT_LINES:
        _Q, pr = quotient(G, [h, a * k1 + b * k2])
        inputs[f"rank0/<h,{a}k1+{b}k2>"] = related_triple([(pr(g), t) for g, t in adapted], built.V.S)
    return inputs


@pytest.mark.parametrize(
    "name, solves",
    [("okubo", 6), ("z2cubed", 9), ("cartan", 0)] + [(f"rank0/<h,{a}k1+{b}k2>", 3) for a, b in QUOTIENT_LINES],
)
def test_relations_on_generators_equal_all_characters(name, solves, field, brauer_inputs, monkeypatch):
    # the factors of every character pair (keys, order, values), both
    # relation booleans and each algebra's (T, support, beta) equal the
    # oracle's, from one unit solve per (algebra, generating character): 3
    # algebras x the number of invariant factors of the grading group,
    # Z3^2, Z2^3, trivial and Z3
    import triality.brauer as brauer

    triple = brauer_inputs[name]
    solved = []
    solve = brauer._solve_character_unit
    monkeypatch.setattr(brauer, "_solve_character_unit", lambda A, g, chi: solved.append((id(A), chi.exps)) or solve(A, g, chi))
    rep = verify_brauer_relations(triple, field)
    factors, squares, product, params = all_characters_relations(triple, field)
    assert list(rep.details["factors"].items()) == list(factors.items())
    assert (rep.elementary2 and rep.beta_pm1, rep.product_relation) == (squares, product)
    assert [(p.support_group, p.support, p.beta) for p in rep.params] == params
    assert len(set(solved)) == len(solved) == solves
    assert all(sum(exps) == 1 for _a, exps in solved)  # exps a unit vector


def test_character_unit_refuses_a_centre_larger_than_F(field):
    # F^tau(Z2 x Z6) with beta = -1 on its generators has centre F[Z3]: the
    # unit system of the character with exps (1, 0) has a 3-line kernel,
    # X_s Z(A), and no unit is unique up to a scalar
    alg, gr = twisted_group_algebra(field, [3, 2, 2], minus_one_pair(field))
    chi = next(c for c in characters(gr.group, field) if c.exps == (1, 0))
    assert len(full_system_units(alg, gr, chi)) == 3
    with pytest.raises(BrauerError, match="not unique up to a scalar"):
        _solve_character_unit(alg, gr, chi)


def rejects(decide):
    """Whether a decision refuses its input: False, or BrauerError."""
    try:
        return not decide()
    except BrauerError:
        return True


def test_generator_path_loses_no_mutant(field, okubo_triple):
    # the first constant of every 16th product of the second related
    # algebra, times omega: every mutant the all-characters oracle rejects
    # (28 of these 32) is rejected on the generating characters too
    A, gr = okubo_triple.algebras[1], okubo_triple.gradings[1]
    caught = 0
    for key in list(A.mul)[::16]:
        row = A.mul[key]
        out = next(iter(row))
        bad = copy.copy(A)
        bad.mul = {**A.mul, key: {**row, out: field.omega * row[out]}}
        algebras, gradings = list(okubo_triple.algebras), list(okubo_triple.gradings)
        algebras[1], gradings[1] = bad, Grading(bad, gr.group, gr.degrees)
        mutant = RelatedTriple(algebras, gradings)
        oracle = rejects(lambda: all(all_characters_relations(mutant, field)[1:3]))
        assert rejects(lambda: verify_brauer_relations(mutant, field).ok()) >= oracle, key
        caught += oracle
    assert caught == 28

# per component: 207 seed pair products s_i s_j, i <= j, up to full rank
# (the work-stack closure formed 1,028, and 1,792 without the stop), the 512
# pairs of the 64 x 64 table whose inner matrix indices meet (the other
# 3,584 products are 0 and not formed) and two products for each of the 64
# involution images; none of them is 0
COMPOSE_CALLS = 3 * (207 + 512 + 2 * 64)


def related_products(monkeypatch, adapted, S):
    """Every product related_triple forms, counted through the module
    global compose."""
    import triality.brauer as brauer

    products = []
    monkeypatch.setattr(brauer, "compose", lambda A, B, n: products.append(compose(A, B, n)) or products[-1])
    related_triple(adapted, S)
    return products


def test_related_triple_compose_count(fines, monkeypatch):
    # the work of one Okubo related triple over G/<h>
    products = related_products(monkeypatch, coarse_adapted(fines["okubo"]), fines["okubo"].V.S)
    assert len(products) == COMPOSE_CALLS
    assert all(products)


def test_related_pair_pass_forms_no_product_the_masks_rule_out(fines, mod, tri_zorn, monkeypatch):
    # the trivial grading on para-Zorn, whose seeds are sparser matrices: 149
    # seed pair products per component are formed, and 302 pairs in all
    # whose index masks do not meet are not; then the 512 table pairs and
    # the 64 involution images per component
    products = related_products(monkeypatch, *related_input("trivial", fines, mod, tri_zorn))
    assert len(products) == 3 * (149 + 512 + 2 * 64)
    assert all(products)


def test_related_triple_refuses_a_partial_seed_set(fines):
    # five seeds and their 15 pair products span at most 20 < 64 dimensions:
    # the pair pass relies on the rank count when the input is not all of
    # tri(S)
    built = fines["okubo"]
    with pytest.raises(BrauerError, match="propagation reached dimension"):
        related_triple(coarse_adapted(built)[:5], built.V.S)


def in_key_order(table):
    return [(key, list(row.items())) for key, row in table.items()]


class Coordinates:
    """Coordinates in a fixed basis of a subspace: the basis vectors, each
    with a marker column of its own, are reduced to echelon form, so a
    vector of the span reduces to minus its coordinates on the markers."""

    def __init__(self, field, ncols, basis):
        self.ncols = ncols
        self._ech = Echelon(field)
        for k, vec in enumerate(basis):
            v = dict(vec)
            v[ncols + k] = field.one
            self._ech.insert(v)

    def __call__(self, vec):
        """{basis index: coefficient} of vec, or None if vec is outside the
        span."""
        coords = {}
        for col, c in self._ech.reduce(vec).items():
            if col < self.ncols:
                return None
            coords[col - self.ncols] = -c
        return coords


def all_rows_induced(grading, tri):
    """The adapted table and degrees of induce_tri_grading with every bracket
    expanded through one Coordinates over all 28 adapted rows."""
    F = tri.field
    buckets = _homogeneous_pieces(tri, [g.canonical() for g in operator_degrees(grading)], "not in tri(S)")
    rows, degrees = [], []
    for g in sorted(buckets):
        for row in echelon_from(F, buckets[g]).basis():
            rows.append(row)
            degrees.append(g)
    coords = Coordinates(F, tri.dim, rows)
    mul = {}
    for a in range(28):
        for b in range(a + 1, 28):
            row = coords(tri.lie.product(rows[a], rows[b]))
            if row:
                mul[(a, b)] = row
                mul[(b, a)] = {k: -c for k, c in row.items()}
    return mul, degrees


def all_rows_related(rows, S):
    """The table and involution of a related algebra on the given adapted
    rows, every product and sigma_n image expanded through one Coordinates
    over all n*n rows."""
    F, n = S.field, S.dim
    Gram = [[S.forms["n"].get((i, j), F.zero) for j in range(n)] for i in range(n)]
    Ginv, Gram = to_flat(invert_dense(F, Gram)), to_flat(Gram)
    coords = Coordinates(F, n * n, rows)
    mul = {}
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            row = coords(compose(x, y, n))
            if row:
                mul[(a, b)] = row
    invol = {}
    for a, x in enumerate(rows):
        xt = {(idx % n) * n + idx // n: c for idx, c in x.items()}
        invol[a] = coords(compose(Ginv, compose(xt, Gram, n), n))
    return mul, invol


@pytest.mark.parametrize("kind", ["cartan", "z2cubed", "okubo"])
def test_adapted_tables_equal_all_rows_coordinates(kind, fines):
    # induce_tri_grading and related_triple write each product over the rows
    # of its degree only; one Coordinates over all rows gives the same
    # tables, involutions and degrees, in the same key order
    built = fines[kind]
    S = built.V.S
    tri = tri_basis(S)
    gt, adapted = induce_tri_grading(built.grading, tri)
    mul, degrees = all_rows_induced(built.grading, tri)
    assert in_key_order(gt.structure.mul) == in_key_order(mul)
    assert [g.canonical() for g in gt.degrees["A"]] == degrees
    _Q, pr = quotient(built.grading.group, [built.h])
    coarse = [(pr(g), t) for g, t in adapted]
    triple = related_triple(coarse, S)
    for comp, (A, gr) in enumerate(zip(triple.algebras, triple.gradings)):
        degs, rows = zip(*full_closure_rows(coarse, S, comp))
        mul, invol = all_rows_related(rows, S)
        assert in_key_order(A.mul) == in_key_order(mul), (kind, comp)
        assert in_key_order(A.involution) == in_key_order(invol), (kind, comp)
        assert [g.canonical() for g in gr.degrees["A"]] == [g.canonical() for g in degs]


def test_adapted_rows_refuse_a_product_outside_its_degree(field):
    # two lines of degrees 0 and 1 in Z3: a product of degree 0 + 0 on the
    # line of degree 1, or a nonzero product of degree 1 + 1, which has no
    # span, is refused with the caller's error
    Z3 = make_group(0, [3])
    one, w = field.one, field.omega
    ad = AdaptedRows([(Z3.element((0,)), echelon_from(field, [{0: one, 2: w}])),
                      (Z3.element((1,)), echelon_from(field, [{1: one}]))], BrauerError)
    assert ad.rows == [{0: one, 2: w}, {1: one}]
    assert ad.expand({0: w, 2: w * w}, (0, 0), "outside") == {0: w}
    assert ad.expand({1: w}, (0, 1), "outside") == {1: w}
    assert ad.expand({}, (1, 1), "outside") == {}
    with pytest.raises(BrauerError, match="outside"):
        ad.expand({1: w}, (0, 0), "outside")
    with pytest.raises(BrauerError, match="outside"):
        ad.expand({0: one}, (0, 0), "outside")
    with pytest.raises(BrauerError, match="outside"):
        ad.expand({1: w}, (1, 1), "outside")
    tri_ad = AdaptedRows([(Z3.element((0,)), echelon_from(field, [{0: one}]))], TrialityError)
    with pytest.raises(TrialityError, match="leaves"):
        tri_ad.expand({1: one}, (0,), "leaves")


def test_related_triple_refuses_sigma_outside_its_degree(field, fines):
    # a polar form that pairs the first basis element with itself: the table
    # is unchanged, and the first sigma_n image outside the span of its
    # row's degree is refused
    built = fines["okubo"]
    S = built.V.S
    assert (0, 0) not in S.forms["n"]
    bad = copy.copy(S)
    bad.forms = {**S.forms, "n": {**S.forms["n"], (0, 0): field.one}}
    with pytest.raises(BrauerError, match="sigma_n does not preserve the propagated components"):
        related_triple(coarse_adapted(built), bad)


def test_induced_bracket_outside_its_degree_is_refused(fines):
    # one bracket constant of tri(S) moved to another basis element: the
    # homogeneous pieces are unchanged, and the first adapted bracket it
    # enters leaves the span of its degree
    built = fines["okubo"]
    tri = tri_basis(built.V.S)
    key = min(tri.lie.mul)
    row = tri.lie.mul[key]
    k = min(set(range(tri.dim)) - set(row))
    bad = copy.copy(tri)
    bad.lie = copy.copy(tri.lie)
    bad.lie.mul = {**tri.lie.mul, key: {**row, k: row[min(row)]}}
    with pytest.raises(TrialityError, match="span of its degree"):
        induce_tri_grading(built.grading, bad)
