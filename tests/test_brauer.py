import itertools

import pytest

from triality.brauer import (
    BrauerError,
    check_beta_bar,
    commutation_factor,
    division_params,
    graded_division_from_pair,
    related_triple,
    verify_brauer_relations,
)
from triality.fgab import characters, make_group, quotient
from triality.grading import Grading, StructAlgebra, verify_grading
from triality.trilie import induce_tri_grading
from triality.linalg import Echelon


@pytest.fixture(scope="module")
def pauli(field):
    T = make_group(0, [2, 2])
    m1 = -field.one
    return graded_division_from_pair(T, [[field.one, m1], [m1, field.one]], field)


def test_pauli_is_m2(field, pauli):
    A = pauli.struct
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


def test_trivial_and_group_algebra(field):
    T0 = make_group(0, [])
    alg0 = graded_division_from_pair(T0, [], field)
    assert alg0.struct.dim == 1
    T3 = make_group(0, [3])
    alg3 = graded_division_from_pair(T3, [[field.one]], field)
    assert alg3.struct.dim == 3
    # group algebra of Z3 is F x F x F: three orthogonal idempotents
    rep = check_beta_bar(alg3)
    assert rep.k == 3 and rep.ok()
    assert rep.details["component_dim"] == 1


def test_beta_validation(field):
    T = make_group(0, [2, 2])
    w = field.omega
    with pytest.raises(BrauerError):
        # omega has order 3, incompatible with Z2 factors
        graded_division_from_pair(T, [[field.one, w], [w * w, field.one]], field)
    with pytest.raises(BrauerError):
        # not alternating
        graded_division_from_pair(T, [[-field.one, field.one], [field.one, field.one]], field)


def test_division_params_pauli(field, pauli):
    dp = division_params(pauli.struct, pauli.grading)
    assert dp.support_group == make_group(0, [2, 2])
    m1 = -field.one
    gens = sorted(dp.support)
    # beta takes the value -1 on the two generators
    assert dp.beta[(gens[1], gens[2])] == m1 if len(gens) > 2 else True
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
    A = StructAlgebra(field, labels, mul, "associative")
    degs = []
    for a in range(8):
        for b in range(8):
            degs.append(G.element(els[a]) - G.element(els[b]))
    gr = Grading(A, G, {"A": degs})
    assert verify_grading(gr).ok
    dp = division_params(A, gr)
    assert dp.trivial
    # and the answer does not depend on which primitive idempotent is cut:
    # E_11 instead of E_00
    eps2 = {idx[(1, 1)]: field.one}
    from triality.brauer import DivisionParams

    cut2 = division_params_with_idempotent(A, gr, eps2, field)
    assert cut2 == dp.support_group


def division_params_with_idempotent(A, gr, eps, field):
    """Recompute the support using a caller-chosen primitive idempotent."""
    G = gr.group
    comps = gr.components("A")
    support = set()
    for g, idxs in comps.items():
        ech = Echelon(field, A.dim)
        for i in idxs:
            v = A.product(eps, A.product(A.basis_vec(i), eps))
            if v:
                ech.insert(v)
        assert ech.rank <= 1
        if ech.rank == 1:
            support.add(g)
    from triality.fgab import subgroup_generated

    H, _ = subgroup_generated(G, [G.element(s) for s in support])
    return H


def test_commutation_factor_examples(field, pauli):
    G = pauli.grading.group
    chars = characters(G, field)
    chi_a = next(c for c in chars if c.exps == (1, 0))
    chi_b = next(c for c in chars if c.exps == (0, 1))
    triv = next(c for c in chars if c.exps == (0, 0))
    m1 = -field.one
    assert commutation_factor(pauli.struct, pauli.grading, chi_a, chi_b) == m1
    assert commutation_factor(pauli.struct, pauli.grading, triv, chi_b) == field.one
    # bimultiplicativity in the first argument
    chi_ab = chi_a * chi_b
    v1 = commutation_factor(pauli.struct, pauli.grading, chi_ab, chi_b)
    v2 = commutation_factor(pauli.struct, pauli.grading, chi_a, chi_b) * commutation_factor(
        pauli.struct, pauli.grading, chi_b, chi_b
    )
    assert v1 == v2


def test_beta_bar_tensor_case(field):
    T6 = make_group(0, [3, 2, 2])
    m1 = -field.one
    alg6 = graded_division_from_pair(T6, [[field.one, m1], [m1, field.one]], field)
    rep = check_beta_bar(alg6)
    assert rep.k == 3 and rep.ok()
    assert rep.details["component_dim"] == 4  # Pauli factors


@pytest.fixture(scope="module")
def okubo_triple(fines, tri_okubo):
    built = fines["okubo"]["built"]
    _gt, adapted = induce_tri_grading(built.grading, tri_okubo)
    G = built.params.group
    _Q, pr = quotient(G, [built.params.h])
    return related_triple([(pr(g), t) for g, t in adapted], built.V.S)


def test_related_triple_trivial_divisions(field, okubo_triple):
    for alg, gr in zip(okubo_triple.algebras, okubo_triple.gradings):
        assert gr.verified
        dp = division_params(alg, gr)
        assert dp.trivial


def test_related_triple_rejects_corrupted_degree(fines, tri_okubo):
    # one adapted derivation moved to a wrong degree of G/<h> = Z3^2: the
    # closure under products no longer splits End(S) into independent pieces
    built = fines["okubo"]["built"]
    _gt, adapted = induce_tri_grading(built.grading, tri_okubo)
    Q, pr = quotient(built.params.group, [built.params.h])
    coarse = [(pr(g), t) for g, t in adapted]
    g0, t0 = coarse[0]
    coarse[0] = (g0 + Q.element((0, 1)), t0)
    with pytest.raises(BrauerError):
        related_triple(coarse, built.V.S)


def test_related_triple_from_trivial_grading(field, mod, tri_zorn):
    T = make_group(0, [])
    adapted = [(T.identity(), vec) for vec in tri_zorn.vectors]
    triple = related_triple(adapted, mod["para_zorn"])
    for alg, gr in zip(triple.algebras, triple.gradings):
        assert len(gr.components()) == 1
        dp = division_params(alg, gr)
        assert dp.trivial


def test_cartan_type_I_elementary(field, fines, tri_zorn):
    built = fines["cartan"]["built"]
    _gt, adapted = induce_tri_grading(built.grading, tri_zorn)
    G = built.params.group
    _Q, pr = quotient(G, [built.params.h])
    triple = related_triple([(pr(g), t) for g, t in adapted], built.V.S)
    for alg, gr in zip(triple.algebras, triple.gradings):
        dp = division_params(alg, gr)
        assert dp.trivial  # torsion-free support forces T trivial


def test_brauer_relations_z2cubed(field, fines):
    from triality.trilie import tri_basis

    built = fines["z2cubed"]["built"]
    tri = tri_basis(built.V.S)
    _gt, adapted = induce_tri_grading(built.grading, tri)
    G = built.params.group
    _Q, pr = quotient(G, [built.params.h])
    triple = related_triple([(pr(g), t) for g, t in adapted], built.V.S)
    rep = verify_brauer_relations(triple, field)
    assert rep.ok()


def test_character_units_solved_once_per_character(field, monkeypatch):
    import triality.brauer as brauer

    m1 = -field.one
    alg = graded_division_from_pair(make_group(0, [2, 2]), [[field.one, m1], [m1, field.one]], field)
    solved = []
    solve = brauer._solve_character_unit
    monkeypatch.setattr(brauer, "_solve_character_unit", lambda A, g, chi: solved.append(chi) or solve(A, g, chi))
    chars = characters(alg.grading.group, field)
    factors = [commutation_factor(alg.struct, alg.grading, c1, c2) for c1, c2 in itertools.combinations(chars, 2)]
    assert sorted(c.exps for c in solved) == sorted(c.exps for c in chars)
    assert sorted(str(f) for f in factors) == ["-1", "-1", "-1", "1", "1", "1"]
