import copy
import itertools

import pytest

from triality.composition import (
    CompositionError,
    SymCompAlgebra,
    cartan_grading_cayley,
    cayley_dickson,
    doubled_cayley,
    ground_field_algebra,
    is_hurwitz,
    is_symmetric_composition,
    okubo_grading,
    okubo_sl3,
    para,
    zorn_cayley,
)
from triality.fgab import make_group
from triality.grading import Report, StructAlgebra, universal_group
from triality.linalg import axpy
from triality.scalars import make_field


def test_zorn_unit_and_polar(field):
    C = zorn_cayley(field)
    one = C.unit
    assert C.form_value("n", one, one) / field.scalar(2) == field.one
    # hyperbolic pairing: n(e1, e2) = 1, n(u_i, v_i) != 0, everything else 0
    for i in range(8):
        for j in range(8):
            val = C.forms["n"].get((i, j), field.zero)
            if {i, j} == {0, 1} or (i >= 2 and j >= 2 and abs(i - j) == 3):
                assert not val.is_zero()
            else:
                assert val.is_zero()


def test_zorn_is_hurwitz(field, mod):
    for A in (zorn_cayley(field), doubled_cayley(field)):
        rep = is_hurwitz(A)
        assert rep.violations == []
        assert rep.checked == 8 ** 4 + 8 * 8 + 3 * 8


def test_corrupted_hurwitz_product_located(field):
    from triality.composition import HurwitzAlgebra

    C = zorn_cayley(field)
    mul = {k: dict(v) for k, v in C.mul.items()}
    out = next(iter(mul[(2, 3)]))  # u1 u2
    mul[(2, 3)][out] = mul[(2, 3)][out] + field.one
    rep = is_hurwitz(HurwitzAlgebra(field, C.labels, mul, C.forms["n"], C.unit, C.involution))
    assert not rep.ok
    assert {v[0] for v in rep.violations} == {"norm_multiplicative"}
    assert ("norm_multiplicative", (2, 3, 0, 4), "-1") in rep.violations
    assert len(rep.violations) == 16


# -- the dense checks, a loop over every basis tuple: the oracle for the
# residue tables of is_hurwitz and is_symmetric_composition, and the
# determinant of the Gram matrix for their rank test of the polar form.


def det_dense(field, mat):
    """Exact determinant by Gaussian elimination."""
    n = len(mat)
    a = [list(row) for row in mat]
    det = field.one
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            return field.zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inverse()
        for r in range(col + 1, n):
            if not a[r][col].is_zero():
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def dense_nonsingular(S) -> bool:
    n = S.dim
    gram = [[S.forms["n"].get((i, j), S.field.zero) for j in range(n)] for i in range(n)]
    return not det_dense(S.field, gram).is_zero()


def dense_norm_multiplicative(pol, bas, prod) -> list:
    n = len(bas)
    viol = []
    for i, k in itertools.product(range(n), repeat=2):
        nik = pol(bas[i], bas[k])
        for j, l in itertools.product(range(n), repeat=2):
            lhs = pol(prod[i][j], prod[k][l]) + pol(prod[k][j], prod[i][l])
            if lhs != nik * pol(bas[j], bas[l]):
                viol.append(("norm_multiplicative", (i, j, k, l), repr(lhs)))
    return viol


def dense_symmetric_report(S) -> Report:
    n = S.dim
    bas = [S.basis_vec(i) for i in range(n)]
    prod = [[S.product(bas[i], bas[j]) for j in range(n)] for i in range(n)]
    pol = lambda x, y: S.form_value("n", x, y)
    viol = []
    if not dense_nonsingular(S):
        viol.append(("nonsingular", (), "polar form is singular"))
    viol += dense_norm_multiplicative(pol, bas, prod)
    for i, j, k in itertools.product(range(n), repeat=3):
        if pol(prod[i][j], bas[k]) != pol(bas[i], prod[j][k]):
            viol.append(("polar_associative", (i, j, k), ""))
    for i, k, j in itertools.product(range(n), repeat=3):
        target = S.scale(pol(bas[i], bas[k]), bas[j])
        left = S.add(S.product(prod[i][j], bas[k]), S.product(prod[k][j], bas[i]))
        if left != target:
            viol.append(("left_identity", (i, j, k), ""))
        right = S.add(S.product(bas[i], prod[j][k]), S.product(bas[k], prod[j][i]))
        if right != target:
            viol.append(("right_identity", (i, j, k), ""))
    return Report(viol, n ** 4 + 3 * n ** 3)


def dense_hurwitz_report(A) -> Report:
    minus_one = A.field.scalar(-1)
    n = A.dim
    bas = [A.basis_vec(i) for i in range(n)]
    prod = [[A.product(bas[i], bas[j]) for j in range(n)] for i in range(n)]
    pol = lambda x, y: A.form_value("n", x, y)
    viol = []
    if not dense_nonsingular(A):
        viol.append(("nonsingular", (), ""))
    for i in range(n):
        if A.product(A.unit, bas[i]) != bas[i] or A.product(bas[i], A.unit) != bas[i]:
            viol.append(("unital", (i,), ""))
        xb = A.conj(bas[i])
        if A.conj(xb) != bas[i]:
            viol.append(("involutive", (i,), ""))
        for j in range(n):
            if pol(xb, A.conj(bas[j])) != pol(bas[i], bas[j]):
                viol.append(("norm_of_conjugate", (i, j), ""))
        expected = axpy(A.scale(pol(bas[i], A.unit), A.unit), minus_one, bas[i])
        if xb != expected:
            viol.append(("standard_involution", (i,), ""))
    viol += dense_norm_multiplicative(pol, bas, prod)
    return Report(viol, n ** 4 + n * n + 3 * n)


def corrupted_constants(A, bump):
    """Copies of A with one nonzero product or polar-form constant c
    replaced by bump(c), an entry that becomes 0 dropped."""
    for key, row in A.mul.items():
        for out, c in row.items():
            new = {k: v for k, v in {**row, out: bump(c)}.items() if not v.is_zero()}
            bad = copy.copy(A)
            bad.mul = {**A.mul, key: new} if new else {k: v for k, v in A.mul.items() if k != key}
            yield bad
    form = A.forms["n"]
    for key, c in form.items():
        new = bump(c)
        bad = copy.copy(A)
        bad.forms = {"n": {**form, key: new} if not new.is_zero() else {k: v for k, v in form.items() if k != key}}
        yield bad


def test_models_agree_with_dense(field, mod):
    # the Zorn table read as a symmetric algebra fails with 292 violations
    C = zorn_cayley(field)
    for A, verify, dense in (
        (C, is_hurwitz, dense_hurwitz_report),
        (doubled_cayley(field), is_hurwitz, dense_hurwitz_report),
        (mod["para_zorn"], is_symmetric_composition, dense_symmetric_report),
        (mod["okubo"], is_symmetric_composition, dense_symmetric_report),
        (SymCompAlgebra(field, C.labels, C.mul, C.forms["n"]), is_symmetric_composition, dense_symmetric_report),
    ):
        rep, oracle = verify(A), dense(A)
        assert (rep.violations, rep.checked) == (oracle.violations, oracle.checked)
    assert len(rep.violations) == 292


@pytest.mark.parametrize("name", ["zorn", "para_zorn", "okubo"])
def test_every_corrupted_constant_agrees_with_dense(field, mod, name):
    # exhaustive: every nonzero product and polar-form constant, plus 1 and
    # times omega in turn; each mutant fails with the oracle's violations,
    # in its order
    A = zorn_cayley(field) if name == "zorn" else mod[name]
    verify, dense = (is_hurwitz, dense_hurwitz_report) if name == "zorn" else (is_symmetric_composition, dense_symmetric_report)
    tried = 0
    for bump in (lambda c: c + field.one, lambda c: c * field.omega):
        for bad in corrupted_constants(A, bump):
            rep, oracle = verify(bad), dense(bad)
            assert not rep.ok
            assert (rep.violations, rep.checked) == (oracle.violations, oracle.checked)
            tried += 1
    assert tried == 2 * (32 + 8)


def test_singular_form_agrees_with_dense(field, mod):
    # the polar form with the row of the second basis element replaced by
    # that of the first: no row is zero, the determinant is, and both
    # verifiers report the form singular with the oracle's violations
    for A, verify, dense in (
        (zorn_cayley(field), is_hurwitz, dense_hurwitz_report),
        (mod["okubo"], is_symmetric_composition, dense_symmetric_report),
    ):
        form = A.forms["n"]
        bad = copy.copy(A)
        bad.forms = {"n": {**{k: c for k, c in form.items() if k[0] != 1}, **{(1, j): c for (i, j), c in form.items() if i == 0}}}
        assert all(any(i == r for i, _j in bad.forms["n"]) for r in range(A.dim))
        assert not dense_nonsingular(bad)
        rep, oracle = verify(bad), dense(bad)
        assert rep.violations[0][0] == "nonsingular"
        assert (rep.violations, rep.checked) == (oracle.violations, oracle.checked)


def test_composition_laws_skip_the_dense_form_loop(field, mod, monkeypatch):
    # the work of the two verifiers, counted through StructAlgebra.form_value:
    # the polarized laws read the form table directly, so only is_hurwitz's
    # 2 n^2 + n norm_of_conjugate and standard_involution checks call it
    calls = []
    form_value = StructAlgebra.form_value
    monkeypatch.setattr(StructAlgebra, "form_value", lambda self, *args: calls.append(args) or form_value(self, *args))
    assert is_symmetric_composition(mod["okubo"]).ok
    assert len(calls) == 0
    assert is_hurwitz(zorn_cayley(field)).ok
    assert len(calls) == 2 * 8 ** 2 + 8


def test_cayley_dickson_tower(field):
    A = ground_field_algebra(field)
    dims = [A.dim]
    for _ in range(3):
        A = cayley_dickson(A, field.one)
        dims.append(A.dim)
    assert dims == [1, 2, 4, 8]
    with pytest.raises(CompositionError):
        cayley_dickson(A, field.one)
    # the 2-dim split algebra: n((a, b)) = a^2 - b^2
    B = cayley_dickson(ground_field_algebra(field), field.one)
    a, b = field.scalar(3), field.scalar(5)
    x = {0: a, 1: b}
    assert B.form_value("n", x, x) / field.scalar(2) == a * a - b * b
    assert is_hurwitz(B).ok


def test_para_examples(field, mod):
    pC = mod["para_zorn"]
    one = pC.para_unit
    assert pC.product(one, one) == one
    C = zorn_cayley(field)
    for i in range(8):
        # x . 1 = x~ in the para algebra
        assert pC.product(pC.basis_vec(i), one) == C.conj(C.basis_vec(i))
    assert is_symmetric_composition(pC).ok


def test_okubo_mu_and_norm(field):
    w = field.omega
    mu = (field.scalar(2) + w) / field.scalar(3)
    mubar = field.galois(mu, -1)
    assert mu + mubar == field.one
    assert mu * mubar == field.scalar(1, 3)


def test_okubo_matrix_relations(field):
    # XY = omega YX for the clock and shift matrices, checked directly
    w = field.omega
    zero, one = field.zero, field.one
    X = [[one, zero, zero], [zero, w, zero], [zero, zero, w * w]]
    Y = [[zero, zero, one], [one, zero, zero], [zero, one, zero]]

    def mat_mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(3)), zero) for j in range(3)] for i in range(3)]

    XY = mat_mul(X, Y)
    wYX = [[w * c for c in row] for row in mat_mul(Y, X)]
    assert XY == wYX


def dense_okubo_tables(F):
    """The Okubo tables from dense 3x3 matrices: x * y formed entry by
    entry, with its trace term, and expanded through the trace pairing
    tr(Z M_-k) / tr(M_k M_-k): the reference for okubo_sl3."""
    w, zero, one = F.omega, F.zero, F.one
    third = F.scalar(1, 3)
    mu = (F.scalar(2) + w) * third

    def mat_mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(3)), zero) for j in range(3)] for i in range(3)]

    def tr_prod(A, B):
        return sum((A[i][k] * B[k][i] for i in range(3) for k in range(3)), zero)

    X = [[one, zero, zero], [zero, w, zero], [zero, zero, w * w]]
    Y = [[zero, zero, one], [one, zero, zero], [zero, one, zero]]
    eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
    keys = sorted((a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0))
    mono = {}
    for a, b in keys:
        M = eye
        for _ in range(a):
            M = mat_mul(M, X)
        for _ in range(b):
            M = mat_mul(M, Y)
        mono[(a, b)] = M

    def star(A, B):
        AB, BA = mat_mul(A, B), mat_mul(B, A)
        t = third * tr_prod(A, B)
        return [[mu * AB[i][j] + (one - mu) * BA[i][j] - (t if i == j else zero) for j in range(3)] for i in range(3)]

    duals = [mono[((-a) % 3, (-b) % 3)] for a, b in keys]
    mul, n_polar = {}, {}
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            Z = star(mono[ki], mono[kj])
            row = {}
            for idx, (k, dual) in enumerate(zip(keys, duals)):
                c = tr_prod(Z, dual) * tr_prod(mono[k], dual).inverse()
                if not c.is_zero():
                    row[idx] = c
            if row:
                mul[(i, j)] = row
            c = third * tr_prod(mono[ki], mono[kj])
            if not c.is_zero():
                n_polar[(i, j)] = c
    return keys, mul, n_polar


@pytest.mark.parametrize("conductor", [12, 24])
def test_okubo_equals_dense_construction(conductor):
    F = make_field(conductor)
    S = okubo_sl3(F)
    keys, mul, n_polar = dense_okubo_tables(F)
    assert S.monomial_keys == keys
    assert [(k, list(row.items())) for k, row in S.mul.items()] == [(k, list(row.items())) for k, row in mul.items()]
    assert list(S.forms["n"].items()) == list(n_polar.items())
    # the oracle reads every product at all 8 duals: each lies on the line
    # of the monomial of degree (a+c, b+d), and n pairs only degrees adding
    # to (0, 0), the two facts okubo_sl3 builds on
    for (i, j), row in mul.items():
        (a, b), (c, d) = keys[i], keys[j]
        assert list(row) == [keys.index(((a + c) % 3, (b + d) % 3))]
    for i, j in n_polar:
        assert keys[i][0] + keys[j][0] in (0, 3) and keys[i][1] + keys[j][1] in (0, 3)


def test_okubo_verifier_and_epsilon(field, mod):
    O = mod["okubo"]
    rep = is_symmetric_composition(O)
    assert rep.violations == []
    assert rep.checked == 8 ** 4 + 3 * 8 ** 3
    # eps = diag(-1,-1,2) = w X + w^2 X^2 is an idempotent of norm 1
    w = field.omega
    ix = O.monomial_keys.index((1, 0))
    ix2 = O.monomial_keys.index((2, 0))
    eps = {ix: w, ix2: w * w}
    assert O.product(eps, eps) == eps
    assert O.form_value("n", eps, eps) / field.scalar(2) == field.one


def test_okubo_generator_normalization(field, mod):
    # the Okubo generators X and Y satisfy n(x, x*x) = 1
    O = mod["okubo"]
    for key in ((1, 0), (0, 1)):
        x = O.basis_vec(O.monomial_keys.index(key))
        assert O.polar(x, O.product(x, x)) == field.one


def test_hurwitz_product_is_not_symmetric(field):
    C = zorn_cayley(field)
    S = SymCompAlgebra(field, C.labels, C.mul, C.forms["n"])
    rep = is_symmetric_composition(S)
    assert not rep.ok
    assert any(v[0] == "polar_associative" for v in rep.violations)


def test_cartan_grading(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    assert g.verified
    assert sorted(g.identity_component()) == [0, 1]  # span(e1, e2)
    assert len(g.support()) == 7
    assert universal_group(g).group == make_group(2)


def test_okubo_gradings(field, mod):
    O = mod["okubo"]
    gp = okubo_grading(O, "+")
    gm = okubo_grading(O, "-")
    comps = gp.components()
    assert len(comps) == 8 and all(len(ix) == 1 for ix in comps.values())
    assert gp.identity_component() == []
    G = gp.group
    assert sorted(comps) == sorted(g.canonical() for g in G.elements() if not g.is_identity())
    # '-' equals '+' composed with the generator swap
    for i in range(8):
        a, b = gp.degrees["A"][i].canonical()
        assert gm.degrees["A"][i].canonical() == (b, a)
    assert universal_group(gp).group == make_group(0, [3, 3])
