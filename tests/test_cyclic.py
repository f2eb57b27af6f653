import hashlib
from collections import Counter

import pytest

from triality.cyclic import (
    CyclicAlgebra,
    CyclicAxiomError,
    cut_on_basis,
    make_L,
    opposite,
    para_subalgebra_from_idempotent,
    verify_cyclic_axioms,
)


def scale(V: CyclicAlgebra, lam) -> CyclicAlgebra:
    """The similitude-scaled algebra: product lam (x * y), form lam# Q.
    Its star and b_Q rows are multi-term, which the triple models never
    have, so the axiom checks below see a second kind of input."""
    L = V.L
    L.invert(lam)  # raises if lam is not invertible
    lam_sharp = L.sharp(lam)
    mul = {}
    for (i, j), row in V.mul.items():
        acted = V.act(lam, row)
        if acted:
            mul[(i, j)] = acted
    bq = {}
    for (i, j), row in V.bq.items():
        out = [V.field.zero] * 3
        for k, c in row.items():
            for m in range(3):
                if not lam_sharp[m].is_zero():
                    out[(k + m) % 3] = out[(k + m) % 3] + c * lam_sharp[m]
        entry = {k: c for k, c in enumerate(out) if not c.is_zero()}
        if entry:
            bq[(i, j)] = entry
    return CyclicAlgebra(V.S, V.L, mul, bq, twist=V.twist)


def test_make_L_invariants(field):
    L = make_L(field)
    w = field.omega
    assert L.norm(L.xi) == L.one
    assert L.sharp(L.xi) == L.mul(L.xi, L.xi)
    assert L.rho(L.xi) == L.smul(w, L.xi)
    assert [str(c) for c in L.components(L.xi)] == [str(field.one), str(w), str(w * w)]


def test_dimensions(mod):
    V = mod["V_zorn"]
    assert V.dim == 24
    assert V.S.dim == 8


def test_para_unit_vector(field, mod):
    V = mod["V_zorn"]
    unit = {V.idx(0, 0): field.one, V.idx(1, 0): field.one}  # (1,1,1) = 1 (x) 1
    assert V.product(unit, unit) == unit


def test_q_on_basis_tensors(field, mod):
    V = mod["V_zorn"]
    L = V.L
    n = V.S.forms["n"]
    half = field.scalar(1, 2)
    for p in range(8):
        for j in range(3):
            x = V.basis_vec(V.idx(p, j))
            # Q(x (x) xi^j) = n(x) xi^(2j)
            expected = [field.zero] * 3
            expected[(2 * j) % 3] = half * n.get((p, p), field.zero)
            assert V.quadratic(x) == tuple(expected)


SEMILINEAR = {"semilinear_x": 0, "semilinear_y": 1}
TRIPLE = {"bq_cyclic": 0, "eq1_left": 1, "eq1_right": 2}


def assert_violation_order(violations):
    """Semilinearity by (i, j), x before y; then the norm identity by
    (i, k, j, l); then the triple families by (i, j, k), with bq_cyclic,
    eq1_left and eq1_right in that order within a triple; then the
    nonsingularity of b_Q."""
    stage = [
        0 if name in SEMILINEAR else 1 if name == "norm_multiplicative" else 2 if name in TRIPLE else 3
        for name, _ in violations
    ]
    assert stage == sorted(stage)
    for keys in (
        [(key, SEMILINEAR[name]) for name, key in violations if name in SEMILINEAR],
        [(key[0], key[2], key[1], key[3]) for name, key in violations if name == "norm_multiplicative"],
        [(key, TRIPLE[name]) for name, key in violations if name in TRIPLE],
    ):
        assert all(a < b for a, b in zip(keys, keys[1:]))


def violations_digest(violations):
    return hashlib.sha256(repr(violations).encode()).hexdigest()


def test_axioms_pass(cyclic_axiom_reports):
    assert cyclic_axiom_reports["zorn"].ok
    assert cyclic_axiom_reports["okubo"].ok
    # 2 n^2 semilinearity + n^4 norm + 3 n^3 form and identity checks, n = 24
    assert cyclic_axiom_reports["zorn"].checked == cyclic_axiom_reports["okubo"].checked == 374400


def test_corrupted_constant_located(field, mod):
    V = mod["V_zorn"]
    import copy

    star = {k: dict(v) for k, v in V.mul.items()}
    key = next(iter(star))
    out = next(iter(star[key]))
    star[key][out] = star[key][out] + field.one
    from triality.cyclic import CyclicAlgebra

    bad = CyclicAlgebra(V.S, V.L, star, V.bq, twist=1)
    rep = verify_cyclic_axioms(bad)
    assert not rep.ok
    assert rep.checked == 374400
    assert len(rep.violations) == 250
    assert rep.violations[:2] == [("semilinear_x", (0, 0)), ("semilinear_y", (0, 0))]
    assert Counter(name for name, _ in rep.violations) == {
        "semilinear_x": 2,
        "semilinear_y": 2,
        "norm_multiplicative": 144,
        "bq_cyclic": 6,
        "eq1_left": 48,
        "eq1_right": 48,
    }
    assert_violation_order(rep.violations)
    # sha256 of the whole list as a dense loop over every basis tuple gave it
    assert violations_digest(rep.violations) == "8432918ffd0761ff5f0a214e2603f7cb01fa5f549d3f6404e8b346ad1742209e"


def test_opposite(mod, cyclic_axiom_reports):
    V = mod["V_zorn"]
    Vop = opposite(V)
    assert Vop.twist == 2
    assert cyclic_axiom_reports["zorn_op"].ok
    back = opposite(Vop)
    assert back.twist == 1 and back.mul == V.mul


def test_scale(field, mod):
    V = mod["V_zorn"]
    L = V.L
    # lambda = 1 is the identity transformation
    same = scale(V, L.one)
    assert same.mul == V.mul and same.bq == V.bq
    # lambda = xi gives a valid cyclic algebra (multiplier xi# = xi^2)
    Vxi = scale(V, L.xi)
    assert verify_cyclic_axioms(Vxi).ok
    with pytest.raises(ZeroDivisionError):
        scale(V, (field.one, field.one, field.one))  # 1 + xi + xi^2 = 3 e_1, not invertible
    # composition of scalings multiplies the scalars
    lam2 = L.elt(field.one, field.scalar(2), field.zero)
    a = scale(scale(V, L.xi), lam2)
    b = scale(V, L.mul(L.xi, lam2))
    assert a.mul == b.mul and a.bq == b.bq


def test_axioms_with_multi_term_constants(field, mod):
    # scaling by 1 + 2 xi makes star and b_Q rows multi-term, which the
    # triple models never have
    V = mod["V_zorn"]
    L = V.L
    Vs = scale(V, L.elt(field.one, field.scalar(2), field.zero))
    assert sum(len(row) > 1 for row in Vs.mul.values()) == 288
    assert sum(len(row) > 1 for row in Vs.bq.values()) == 72
    assert verify_cyclic_axioms(Vs).ok
    bq = {key: dict(row) for key, row in Vs.bq.items()}
    key = next(key for key, row in bq.items() if len(row) > 1)
    m = next(iter(bq[key]))
    bq[key][m] = bq[key][m] + field.one
    rep = verify_cyclic_axioms(CyclicAlgebra(Vs.S, L, Vs.mul, bq, twist=Vs.twist))
    assert not rep.ok
    assert rep.checked == 374400
    assert Counter(name for name, _ in rep.violations) == {
        "norm_multiplicative": 1291,
        "bq_cyclic": 66,
        "eq1_left": 24,
        "eq1_right": 24,
    }
    assert_violation_order(rep.violations)
    # sha256 of the whole list as a dense loop over every basis tuple gave it
    assert violations_digest(rep.violations) == "7335bbd2bb8d75672e788c27d72cb043791008a0bdd8a83945660ddbbf62a791"


def test_self_similitude_by_xi(field, mod):
    # multiplication by xi is an isomorphism scale(V, xi) -> V with
    # parameter xi = xi^-1 xi# and multiplier xi^2
    V = mod["V_zorn"]
    L = V.L
    Vs = scale(V, L.xi)
    assert L.mul(L.invert(L.xi), L.sharp(L.xi)) == L.xi
    for i in range(V.dim):
        for j in range(V.dim):
            x, y = V.basis_vec(i), V.basis_vec(j)
            lhs = V.act(L.xi, Vs.product(x, y))
            rhs = V.product(V.act(L.xi, x), V.act(L.xi, y))
            assert lhs == rhs
    for i in range(V.dim):
        x = V.basis_vec(i)
        assert V.quadratic(V.act(L.xi, x)) == L.mul(L.mul(L.xi, L.xi), Vs.quadratic(x))


def test_para_cut_at_one(field, mod):
    V = mod["V_zorn"]
    unit = {V.idx(0, 0): field.one, V.idx(1, 0): field.one}
    cut = para_subalgebra_from_idempotent(V, unit)
    # the cut is C (x) 1: every basis vector is supported on xi-power 0
    for vec in cut.basis():
        assert all(V.split(i)[1] == 0 for i in vec)
    assert cut.rank == 8
    # on its reduced rows, the cut is a symmetric composition algebra with
    # the idempotent as para-unit
    S_sub = cut_on_basis(V, cut, unit)
    assert S_sub.dim == 8 and S_sub.para_unit == cut.coordinates(unit)


def test_para_cut_at_second_para_unit(field, mod):
    V = mod["V_zorn"]
    w = field.omega
    eps = {V.idx(0, 0): w * w, V.idx(1, 0): w}
    cut = para_subalgebra_from_idempotent(V, eps)
    assert cut.rank == 8
    # mixed Peirce pieces: u-lines at xi, v-lines at xi^2
    powers = sorted({V.split(i)[1] for vec in cut.basis() for i in vec})
    assert powers == [0, 1, 2]


def test_para_cut_rejects_non_idempotent(field, mod):
    V = mod["V_zorn"]
    with pytest.raises(CyclicAxiomError):
        para_subalgebra_from_idempotent(V, {V.idx(0, 0): field.one})
