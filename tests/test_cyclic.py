import hashlib
import itertools
from collections import Counter

import pytest

from triality.cyclic import (
    CyclicAlgebra,
    CyclicAxiomError,
    CubicEtale,
    _rho_rows,
    cut_on_basis,
    cyclic_from_symmetric,
    make_L,
    opposite,
    para_subalgebra_from_idempotent,
    verify_cyclic_axioms,
)
from triality.composition import SymCompAlgebra
from triality.grading import Grading, Report, verify_grading
from triality.linalg import Residues


def scale(V: CyclicAlgebra, lam) -> CyclicAlgebra:
    """The similitude-scaled algebra: product lam (x * y), form lam# Q.
    Its star and b_Q rows are multi-term, which the triple models never
    have, so the axiom checks below see a second kind of input."""
    L = V.L
    if L.scalar_part(L.norm(lam)).is_zero():
        raise ZeroDivisionError("lam is not invertible")
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


SEMILINEAR = {"semilinear_x": 0, "semilinear_y": 1, "bq_L_bilinear": 2}
TRIPLE = {"bq_cyclic": 0, "eq1_left": 1, "eq1_right": 2}


def assert_violation_order(violations):
    """Semilinearity and the L-bilinearity of b_Q by (i, j), semilinear_x,
    semilinear_y and bq_L_bilinear in that order within a pair; then the
    norm identity by (i, k, j, l); then the triple families by (i, j, k),
    with bq_cyclic, eq1_left and eq1_right in that order within a triple;
    then the nonsingularity of b_Q."""
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


# -- the dense check, on every tensor basis tuple and without the
# L-bilinearity of b_Q: the oracle for the L-basis verdicts of
# verify_cyclic_axioms, whose proof rests on the scaling argument, and the
# determinant over L for its rank test of the component Gram matrices.


def _l_det(L: CubicEtale, mat):
    """Determinant over the commutative ring L by cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = L.zero
    for j in range(n):
        if mat[0][j] == L.zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = L.mul(mat[0][j], _l_det(L, minor))
        if j % 2:
            term = L.smul(L.field.scalar(-1), term)
        total = L.add(total, term)
    return total


def dense_report(V: CyclicAlgebra) -> Report:
    """Semilinearity on all n^2 pairs, the polarized identities on all
    n^4 + 3 n^3 tensor basis tuples and the nonsingularity of b_Q."""
    L = V.L
    t = V.twist
    n = V.dim
    viol = []
    bas = [V.basis_vec(i) for i in range(n)]
    prod = [[V.product(bas[i], bas[j]) for j in range(n)] for i in range(n)]
    rho_t_xi = L.rho(L.xi, t)
    rho_2t_xi = L.rho(L.xi, 2 * t)
    for i, j in itertools.product(range(n), repeat=2):
        if V.product(V.act(L.xi, bas[i]), bas[j]) != V.act(rho_t_xi, prod[i][j]):
            viol.append(("semilinear_x", (i, j)))
        if V.product(bas[i], V.act(L.xi, bas[j])) != V.act(rho_2t_xi, prod[i][j]):
            viol.append(("semilinear_y", (i, j)))
    viol.extend(dense_norm_violations(V, prod))
    viol.extend(dense_triple_violations(V, prod))
    m = V.S.dim
    gram = [[V.bform(V.embed(p), V.embed(q)) for q in range(m)] for p in range(m)]
    if L.scalar_part(L.norm(_l_det(L, gram))).is_zero():
        viol.append(("b_Q_nonsingular", ()))
    return Report(viol, 2 * n * n + n**4 + 3 * n**3)


def dense_norm_violations(V, prod):
    t = V.twist
    n = V.dim
    pairs_on = {}
    for k in range(n):
        for l in range(n):
            for b, c in prod[k][l].items():
                pairs_on.setdefault(b, []).append((k, l, c))
    partners = {}
    for (a, b), row in V.bq.items():
        partners.setdefault(a, []).append((b, row))
    diff = Residues()
    for i in range(n):
        for j in range(n):
            for a, ca in prod[i][j].items():
                for b, row in partners.get(a, ()):
                    for k, l, cb in pairs_on.get(b, ()):
                        c = ca * cb
                        diff.add((i, k, j, l), c, row)
                        diff.add((i, k, l, j), c, row)
    shifted = {
        key: [{(s + m) % 3: c for m, c in r.items()} for s in range(3)] for key, r in _rho_rows(V, 2 * t).items()
    }
    for (i, k), row in _rho_rows(V, t).items():
        left = [(s, -c) for s, c in row.items()]
        for (j, l), right in shifted.items():
            for s, c in left:
                diff.add((i, k, j, l), c, right[s])
    return [("norm_multiplicative", (i, j, k, l)) for (i, k, j, l) in diff.uncancelled()]


def dense_triple_violations(V, prod):
    names = ("bq_cyclic", "bq_cyclic", "eq1_left", "eq1_right")
    t = V.twist
    n = V.dim
    rho_t, rho_2t = _rho_rows(V, t), _rho_rows(V, 2 * t)
    partners = {}
    for key, row in V.bq.items():
        partners.setdefault(key[0], []).append((key[1], row, rho_t[key], rho_2t[key]))
    right = {}
    left = {}
    for (a, b), row in V.mul.items():
        right.setdefault(a, []).append((b, row))
        left.setdefault(b, []).append((a, row))
    diff = Residues()
    for i in range(n):
        for j in range(n):
            for a, c in prod[i][j].items():
                for k, row, row_t, row_2t in partners.get(a, ()):
                    diff.add((i, j, k, 0), c, row)
                    diff.add((i, j, k, 1), c, row)
                    diff.add((k, i, j, 0), -c, row_t)
                    diff.add((j, k, i, 1), -c, row_2t)
                for k, row in right.get(a, ()):
                    diff.add((i, j, k, 2), c, row)
                    diff.add((k, j, i, 2), c, row)
                for k, row in left.get(a, ()):
                    diff.add((k, i, j, 3), c, row)
                    diff.add((j, i, k, 3), c, row)
    for (i, k), row_t in rho_t.items():
        row_2t = rho_2t[(i, k)]
        for j in range(n):
            p, e = V.split(j)
            diff.add((i, j, k, 2), None, {V.idx(p, e + m): -c for m, c in row_2t.items()})
            diff.add((i, j, k, 3), None, {V.idx(p, e + m): -c for m, c in row_t.items()})
    return list(dict.fromkeys((names[f], (i, j, k)) for i, j, k, f in diff.uncancelled()))


IDENTITIES = ("norm_multiplicative", "bq_cyclic", "eq1_left", "eq1_right")


def assert_agrees_with_dense(rep, dense, V):
    """The L-basis verdicts are the dense ones restricted to L-basis tuples,
    the other violations are the dense ones plus bq_L_bilinear, and the
    report fails exactly when the dense check or L-bilinearity does."""
    on = {V.idx(p, 0) for p in range(V.S.dim)}
    assert [v for v in rep.violations if v[0] in IDENTITIES] == [
        v for v in dense.violations if v[0] in IDENTITIES and set(v[1]) <= on
    ]
    assert [v for v in rep.violations if v[0] not in IDENTITIES + ("bq_L_bilinear",)] == [
        v for v in dense.violations if v[0] not in IDENTITIES
    ]
    assert rep.ok == (dense.ok and not any(name == "bq_L_bilinear" for name, _ in rep.violations))


def test_axioms_pass(cyclic_axiom_reports):
    assert cyclic_axiom_reports["zorn"].ok
    assert cyclic_axiom_reports["okubo"].ok
    # 2 n^2 semilinearity + 2 n^2 L-bilinearity of b_Q on the n = 24 tensor
    # basis elements, m^4 norm + 3 m^3 form and identity checks on the
    # m = 8 L-basis vectors, and 2 n L-module identities on the basis
    n, m = 24, 8
    assert cyclic_axiom_reports["zorn"].checked == cyclic_axiom_reports["okubo"].checked == 2 * n * n + 2 * n * n + m**4 + 3 * m**3 + 2 * n == 7984


def test_corrupted_constant_located(field, mod):
    V = mod["V_zorn"]
    star = {k: dict(v) for k, v in V.mul.items()}
    key = next(iter(star))
    out = next(iter(star[key]))
    star[key][out] = star[key][out] + field.one
    bad = CyclicAlgebra(V.S, V.L, star, V.bq, twist=1)
    dense = dense_report(bad)
    assert dense.checked == 374400
    assert Counter(name for name, _ in dense.violations) == {
        "semilinear_x": 2,
        "semilinear_y": 2,
        "norm_multiplicative": 144,
        "bq_cyclic": 6,
        "eq1_left": 48,
        "eq1_right": 48,
    }
    # sha256 of the whole list as a dense loop over every basis tuple gave it
    assert violations_digest(dense.violations) == "8432918ffd0761ff5f0a214e2603f7cb01fa5f549d3f6404e8b346ad1742209e"
    rep = verify_cyclic_axioms(bad)
    assert not rep.ok
    assert rep.checked == 7984
    assert_agrees_with_dense(rep, dense, bad)
    assert_violation_order(rep.violations)
    # the dense list restricted to L-basis tuples: none of its 6 bq_cyclic
    # violations is at one
    assert rep.violations[:2] == [("semilinear_x", (0, 0)), ("semilinear_y", (0, 0))]
    assert Counter(name for name, _ in rep.violations) == {
        "semilinear_x": 2,
        "semilinear_y": 2,
        "norm_multiplicative": 16,
        "eq1_left": 16,
        "eq1_right": 16,
    }
    assert violations_digest(rep.violations) == "30455438d0ea7435b3d4d62eb9ea92bfdcb557348bbf0843dedeb14307209d8b"


def test_corrupted_form_constant_located(field, mod):
    # one b_Q constant at (i, j), off the L-basis in both arguments: b_Q is
    # no longer L-bilinear at (i, j) and at the two pairs whose xi-multiple
    # lands on it, (xi^-1 x_i, x_j) and (x_i, xi^-1 x_j)
    V = mod["V_zorn"]
    bq = {k: dict(row) for k, row in V.bq.items()}
    i, j = key = next(k for k in bq if k[0] % 3 and k[1] % 3)
    m = next(iter(bq[key]))
    bq[key][m] = bq[key][m] + field.one
    bad = CyclicAlgebra(V.S, V.L, V.mul, bq, twist=1)
    rep = verify_cyclic_axioms(bad)
    assert not rep.ok
    assert_agrees_with_dense(rep, dense_report(bad), bad)
    assert_violation_order(rep.violations)
    (p, e), (q, f) = V.split(i), V.split(j)
    located = [key for name, key in rep.violations if name == "bq_L_bilinear"]
    assert sorted(located) == sorted([(i, j), (V.idx(p, e - 1), j), (i, V.idx(q, f - 1))])


def test_singular_component_of_b_Q_located(field, mod):
    # b_Q(s_0 (x) 1, s_q (x) 1) and b_Q(s_q (x) 1, s_0 (x) 1) times 1 - e_0,
    # e_0 the idempotent of the first component of L = F x F x F: that
    # component's Gram matrix gets a zero row, the other two are unchanged,
    # and b_Q is singular over L, as the determinant over L says
    V = mod["V_zorn"]
    L = V.L
    cut = L.add(L.one, L.smul(-field.one, L.idempotents()[0]))
    assert L.components(cut) == (field.zero, field.one, field.one)
    on = V.idx(0, 0)
    bq = dict(V.bq)
    for key in [k for k in V.bq if on in k and k[0] % 3 == k[1] % 3 == 0]:
        value = L.mul(tuple(V.bq[key].get(m, field.zero) for m in range(3)), cut)
        bq[key] = {m: c for m, c in enumerate(value) if not c.is_zero()}
    bad = CyclicAlgebra(V.S, L, V.mul, bq, twist=V.twist)
    rep = verify_cyclic_axioms(bad)
    assert rep.violations[-1] == ("b_Q_nonsingular", ())
    assert_agrees_with_dense(rep, dense_report(bad), bad)


def corrupted_constants(V, bump):
    """Every V with one star or b_Q constant c replaced by bump(c)."""
    for table in ("mul", "bq"):
        rows = getattr(V, table)
        for key, row in rows.items():
            for out, c in row.items():
                changed = dict(rows)
                changed[key] = {**row, out: bump(c)}
                star, bq = (changed, V.bq) if table == "mul" else (V.mul, changed)
                yield table, CyclicAlgebra(V.S, V.L, star, bq, twist=V.twist)


def test_every_corrupted_constant_fails(field, mod):
    # exhaustive over V_zorn's 288 star and 72 b_Q constants, each plus 1
    V = mod["V_zorn"]
    verdicts = Counter((table, verify_cyclic_axioms(bad).ok) for table, bad in corrupted_constants(V, lambda c: c + field.one))
    assert verdicts == {("mul", False): 288, ("bq", False): 72}


@pytest.mark.parametrize("name", ["para_zorn", "okubo"])
def test_every_corrupted_S_constant_fails_on_the_L_basis(field, mod, name):
    # one structure constant or polar-form entry of S doubled, and V rebuilt
    # as S (x) L: the product stays rho-semilinear and b_Q L-bilinear, so
    # only the identities on L-basis tuples can see the corruption
    S = mod[name]
    n = S.forms["n"]
    mutants = [
        SymCompAlgebra(field, S.labels, {**S.mul, key: {**row, out: c + c}}, n)
        for key, row in S.mul.items()
        for out, c in row.items()
    ] + [SymCompAlgebra(field, S.labels, S.mul, {**n, key: c + c}) for key, c in n.items()]
    assert len(mutants) == 40
    for bad in mutants:
        rep = verify_cyclic_axioms(cyclic_from_symmetric(bad, mod["V_zorn"].L))
        assert rep.violations and {v for v, _ in rep.violations} <= set(IDENTITIES)


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
    bad = CyclicAlgebra(Vs.S, L, Vs.mul, bq, twist=Vs.twist)
    dense = dense_report(bad)
    assert dense.checked == 374400
    assert Counter(name for name, _ in dense.violations) == {
        "norm_multiplicative": 1291,
        "bq_cyclic": 66,
        "eq1_left": 24,
        "eq1_right": 24,
    }
    # sha256 of the whole list as a dense loop over every basis tuple gave it
    assert violations_digest(dense.violations) == "7335bbd2bb8d75672e788c27d72cb043791008a0bdd8a83945660ddbbf62a791"
    rep = verify_cyclic_axioms(bad)
    assert not rep.ok
    assert rep.checked == 7984
    assert_agrees_with_dense(rep, dense, bad)
    assert_violation_order(rep.violations)
    assert Counter(name for name, _ in rep.violations) == {
        "bq_L_bilinear": 3,
        "norm_multiplicative": 46,
        "bq_cyclic": 9,
        "eq1_left": 8,
        "eq1_right": 8,
    }
    assert violations_digest(rep.violations) == "c586d8ed43df731680023b8aa165979fd8925a6bc7c66ae49f9fd06de72d7e51"


def test_self_similitude_by_xi(field, mod):
    # multiplication by xi is an isomorphism scale(V, xi) -> V with
    # parameter xi = xi^-1 xi# and multiplier xi^2
    V = mod["V_zorn"]
    L = V.L
    Vs = scale(V, L.xi)
    assert L.mul(L.xi, L.xi2) == L.one and L.mul(L.xi2, L.sharp(L.xi)) == L.xi
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


def reference_act(V, l, x):
    """The hand-written L-action that `act` replaced, kept as its oracle:
    xi^k sends s_p (x) xi^j to s_p (x) xi^(j+k)."""
    out = {}
    for i, a in x.items():
        p, j = V.split(i)
        for k in range(3):
            c = l[k]
            if c.is_zero():
                continue
            t = out.get(V.idx(p, j + k))
            t2 = a * c if t is None else t + a * c
            if t2.is_zero():
                out.pop(V.idx(p, j + k), None)
            else:
                out[V.idx(p, j + k)] = t2
    return out


@pytest.mark.parametrize("name", ["V_zorn", "V_okubo"])
def test_act_matches_the_reference_loop(mod, name):
    # every basis vector and every basis product, under 1, xi, xi^2 and
    # 1 + 2 xi - 5 xi^2; for a power of xi the keys come in the same order
    # too (the act of several powers lists them power by power, which no
    # caller reads)
    V = mod[name]
    L, F = V.L, V.field
    bas = [V.basis_vec(i) for i in range(V.dim)]
    inputs = bas + [V.product(x, y) for x in bas for y in bas]
    for l in (L.one, L.xi, L.xi2, (F.one, F.scalar(2), F.scalar(-5))):
        single = sum(not c.is_zero() for c in l) == 1
        for x in inputs:
            got, want = V.act(l, x), reference_act(V, l, x)
            assert got == want
            assert not single or list(got) == list(want)


@pytest.mark.parametrize("corruption", ["scaled", "shifted"])
def test_corrupted_l_action_table_is_caught(mod, fines, corruption):
    # act reads the L.act table that verify_grading checks, so a corrupted
    # entry of it must fail a verifier: xi (s_2 (x) 1) doubled fails the
    # semilinearity checks of the cyclic axioms, and xi (s_2 (x) 1) moved
    # to s_2 (x) xi^2 fails the degree check of the Cartan fine grading
    V = cyclic_from_symmetric(mod["para_zorn"], mod["L"])  # its own tables
    act = V._l_tables[1]
    i = V.idx(2, 0)
    ((out, c),) = act[(1, i)].items()
    act[(1, i)] = {out: c + c} if corruption == "scaled" else {V.idx(2, 2): c}
    assert V.act(V.L.xi, V.basis_vec(i)) == act[(1, i)]
    fine = fines["cartan"]
    assert fine.V is mod["V_zorn"]
    caught = not verify_cyclic_axioms(V).ok, not verify_grading(Grading(V, fine.grading.group, fine.grading.degrees)).ok
    assert caught == ((True, False) if corruption == "scaled" else (True, True))


def test_every_corrupted_l_action_entry_is_caught(mod, fines):
    # each of the 72 entries of V_zorn's L.act table (xi^k on each basis
    # vector), doubled or moved one xi-power on, fails the cyclic axioms or
    # the Cartan fine grading: 144 corruptions
    V = cyclic_from_symmetric(mod["para_zorn"], mod["L"])  # its own tables
    act = V._l_tables[1]
    fine = fines["cartan"]
    missed = []
    for (k, i), row in list(act.items()):
        ((out, c),) = row.items()
        p, j = V.split(out)
        for name, bad in (("doubled", {out: c + c}), ("moved", {V.idx(p, j + 1): c})):
            act[(k, i)] = bad
            if verify_cyclic_axioms(V).ok and verify_grading(Grading(V, fine.grading.group, fine.grading.degrees)).ok:
                missed.append((name, k, i))
            act[(k, i)] = row
    assert len(act) == 72
    assert missed == []
