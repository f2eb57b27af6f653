import copy
import random

import pytest

import triality.albert as albert_module
from triality.albert import (
    AlbertAlgebra,
    AlbertError,
    albert,
    degree3_residual,
    degree3_table,
    grade_albert,
    random_element,
    verify_degree3,
    verify_jordan,
)
from triality.cli import main
from triality.fgab import GroupHom, make_group
from triality.grading import StructAlgebra, coarsen
from triality.classify import build, params_r8
from triality.linalg import axpy


@pytest.fixture(scope="module")
def J(mod):
    return albert(mod["V_zorn"])


def dense_degree3(J, x):
    """The oracle: X^3 - T(X) X^2 + S(X) X - N(X) 1 at one element, powers
    via the product and S(X) = (T(X)^2 - T(X^2)) / 2 from the same X^2."""
    x2 = J.product(x, x)
    x3 = J.product(x2, x)
    tx = J.trace_linear(x)
    out = axpy(x3, -tx, x2)
    axpy(out, (tx * tx - J.trace_linear(x2)) / J.field.scalar(2), x)
    axpy(out, -J.norm(x), J.unit)
    return out


def dense_jordan_tables(J):
    """The oracle for J.mul and T: on every basis pair, X o Y through the
    adjoint, X x Y = (X+Y)# - X# - Y#, and T(X, Y) = T_L(l l') + T_L(b_Q(v, w))."""
    F, L, V = J.field, J.L, J.V
    minus_one = F.scalar(-1)

    def cross(x, y):
        out = axpy(J.sharp(J.add(x, y)), minus_one, J.sharp(x))
        return axpy(out, minus_one, J.sharp(y))

    def trace_bilinear(x, y):
        (lx, vx), (ly, vy) = J.pair(x), J.pair(y)
        return L.scalar_part(L.trace(L.mul(lx, ly))) + L.scalar_part(L.trace(V.bform(vx, vy)))

    mul, tform = {}, {}
    for i in range(J.dim):
        for j in range(J.dim):
            x, y = J.basis_vec(i), J.basis_vec(j)
            tx, ty, txy = J.trace_linear(x), J.trace_linear(y), trace_bilinear(x, y)
            out = cross(x, y)
            axpy(out, tx, y)
            axpy(out, ty, x)
            axpy(out, txy - tx * ty, J.unit)
            prod = J.scale(F.scalar(1, 2), out)
            if prod:
                mul[(i, j)] = prod
            if not txy.is_zero():
                tform[(i, j)] = txy
    return mul, tform


@pytest.mark.parametrize("model", ["V_zorn", "V_okubo", "V_doubled"])
def test_tables_equal_the_dense_formula(mod, model):
    Jm = AlbertAlgebra(mod[model])
    mul, tform = dense_jordan_tables(Jm)
    assert Jm.mul == mul
    assert Jm.forms["T"] == tform


@pytest.mark.parametrize("table", ["mul", "bq"])
def test_albert_catches_a_corrupted_V_constant(field, mod, table):
    # the fill reads V.mul and V.bq directly, so a seeded 6 of their
    # constants, each +1 and times omega, must fail albert()
    V = mod["V_zorn"]
    constants = sorted((key, k) for key, row in getattr(V, table).items() for k in row)
    for key, k in random.Random(6).sample(constants, 6):
        for change in (lambda c: c + field.one, lambda c: c * field.omega):
            tab = {kk: dict(row) for kk, row in getattr(V, table).items()}
            tab[key][k] = change(tab[key][k])
            bad = copy.copy(V)
            setattr(bad, table, tab)
            with pytest.raises(AlbertError):
                albert(bad)


def test_dimension_and_unit(field, J):
    assert J.dim == 27
    one = J.unit
    assert J.trace_linear(one) == field.scalar(3)
    assert J.sharp(one) == one
    assert J.norm(one) == field.one
    # 1 - 3 + 3 - 1 = 0
    assert dense_degree3(J, one) == {}
    assert not degree3_residual(degree3_table(J), one)


def test_restriction_to_L(field, J, mod):
    L = mod["L"]
    l1 = (field.scalar(2), field.one, field.scalar(-3))
    l2 = (field.one, field.scalar(4), field.zero)
    got = J.product(J.element(l1, {}), J.element(l2, {}))
    assert got == J.element(L.mul(l1, l2), {})
    # norm restricted to L is the cubic norm of L, hence multiplicative
    x1, x2 = J.element(l1, {}), J.element(l2, {})
    prod = J.element(L.mul(l1, l2), {})
    assert J.norm(prod) == J.norm(x1) * J.norm(x2)


def test_orthogonal_complement(field, J):
    for a in range(3):
        for i in range(24):
            assert J.forms["T"].get((a, 3 + i), field.zero).is_zero()


def test_jordan_identity_both_models(J, mod):
    for alg in (J, albert(mod["V_okubo"])):
        rep = verify_jordan(alg)
        assert rep.violations == []
        assert rep.checked == 27 + 2 * 27 * 27  # unit, commutativity, Jordan


def test_degree3_random(J):
    table = degree3_table(J)
    rng = random.Random(20240405)
    for _ in range(100):
        assert not degree3_residual(table, random_element(J, rng))
    assert not degree3_residual(table, {})


def test_degree3_catches_corrupted_product(field, J):
    # the Jordan table corrupted at (3, 4) as below; the seeded elements of
    # test_degree3_random mostly have entries at both 3 and 4
    bad = copy.copy(J)
    bad.mul = {k: dict(v) for k, v in J.mul.items()}
    row = bad.mul.setdefault((3, 4), {})
    row[0] = row.get(0, field.zero) + field.one
    table = degree3_table(bad)
    rep = verify_degree3(bad)
    assert not rep.ok
    assert rep.violations == sorted(table)
    rng = random.Random(20240405)
    assert not all(not degree3_residual(table, random_element(bad, rng)) for _ in range(100))


@pytest.mark.parametrize("model", ["V_zorn", "V_okubo", "V_doubled"])
def test_degree3_holds_for_every_X(mod, model):
    Jm = albert(mod[model])
    rep = verify_degree3(Jm)
    assert rep.violations == []
    assert rep.checked == 3654  # the sorted basis triples i <= j <= k of 27
    rng = random.Random(3)
    for _ in range(3):
        assert dense_degree3(Jm, random_element(Jm, rng)) == {}


def _agrees_with_dense(bad):
    """The table of bad is not empty, so verify_degree3 fails, and it gives
    the oracle's P(X) on three seeded elements.  Where the oracle raises
    because N(X) leaves F, the table keeps the xi parts of N(X) under
    ("N", 1) and ("N", 2)."""
    table = degree3_table(bad)
    assert table
    rng = random.Random(22)
    for _ in range(3):
        x = random_element(bad, rng)
        got = degree3_residual(table, x)
        try:
            expected = dense_degree3(bad, x)
        except ValueError:
            assert {("N", 1), ("N", 2)} & set(got)
        else:
            assert got == expected


def test_degree3_corrupted_products_agree_with_dense(field, J):
    # a seeded 48 of the Jordan table's constants, each +1 and times omega
    constants = sorted((key, k) for key, row in J.mul.items() for k in row)
    for key, k in random.Random(48).sample(constants, 48):
        for change in (lambda c: c + field.one, lambda c: c * field.omega):
            bad = copy.copy(J)
            bad.mul = {kk: dict(v) for kk, v in J.mul.items()}
            bad.mul[key][k] = change(bad.mul[key][k])
            _agrees_with_dense(bad)


def test_degree3_corrupted_norm_agrees_with_dense(field, J):
    # each of b_Q's 72 constants +1, after J is built: J.mul is unchanged,
    # and only N reads the corrupted b_Q
    V = J.V
    constants = sorted((key, k) for key, row in V.bq.items() for k in row)
    assert len(constants) == 72
    for key, k in constants:
        bad_V = copy.copy(V)
        bad_V.bq = {kk: dict(v) for kk, v in V.bq.items()}
        bad_V.bq[key][k] = bad_V.bq[key][k] + field.one
        bad = copy.copy(J)
        bad.V = bad_V
        _agrees_with_dense(bad)


def test_degree3_skips_the_dense_products(J, mod, monkeypatch, tmp_path):
    # the constructor and verify_degree3 read the constants, not the
    # product, the adjoint or the norm
    calls = []
    product, sharp, norm = StructAlgebra.product, AlbertAlgebra.sharp, AlbertAlgebra.norm
    monkeypatch.setattr(StructAlgebra, "product", lambda self, *args: calls.append("product") or product(self, *args))
    monkeypatch.setattr(AlbertAlgebra, "sharp", lambda self, *args: calls.append("sharp") or sharp(self, *args))
    monkeypatch.setattr(AlbertAlgebra, "norm", lambda self, *args: calls.append("norm") or norm(self, *args))
    AlbertAlgebra(mod["V_zorn"])
    assert verify_degree3(J).ok
    assert calls == []
    # the jordan suite builds the table once, in albert(), and reads its
    # samples off that table
    builds = []
    table = albert_module.degree3_table
    monkeypatch.setattr(albert_module, "degree3_table", lambda J: builds.append(J) or table(J))
    out = tmp_path / "jordan.json"
    assert main(["--field-conductor", "12", "--seed", "0", "--out", str(out), "verify", "--suite", "jordan"]) == 0
    assert len(builds) == 1


def test_corrupted_product_detected(field, J):
    bad_mul = {k: dict(v) for k, v in J.mul.items()}
    key = (3, 4)
    row = bad_mul.setdefault(key, {})
    row[0] = row.get(0, field.zero) + field.one
    from triality.grading import StructAlgebra

    bad = StructAlgebra(field, J.labels, bad_mul, forms=J.forms, unit=J.unit)
    rep = verify_jordan(bad)
    assert not rep.ok
    assert rep.violations[:2] == [("commutative", (3, 4)), ("commutative", (4, 3))]
    assert {name for name, _ in rep.violations} == {"commutative", "jordan"}


def test_graded_albert_fine(fines):
    built = fines["okubo"]
    gJ = grade_albert(built.grading)
    comps = gJ.components()
    assert len(comps) == 27
    assert all(len(ix) == 1 for ix in comps.values())


def test_graded_albert_rank8(field):
    G = make_group(0, [3])
    built = build(params_r8(G, G.element((1,)), "p"))
    gJ = grade_albert(built.grading)
    # J_e = F 1 + V_e has dimension 9
    assert len(gJ.identity_component()) == 9


def test_grade_albert_requires_type_III(field):
    G = make_group(0, [3])
    built = build(params_r8(G, G.element((1,)), "p"))
    T = make_group(0, [])
    trivial = coarsen(built.grading, GroupHom(G, T, []))
    with pytest.raises(AlbertError):
        grade_albert(trivial)
