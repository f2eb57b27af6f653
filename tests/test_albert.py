import copy
import random

import pytest

from triality.albert import (
    AlbertError,
    albert,
    grade_albert,
    random_element,
    verify_degree3,
    verify_jordan,
)
from triality.fgab import GroupHom, make_group
from triality.grading import coarsen
from triality.classify import build, params_r8


@pytest.fixture(scope="module")
def J(mod):
    return albert(mod["V_zorn"])


def test_dimension_and_unit(field, J):
    assert J.dim == 27
    one = J.unit
    assert J.trace_linear(one) == field.scalar(3)
    assert J.sharp(one) == one
    assert J.norm(one) == field.one
    # 1 - 3 + 3 - 1 = 0
    assert verify_degree3(J, one)


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
    rng = random.Random(20240405)
    for _ in range(100):
        assert verify_degree3(J, random_element(J, rng))
    assert verify_degree3(J, {})


def test_degree3_catches_corrupted_product(field, J):
    # the Jordan table corrupted at (3, 4) as below; the seeded elements of
    # test_degree3_random mostly have entries at both 3 and 4
    bad = copy.copy(J)
    bad.mul = {k: dict(v) for k, v in J.mul.items()}
    row = bad.mul.setdefault((3, 4), {})
    row[0] = row.get(0, field.zero) + field.one
    rng = random.Random(20240405)
    assert not all(verify_degree3(bad, random_element(bad, rng)) for _ in range(100))


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
    built = fines["okubo"]["built"]
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
    trivial = coarsen(built.grading, GroupHom.zero(G, T))
    with pytest.raises(AlbertError):
        grade_albert(trivial)
