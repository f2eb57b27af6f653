import pytest

from triality.composition import cartan_grading_cayley, okubo_grading, zorn_cayley
from triality.fgab import GroupHom, make_group
from triality.grading import (
    Grading,
    Report,
    coarsen,
    invariants,
    is_refinement,
    universal_group,
    verify_grading,
)


def test_trivial_grading_passes(field):
    A = zorn_cayley(field)
    G = make_group(0, [3])
    g = Grading(A, G, {"A": [G.identity()] * 8})
    assert verify_grading(g).ok


def test_cartan_passes_and_mutation_located(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    assert g.verified
    bad = g.copy_with_degree("A", 2, g.group.element((5, 5)))  # corrupt deg u1
    report = verify_grading(bad)
    assert not report.ok
    # the report names offending (map, inputs, output, coefficient) tuples
    assert all(len(v) == 4 for v in report.violations)
    assert any(2 in v[1] for v in report.violations)


def test_coarsen_identity_and_zero(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    G = g.group
    same = coarsen(g, GroupHom.identity(G))
    assert same.degree_map_equal(g)
    T = make_group(0, [])
    zero = coarsen(g, GroupHom.zero(G, T))
    assert len(zero.components()) == 1 and zero.verified


def test_universal_group_idempotent(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    u1 = universal_group(g)
    u2 = universal_group(u1.grading)
    assert u2.group == u1.group
    # the second relabeling is inverted by its own to_original hom
    back = coarsen(u2.grading, u2.to_original)
    assert back.degree_map_equal(u1.grading)


def test_universal_roundtrip_reproduces(field):
    g = okubo_grading(None, "+", field)
    u = universal_group(g)
    back = coarsen(u.grading, u.to_original)
    assert back.degree_map_equal(g)


def test_trivial_universal_group(field):
    A = zorn_cayley(field)
    G = make_group(0, [5])
    g = Grading(A, G, {"A": [G.identity()] * 8})
    verify_grading(g)
    assert universal_group(g).group.is_trivial()


def test_is_refinement(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    T = make_group(0, [2])
    co = coarsen(g, GroupHom.zero(g.group, T))
    assert is_refinement(g, co)
    assert not is_refinement(co, g) or len(co.components()) == len(g.components())
    other = cartan_grading_cayley(zorn_cayley(field))
    with pytest.raises(ValueError):
        is_refinement(g, other)  # different structure instances


def test_invariants_weighted_sum(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    inv = invariants(g)
    assert sum((i + 1) * n for i, n in enumerate(inv.type_vector)) == 8
    assert inv.identity_dim == 2
    assert inv.universal == make_group(2)


def test_report_verdict_and_require():
    good = Report([], 5)
    assert good.ok and bool(good) and good.checked == 5
    good.require(ValueError, "nothing")
    with pytest.raises(AttributeError):
        good.ok = False  # read-only: the verdict is the violation list
    with pytest.raises(TypeError):
        Report([])  # every producer states its count
    bad = Report([("a", 1), ("b", 2), ("c", 3), ("d", 4)], 9)
    assert not bad.ok and not bad
    with pytest.raises(RuntimeError, match=r"thing failed to verify: \[\('a', 1\), \('b', 2\), \('c', 3\)\]"):
        bad.require(RuntimeError, "thing")
    bad.violations.clear()
    assert bad.ok  # ok is read from the violations, never stored
