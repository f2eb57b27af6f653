import itertools
import math
import random
from fractions import Fraction

import pytest

from triality.fgab import (
    Character,
    GroupElem,
    GroupHom,
    characters,
    in_subgroup,
    make_group,
    quotient,
    smith_normal_form,
    subgroup_elements,
    subgroup_generated,
)
from triality.classify import build, params_r0, params_r1, params_r2, params_r4, params_r8
from triality.grading import coarsen, universal_group


def mat_mul(A, B):
    """The integer matrix product A B."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def int_det(M):
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def test_make_group_examples():
    assert make_group(0, [3, 3]).torsion == (3, 3)
    G = make_group(2, [3])
    assert G.free_rank == 2 and G.torsion == (3,)
    assert make_group(0, []).is_trivial()
    assert make_group(0, [2, 2, 2, 3]).torsion == (2, 2, 6)
    with pytest.raises(ValueError):
        make_group(0, [1])


def test_element_order_examples():
    G33 = make_group(0, [3, 3])
    assert G33.element((1, 1)).order() == 3
    G = make_group(1, [3])
    assert G.element((1, 0)).order() == math.inf
    # (2, 3) in Z4 x Z6, presented as Z^2 / <(4, 0), (0, 6)>: lcm of
    # component orders 2 and 2
    Z2 = make_group(2)
    _Q, pr = quotient(Z2, [Z2.element((4, 0)), Z2.element((0, 6))])
    assert pr(Z2.element((2, 3))).order() == 2
    assert pr(Z2.element((2, 0))).order() == 2 and pr(Z2.element((0, 3))).order() == 2


def test_snf_examples():
    D, U, Uinv = smith_normal_form([[1, 0], [0, 1]])
    assert D == [[1, 0], [0, 1]]
    D, U, Uinv = smith_normal_form([[2, 4], [6, 8]])
    # gcd of all entries is 2 and |det| = 8, so the diagonal is (2, 4)
    assert (D[0][0], D[1][1]) == (2, 4)
    Z = [[0, 0], [0, 0]]
    D, U, Uinv = smith_normal_form(Z)
    assert D == Z


def minor_gcd(M, k):
    """gcd of the k x k minors of M (0 when every minor vanishes)."""
    rows, cols = range(len(M)), range(len(M[0]))
    g = 0
    for ri in itertools.combinations(rows, k):
        for ci in itertools.combinations(cols, k):
            g = math.gcd(g, int(int_det([[M[i][j] for j in ci] for i in ri])))
    return g


def test_snf_random_properties():
    """U*Uinv = I, D is a divisibility chain, row i of U*M is d_i times an
    integer row (zero where d_i = 0 or past the diagonal), and d_1...d_k is
    the gcd of the k x k minors of M.  Together these say U*M*V = D for a
    unimodular V."""
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
        D, U, Uinv = smith_normal_form(M)
        assert mat_mul(U, Uinv) == [[int(i == j) for j in range(m)] for i in range(m)]
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = [D[i][i] for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
        UM = mat_mul(U, M)
        for i, row in enumerate(UM):
            d = diag[i] if i < len(diag) else 0
            if d:
                assert all(x % d == 0 for x in row)
            else:
                assert not any(row)
        for k in range(1, min(m, n) + 1):
            assert math.prod(diag[:k]) == minor_gcd(M, k)


def test_subgroup_and_quotient_examples():
    G = make_group(0, [3, 3, 3])
    H, incl = subgroup_generated(G, [G.element((0, 0, 1))])
    assert H == make_group(0, [3])
    Q, pr = quotient(G, [G.element((0, 0, 1))])
    assert Q == make_group(0, [3, 3])
    # projection of inclusion is zero
    for i in range(H.ndim):
        assert pr(incl(H.generator(i))).is_identity()
    # <(0, 2)> in Z2 x Z4 has order 2
    G2 = make_group(0, [2, 4])
    H2, _ = subgroup_generated(G2, [G2.element((0, 2))])
    assert H2 == make_group(0, [2])
    # quotient by the trivial subgroup is an isomorphic copy
    Q3, _ = quotient(G, [])
    assert Q3 == G


def test_order_counting_round_trip():
    rng = random.Random(3)
    G = make_group(0, [2, 4, 12])
    for _ in range(20):
        gens = [G.element(tuple(rng.randrange(12) for _ in range(3))) for _ in range(2)]
        H, _ = subgroup_generated(G, gens)
        Q, _ = quotient(G, gens)
        assert H.order() * Q.order() == G.order()
        assert len(subgroup_elements(gens)) == H.order()


def test_in_subgroup():
    G = make_group(0, [3, 3, 3])
    gens = [G.element((1, 0, 0)), G.element((0, 1, 0))]
    assert in_subgroup(G.element((2, 1, 0)), gens)
    assert not in_subgroup(G.element((0, 0, 1)), gens)
    assert in_subgroup(G.identity(), gens)


def test_lattice_routines_match_brute_force():
    """On random finite groups, subgroup_generated, in_subgroup and quotient
    agree with the subgroup enumerated by subgroup_elements."""
    rng = random.Random(11)
    for _ in range(40):
        G = make_group(0, [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))])
        gens = [G.element(tuple(rng.randrange(12) for _ in range(G.ndim))) for _ in range(rng.randint(1, 3))]
        S = subgroup_elements(gens)
        H, incl = subgroup_generated(G, gens)
        assert H.order() == len(S)
        assert {incl(h).canonical() for h in H.elements()} == S
        Q, pr = quotient(G, gens)
        assert Q.order() * len(S) == G.order()
        for g in G.elements():
            assert in_subgroup(g, gens) == (g.canonical() in S)
            assert pr(g).is_identity() == (g.canonical() in S)


def reference_image(G, matrix, coords):
    """The image rule GroupHom.__call__ had: the codomain element with
    coordinates summed over the vector, reduced on comparison."""
    return G.element(tuple(sum(row[j] * coords[j] for j in range(len(coords))) for row in matrix)).canonical()


@pytest.mark.parametrize(
    "G",
    [make_group(0, [3, 3, 3]), make_group(0, [2, 2, 6]), make_group(1, [3]), make_group(2, [3])],
    ids=repr,
)
def test_images_match_the_per_element_rule(G):
    """The batched rule on random matrices and vectors with negative
    entries, free coordinates outside any modulus included, against the
    per-element rule and the homomorphism's own call."""
    rng = random.Random(repr(G))
    for _ in range(40):
        width = rng.randint(1, 4)
        D = make_group(width)
        matrix = [[rng.randint(-7, 7) for _ in range(width)] for _ in range(G.ndim)]
        vectors = [tuple(rng.randint(-20, 20) for _ in range(width)) for _ in range(rng.randint(1, 6))]
        expected = [reference_image(G, matrix, v) for v in vectors]
        assert G.images(matrix, vectors, width) == expected
        hom = GroupHom(D, G, matrix)
        assert [hom(D.element(v)).canonical() for v in vectors] == expected
        # a vector of another length is refused, not truncated
        for bad in (vectors[0] + (1,), vectors[0][:-1]):
            with pytest.raises(ValueError, match="length"):
                G.images(matrix, [vectors[0], bad], width)
            with pytest.raises(ValueError, match="length"):
                hom(GroupElem(D, bad))
    assert G.images([[0] * 2] * G.ndim, [], 2) == []
    assert make_group(0).images([], [(1, 2), (3, 4)], 2) == [(), ()]


def test_hom_well_defined():
    G = make_group(0, [2])
    H = make_group(0, [4])
    with pytest.raises(ValueError):
        GroupHom(G, H, [[1]])  # 2*1 != 0 mod 4
    GroupHom(G, H, [[2]])  # fine


def test_characters_z3(field):
    G = make_group(0, [3])
    chars = characters(G, field)
    assert len(chars) == 3
    w = field.omega
    vals = {c(G.element((1,))) for c in chars}
    assert vals == {field.one, w, w * w}


def test_characters_z2_and_error(field):
    G = make_group(0, [2])
    vals = {c(G.element((1,))) for c in characters(G, field)}
    assert vals == {field.one, -field.one}
    with pytest.raises(ValueError):
        characters(make_group(0, [5]), field)


def test_character_on_a_group_with_free_rank(field):
    # a character of Z x Z3 reads the torsion coordinate only: chi = (1,) is
    # 1 on the free generator and omega on the torsion one
    G = make_group(1, [3])
    chi = Character(G, field, (1,))
    w = field.omega
    assert chi(G.element((1, 0))) == field.one
    assert chi(G.element((0, 1))) == w
    assert chi(G.element((-4, 5))) == w * w


def test_character_orthogonality(field):
    G = make_group(0, [2, 6])
    chars = characters(G, field)
    assert len(chars) == G.order()
    els = list(G.elements())
    for c1 in chars[:4]:
        for c2 in chars[:4]:
            total = field.zero
            for g in els:
                total = total + c1(g) * c2(g).inverse()
            if c1 == c2:
                assert total == field.scalar(G.order())
            else:
                assert total.is_zero()
    # nondegenerate pairing: distinct elements are separated by characters
    for g in els:
        if not g.is_identity():
            assert any(not c(g).is_rational() or c(g) != field.one for c in chars)


G333 = make_group(0, [3, 3, 3])
G2223 = make_group(0, [2, 2, 2, 3])
e3, e2 = G333.element, G2223.element
COARSE = {
    "rank0": lambda: params_r0(G333, e3((1, 0, 0)), e3((0, 1, 0)), e3((1, 1, 1)), "-"),
    "rank1": lambda: params_r1(G2223, [e2((1, 0, 0)), e2((1, 1, 0)), e2((0, 0, 3))], e2((0, 0, 4))),
    "rank2": lambda: params_r2(G333, (e3((1, 0, 1)), e3((0, 1, 1)), e3((2, 2, 1))), e3((0, 0, 1))),
    "rank4": lambda: params_r4(G333, e3((1, 2, 0)), e3((0, 1, 1))),
    "rank8": lambda: params_r8(G333, e3((2, 0, 1)), "o"),
}


@pytest.mark.parametrize("kind", ["cartan", "z2cubed", "okubo", *COARSE])
def test_universal_round_trip(kind, fines):
    """Coarsening the universal relabeling along to_original gives back the
    original grading: the three fine gradings, and one more of every
    rank."""
    if kind in COARSE:
        g = build(COARSE[kind]()).grading
    else:
        g = fines[kind].grading
    u = universal_group(g)
    back = coarsen(u.grading, u.to_original)
    assert (back.group, back.degrees) == (g.group, g.degrees)
