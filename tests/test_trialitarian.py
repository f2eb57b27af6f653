import copy
import random

import pytest

from triality import trialitarian
from triality.cyclic import CyclicAlgebra
from triality.fgab import GroupHom, make_group, quotient
from triality.grading import Grading, coarsen, verify_grading
from triality.trialitarian import (
    EndAlgebraE,
    TrialitarianError,
    alpha_involution_compatible,
    alpha_multiplicative_sample,
    detect_type,
    e_grading_kappa_alpha_compatible,
    end_algebra,
    induce_E_grading,
    lie_of_E,
    lie_of_E_equals_der,
)
from triality.linalg import Residues, axpy, echelon_from, mat_vec
from triality.trilie import apply_deltas, der_cyclic, so_blocks
from triality.classify import build, params_r8, fine_typeIII


def test_dimensions(trial_zorn):
    assert trial_zorn["E"].dim == 192
    assert trial_zorn["Cl"].dim == 384
    assert len(trial_zorn["Cl"].masks) == 128


def test_sigma_identity(trial_zorn):
    E = trial_zorn["E"]
    unit = E.unit
    assert E.conj(unit) == unit


def test_end_algebra_catches_corrupted_form(mod):
    # b_Q(s_0, s_0) = 1 where s_0 is isotropic: sigma, built from the
    # norm of S, is no longer the b_Q-adjoint; involution and
    # anti-homomorphism do not read b_Q and still pass
    V = mod["V_zorn"]
    assert (0, 0) not in V.bq
    bq = {**V.bq, (0, 0): {0: V.field.one}}
    with pytest.raises(TrialitarianError, match="sigma is not the b_Q-adjoint"):
        end_algebra(CyclicAlgebra(V.S, V.L, V.mul, bq, twist=V.twist))


class CorruptedProduct(EndAlgebraE):
    # E_00 E_01 = 2 E_01 in place of E_01
    def __init__(self, V):
        super().__init__(V)
        i, j = self.index[(0, 0, 0)], self.index[(0, 1, 0)]
        self.mul = {**self.mul, (i, j): {j: self.field.scalar(2)}}


def test_end_algebra_catches_corrupted_product(mod, monkeypatch):
    monkeypatch.setattr(trialitarian, "EndAlgebraE", CorruptedProduct)
    with pytest.raises(TrialitarianError, match="sigma is not an anti-homomorphism"):
        end_algebra(mod["V_zorn"])


def composition_residues(V, E):
    """(x_i x_j) v - x_i (x_j v) at (i, j, v) for all operator pairs and V
    basis vectors v.  The left side is reached from the stored products,
    applied to the v whose S-index is a column r of the product, the right
    side from the operators x_j with x_j v != 0 and x_i with x_i (x_j v) !=
    0, so a tuple without an entry has both sides 0."""
    n, minus_one = E.n, -V.field.one
    by_column = {}  # r -> the V basis vectors s_r (x) xi^c
    for v in range(V.dim):
        by_column.setdefault(V.split(v)[0], []).append(v)
    diff = Residues()
    for (i, j), row in E.mul.items():
        for v in sorted({v for pos in row for v in by_column[pos % n]}):
            diff.add((i, j, v), None, apply_deltas(V, row, V.basis_vec(v)))
    for v in range(V.dim):
        r = V.split(v)[0]
        for j in (E.index[(p, r, k)] for k in range(3) for p in range(n)):
            w = apply_deltas(V, E.basis_vec(j), V.basis_vec(v))
            (r2,) = {V.split(u)[0] for u in w}
            for i in (E.index[(p, r2, k)] for k in range(3) for p in range(n)):
                diff.add((i, j, v), minus_one, apply_deltas(V, E.basis_vec(i), w))
    return diff


def test_end_algebra_product_is_composition(mod):
    # the premise of alpha's construction, of alpha_multiplicative_sample
    # and of kappa's L-linearity check: E's product is operator composition
    # under apply_deltas
    V = mod["V_zorn"]
    assert composition_residues(V, EndAlgebraE(V)).uncancelled() == []
    assert len(composition_residues(V, CorruptedProduct(V)).uncancelled()) == 3


def test_clifford_associativity(trial_zorn):
    Cl = trial_zorn["Cl"]
    F = Cl.field
    low = [m for m in Cl.masks if bin(m).count("1") <= 2]
    for m1 in low[:12]:
        for m2 in low[:12]:
            for m3 in low[:12]:
                a, b, c = Cl.basis_vec(m1), Cl.basis_vec(m2), Cl.basis_vec(m3)
                assert Cl.product(Cl.product(a, b), c) == Cl.product(a, Cl.product(b, c))
    rng = random.Random(0)
    for _ in range(100):
        ms = [rng.choice(Cl.masks) for _ in range(3)]
        ks = [rng.randrange(3) for _ in range(3)]
        a, b, c = (Cl.basis_vec(m, k) for m, k in zip(ms, ks))
        assert Cl.product(Cl.product(a, b), c) == Cl.product(a, Cl.product(b, c))


def test_kappa_on_phi_xx(mod, trial_zorn):
    # kappa(phi_{x,x}) = x.x = Q(x) inside the Clifford algebra
    V = mod["V_zorn"]
    E, Cl, km = trial_zorn["E"], trial_zorn["Cl"], trial_zorn["kappa"]
    for i in range(0, V.dim, 5):
        p, a = V.split(i)
        phi = {}
        for r in range(8):
            c = V.S.forms["n"].get((p, r))
            if c is not None:
                phi[E.index[(p, r, (2 * a) % 3)]] = c
        got = km(phi)
        x = Cl.vector(V.basis_vec(i))
        assert got == Cl.odd_product(x, x)


def test_kappa_not_multiplicative(mod, trial_zorn):
    # kappa is L-linear but not an algebra map: exhibit a witness pair
    E, km = trial_zorn["E"], trial_zorn["kappa"]
    Cl = trial_zorn["Cl"]
    found = False
    for i in range(0, E.dim, 11):
        for j in range(0, E.dim, 13):
            a, b = E.basis_vec(i), E.basis_vec(j)
            ab = E.product(a, b)
            if km(ab) != Cl.product(km(a), km(b)):
                found = True
                break
        if found:
            break
    assert found


def column_map_even(V, E, Cl, am):
    """The even images as the column-map build made them: l_x and r_x as
    column maps V -> V, each even monomial e_i e_j rest mapped to
    (l_i r_j base1, r_i l_j base2) composed column by column and read back
    into E by am._cols_to_erep."""
    n = V.S.dim
    gens = [V.basis_vec(V.idx(p, 0)) for p in range(n)]
    l_cols = [{j: V.product(x, V.basis_vec(j)) for j in range(V.dim)} for x in gens]
    r_cols = [{j: V.product(V.basis_vec(j), x) for j in range(V.dim)} for x in gens]

    def compose(outer, inner):
        return {j: mat_vec(outer, col) for j, col in inner.items()}

    def cols(erep):
        return {j: apply_deltas(V, erep, V.basis_vec(j)) for j in range(V.dim)}

    ident = {j: V.basis_vec(j) for j in range(V.dim)}
    even = {0: (am._cols_to_erep(ident), am._cols_to_erep(ident))}
    for m in sorted(Cl.masks, key=lambda m: bin(m).count("1"))[1:]:
        i = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        j = (rest & -rest).bit_length() - 1
        base1, base2 = even[rest & (rest - 1)]
        f1 = compose(l_cols[i], compose(r_cols[j], cols(base1)))
        f2 = compose(r_cols[i], compose(l_cols[j], cols(base2)))
        even[m] = (am._cols_to_erep(f1), am._cols_to_erep(f2))
    return even


@pytest.mark.parametrize("name", ["V_zorn", "V_doubled", "V_okubo"])
def test_alpha_even_images_equal_column_map_build(mod, name):
    V = mod[name]
    E, Cl = EndAlgebraE(V), trialitarian.CliffordEven(V)
    am = trialitarian.AlphaMap(V, E, Cl)
    assert am._even == column_map_even(V, E, Cl, am)


def test_alpha_catches_corrupted_composite(mod, monkeypatch):
    # one entry of the composite l_0 r_1 plus one: the generator relation
    # at (0, 1) no longer holds
    class CorruptedComposite(trialitarian.AlphaMap):
        def __init__(self, V, E, Cl):
            super().__init__(V, E, Cl)
            lr = self.lr[0][1]
            idx = min(lr)
            self.lr[0][1] = {**lr, idx: lr[idx] + E.field.one}

    V = mod["V_zorn"]
    E, Cl = EndAlgebraE(V), trialitarian.CliffordEven(V)
    monkeypatch.setattr(trialitarian, "AlphaMap", CorruptedComposite)
    with pytest.raises(TrialitarianError, match=r"generator relation fails at \(0,1\)"):
        trialitarian.alpha(V, E, Cl)


def test_E_scale_l_equals_the_central_product(trial_zorn):
    # on all 192 operators, and on a sum where the shifted terms cancel:
    # (1 + xi)(E_010 - E_011) = E_010 - E_012
    V, E = trial_zorn["V"], trial_zorn["E"]
    L, F = V.L, V.field
    ls = (L.one, L.xi, L.xi2, L.rho(L.xi, 1), L.rho(L.xi, 2), (F.one, F.scalar(2), F.scalar(-5)))
    for l in ls:
        for i in range(E.dim):
            x = E.basis_vec(i)
            assert E.scale_l(l, x) == E.product(E.central_scalar(l), x)
    x = {E.index[(0, 1, 0)]: F.one, E.index[(0, 1, 1)]: -F.one}
    one_plus_xi = (F.one, F.one, F.zero)
    assert E.scale_l(one_plus_xi, x) == E.product(E.central_scalar(one_plus_xi), x) == {
        E.index[(0, 1, 0)]: F.one,
        E.index[(0, 1, 2)]: -F.one,
    }


def test_alpha_images_equal_the_central_product(trial_zorn):
    # (rho(xi^k) a1, rho2(xi^k) a2) on all 384 monomials (mask, k)
    V, E, Cl, am = trial_zorn["V"], trial_zorn["E"], trial_zorn["Cl"], trial_zorn["alpha"]
    L = V.L
    for mask in Cl.masks:
        a1, a2 = am._even[mask]
        for k, xk in enumerate((L.one, L.xi, L.xi2)):
            expected = tuple(E.product(E.central_scalar(L.rho(xk, t)), a) for t, a in ((1, a1), (2, a2)))
            assert am.image_of_monomial(mask, k) == expected


def test_alpha_certificates(trial_zorn):
    am = trial_zorn["alpha"]
    assert alpha_multiplicative_sample(am, seed=1, count=80)
    assert alpha_involution_compatible(am)


def test_alpha_on_squares(mod, trial_zorn):
    # alpha(x.x) = (rho(Q(x)) id, rho2(Q(x)) id) through the twisted
    # L-structures
    V = mod["V_zorn"]
    E, Cl, am = trial_zorn["E"], trial_zorn["Cl"], trial_zorn["alpha"]
    L = V.L
    for i in range(0, V.dim, 4):
        x = V.basis_vec(i)
        sq = Cl.odd_product(Cl.vector(x), Cl.vector(x))
        a1, a2 = am(sq)
        q = V.quadratic(x)
        assert a1 == E.central_scalar(L.rho(q, 1))
        assert a2 == E.central_scalar(L.rho(q, 2))


@pytest.fixture(scope="module")
def lie_zorn(mod, trial_zorn):
    return lie_of_E(mod["V_zorn"], trial_zorn["E"], trial_zorn["kappa"], trial_zorn["alpha"])


def test_lie_of_E(mod, trial_zorn, lie_zorn):
    V = mod["V_zorn"]
    assert len(lie_zorn) == 28
    assert lie_of_E_equals_der(V, trial_zorn["E"], lie_zorn, der_cyclic(V))


def test_lie_of_E_equals_der_rejects_outside_element(mod, trial_zorn, lie_zorn):
    # an element of Skew(E, sigma) outside L(E) in place of one element of
    # L(E) changes the span
    V, E = mod["V_zorn"], trial_zorn["E"]
    span = echelon_from(V.field, lie_zorn)
    outside = next(b for b in so_blocks(V.S) if not span.contains(b))
    assert not lie_of_E_equals_der(V, E, [outside] + lie_zorn[1:], der_cyclic(V))


def test_induced_E_grading_and_type(fines, trial_zorn):
    built = fines["cartan"]
    E = trial_zorn["E"]
    gE = induce_E_grading(built.grading, E)
    assert gE.verified
    ty, h = detect_type(gE)
    assert ty == "III" and h == built.h
    assert h.order() == 3
    # kappa and alpha preserve the degrees
    assert e_grading_kappa_alpha_compatible(
        built.grading, gE, E, trial_zorn["Cl"], trial_zorn["kappa"], trial_zorn["alpha"]
    )
    # center components are F, F xi, F xi^2
    G = built.grading.group
    Q, pr = quotient(G, [built.h])
    gE_coarse = coarsen(gE, pr)
    ty2, _ = detect_type(gE_coarse)
    assert ty2 == "I"


def test_trivial_grading_detects_type_I(mod, trial_zorn):
    G = make_group(0, [3])
    built = build(params_r8(G, G.element((1,)), "p"))
    T = make_group(0, [])
    gr = coarsen(built.grading, GroupHom(G, T, []))
    gE = induce_E_grading(gr, trial_zorn["E"])
    ty, _ = detect_type(gE)
    assert ty == "I"


def test_order_two_center_degree_is_rejected(trial_zorn):
    # a verified grading of V forces 3 deg(xi) = e, so no grading on E has
    # deg(xi) of order 2; a hand-built, unverified one is an error, not Type II
    E = trial_zorn["E"]
    G = make_group(0, [2])
    g = G.element((1,))
    gE = Grading(E, G, {"A": [k * g for (_p, _r, k) in E.keys]})
    with pytest.raises(TrialitarianError, match="unexpected order 2"):
        detect_type(gE)


def test_induce_coarsen_functorial(fines, trial_zorn):
    built = fines["cartan"]
    E = trial_zorn["E"]
    G = built.grading.group
    Q, pr = quotient(G, [built.h])
    a = coarsen(induce_E_grading(built.grading, E), pr)
    b = induce_E_grading(coarsen(built.grading, pr), E)
    assert (a.group, a.degrees) == (b.group, b.degrees)


def test_verify_grading_catches_corrupted_involution(fines, trial_zorn):
    # one extra entry in one row of sigma, pointing at an operator of
    # another degree, is the one violation of the induced Cartan E grading
    built = fines["cartan"]
    E = trial_zorn["E"]
    gE = induce_E_grading(built.grading, E)
    degs = gE.degrees["A"]
    j = next(j for j in range(E.dim) if degs[j] != degs[0])
    bad = copy.copy(E)
    bad.involution = dict(E.involution)
    bad.involution[0] = {**E.involution[0], j: E.field.one}
    rep = verify_grading(Grading(bad, gE.group, gE.degrees))
    assert rep.violations == [("involution", (0,), j, repr(E.field.one))]
    assert rep.checked == verify_grading(gE).checked + 1


def test_kappa_alpha_compatibility_catches_moved_degree(fines, trial_zorn):
    built = fines["cartan"]
    E = trial_zorn["E"]
    gE = induce_E_grading(built.grading, E)
    moved = gE.copy_with_degree("A", 0, gE.degrees["A"][0] + built.h)
    assert not e_grading_kappa_alpha_compatible(
        built.grading, moved, E, trial_zorn["Cl"], trial_zorn["kappa"], trial_zorn["alpha"]
    )


def test_alpha_involution_catches_corrupted_image(trial_zorn):
    # one entry of the first factor of the image of one monomial, plus one
    am = trial_zorn["alpha"]
    mask = min(m for m in am.Cl.masks if m)
    a1, a2 = am._even[mask]
    idx = min(a1)
    bad = copy.copy(am)
    bad._even = dict(am._even)
    bad._even[mask] = ({**a1, idx: a1[idx] + am.E.field.one}, a2)
    assert not alpha_involution_compatible(bad)


def test_alpha_multiplicative_sample_catches_corrupted_image(trial_zorn):
    # the first factor of the image of the first monomial the seeded
    # sample draws, negated: its first product no longer matches
    am = trial_zorn["alpha"]
    mask = random.Random(1).choice(am.Cl.masks)
    a1, a2 = am._even[mask]
    assert a1
    bad = copy.copy(am)
    bad._even = dict(am._even)
    bad._even[mask] = ({i: -c for i, c in a1.items()}, a2)
    assert alpha_multiplicative_sample(am, seed=1, count=80)
    assert not alpha_multiplicative_sample(bad, seed=1, count=80)


# The hand-written sums of CliffordEven that the linalg kernels replaced,
# kept as oracles.


def reference_scale_l(Cl, l_elt, x):
    out = {}
    for i, a in x.items():
        m, k = Cl.key_of(i)
        for k2, c in enumerate(l_elt):
            if c.is_zero():
                continue
            idx = Cl.key_index(m, k + k2)
            t = out.get(idx)
            t2 = a * c if t is None else t + a * c
            if t2.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = t2
    return out


def reference_reversal(Cl, x):
    out = {}
    for i, a in x.items():
        m, k = Cl.key_of(i)
        gens = [g for g in range(Cl.n) if m & (1 << g)]
        acc = {0: Cl.field.one}
        for g in gens:  # multiply e_g from the left in reversed order
            nxt = {}
            for mm, c in acc.items():
                axpy(nxt, c, Cl._left_gen(g, mm))
            acc = nxt
        for mm, c in acc.items():
            idx = Cl.key_index(mm, k)
            t = out.get(idx)
            t2 = a * c if t is None else t + a * c
            if t2.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = t2
    return out


def reference_odd_product(Cl, xv, yv):
    out = {}
    for (m1, k1), a in xv.items():
        for (m2, k2), b in yv.items():
            ab = a * b
            for m3, c in Cl._mask_mul(m1, m2).items():
                idx = Cl.key_index(m3, k1 + k2)
                t = out.get(idx)
                t2 = ab * c if t is None else t + ab * c
                if t2.is_zero():
                    out.pop(idx, None)
                else:
                    out[idx] = t2
    return out


def test_clifford_sums_match_the_reference_loops(trial_zorn):
    # on all 384 monomials of Cl_0: scale_l by 1, xi, xi^2 and
    # 1 + 2 xi - 5 xi^2, the reversal, and the products on either side with
    # three monomials and two sums of monomials, where terms cancel; then
    # the products of all pairs of basis vectors of V; values and key order
    V, Cl = trial_zorn["V"], trial_zorn["Cl"]
    L, F = V.L, V.field
    monomials = [{Cl.key_of(i): F.one} for i in range(Cl.dim)]
    vectors = [Cl.vector(V.basis_vec(j)) for j in range(V.dim)]
    w = F.omega
    sums = [
        {(0, 0): F.one, (0b11, 1): w, (0b1100, 2): F.scalar(-5), (0b11110000, 0): F.scalar(2, 3)},
        {(0b11, 0): F.scalar(-1), (0b101, 1): w * w, (0b11, 2): F.scalar(7)},
    ]
    evens = [{(0, 1): F.one}, {(0b11, 0): F.one}, {(0b11000011, 2): F.one}] + sums
    for mono in monomials:
        ((key, one),) = mono.items()
        x = {Cl.key_index(*key): one}
        for l in (L.one, L.xi, L.xi2, (F.one, F.scalar(2), F.scalar(-5))):
            assert list(Cl.scale_l(l, x).items()) == list(reference_scale_l(Cl, l, x).items())
        assert list(Cl.reversal(x).items()) == list(reference_reversal(Cl, x).items())
        for y in evens:
            for a, b in ((mono, y), (y, mono)):
                assert list(Cl.odd_product(a, b).items()) == list(reference_odd_product(Cl, a, b).items())
    for a in vectors:
        for b in vectors:
            assert list(Cl.odd_product(a, b).items()) == list(reference_odd_product(Cl, a, b).items())
    x = Cl.product({Cl.key_index(0, 0): F.one, Cl.key_index(0b11, 1): w}, {Cl.key_index(0b1111, 2): F.scalar(3)})
    assert list(Cl.reversal(x).items()) == list(reference_reversal(Cl, x).items())
