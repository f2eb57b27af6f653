import copy

import pytest

from triality import trilie
from triality.fgab import GroupHom, make_group, quotient
from triality.grading import Grading, coarsen, verify_grading
from triality.linalg import axpy, compose, echelon_from
from triality.trilie import (
    TrialityError,
    _homogeneous_pieces,
    center_elements,
    center_orbit,
    component_spans,
    cyclic_shift_closed,
    der_cyclic,
    graded_module_check,
    induce_tri_grading,
    is_d4_cartan_matrix,
    operator_degrees,
    orbit_pairwise_distinct,
    root_datum,
    tri_basis,
    verify_lie,
)
from triality.classify import build, params_r0, params_r8


def test_tri_dimensions_and_shift(tri_zorn, tri_okubo):
    assert tri_zorn.dim == 28
    assert tri_okubo.dim == 28
    assert cyclic_shift_closed(tri_zorn)
    assert cyclic_shift_closed(tri_okubo)


def test_tri_basis_is_its_own_reduced_rows(field, tri_zorn, tri_okubo):
    # the basis is the reduced rows of its span, so each basis vector reads
    # back as itself; vectors of End(S)^3 outside tri(S) are refused: the
    # identity in every block (not n-skew) and a basis vector with one
    # entry moved
    for tri in (tri_zorn, tri_okubo):
        assert tri.vectors == echelon_from(field, tri.vectors).basis()
        assert all(tri.span.coordinates(v) == {k: field.one} for k, v in enumerate(tri.vectors))
        nn = tri.S.dim * tri.S.dim
        identity = {c * nn + i * tri.S.dim + i: field.one for c in range(3) for i in range(tri.S.dim)}
        bent = dict(tri.vectors[0])
        idx = max(bent)
        bent[idx] = bent[idx] + field.one
        for vec in (identity, bent):
            assert not tri.contains(vec)
            assert tri.span.coordinates(vec) is None
        assert tri.contains(tri.vectors[0])


def test_tri_basis_kept_per_model(mod, tri_okubo):
    # one solve per model instance; a copy is solved afresh, so a corrupted
    # copy is refused rather than handed the model's tri(S)
    import copy

    S = mod["okubo"]
    assert tri_basis(S) is tri_okubo
    twin = copy.copy(S)
    tri_twin = tri_basis(twin)
    assert tri_twin is not tri_okubo and tri_twin.vectors == tri_okubo.vectors
    assert tri_basis(twin) is tri_twin and tri_basis(S) is tri_okubo
    bad = copy.copy(S)
    key = min(S.mul)
    bad.mul = {**S.mul, key: {k: c + c for k, c in S.mul[key].items()}}
    with pytest.raises(TrialityError):
        tri_basis(bad)


def test_lie_laws_exact(tri_zorn, tri_okubo):
    for tri in (tri_zorn, tri_okubo):
        rep = verify_lie(tri)
        assert rep.violations == []
        # 28 alternating + C(28, 2) antisymmetry + C(28, 3) Jacobi identities
        assert rep.checked == 28 + 378 + 3276


def test_corrupted_bracket_located(field, tri_zorn):
    import copy

    from triality.grading import StructAlgebra

    mul = {k: dict(v) for k, v in tri_zorn.lie.mul.items()}
    out = next(iter(mul[(0, 1)]))
    mul[(0, 1)][out] = mul[(0, 1)][out] + field.one
    bad = copy.copy(tri_zorn)
    bad.lie = StructAlgebra(field, tri_zorn.lie.labels, mul)
    rep = verify_lie(bad)
    assert not rep.ok
    assert rep.violations[0] == ("antisymmetric", (0, 1))
    assert {name for name, _ in rep.violations} == {"antisymmetric", "jacobi"}


def test_root_datum_d4(tri_zorn, tri_okubo):
    for tri in (tri_zorn, tri_okubo):
        rd = root_datum(tri)
        assert len(rd.cartan) == 4
        assert len(rd.roots) == 24
        assert {tuple(-x for x in r) for r in rd.roots} == set(rd.roots)  # +- pairs
        assert is_d4_cartan_matrix(rd.cartan_matrix)
        assert sorted(sum(1 for x in row if x == -1) for row in rd.cartan_matrix) == [1, 1, 1, 3]


def test_der_equals_tri(field, mod, tri_zorn, tri_okubo):
    def span(tri):
        return echelon_from(field, tri.vectors).canonical()

    derC = der_cyclic(mod["V_zorn"])
    assert derC.dim == 28
    assert span(derC) == span(tri_zorn)
    derO = der_cyclic(mod["V_okubo"])
    assert span(derO) == span(tri_okubo)


def test_derivation_property_on_V(mod, tri_zorn):
    # componentwise action of a basis triple is a derivation of *
    V = mod["V_zorn"]
    from triality.trilie import xi_transform

    for vec in tri_zorn.vectors[:6]:
        # entry (q, p) of delta_k at position k*64 + q*8 + p
        deltas = xi_transform(V.field, vec, 64, to_deltas=True)

        def apply(v):
            out = {}
            for i, c in v.items():
                p, col = V.split(i)
                for idx, co in deltas.items():
                    k, q, r = idx // 64, idx // 8 % 8, idx % 8
                    if r == p:
                        key = V.idx(q, col + k)
                        cur = out.get(key, V.field.zero) + co * c
                        if cur.is_zero():
                            out.pop(key, None)
                        else:
                            out[key] = cur
            return out

        for i in range(0, V.dim, 5):
            for j in range(0, V.dim, 7):
                x, y = V.basis_vec(i), V.basis_vec(j)
                lhs = apply(V.product(x, y))
                rhs = V.add(V.product(apply(x), y), V.product(x, apply(y)))
                assert lhs == rhs


def test_apply_deltas_matches_xi_transform(mod, tri_zorn):
    # on e_i V, with e_i the i-th primitive idempotent of L, an L-linear map
    # in delta coordinates acts as block i of its triple: applying the
    # deltas of d to e_i s_p gives e_i d_i(s_p), d_i(s_p) being column p of
    # block i
    from triality.trilie import apply_deltas, xi_transform

    V = mod["V_zorn"]
    idem = V.L.idempotents()
    for vec in tri_zorn.vectors:
        deltas = xi_transform(V.field, vec, 64, to_deltas=True)
        for i, e in enumerate(idem):
            for p in range(8):
                col = {V.idx(idx // 8 % 8, 0): c for idx, c in vec.items() if idx // 64 == i and idx % 8 == p}
                expected = V.act(e, col)
                sp = V.act(e, V.basis_vec(V.idx(p, 0)))
                assert apply_deltas(V, deltas, sp) == expected


def test_trivial_grading_induces_trivial(mod, tri_zorn):
    V = mod["V_zorn"]
    G = make_group(0, [3])
    h = G.element((1,))
    built = build(params_r8(G, h, "p"))
    # coarsen to the trivial group: everything in degree e
    T = make_group(0, [])
    gr = coarsen(built.grading, GroupHom.zero(G, T))
    out, adapted = induce_tri_grading(gr, tri_zorn)
    assert len(out.components()) == 1
    assert len(adapted) == 28


def test_induce_and_coarsen_commute(mod, tri_zorn, fines):
    from triality.linalg import Echelon
    from triality.trilie import xi_transform

    built = fines["cartan"]
    V = built.grading.structure
    G = built.params.group
    Q, pr = quotient(G, [built.params.h])
    out_fine, adapted_fine = induce_tri_grading(built.grading, tri_zorn)
    coarse_first = coarsen(built.grading, pr)
    out_coarse, adapted_coarse = induce_tri_grading(coarse_first, tri_zorn)

    def spans(adapted, project):
        buckets = {}
        for g, trip in adapted:
            key = project(g).canonical()
            buckets.setdefault(key, Echelon(V.field)).insert(xi_transform(V.field, trip, 64, to_deltas=True))
        return {k: e.canonical() for k, e in buckets.items()}

    assert spans(adapted_fine, pr) == spans(adapted_coarse, lambda g: g)


def test_graded_module_instance(fines):
    for kind in ("cartan", "z2cubed", "okubo"):
        built = fines[kind]
        _out, adapted = induce_tri_grading(built.grading, tri_basis(built.V.S))
        assert graded_module_check(built.grading, adapted)


def test_graded_module_rejects_wrong_degree(fines, tri_okubo):
    # one adapted derivation moved to a wrong degree no longer maps each
    # component of V into the component its degree names
    built = fines["okubo"]
    _out, adapted = induce_tri_grading(built.grading, tri_okubo)
    g0, d0 = adapted[0]
    moved = [(g0 + built.params.group.element((1, 0, 0)), d0)] + adapted[1:]
    assert not graded_module_check(built.grading, moved)


def reference_graded_module_check(grading, adapted):
    """graded_module_check by applying each adapted derivation to every
    basis vector of V and reading the degrees of the image's support."""
    V = grading.structure
    nn = V.S.dim * V.S.dim
    degs = [d.canonical() for d in grading.degrees["V"]]
    for g, trip in adapted:
        x = trilie.xi_transform(V.field, trip, nn, to_deltas=True)
        for i in range(V.dim):
            target = (g + grading.degrees["V"][i]).canonical()
            if any(degs[j] != target for j in trilie.apply_deltas(V, x, V.basis_vec(i))):
                return False
    return True


def test_graded_module_check_matches_the_reference(fines, tri_okubo):
    # the three fine gradings pass both checks; moving any one of the 28
    # adapted derivations of the Okubo grading to a wrong degree fails both
    for kind in ("cartan", "z2cubed", "okubo"):
        built = fines[kind]
        _out, adapted = induce_tri_grading(built.grading, tri_basis(built.V.S))
        assert graded_module_check(built.grading, adapted) and reference_graded_module_check(built.grading, adapted)
    built = fines["okubo"]
    _out, adapted = induce_tri_grading(built.grading, tri_okubo)
    shift = built.params.group.element((1, 0, 0))
    assert len(adapted) == 28
    for m, (g, d) in enumerate(adapted):
        moved = adapted[:m] + [(g + shift, d)] + adapted[m + 1:]
        assert not graded_module_check(built.grading, moved)
        assert not reference_graded_module_check(built.grading, moved)


def oracle_e_degree_map(grading, spans):
    """Degree of every elementary operator of End_L(V) with respect to a
    component decomposition of V, by exact membership: the operator maps
    each component into exactly one component, with a shift independent of
    the component.  Raises if no consistent shift exists."""
    V = grading.structure
    G = grading.group
    one = V.field.one
    bases = [(g, ech.basis()) for g, ech in spans.items()]
    out = []
    for pos, guess_el in enumerate(operator_degrees(grading)):
        guess = guess_el.canonical()
        shift = None
        for g, rows in bases:
            img_vecs = [img for img in (trilie.apply_deltas(V, {pos: one}, row) for row in rows) if img]
            if not img_vecs:
                continue
            target = spans.get((guess_el + G.element(g)).canonical())
            if target is None or not all(target.contains(v) for v in img_vecs):
                # fall back to scanning every component
                target_g = next((g2 for g2, ech2 in spans.items() if all(ech2.contains(v) for v in img_vecs)), None)
                if target_g is None:
                    raise TrialityError(f"operator at delta position {pos} is not homogeneous")
                found = (G.element(target_g) - G.element(g)).canonical()
            else:
                found = guess
            if shift is None:
                shift = found
            elif shift != found:
                raise TrialityError(f"operator at delta position {pos} has inconsistent degree")
        out.append(shift if shift is not None else guess)
    return out


def oracle_center_orbit(grading, tri):
    """The four-fold computation: for each l of the center, the operator
    degrees and the tri(S) components induced by l . Gamma, each computed
    afresh."""
    results = []
    for l_elt in center_elements(grading.structure.L):
        spans = component_spans(grading, l_elt)
        e_deg = oracle_e_degree_map(grading, spans)
        buckets = _homogeneous_pieces(tri, e_deg, "center-orbit piece leaves tri(S)")
        tri_comps = {g: echelon_from(tri.field, pieces).canonical() for g, pieces in buckets.items()}
        results.append({"spans": spans, "e_degrees": e_deg, "tri_components": tri_comps})
    return results


def oracle_induces_identical(results):
    base = results[0]
    return all(r["e_degrees"] == base["e_degrees"] and r["tri_components"] == base["tri_components"] for r in results[1:])


def test_center_orbit(fines):
    # the decision made once agrees with the four recomputations, and each
    # regrading induces the operator degrees of the grading itself
    for built in fines.values():
        oracle = oracle_center_orbit(built.grading, tri_basis(built.V.S))
        same, orbit = center_orbit(built.grading)
        assert len(orbit) == 4
        assert (same, orbit_pairwise_distinct(orbit)) == (
            oracle_induces_identical(oracle),
            orbit_pairwise_distinct([r["spans"] for r in oracle]),
        ) == (True, True)
        degrees = [d.canonical() for d in operator_degrees(built.grading)]
        assert all(r["e_degrees"] == degrees for r in oracle)


def test_center_orbit_mutants(fines, monkeypatch):
    built = fines["okubo"]
    grading, V = built.grading, built.V
    real_apply, real_degrees = trilie.apply_deltas, trilie.operator_degrees

    def on_xi2(col, scale):
        # the rule on s_r (x) xi^2 moved to the column col and scaled:
        # neither mutant is L-linear, and the second keeps every degree
        def rule(W, x, vec):
            out = {}
            for i, c in vec.items():
                q, j = W.split(i)
                image = real_apply(W, x, {W.idx(q, col if j == 2 else j): W.field.one})
                axpy(out, c * W.field.scalar(scale) if j == 2 else c, image)
            return out

        return rule

    for rule in (on_xi2(0, 1), on_xi2(2, -1)):
        with monkeypatch.context() as m:
            m.setattr(trilie, "apply_deltas", rule)
            assert center_orbit(grading)[0] is False
    with monkeypatch.context() as m:
        m.setattr(trilie, "operator_degrees", lambda g: [real_degrees(g)[0] + built.params.h] + real_degrees(g)[1:])
        assert center_orbit(grading)[0] is False
    assert center_orbit(grading)[0] is True
    # one doubled product constant keeps every degree, so the grading still
    # verifies, but multiplication by the center no longer is an automorphism
    bad = copy.copy(V)
    key = min(V.mul)
    bad.mul = {**V.mul, key: {k: c + c for k, c in V.mul[key].items()}}
    bad_grading = Grading(bad, grading.group, grading.degrees)
    assert verify_grading(bad_grading).ok
    with pytest.raises(TrialityError, match="center element is not an automorphism"):
        center_orbit(bad_grading)


def test_induced_grading_verifies_and_counts(fines, tri_okubo):
    built = fines["okubo"]
    out, adapted = induce_tri_grading(built.grading, tri_okubo)
    assert out.verified
    assert len(out.identity_component()) == 0
    assert sum(len(ix) for ix in out.components().values()) == 28


def _dense_mul(A, B, zero):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n) if not A[i][k].is_zero() and not B[k][j].is_zero()), zero) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("kind", ["cartan", "okubo"])
def test_induced_brackets_match_dense_commutators(kind, fines, tri_zorn, tri_okubo):
    # the structure constants of the adapted basis, taken in delta
    # coordinates, against dense componentwise commutators of its triples
    tri = tri_zorn if kind == "cartan" else tri_okubo
    out, adapted = induce_tri_grading(fines[kind].grading, tri)
    F = tri.field
    mul = out.structure.mul
    # dense reference: the three 8x8 components of each sparse triple
    trips = []
    for _g, vec in adapted:
        comps = [[[F.zero] * 8 for _ in range(8)] for _ in range(3)]
        for idx, c in vec.items():
            comps[idx // 64][idx // 8 % 8][idx % 8] = c
        trips.append(comps)
    for a, ta in enumerate(trips):
        for b, tb in enumerate(trips):
            if a == b:
                continue
            lhs = [
                [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(_dense_mul(A, B, F.zero), _dense_mul(B, A, F.zero))]
                for A, B in zip(ta, tb)
            ]
            rhs = [[[F.zero] * 8 for _ in range(8)] for _ in range(3)]
            for k, c in mul.get((a, b), {}).items():
                for comp in range(3):
                    for i in range(8):
                        for j in range(8):
                            x = trips[k][comp][i][j]
                            if not x.is_zero():
                                rhs[comp][i][j] = rhs[comp][i][j] + c * x
            assert lhs == rhs, (kind, a, b)


# The hand-written sums that the linalg kernels replaced, kept as oracles.


def reference_compose(A, B, n):
    """The product A B of two flat n x n matrices, added term by term."""
    rows_b = {}
    for idx, b in B.items():
        rows_b.setdefault(idx // n, []).append((idx % n, b))
    out = {}
    for idx, a in A.items():
        row_b = rows_b.get(idx % n)
        if row_b is None:
            continue
        base = idx - idx % n
        for j, b in row_b:
            t = out.get(base + j)
            out[base + j] = a * b if t is None else t + a * b
    return {idx: c for idx, c in out.items() if not c.is_zero()}


def reference_bracket(xs, ys, n):
    """The componentwise commutator, added term by term."""
    nn = n * n
    acc = {}
    for k, (a, b) in enumerate(zip(xs, ys)):
        if not a or not b:
            continue
        base = k * nn
        for idx, c in reference_compose(a, b, n).items():
            t = acc.get(base + idx)
            acc[base + idx] = c if t is None else t + c
        for idx, c in reference_compose(b, a, n).items():
            t = acc.get(base + idx)
            acc[base + idx] = -c if t is None else t - c
    return {idx: c for idx, c in acc.items() if not c.is_zero()}


def reference_xi_transform(F, vec, nn, to_deltas):
    """The change between triple and delta coordinates, term by term."""
    w = F.omega
    wp = (F.one, w, w * w)
    if to_deltas:
        third = F.scalar(1, 3)
        fac = [[third * wp[(-j * i) % 3] for i in range(3)] for j in range(3)]
    else:
        fac = [[wp[(j * i) % 3] for i in range(3)] for j in range(3)]
    out = {}
    for idx, c in vec.items():
        i, rem = divmod(idx, nn)
        for j in range(3):
            x = fac[j][i] * c
            t = out.get(j * nn + rem)
            out[j * nn + rem] = x if t is None else t + x
    return {idx: c for idx, c in sorted(out.items()) if not c.is_zero()}


def reference_apply_deltas(V, x, vec):
    """An element of End_L(V) in delta coordinates applied to V, term by term."""
    n = V.S.dim
    out = {}
    for pos, a in x.items():
        k, rem = divmod(pos, n * n)
        p, r = divmod(rem, n)
        for vidx, c in vec.items():
            q, col = V.split(vidx)
            if q != r:
                continue
            key = V.idx(p, col + k)
            t = out.get(key)
            t2 = a * c if t is None else t + a * c
            if t2.is_zero():
                out.pop(key, None)
            else:
                out[key] = t2
    return out


def same_items(got, want):
    """Equal values with the keys in the same order."""
    return list(got.items()) == list(want.items())


@pytest.mark.parametrize("name", ["tri_zorn", "tri_okubo"])
def test_tri_sums_match_the_reference_loops(request, name):
    # compose on every pair of blocks of the basis, the bracket of every
    # basis pair, and xi_transform both ways on every basis vector (and
    # back from its deltas), all in the same key order
    tri = request.getfixturevalue(name)
    F, n = tri.field, tri.S.dim
    nn = n * n
    blocks = [trilie._blocks(v, nn) for v in tri.vectors]
    for xs in blocks:
        for ys in blocks:
            for a, b in zip(xs, ys):
                assert same_items(compose(a, b, n), reference_compose(a, b, n))
            assert same_items(trilie._bracket(F, xs, ys, n), reference_bracket(xs, ys, n))
    for vec in tri.vectors:
        deltas = trilie.xi_transform(F, vec, nn, to_deltas=True)
        assert same_items(deltas, reference_xi_transform(F, vec, nn, True))
        assert same_items(trilie.xi_transform(F, vec, nn, to_deltas=False), reference_xi_transform(F, vec, nn, False))
        assert same_items(trilie.xi_transform(F, deltas, nn, to_deltas=False), reference_xi_transform(F, deltas, nn, False))


def test_apply_deltas_matches_the_reference_loop(mod, tri_zorn):
    # all 192 elementary operators on all 24 basis vectors, and the basis
    # derivations of tri(S) in delta coordinates on the basis and on sums
    # of basis vectors, in the same key order
    V = mod["V_zorn"]
    F = V.field
    bas = [V.basis_vec(i) for i in range(V.dim)]
    for pos in range(3 * 64):
        for x in bas:
            assert same_items(trilie.apply_deltas(V, {pos: F.one}, x), reference_apply_deltas(V, {pos: F.one}, x))
    sums = [axpy(dict(x), F.scalar(-3), y) for x, y in zip(bas, bas[5:] + bas[:5])]
    for vec in tri_zorn.vectors:
        d = trilie.xi_transform(F, vec, 64, to_deltas=True)
        for x in bas + sums:
            assert same_items(trilie.apply_deltas(V, d, x), reference_apply_deltas(V, d, x))
