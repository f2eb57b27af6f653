import dataclasses
import functools
import itertools
import json
import pathlib

import pytest

from triality.classify import (
    ParamError,
    build,
    canonical_key,
    fine_typeIII,
    models,
    okubo_orientation,
    params_r0,
    params_r1,
    params_r2,
    params_r4,
    params_r8,
    refinement_impossible,
    similar_params,
    witness_map,
)
from triality.cli import invariants_of_built
from triality.cyclic import CyclicAlgebra, tensor_grading
from triality.fgab import GroupHom, make_group, quotient, subgroup_elements
from triality.grading import Grading, universal_group, verify_grading
from triality.scalars import CycloScalar

import triality.classify as classify

import sweep_utils


G333 = sweep_utils.G333
G2223 = sweep_utils.G2223
CLASS_INVARIANTS = pathlib.Path(__file__).resolve().parent / "golden" / "class_invariants.json"


def test_build_examples_and_support():
    h = G333.element((0, 0, 1))
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    b0 = build(params_r0(G333, k1, k2, h, "+"))
    assert b0.rank == 0
    kh = subgroup_elements([k1, k2, h])
    hspan = subgroup_elements([h])
    assert set(b0.grading.support("V")) == kh - hspan
    # r=4 on Z x Z3 (infinite group)
    Gz = make_group(1, [3])
    b4 = build(params_r4(Gz, Gz.element((1, 0)), Gz.element((0, 1))))
    assert b4.rank == 4
    # r=2 with some g_i in <h> is refused, naming the condition
    with pytest.raises(ParamError, match="outside"):
        params_r2(G333, (h, G333.element((1, 0, 0)), -(h + G333.element((1, 0, 0)))), h)


def test_rank_values():
    h = G333.element((0, 0, 1))
    g = G333.element((1, 0, 0))
    assert build(params_r8(G333, h, "p")).rank == 8
    assert build(params_r8(G333, h, "o")).rank == 8
    assert build(params_r4(G333, g, h)).rank == 4
    assert build(params_r2(G333, (g, G333.element((0, 1, 0)), -(g + G333.element((0, 1, 0)))), h)).rank == 2
    h2 = G2223.element((0, 0, 2))
    K = [G2223.element((1, 0, 0)), G2223.element((0, 1, 0)), G2223.element((0, 0, 3))]
    assert build(params_r1(G2223, K, h2)).rank == 1


def test_similarity_bullet_examples():
    h = G333.element((0, 0, 1))
    g = G333.element((1, 0, 0))
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    # r=4: (g, h) ~ (g^-1, h)
    assert similar_params(params_r4(G333, g, h), params_r4(G333, -g, h)).similar
    # r=0: (K, h, +) ~ (K, h^-1, -)
    assert similar_params(
        params_r0(G333, k1, k2, h, "+"), params_r0(G333, k1, k2, 2 * h, "-")
    ).similar
    # r=8: (h, p) vs (h, o) differ
    assert not similar_params(params_r8(G333, h, "p"), params_r8(G333, h, "o")).similar
    # different ranks are never similar
    assert not similar_params(params_r8(G333, h, "p"), params_r4(G333, g, h)).similar


def test_orientation_invariant_separates():
    # the key carries the rank-0 orientation class: (K, h, +) and
    # (K, h^-1, +) are not similar, (K, h, +) and (K, h^-1, -) are
    h = G333.element((0, 0, 1))
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    plus_h = build(params_r0(G333, k1, k2, h, "+"))
    plus_hinv = params_r0(G333, k1, k2, 2 * h, "+")
    minus_hinv = params_r0(G333, k1, k2, 2 * h, "-")
    assert okubo_orientation(plus_h) == "+"
    assert canonical_key(plus_h.params) != canonical_key(plus_hinv)
    assert canonical_key(plus_h.params) == canonical_key(minus_hinv)
    # invariance under the center orbit: regrade by l and re-read
    from triality.trilie import center_elements

    V = plus_h.grading.structure
    L = V.L
    for l_elt in center_elements(L):
        comps = plus_h.grading.components("V")
        (i1,) = comps[k1.canonical()]
        (i2,) = comps[k2.canonical()]
        x = V.act(l_elt, V.basis_vec(i1))
        y = V.act(l_elt, V.basis_vec(i2))
        assert not V.product(x, y) and V.product(y, x)


def corrupted_rank0(nonzero):
    """The rank-0 record with delta = '+' whose V has one product of the
    generators x of V_{k1} and y of V_{k2} corrupted: x*y set to y*x, so
    both are nonzero, or y*x deleted, so both are 0."""
    k1, k2, h = G333.element((1, 0, 0)), G333.element((0, 1, 0)), G333.element((0, 0, 1))
    built = build(params_r0(G333, k1, k2, h, "+"))
    V, g = built.V, built.grading
    (i,), (j,) = (g.components("V")[k.canonical()] for k in (k1, k2))
    mul = dict(V.mul)
    assert (i, j) not in mul and mul[(j, i)]
    if nonzero:
        mul[(i, j)] = mul[(j, i)]
    else:
        del mul[(j, i)]
    bad = CyclicAlgebra(V.S, V.L, mul, V.bq, twist=V.twist)
    return dataclasses.replace(built, V=bad, grading=Grading(bad, g.group, g.degrees))


@pytest.mark.parametrize("nonzero", [True, False], ids=["both_nonzero", "both_zero"])
def test_orientation_refuses_a_broken_dichotomy(nonzero):
    with pytest.raises(ParamError, match="dichotomy"):
        okubo_orientation(corrupted_rank0(nonzero))


def test_orientation_refuses_other_ranks_and_non_lines():
    h = G333.element((0, 0, 1))
    with pytest.raises(ParamError, match="rank-0"):
        okubo_orientation(build(params_r8(G333, h, "p")))
    # the degree of the generator at k2 moved to k1: V_{k1} is a plane
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    built = build(params_r0(G333, k1, k2, h, "+"))
    g = built.grading
    (j,) = g.components("V")[k2.canonical()]
    plane = dataclasses.replace(built, grading=g.copy_with_degree("V", j, k1))
    with pytest.raises(ParamError, match="not a line"):
        okubo_orientation(plane)


def test_orientation_inverts_no_scalar(monkeypatch):
    # the sign is read on the lines as built: nothing is rescaled
    k1, k2, h = G333.element((1, 0, 0)), G333.element((0, 1, 0)), G333.element((0, 0, 1))
    records = [build(params_r0(G333, k1, k2, h, d)) for d in "+-"]
    calls = []
    real = CycloScalar.inverse
    monkeypatch.setattr(CycloScalar, "inverse", lambda self: calls.append(self) or real(self))
    assert [okubo_orientation(b) for b in records] == ["+", "-"]
    assert calls == []


def test_witnesses_pass():
    h = G333.element((0, 0, 1))
    g1, g2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    gamma = (g1, g2, -(g1 + g2))
    assert witness_map("rank4_h_flip", G333, g=g1, h=h)["report"].ok
    assert witness_map("rank2_h_flip", G333, gamma=gamma, h=h)["report"].ok
    shift = witness_map("rank2_shift", G333, gamma=gamma, h=h)["report"]
    assert shift.ok
    assert shift.checked == 2 * 24 * 24 + 2 * 24 + 2 + 1  # and the Cartan pattern of the cut
    assert witness_map("rank0_flip", G333, K=(g1, g2), h=h)["report"].ok
    h2 = G2223.element((0, 0, 2))
    K = [G2223.element((1, 0, 0)), G2223.element((0, 1, 0)), G2223.element((0, 0, 3))]
    assert witness_map("rank1_h_flip", G2223, K=K, h=h2)["report"].ok


def test_rank2_shift_cuts_once(monkeypatch):
    # the idempotent cut is built and certified once, on its homogeneous
    # basis, and that basis is graded with the shifted Cartan pattern
    import triality.classify as classify
    import triality.cyclic as cyclic

    cuts = []
    real = cyclic.cut_on_basis
    for module in (classify, cyclic):
        monkeypatch.setattr(module, "cut_on_basis", lambda *args: cuts.append(real(*args)) or cuts[-1])
    h = G333.element((0, 0, 1))
    g1, g2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    out = witness_map("rank2_shift", G333, gamma=(g1, g2, -(g1 + g2)), h=h)
    assert out["report"].ok
    assert len(cuts) == 1 and out["A"][1] is cuts[0]


def test_sigma_tau_needs_opposite_flag():
    # sigma (x) tau reverses the product: without the opposite flag the
    # same map must fail the product check
    from triality.classify import _conj_tensor_tau_cols, verify_graded_iso

    h = G333.element((0, 0, 1))
    g1 = G333.element((1, 0, 0))
    A = build(params_r4(G333, g1, h))
    B = build(params_r4(G333, g1, 2 * h))
    cols = _conj_tensor_tau_cols(A)
    L = models(12)["L"]
    rep = verify_graded_iso(cols, L.tau, A.grading, B.grading, opposite=False)
    assert not rep.ok
    assert any(f[0] == "product" for f in rep.violations)


def test_identity_map_verifies():
    from triality.classify import verify_graded_iso

    h = G333.element((0, 0, 1))
    built = build(params_r8(G333, h, "p"))
    V = built.grading.structure
    cols = {i: V.basis_vec(i) for i in range(V.dim)}
    rep = verify_graded_iso(cols, lambda l: l, built.grading, built.grading, opposite=False)
    assert rep.ok
    assert rep.checked == 2 * 24 * 24 + 2 * 24 + 2


def test_center_orbit_map_verifies():
    from triality.classify import verify_graded_iso
    from triality.trilie import center_elements
    from triality.grading import Grading
    from triality.cyclic import CyclicAlgebra

    h = G333.element((0, 0, 1))
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    built = build(params_r0(G333, k1, k2, h, "+"))
    V = built.grading.structure
    l_elt = center_elements(V.L)[1]
    cols = {i: V.act(l_elt, V.basis_vec(i)) for i in range(V.dim)}
    # x -> l x is a graded isomorphism onto the regraded model, which has
    # the same structure constants (l is an automorphism), so the identity
    # degree map plays the role of l . Gamma on the moved basis
    rep = verify_graded_iso(cols, lambda l: l, built.grading, built.grading, opposite=False)
    # degree check fails (components move) but algebra checks pass: every
    # one of the 24 basis vectors leaves its component
    assert [f[0] for f in rep.violations] == ["degree"] * 24
    assert sorted(ii for _kind, (_g, ii) in rep.violations) == list(range(24))


def test_fine_gradings_and_non_refinement(fines):
    expected = {
        "cartan": make_group(2, [3]),
        "z2cubed": make_group(0, [2, 2, 2, 3]),
        "okubo": make_group(0, [3, 3, 3]),
    }
    for kind, built in fines.items():
        assert built.universal.group == built.params.group
        assert built.universal.group == expected[kind]
    for a, b in itertools.permutations(fines, 2):
        assert refinement_impossible(fines[a], fines[b]) is not None


# ------------------------------------- the universal group of a coarsening
#
# built.universal is the fine grading's universal group modulo the
# differences that alpha identifies (grading.coarsened_universal); the walk
# of the structure maps, universal_group, is its oracle.


def universal_summary(u):
    """The group, the partition of the basis of every sort by relabeled
    degree, and to_original on the relabeled degree of each basis element."""
    parts = {}
    for sort, ds in u.grading.degrees.items():
        for i, d in enumerate(ds):
            parts.setdefault(d.canonical(), []).append((sort, i))
    back = {sort: [u.to_original(d).canonical() for d in ds] for sort, ds in u.grading.degrees.items()}
    return u.group, sorted(parts.values()), back


def universal_mismatches(params):
    """The tuples whose record's universal result differs from the walk's,
    or whose to_original does not give back the grading's degrees."""
    out = []
    for p in params:
        built = build(p)
        summary = universal_summary(built.universal)
        degrees = {sort: [d.canonical() for d in ds] for sort, ds in built.grading.degrees.items()}
        if summary != universal_summary(universal_group(built.grading)) or summary[2] != degrees:
            out.append(p)
    return out


def test_coarsened_universal_matches_the_walk_on_the_sweep(sweep_tuples):
    tuples = [p for params in sweep_tuples.values() for p in params]
    assert len(tuples) == 912
    assert universal_mismatches(tuples) == []


def test_coarsened_universal_matches_the_walk_with_free_rank(other_tuples):
    # every fourth tuple of the rank-2 and rank-4 families over Z x Z3 and Z^2 x Z3
    tuples = [p for (G, _r), params in other_tuples.items() if G.free_rank for p in params[::4]]
    assert {p.group.free_rank for p in tuples} == {1, 2} and {p.rank for p in tuples} == {2, 4}
    assert universal_mismatches(tuples) == []


def test_a_dropped_identification_fails_the_walk(sweep_tuples, other_tuples, monkeypatch):
    # the quotient rule with one identification left out: d = 0 for the
    # first difference d, that is u ~ u + d for every pair of support
    # elements that differ by +-d.  (Leaving out one generator s - s' alone
    # changes no sweep tuple: its pair recurs, translated, in other fibres.)
    # The quotient is then too large, and the walk tells.
    import triality.grading as grading

    families = [sweep_tuples[(G333, 2)][:12], other_tuples[(make_group(1, [3]), 2)][:12]]
    expected = [[universal_summary(universal_group(build(p).grading)) for p in params] for params in families]
    real = grading._cokernel
    # cartan's universal group (Z^2 x Z3) is computed, walk and all, before
    # the patch; its one torsion relation heads the columns of the quotient
    torsion = len(classify._fine_universal("cartan", 12).group.torsion)

    def dropped(n, columns):
        relations, differences = columns[:torsion], columns[torsion:]
        if differences:
            d = differences[0]
            differences = [v for v in differences if v not in (d, [-x for x in d])]
        return real(n, relations + differences)

    monkeypatch.setattr(grading, "_cokernel", dropped)
    for params, summaries in zip(families, expected):
        wrong = [p for p, summary in zip(params, summaries) if universal_summary(build(p).universal) != summary]
        assert 0 < len(wrong) < len(params)


def test_universal_refuses_a_replaced_grading():
    # a record whose grading is not alpha's pushforward of the fine degrees
    # must not report the fine grading's quotient
    built = build(params_r2(G333, (G333.element((1, 0, 0)), G333.element((0, 1, 0)), G333.element((2, 2, 0))), G333.element((0, 0, 1))))
    g = built.grading
    moved = dataclasses.replace(built, grading=g.copy_with_degree("V", 0, g.degrees["V"][0] + built.params.h))
    with pytest.raises(ValueError, match="not the pushforward"):
        moved.universal
    other_V = corrupted_rank0(True)
    with pytest.raises(ValueError, match="not the pushforward"):
        other_V.universal
    # the same degrees on a new grading object are the pushforward
    again = dataclasses.replace(built, grading=Grading(built.V, G333, g.degrees))
    assert universal_summary(again.universal) == universal_summary(built.universal)


@pytest.fixture(scope="module")
def sweep_tuples():
    return sweep_utils.enumerate_tuples()


def class_invariants(sweep_tuples):
    """Rank, support, type vector and universal group of the first member
    of every similarity class, family by family, as JSON values."""
    rows = []
    for params in sweep_tuples.values():
        first = {}
        for p in params:
            first.setdefault(canonical_key(p), p)
        for p in first.values():
            inv = invariants_of_built(build(p))
            U = inv["universal_group"]
            rows.append(
                {
                    "params": p.describe(),
                    "rank": inv["rank"],
                    "support": inv["support"],
                    "type_vector": inv["type_vector"],
                    "universal_group": [U["free_rank"], U["torsion"]],
                }
            )
    return rows


def test_class_invariants_golden(sweep_tuples):
    # recorded when the universal group came from the Smith normal form of
    # every distinct relation vector, 171 classes over the eight families
    golden = json.loads(CLASS_INVARIANTS.read_text())
    assert len(golden) == 171
    assert class_invariants(sweep_tuples) == golden


def reference_build(p, conductor=12):
    """The four-branch constructor that `build` replaced: the degree formula
    of each rank family on S, verified, tensored with deg xi = h and
    verified again, for every tuple.  Returns (V, grading)."""
    mod = models(conductor)
    G = p.group
    e = G.identity()
    if p.rank == 0:
        S, V = mod["okubo"], mod["V_okubo"]
        k1, k2 = p.K
        degs = [a * k1 + b * k2 if p.delta == "+" else a * k2 + b * k1 for a, b in S.monomial_keys]
    elif p.rank == 1:
        S, V = mod["para_doubled"], mod["V_doubled"]

        def word_degree(label):
            acc = e
            for idx, k in enumerate(p.K, start=1):
                if f"g{idx}" in label:
                    acc = acc + k
            return acc

        degs = [word_degree(lab) for lab in S.labels]
    elif p.rank in (2, 4):
        S, V = mod["para_zorn"], mod["V_zorn"]
        g1, g2 = (p.gamma[0], p.gamma[1]) if p.rank == 2 else (e, p.gamma[0])
        g3 = -(g1 + g2)
        degs = [e, e, g1, g2, g3, -g1, -g2, -g3]
    else:
        S = mod["para_zorn"] if p.t == "p" else mod["okubo"]
        V = mod["V_zorn"] if p.t == "p" else mod["V_okubo"]
        degs = [e] * S.dim
    gS = Grading(S, G, {"A": degs})
    assert verify_grading(gS).ok
    return V, tensor_grading(gS, p.h, V)


def _canonical(grading):
    return {s: [d.canonical() for d in ds] for s, ds in grading.degrees.items()}


def differs_from_reference(p):
    """True when `build(p)` raises ParamError or differs from the reference
    in the model object or in a canonical V or L degree."""
    V, ref = reference_build(p)
    try:
        built = build(p)
    except ParamError:
        return True
    return built.V is not V or _canonical(built.grading) != _canonical(ref)


def free_rank_tuples():
    Z_Z3, Z2_Z3, Z3 = make_group(1, [3]), make_group(2, [3]), make_group(0, [3])
    gamma = (Z2_Z3.element((1, 0, 1)), Z2_Z3.element((0, -2, 0)), Z2_Z3.element((-1, 2, 2)))
    return [
        params_r4(Z_Z3, Z_Z3.element((1, 0)), Z_Z3.element((0, 1))),
        params_r4(Z_Z3, Z_Z3.element((-2, 1)), Z_Z3.element((0, 2))),
        params_r2(Z2_Z3, gamma, Z2_Z3.element((0, 0, 1))),
        params_r2(Z2_Z3, gamma, Z2_Z3.element((0, 0, 2))),
        params_r8(Z3, Z3.element((1,)), "p"),
        params_r8(Z3, Z3.element((2,)), "o"),
    ]


def test_build_matches_reference(sweep_tuples):
    # the coarsenings of the fine gradings are the gradings that the four
    # degree formulas gave, on the same model object, for all 912 sweep
    # tuples and on groups with free rank
    tuples = [p for params in sweep_tuples.values() for p in params] + free_rank_tuples()
    assert len(tuples) == 912 + 6
    assert [p for p in tuples if differs_from_reference(p)] == []


@pytest.mark.parametrize(
    "family, mutant",
    [
        # delta = '-' read with k1 and k2 in the order of delta = '+'
        ((G333, 0), lambda p, kind, images: (kind, (*p.K, p.h)) if p.rank == 0 else (kind, images)),
        # alpha(e3) = k3, so that alpha(h_U) = 2 k3 = e
        ((G2223, 1), lambda p, kind, images: (kind, p.K) if p.rank == 1 else (kind, images)),
    ],
    ids=["r0_unswapped", "r1_k3"],
)
def test_alpha_mutants_fail_the_reference(sweep_tuples, monkeypatch, family, mutant):
    import triality.classify as classify

    real = classify._fine_kind_and_alpha
    monkeypatch.setattr(classify, "_fine_kind_and_alpha", lambda p: mutant(p, *real(p)))
    tuples = [p for p in sweep_tuples[family] if p.rank == 1 or p.delta == "-"]
    assert tuples and all(differs_from_reference(p) for p in tuples)


def test_build_does_not_reverify(sweep_tuples, monkeypatch):
    # the fine gradings are verified once; a coarsening of a verified
    # grading is a grading, so no build verifies anything again (the
    # four-branch constructor made two verify_grading calls per tuple)
    import sys

    for kind in ("cartan", "z2cubed", "okubo"):
        fine_typeIII(kind)
    calls = []
    real = verify_grading
    for name, module in list(sys.modules.items()):
        if name.startswith("triality") and getattr(module, "verify_grading", None) is real:
            monkeypatch.setattr(module, "verify_grading", lambda g: calls.append(g) or real(g))
    for params in sweep_tuples.values():
        for p in params:
            assert build(p).grading.verified
    assert calls == []


# ------------------------------------------------- the per-bullet oracle
#
# The similarity decision that the orbit key replaced, bullet by bullet,
# with its trace: element codes, spans and the rank-0 chart computed once
# per tuple, and the rank-0 sign read in p's frame.


@functools.lru_cache(maxsize=None)
def _codes(p):
    """The canonical coordinates of e, h and 2h (= h^-1), then those of
    s g_i + j h for the n = len(gamma) elements g_i, s = 1, -1, and j = 0
    (every rank) or j = 0, 1, 2, 3 (rank 2), at entry 3 + n (2j + (s == -1)) + i."""
    h = p.h
    js = (0, 1, 2, 3) if p.rank == 2 else (0,)
    return (p.group.identity().canonical(), h.canonical(), (2 * h).canonical()) + tuple(
        (s * g + j * h).canonical() for j in js for s in (1, -1) for g in p.gamma
    )


@functools.lru_cache(maxsize=None)
def _span(G, coords):
    return subgroup_elements([G.element(c) for c in coords])


def _span_of(gens):
    return _span(gens[0].group, tuple(sorted(g.canonical() for g in gens)))


@functools.lru_cache(maxsize=None)
def _chart(p):
    """Rank 0: {a k1 + b k2 + j h: (a, b)} for a, b, j in 0..2, keeping the
    first (a, b) in lexicographic order: the coordinates of each element of
    K<h> against the generators, modulo <h>."""
    k1, k2 = p.K
    out = {}
    for a, b, j in itertools.product(range(3), repeat=3):
        out.setdefault((a * k1 + b * k2 + j * p.h).canonical(), (a, b))
    return out


def frame_sign(p, frame):
    """The sign of the grading of p read against the ordered generator
    frame (k1, k2), working modulo <h>: the chart of p maps its own
    generators to (1,0), (0,1) (swapped for '-'), and the orientation
    against the frame flips with the determinant of the change of basis."""
    coords = []
    for k in frame:
        hit = _chart(p).get(k.canonical())
        if hit is None:
            raise ParamError("frame does not lie in K<h>")
        coords.append(hit)
    det = (coords[0][0] * coords[1][1] - coords[0][1] * coords[1][0]) % 3
    if det == 0:
        raise ParamError("frame is degenerate modulo <h>")
    base = 1 if p.delta == "+" else -1
    return "+" if base * (1 if det == 1 else -1) == 1 else "-"


def reference_similar(p, q):
    """(similar, trace): the classification conditions bullet by bullet."""
    assert p.group == q.group
    if p.rank != q.rank:
        return False, {"bullet": "rank", "ranks": (p.rank, q.rank)}
    codes = _codes(p)
    h_p, h2_p = codes[1:3]
    h_q = _codes(q)[1]
    same_h_span = h_q == h_p or h_q == h2_p
    if p.rank == 8:
        return same_h_span and p.t == q.t, {"bullet": "r8", "same_h_span": same_h_span, "t": (p.t, q.t)}
    if p.rank == 4:
        g_q = _codes(q)[3]
        g_p, neg_p = codes[3:]
        return same_h_span and g_q in (g_p, neg_p), {"bullet": "r4", "same_h_span": same_h_span, "inverted": g_q == neg_p}
    if p.rank == 2:
        if not same_h_span:
            return False, {"bullet": "r2", "same_h_span": False}
        q0, q1, q2 = _codes(q)[3:6]
        for pi in itertools.permutations(range(3)):
            a, b, c = pi
            for j in (1, 2, 3):
                for inverted in (False, True):
                    row = 3 + 3 * (2 * j + inverted)
                    if codes[row + a] == q0 and codes[row + b] == q1 and codes[row + c] == q2:
                        return True, {"bullet": "r2", "pi": pi, "j": j, "inverted": inverted}
        return False, {"bullet": "r2", "same_h_span": True, "match": None}
    if p.rank == 1:
        return same_h_span and _span_of(p.K) == _span_of(q.K), {"bullet": "r1", "same_h_span": same_h_span}
    same_kh = _span_of(p.K + (p.h,)) == _span_of(q.K + (q.h,))
    if not same_kh or not same_h_span:
        return False, {"bullet": "r0", "same_KH": same_kh, "same_h_span": same_h_span}
    sign = frame_sign(q, p.K)
    if h_q == h_p and sign == p.delta:
        return True, {"bullet": "r0", "case": "same h, same sign", "frame_sign": sign}
    if h_q == h2_p and sign != p.delta:
        return True, {"bullet": "r0", "case": "inverse h, flipped sign", "frame_sign": sign}
    return False, {"bullet": "r0", "frame_sign": sign, "h_flipped": h_q == h2_p}


@functools.lru_cache(maxsize=None)
def _rank2_images(p):
    """{canonical coordinates of the triple (+-) p.gamma[pi[i]] + j h:
    the first (pi, j, inverted) giving it}, the 36 candidates of p taken in
    reference_rank2's order, computed by group arithmetic once per tuple."""
    first = {}
    for pi in itertools.permutations(range(3)):
        for j in (1, 2, 3):
            shift = j * p.h
            for inverted in (False, True):
                images = ((-p.gamma[k] if inverted else p.gamma[k]) + shift for k in pi)
                first.setdefault(tuple(g.canonical() for g in images), (pi, j, inverted))
    return first


def reference_rank2(p, q):
    """The rank-2 decision by group arithmetic on every pair: the first
    (pi, j, inverted) with q.gamma[i] == (+-) p.gamma[pi[i]] + j h."""
    assert p.group == q.group
    if not (q.h == p.h or q.h == 2 * p.h):
        return False, {"bullet": "r2", "same_h_span": False}
    match = _rank2_images(p).get(tuple(g.canonical() for g in q.gamma))
    if match is None:
        return False, {"bullet": "r2", "same_h_span": True, "match": None}
    pi, j, inverted = match
    return True, {"bullet": "r2", "pi": pi, "j": j, "inverted": inverted}


def mismatches(params):
    """The pairs (i, j) on which equal keys and the oracle disagree."""
    keys = [canonical_key(p) for p in params]
    return [
        (i, j)
        for i, p in enumerate(params)
        for j, q in enumerate(params)
        if (keys[i] == keys[j]) != reference_similar(p, q)[0]
    ]


# ------------------------------------------------ families beyond the sweep


def _rank2(G, hs, candidates):
    out = []
    for h in hs:
        hspan = subgroup_elements([h])
        cands = [g for g in candidates if g.canonical() not in hspan][:10]
        for g1, g2 in itertools.product(cands, repeat=2):
            if (-(g1 + g2)).canonical() not in hspan:
                out.append(params_r2(G, (g1, g2, -(g1 + g2)), h))
    return out


def _rank4(G, hs, candidates):
    return [params_r4(G, g, h) for h in hs for g in candidates if g.canonical() not in subgroup_elements([h])]


def _box(G, radius):
    """The elements of G = Z^r x torsion with free coordinates in [-radius, radius]."""
    ranges = [range(-radius, radius + 1)] * G.free_rank + [range(d) for d in G.torsion]
    return [G.element(c) for c in itertools.product(*ranges)]


def _rank1_z2_4(per_subgroup=8):
    """Rank 1 over Z2^4 x Z3 (= Z2^3 x Z6): for every Z2^3 in the
    2-torsion, its first ordered generating triples, at both h."""
    G = make_group(0, [2, 2, 2, 6])
    two = [g for g in G.elements() if g.order() == 2]
    triples = {}
    for K in itertools.permutations(two, 3):
        span = subgroup_elements(list(K))
        if len(span) == 8 and len(triples.setdefault(span, [])) < per_subgroup:
            triples[span].append(K)
    hs = [G.element((0, 0, 0, 2)), G.element((0, 0, 0, 4))]
    return [params_r1(G, K, h) for Ks in triples.values() for K in Ks for h in hs]


Z2_4_Z3 = make_group(0, [2, 2, 2, 6])


def oracle_families():
    """Families over groups the sweep does not cover, sliced to a few
    hundred tuples each: rank 2 over Z3 x Z9 and Z6 x Z6, ranks 2 and 4
    over Z x Z3 and Z^2 x Z3 (free coordinates in a box), and rank 1
    over Z2^4 x Z3, where K varies."""
    out = {}
    for G in (make_group(0, [3, 9]), make_group(0, [6, 6])):
        hs = [g for g in G.elements() if g.order() == 3][:2]
        out[(G, 2)] = _rank2(G, hs, list(G.elements()))
    for G, radius in ((make_group(1, [3]), 2), (make_group(2, [3]), 1)):
        box = _box(G, radius)
        hs = [G.element((0,) * G.free_rank + (c,)) for c in (1, 2)]
        out[(G, 2)] = _rank2(G, hs, box)
        out[(G, 4)] = _rank4(G, hs, box)
    out[(Z2_4_Z3, 1)] = _rank1_z2_4()
    return out


@pytest.fixture(scope="module")
def other_tuples():
    return oracle_families()


OTHER_FAMILIES = [(make_group(0, [3, 9]), 2), (make_group(0, [6, 6]), 2)] + [
    (make_group(free, [3]), r) for free in (1, 2) for r in (2, 4)
] + [(Z2_4_Z3, 1)]


def _family_id(key):
    G, r = key
    return f"{G!r}_r{r}".replace(" x ", "x")


# the sweep's families are compared with the oracle in
# test_acceptance.py::test_criterion_07a_similarity_equivalence


@pytest.mark.parametrize("family", OTHER_FAMILIES, ids=_family_id)
def test_other_decisions_match_the_oracle(other_tuples, family):
    params = other_tuples[family]
    assert 1 < len({canonical_key(p) for p in params}) < len(params)
    assert mismatches(params) == []


def test_rank1_oracle_family_varies_K(other_tuples):
    # the sweep's rank-1 family has a single K; this one has every Z2^3
    params = other_tuples[(Z2_4_Z3, 1)]
    assert len(params) == 15 * 8 * 2
    assert len({canonical_key(p) for p in params}) == 15


def replay(p, word):
    """alpha_p o w for the composite w of the word, by group arithmetic on
    the images of e1, e2, e3: alpha o g sends e_i to sum_j g(e_i)_j alpha(e_j)."""
    kind, alpha = classify._fine_kind_and_alpha(p)
    generators = classify._FINE_KINDS[kind][2]
    for name in word:
        a1, a2, a3 = alpha
        alpha = tuple(c1 * a1 + c2 * a2 + c3 * a3 for c1, c2, c3 in generators[name])
    return kind, alpha


def test_words_replay(sweep_tuples):
    # every similar sweep pair carries a word w with alpha_q = alpha_p o w;
    # a pair that is not similar carries none
    similar = 0
    for params in sweep_tuples.values():
        for i, p in enumerate(params):
            for j, q in enumerate(params):
                verdict = similar_params(p, q)
                if not verdict.similar:
                    if i < 20 and j < 20:
                        assert verdict.trace["word"] is None
                    continue
                similar += 1
                trace = verdict.trace
                kind, alpha = replay(p, trace["word"])
                kind_q, alpha_q = classify._fine_kind_and_alpha(q)
                assert trace["kinds"] == [kind, kind_q] and kind == kind_q
                assert alpha == alpha_q
    assert similar == 15756


def test_trace_is_searched_only_when_read(sweep_tuples, monkeypatch):
    # the decision compares keys; the word search runs on reading the trace
    params = sweep_tuples[(G333, 0)]
    p, q = params[0], next(q for q in params[1:] if canonical_key(q) == canonical_key(params[0]))
    calls = []
    real = classify._fine_kind_and_alpha
    monkeypatch.setattr(classify, "_fine_kind_and_alpha", lambda t: calls.append(t) or real(t))
    verdict = similar_params(p, q)
    assert verdict.similar and calls == []
    assert verdict.trace["word"] is not None and calls


@pytest.mark.parametrize("kind, order, columns", [("cartan", 72, 20), ("okubo", 432, 26), ("z2cubed", 336, 21)])
def test_weyl_generators_are_automorphisms(kind, order, columns):
    # each generator is a well-defined endomorphism of U (GroupHom checks
    # that it kills the relations) that is onto, hence an automorphism of
    # the finitely generated abelian group U; the closure has the order of W
    group_args, _model, generators = classify._FINE_KINDS[kind]
    U = make_group(*group_args)
    for name, cols in generators.items():
        GroupHom(U, U, list(zip(*cols)))
        Q, _ = quotient(U, [U.element(c) for c in cols])
        assert Q.is_trivial(), name
    cols, triples, words = classify._weyl(kind)
    assert (len(triples), len(set(triples)), len(cols)) == (order, order, columns)
    assert words[0] == [] and triples[0] == tuple(cols.index(U.generator(i).canonical()) for i in range(3))


def reference_weyl(kind):
    """W_kind closed breadth-first on the triples (w(e1), w(e2), w(e3)),
    each product w o g by group arithmetic in U: (columns, triples, words)
    as classify._weyl returns them."""
    group_args, _model, generators = classify._FINE_KINDS[kind]
    U = make_group(*group_args)
    queue = [tuple(U.generator(i).canonical() for i in range(3))]
    words = {queue[0]: []}
    for a, b, d in queue:
        for name, g in generators.items():
            # (w o g)(e_i) = w(g(e_i)) = x w(e1) + y w(e2) + z w(e3)
            wg = tuple(U.reduce(tuple(x * a[r] + y * b[r] + z * d[r] for r in range(3))) for x, y, z in g)
            if wg not in words:
                words[wg] = words[(a, b, d)] + [name]
                queue.append(wg)
    columns = sorted({c for w in words for c in w})
    index = {c: i for i, c in enumerate(columns)}
    return columns, [tuple(index[c] for c in w) for w in words], list(words.values())


@pytest.mark.parametrize("kind", ["cartan", "okubo", "z2cubed"])
def test_weyl_closure_matches_the_reference(kind):
    # the permutation closure visits the elements of the closure on
    # triples in the same order, with the same words
    assert classify._weyl(kind) == reference_weyl(kind)


@pytest.mark.parametrize(
    "kind, edit, family",
    [
        ("cartan", lambda gens: {k: v for k, v in gens.items() if k != "shift"}, (G333, 2)),
        ("okubo", lambda gens: dict(gens, e3_plus_e1=((1, 0, 0), (0, 1, 0), (1, 0, 1))), (G333, 0)),
    ],
    ids=["cartan_without_shift", "okubo_e3_plus_e1"],
)
def test_weyl_mutants_fail_the_oracle(monkeypatch, kind, edit, family):
    group_args, model, generators = classify._FINE_KINDS[kind]
    monkeypatch.setitem(classify._FINE_KINDS, kind, (group_args, model, edit(generators)))
    classify._weyl.cache_clear()
    try:
        assert classify._weyl(kind) == reference_weyl(kind)
        params = sweep_utils.enumerate_tuples()[family]  # new tuples: keys are cached per tuple
        assert mismatches(params)
    finally:
        classify._weyl.cache_clear()


@pytest.mark.parametrize("G", [G333, G2223], ids=["Z3^3", "Z2^3xZ3"])
def test_rank2_decisions_match_reference_loop(G, sweep_tuples):
    params = sweep_tuples[(G, 2)]
    similar = 0
    for p in params:
        for q in params:
            decision = reference_similar(p, q)
            assert decision == reference_rank2(p, q)
            assert similar_params(p, q).similar == decision[0]
            if decision[0]:
                similar += 1
                pi, j, inverted = (decision[1][k] for k in ("pi", "j", "inverted"))
                sign = -1 if inverted else 1
                assert all(q.gamma[i] == sign * p.gamma[pi[i]] + j * p.h for i in range(3))
    assert len(params) < similar < len(params) ** 2


@pytest.mark.parametrize("G", [G333, G2223], ids=["Z3^3", "Z2^3xZ3"])
def test_rank4_traces_replay(G, sweep_tuples):
    # the oracle's rank-4 traces, replayed by group arithmetic
    params = sweep_tuples[(G, 4)]
    inverted_seen = 0
    for p in params:
        for q in params:
            similar, trace = reference_similar(p, q)
            inverted = trace["inverted"]
            assert inverted == (q.gamma[0] == -p.gamma[0])
            if similar:
                assert q.h in (p.h, 2 * p.h)
                assert q.gamma[0] == (-p.gamma[0] if inverted else p.gamma[0])
                inverted_seen += inverted
    assert inverted_seen


def orientation_in_frame(built, frame):
    """The sign read off the algebra in the frame (k1, k2): '+' if x*y = 0
    and '-' if y*x = 0 for the basis vectors x, y spanning the lines at k1
    and k2, which must be lines with exactly one of the products 0."""
    V = built.grading.structure
    comps = built.grading.components("V")
    (i,), (j,) = (comps[k.canonical()] for k in frame)
    xy = V.product(V.basis_vec(i), V.basis_vec(j))
    yx = V.product(V.basis_vec(j), V.basis_vec(i))
    assert bool(xy) != bool(yx)
    return "+" if not xy else "-"


def test_rank0_frame_signs_replay(sweep_tuples):
    """The oracle's frame_sign is the orientation of q's grading read in
    p's frame: it is checked against the algebra, where x*y = 0 for the
    homogeneous generators of the frame's components exactly when the sign
    is '+'."""
    params = sweep_tuples[(G333, 0)]
    built = {}
    orientation = {}
    cases = set()
    for p in params:
        for q in params:
            similar, trace = reference_similar(p, q)
            if "frame_sign" not in trace:
                continue
            sign = trace["frame_sign"]
            key = (q, p.K[0].canonical(), p.K[1].canonical())
            if key not in orientation:
                if q not in built:
                    built[q] = build(q)
                orientation[key] = orientation_in_frame(built[q], p.K)
            assert sign == orientation[key]
            if similar:
                case = trace["case"]
                cases.add(case)
                if case == "same h, same sign":
                    assert q.h == p.h and sign == p.delta
                else:
                    assert q.h == -p.h and sign != p.delta
    assert cases == {"same h, same sign", "inverse h, flipped sign"}


def test_a_failed_fine_grading_is_an_internal_error(monkeypatch):
    # the fine tuples are constants, so a fine grading that fails its check
    # is a defect of the program and must not read as invalid parameters:
    # the Cartan degrees on the Okubo model raise AssertionError
    import triality.classify as classify

    monkeypatch.setitem(classify._FINE_KINDS, "cartan", ((2, [3]), "V_okubo"))
    classify._fine_grading.cache_clear()
    try:
        with pytest.raises(AssertionError, match="tensor grading"):
            classify._fine_grading("cartan", 12)
    finally:
        classify._fine_grading.cache_clear()
