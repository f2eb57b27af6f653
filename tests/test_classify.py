import dataclasses
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
    orientation_invariant,
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
from triality.fgab import make_group, subgroup_elements
from triality.grading import Grading, verify_grading
from triality.scalars import CycloScalar

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
    h = G333.element((0, 0, 1))
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    plus_h = build(params_r0(G333, k1, k2, h, "+"))
    plus_hinv = build(params_r0(G333, k1, k2, 2 * h, "+"))
    minus_hinv = build(params_r0(G333, k1, k2, 2 * h, "-"))
    assert okubo_orientation(plus_h) == "+"
    assert orientation_invariant(plus_h) != orientation_invariant(plus_hinv)
    assert orientation_invariant(plus_h) == orientation_invariant(minus_hinv)
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


def reference_rank2(p, q):
    """The rank-2 decision by group arithmetic on every pair: the first
    (pi, j, inverted) with q.gamma[i] == (+-) p.gamma[pi[i]] + j h."""
    if not (q.h == p.h or q.h == 2 * p.h):
        return False, {"bullet": "r2", "same_h_span": False}
    for pi in itertools.permutations(range(3)):
        for j in (1, 2, 3):
            shift = j * p.h
            for inverted in (False, True):
                ok = True
                for i in range(3):
                    base = p.gamma[pi[i]]
                    if inverted:
                        base = -base
                    if q.gamma[i] != base + shift:
                        ok = False
                        break
                if ok:
                    return True, {"bullet": "r2", "pi": pi, "j": j, "inverted": inverted}
    return False, {"bullet": "r2", "same_h_span": True, "match": None}


@pytest.mark.parametrize("G", [G333, G2223], ids=["Z3^3", "Z2^3xZ3"])
def test_rank2_decisions_match_reference_loop(G, sweep_tuples):
    params = sweep_tuples[(G, 2)]
    similar = 0
    for p in params:
        for q in params:
            verdict = similar_params(p, q)
            assert (verdict.similar, verdict.trace) == reference_rank2(p, q)
            if verdict.similar:
                similar += 1
                pi, j, inverted = (verdict.trace[k] for k in ("pi", "j", "inverted"))
                sign = -1 if inverted else 1
                assert all(q.gamma[i] == sign * p.gamma[pi[i]] + j * p.h for i in range(3))
    assert len(params) < similar < len(params) ** 2


@pytest.mark.parametrize("G", [G333, G2223], ids=["Z3^3", "Z2^3xZ3"])
def test_rank4_traces_replay(G, sweep_tuples):
    params = sweep_tuples[(G, 4)]
    inverted_seen = 0
    for p in params:
        for q in params:
            verdict = similar_params(p, q)
            inverted = verdict.trace["inverted"]
            assert inverted == (q.gamma[0] == -p.gamma[0])
            if verdict.similar:
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
    """frame_sign is the orientation of q's grading read in p's frame: it
    is checked against the algebra, where x*y = 0 for the homogeneous
    generators of the frame's components exactly when the sign is '+'."""
    params = sweep_tuples[(G333, 0)]
    built = {}
    orientation = {}
    cases = set()
    for p in params:
        for q in params:
            verdict = similar_params(p, q)
            if "frame_sign" not in verdict.trace:
                continue
            sign = verdict.trace["frame_sign"]
            key = (q, p.K[0].canonical(), p.K[1].canonical())
            if key not in orientation:
                if q not in built:
                    built[q] = build(q)
                orientation[key] = orientation_in_frame(built[q], p.K)
            assert sign == orientation[key]
            if verdict.similar:
                case = verdict.trace["case"]
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
