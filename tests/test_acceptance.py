"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them inline).  Every tolerance is exact equality
of cyclotomic scalars; there are no numeric thresholds anywhere.
"""

import itertools
import json
import random
import subprocess
import sys

import pytest

from triality.fgab import make_group, subgroup_elements
from triality.classify import (
    build,
    canonical_key,
    okubo_orientation,
    params_r0,
    params_r2,
    params_r4,
    params_r8,
    refinement_impossible,
    similar_params,
    witness_map,
)

import sweep_utils


def report(number, label, ok):
    print(f"ACCEPTANCE {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_composition_suite(field, mod):
    from triality.composition import is_hurwitz, is_symmetric_composition, zorn_cayley

    ok = True
    for S in (mod["para_zorn"], mod["okubo"]):
        ok = ok and is_symmetric_composition(S).ok
    C = zorn_cayley(field)
    ok = ok and is_hurwitz(C).ok
    # unpolarized multiplicativity on all 64 basis pairs as well
    def norm(z):
        return C.form_value("n", z, z) / field.scalar(2)

    for i in range(8):
        for j in range(8):
            x, y = C.basis_vec(i), C.basis_vec(j)
            if norm(C.product(x, y)) != norm(x) * norm(y):
                ok = False
    report(1, "composition suite", ok)


def test_criterion_02_triality(tri_zorn, tri_okubo):
    from triality.trilie import is_d4_cartan_matrix, root_datum, verify_lie

    ok = tri_zorn.dim == 28 and tri_okubo.dim == 28
    ok = ok and verify_lie(tri_zorn).violations == [] and verify_lie(tri_okubo).violations == []
    for tri in (tri_zorn, tri_okubo):
        rd = root_datum(tri)
        ok = ok and len(rd.cartan) == 4 and len(rd.roots) == 24
        ok = ok and is_d4_cartan_matrix(rd.cartan_matrix)
    report(2, "triality Lie algebra", ok)


def test_criterion_03_cyclic_axioms(cyclic_axiom_reports):
    ok = cyclic_axiom_reports["zorn"].ok and cyclic_axiom_reports["okubo"].ok
    report(3, "cyclic composition axioms", ok)


def test_criterion_04_trialitarian(mod, trial_zorn):
    from triality.trialitarian import (
        alpha_involution_compatible,
        alpha_multiplicative_sample,
        lie_of_E,
        lie_of_E_equals_der,
    )
    from triality.trilie import der_cyclic

    V = mod["V_zorn"]
    am = trial_zorn["alpha"]
    ok = len(trial_zorn["Cl"].masks) == 128  # 128 over L
    ok = ok and alpha_multiplicative_sample(am, seed=0, count=120)
    ok = ok and alpha_involution_compatible(am)
    lie = lie_of_E(V, trial_zorn["E"], trial_zorn["kappa"], am)
    ok = ok and len(lie) == 28
    ok = ok and lie_of_E_equals_der(V, trial_zorn["E"], lie, der_cyclic(V))
    report(4, "trialitarian layer", ok)


def test_criterion_05_fine_typeIII(fines):
    expected = {
        "cartan": make_group(2, [3]),
        "z2cubed": make_group(0, [2, 2, 2, 3]),
        "okubo": make_group(0, [3, 3, 3]),
    }
    ok = all(fines[k].universal.group == expected[k] for k in expected)
    ok = ok and all(fines[k].grading.verified for k in expected)
    for a, b in itertools.permutations(fines, 2):
        ok = ok and refinement_impossible(fines[a], fines[b]) is not None
    report(5, "fine Type III universal groups", ok)


def test_criterion_06_rank_sweep():
    groups = {
        "Z3^3": make_group(0, [3, 3, 3]),
        "Z2^3xZ3": make_group(0, [2, 2, 2, 3]),
        "Z^2xZ3": make_group(2, [3]),
        "ZxZ3": make_group(1, [3]),
        "Z9xZ3": make_group(0, [9, 3]),
    }
    ok = True
    built_count = 0
    for name, G in groups.items():
        els = [g for g in (G.elements() if G.is_finite() else [])] or None
        if G.is_finite():
            order3 = [g for g in G.elements() if g.order() == 3]
        else:
            order3 = [G.element((0,) * G.free_rank + (1,))]
        h = order3[0]
        hspan = subgroup_elements([h])
        # r = 0 needs Z3^2 with h outside; r = 1 needs Z2^3 with h outside
        if name == "Z3^3":
            k1, k2 = G.element((1, 0, 0)), G.element((0, 1, 0))
            h0 = G.element((0, 0, 1))
            built_count += 1
            ok = ok and build(params_r0(G, k1, k2, h0, "+")).rank == 0
            ok = ok and build(params_r0(G, k1, k2, h0, "-")).rank == 0
        if name == "Z2^3xZ3":
            from triality.classify import params_r1

            K = [G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 3))]
            built_count += 1
            ok = ok and build(params_r1(G, K, h)).rank == 1
        # r = 2 and r = 4: pick g's outside <h>
        if G.is_finite():
            cands = [g for g in G.elements() if g.canonical() not in hspan]
        else:
            cands = [G.element((1,) + (0,) * (G.ndim - 1)), G.element((1,) + (0,) * (G.ndim - 2) + (1,))]
        g1 = cands[0]
        g2 = next(g for g in cands[1:] if (-(g1 + g)).canonical() not in hspan)
        built_count += 4
        ok = ok and build(params_r2(G, (g1, g2, -(g1 + g2)), h)).rank == 2
        ok = ok and build(params_r4(G, g1, h)).rank == 4
        ok = ok and build(params_r8(G, h, "p")).rank == 8
        ok = ok and build(params_r8(G, h, "o")).rank == 8
    print(f"  rank sweep built {built_count} parameter families over 5 groups")
    report(6, "identity-component ranks", ok)


@pytest.fixture(scope="module")
def tuples():
    return sweep_utils.enumerate_tuples()


def test_criterion_07a_similarity_equivalence(tuples):
    # the partition by canonical key is the partition of the per-bullet
    # classification conditions, decided on every pair of every family
    from test_classify import mismatches

    ok = True
    summary = []
    for (G, r), params in sorted(tuples.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1])):
        ok = ok and all(similar_params(p, p).similar for p in params) and mismatches(params) == []
        summary.append(f"{G} r={r}: {len(params)} tuples/{len({canonical_key(p) for p in params})} classes")
    print("  " + "; ".join(summary))
    report(7, "similarity is an equivalence relation", ok)


def test_criterion_07b_similar_invariants(tuples):
    from triality.trilie import induce_tri_grading, tri_basis

    G333 = sweep_utils.G333
    G2223 = sweep_utils.G2223

    def invariants_of(p):
        built = build(p)
        comps = built.grading.components("V")
        gt, _ad = induce_tri_grading(built.grading, tri_basis(built.V.S))
        return {
            "rank": built.rank,
            "support": tuple(sorted(comps)),
            "type_vector": tuple(sorted(len(ix) for ix in comps.values())),
            "universal": built.universal.group,
            "tri_type_vector": tuple(sorted(len(ix) for ix in gt.components().values())),
            "built": built,
        }

    ok = True
    for (G, r) in ((G333, 0), (G333, 2), (G333, 4), (G2223, 1), (G333, 8)):
        classes = {}
        for p in tuples[(G, r)]:
            classes.setdefault(canonical_key(p), []).append(p)
        picked = sorted(classes.items(), key=lambda kv: repr(kv[0]))[:2]
        reps_invs = []
        for _key, members in picked:
            invs = [invariants_of(p) for p in members[:2]]
            base = invs[0]
            for other in invs[1:]:
                for f in ("rank", "support", "type_vector", "universal", "tri_type_vector"):
                    ok = ok and other[f] == base[f]
            reps_invs.append(base)
    # the rank-0 pair (+, h) vs (+, h^-1) is separated by the key, which
    # carries the orientation class: (+, h) ~ (-, h^-1)
    h = G333.element((0, 0, 1))
    k1, k2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    a = build(params_r0(G333, k1, k2, h, "+"))
    b = build(params_r0(G333, k1, k2, 2 * h, "+"))
    ok = ok and canonical_key(a.params) != canonical_key(b.params)
    ok = ok and canonical_key(a.params) == canonical_key(params_r0(G333, k1, k2, 2 * h, "-"))
    ok = ok and okubo_orientation(a) == "+"
    report(7, "similar pairs share invariants; orientation separates", ok)


def test_criterion_07c_witnesses(fines):
    G333 = sweep_utils.G333
    G2223 = sweep_utils.G2223
    h = G333.element((0, 0, 1))
    g1, g2 = G333.element((1, 0, 0)), G333.element((0, 1, 0))
    gamma = (g1, g2, -(g1 + g2))
    h2 = G2223.element((0, 0, 2))
    K = [G2223.element((1, 0, 0)), G2223.element((0, 1, 0)), G2223.element((0, 0, 3))]
    ok = True
    for case, kwargs, grp in (
        ("rank1_h_flip", {"K": K, "h": h2}, G2223),
        ("rank2_h_flip", {"gamma": gamma, "h": h}, G333),
        ("rank4_h_flip", {"g": g1, "h": h}, G333),
        ("rank2_shift", {"gamma": gamma, "h": h}, G333),
        ("rank0_flip", {"K": (g1, g2), "h": h}, G333),
    ):
        w = witness_map(case, grp, **kwargs)
        ok = ok and w["report"].ok
    report(7, "witness maps verify", ok)


def test_criterion_08_center_orbit(typeIII_report):
    # read from `verify --suite typeIII`: for each fine grading, the four
    # regradings by the center are pairwise distinct and induce one grading
    # on E = End_L(V) and on tri; that E grading is of Type III with the
    # grading's distinguished element, and kappa and alpha preserve degrees
    code, rep = typeIII_report
    names = ("center_orbit_distinct", "center_orbit_same_E_and_tri", "E_type_III", "E_kappa_alpha_graded")
    wanted = {f"{kind}_{name}" for kind in ("cartan", "z2cubed", "okubo") for name in names}
    checks = rep["checks"]
    ok = code == 0 and rep["status"] == "pass" and wanted <= set(checks)
    ok = ok and all(checks[key] is True for key in wanted)
    report(8, "center orbit of Cor-type regradings", ok)


def test_criterion_09_brauer(field, fines):
    from triality.brauer import division_params, verify_brauer_relations

    ok = True
    # each related triple over the record's Brauer quotient: G/<h>, with the
    # free directions of the Cartan grading's Z^2 x Z3 quotiented away too
    for kind, built in fines.items():
        triple = built.related
        for alg, gr in zip(triple.algebras, triple.gradings):
            ok = ok and division_params(alg, gr).trivial
        if kind == "z2cubed":
            rep = verify_brauer_relations(triple, field)
            ok = ok and rep.elementary2 and rep.beta_pm1 and rep.product_relation
    report(9, "graded Brauer relations", ok)


def test_criterion_10_albert(mod, typeIII_report):
    from triality.albert import albert, degree3_residual, degree3_table, random_element, verify_jordan

    J = albert(mod["V_zorn"])
    ok = J.dim == 27
    ok = ok and verify_jordan(J).violations == []
    table = degree3_table(J)
    rng = random.Random(0)
    ok = ok and all(not degree3_residual(table, random_element(J, rng)) for _ in range(100))
    # the Okubo grading extends to J with 27 one-dimensional components
    # (read from `verify --suite typeIII`)
    code, rep = typeIII_report
    ok = ok and code == 0 and rep["checks"].get("okubo_albert_fine") is True
    report(10, "Albert algebra", ok)


def test_criterion_11_graded_module(fines):
    from triality.trilie import graded_module_check, induce_tri_grading, tri_basis

    G333 = sweep_utils.G333
    ok = True
    h = G333.element((0, 0, 1))
    cases = list(fines.values())
    cases += [build(params_r4(G333, G333.element((1, 0, 0)), h)), build(params_r8(G333, h, "o"))]
    for built in cases:
        _gt, adapted = induce_tri_grading(built.grading, tri_basis(built.V.S))
        ok = ok and graded_module_check(built.grading, adapted)
    report(11, "graded module compatibility", ok)


def test_criterion_12_cli_determinism(tmp_path):
    params8 = json.dumps(
        {"rank": 8, "group": {"free_rank": 0, "torsion": [3, 3, 3]}, "h": [0, 0, 1], "t": "o"}
    )
    pair = json.dumps(
        {
            "first": {"rank": 8, "group": {"free_rank": 0, "torsion": [3, 3, 3]}, "h": [0, 0, 1], "t": "p"},
            "second": {"rank": 8, "group": {"free_rank": 0, "torsion": [3, 3, 3]}, "h": [0, 0, 1], "t": "o"},
        }
    )
    commands = [
        ["catalog", "fine-typeIII"],
        ["invariants", "--params", params8],
        ["similar", "--params", pair],
        ["build", "--constructor", "typeIII", "--params", params8],
        ["verify", "--suite", "composition"],
        ["verify", "--suite", "grading"],
        ["brauer", "--kind", "okubo"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "triality.cli", "--seed", "11", *cmd],
                capture_output=True,
            )
            ok = ok and proc.returncode == 0
            outs.append(proc.stdout)
        ok = ok and outs[0] == outs[1] and outs[0]
    report(12, "CLI byte-level determinism", ok)
