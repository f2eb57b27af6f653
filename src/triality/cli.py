"""Batch command-line front end.

Subcommands: build, verify, invariants, similar, brauer, catalog.
Reports are UTF-8 JSON with sorted keys; exact scalars are emitted as
coefficient strings, so re-running a command on identical input produces
byte-identical output.  Timing goes to stderr only, to keep the payload
deterministic.  Exit codes: 0 = pass, 1 = verification failure,
2 = usage or parameter error, 3 = internal error.

Flags (environment overrides in parentheses): --field-conductor
(TRIALITY_FIELD_CONDUCTOR), --seed (TRIALITY_SEED), --out (TRIALITY_OUT).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import __version__
from .fgab import make_group
from .grading import VerificationError, universal_group, verify_grading
from .scalars import MAX_CONDUCTOR
from . import classify
from .classify import (
    TypeIIIParams,
    build,
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
)


class UsageError(ValueError):
    pass


def group_from_json(data) -> "AbGroup":
    try:
        free_rank, torsion = data.get("free_rank", 0), data.get("torsion", [])
        if type(free_rank) is not int or not isinstance(torsion, list) or not all(type(d) is int for d in torsion):
            raise TypeError("free_rank is an integer and torsion a list of integers")
        return make_group(free_rank, torsion)
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"bad group {json.dumps(data)}: {exc}") from exc


def element_from_json(G, coords):
    """A group element from a JSON list of integer coordinates."""
    if not isinstance(coords, list) or not all(type(c) is int for c in coords):
        raise UsageError(f"a group element is a list of integers, got {json.dumps(coords)}")
    try:
        return G.element(coords)
    except ValueError as exc:
        raise UsageError(f"bad group element {json.dumps(coords)} of {G}: {exc}") from exc


def elements_from_json(G, items) -> list:
    if not isinstance(items, list):
        raise UsageError(f"expected a list of group elements, got {json.dumps(items)}")
    return [element_from_json(G, x) for x in items]


def params_from_json(data) -> TypeIIIParams:
    """TypeIIIParams from a JSON parameter object.  A malformed object is a
    usage error; well-formed but invalid parameters raise ParamError."""
    if not isinstance(data, dict):
        raise UsageError(f"parameters must be a JSON object, got {json.dumps(data)}")
    try:
        G = group_from_json(data["group"])
        r = data["rank"] if type(data["rank"]) is int else None
        h = element_from_json(G, data["h"])
        if r == 0:
            K = elements_from_json(G, data["K"])
            if len(K) != 2:
                raise UsageError(f"rank 0 takes K = [k1, k2], got {len(K)} elements")
            return params_r0(G, *K, h, data["delta"])
        if r == 1:
            return params_r1(G, elements_from_json(G, data["K"]), h)
        if r == 2:
            return params_r2(G, tuple(elements_from_json(G, data["gamma"])), h)
        if r == 4:
            return params_r4(G, element_from_json(G, data["g"]), h)
        if r == 8:
            return params_r8(G, h, data["t"])
    except KeyError as exc:
        raise UsageError(f"missing parameter field: {exc}") from exc
    raise UsageError(f"rank must be 0, 1, 2, 4 or 8, got {json.dumps(data['rank'])}")


def emit(report: dict, out_path, exit_code: int) -> int:
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return exit_code


def base_report(args, status, **fields):
    rep = {
        "version": __version__,
        "field_conductor": args.conductor,
        "seed": args.seed,
        "status": status,
    }
    rep.update(fields)
    return rep


# ------------------------------------------------------------- subcommands


def cmd_build(args) -> int:
    spec = json.loads(args.params) if args.params else {}
    name = args.constructor
    if name == "typeIII":
        p = params_from_json(spec)
        built = build(p, args.conductor)
        degrees = {
            "V": [list(d.canonical()) for d in built.grading.degrees["V"]],
            "L": [list(d.canonical()) for d in built.grading.degrees["L"]],
        }
        rep = base_report(
            args,
            "pass",
            constructor="typeIII",
            params=p.describe(),
            rank=built.rank,
            group={"free_rank": built.grading.group.free_rank, "torsion": list(built.grading.group.torsion)},
            degrees=degrees,
            support_size=len(built.grading.support("V")),
        )
        return emit(rep, args.out, 0)
    key = {"para-zorn": "para_zorn", "para-doubled": "para_doubled", "okubo": "okubo"}.get(name)
    if key is None and name not in ("zorn", "doubled"):
        raise UsageError(f"unknown constructor {name!r}")
    mod = models(args.conductor)
    if key is None:
        from .composition import zorn_cayley, doubled_cayley

        A = zorn_cayley(mod["field"]) if name == "zorn" else doubled_cayley(mod["field"])
    else:
        A = mod[key]
    table = {}
    for (i, j), row in sorted(A.mul.items()):
        table[f"{i},{j}"] = {str(k): c.to_strings() for k, c in sorted(row.items())}
    rep = base_report(args, "pass", constructor=name, dimension=A.dim, labels=A.labels, product=table)
    return emit(rep, args.out, 0)


def _suite_composition(args, mod):
    from .composition import is_hurwitz, is_symmetric_composition, zorn_cayley, doubled_cayley

    F = mod["field"]
    checks = {}
    checks["zorn_hurwitz"] = is_hurwitz(zorn_cayley(F)).ok
    checks["doubled_hurwitz"] = is_hurwitz(doubled_cayley(F)).ok
    checks["para_cayley_symmetric"] = is_symmetric_composition(mod["para_zorn"]).ok
    checks["para_doubled_symmetric"] = is_symmetric_composition(mod["para_doubled"]).ok
    checks["okubo_symmetric"] = is_symmetric_composition(mod["okubo"]).ok
    return checks


def _suite_cyclic(args, mod):
    from .cyclic import verify_cyclic_axioms, opposite

    checks = {}
    checks["cayley_tensor_axioms"] = verify_cyclic_axioms(mod["V_zorn"]).ok
    checks["okubo_tensor_axioms"] = verify_cyclic_axioms(mod["V_okubo"]).ok
    checks["opposite_axioms"] = verify_cyclic_axioms(opposite(mod["V_zorn"])).ok
    return checks


def _suite_lie(args, mod):
    from .trilie import tri_basis, verify_lie, cyclic_shift_closed, root_datum, is_d4_cartan_matrix

    checks = {}
    # tri_basis and root_datum raise, exiting 1, unless tri(S) is
    # 28-dimensional with 24 roots
    for name in ("para_zorn", "okubo"):
        tri = tri_basis(mod[name])
        checks[f"{name}_jacobi"] = verify_lie(tri).ok
        checks[f"{name}_cyclic_shift"] = cyclic_shift_closed(tri)
        checks[f"{name}_d4_cartan_matrix"] = is_d4_cartan_matrix(root_datum(tri).cartan_matrix)
    return checks


def _suite_trialitarian(args, mod):
    from .trialitarian import (
        alpha,
        alpha_involution_compatible,
        alpha_multiplicative_sample,
        clifford_even,
        end_algebra,
        kappa,
        lie_of_E,
        lie_of_E_equals_der,
    )
    from .trilie import der_cyclic

    V = mod["V_zorn"]
    checks = {}
    # the constructions certify themselves and raise, exiting 1, on failure
    E = end_algebra(V)
    Cl = clifford_even(V)
    km = kappa(V, E, Cl)
    am = alpha(V, E, Cl)
    checks["alpha_bijective_homomorphism"] = alpha_multiplicative_sample(am, seed=args.seed)
    checks["alpha_involutions"] = alpha_involution_compatible(am)
    lie = lie_of_E(V, E, km, am)
    checks["lie_of_E_dimension_28"] = len(lie) == 28
    checks["lie_of_E_equals_derivations"] = lie_of_E_equals_der(V, E, lie, der_cyclic(V))
    return checks


def _suite_jordan(args, mod):
    from .albert import albert, degree3_residual, random_element, verify_jordan

    J = albert(mod["V_zorn"])
    rng = random.Random(args.seed)
    checks = {}
    checks["dimension_27"] = J.dim == 27
    checks["jordan_identity"] = verify_jordan(J).ok
    checks["degree3_random_100"] = all(not degree3_residual(J.degree3, random_element(J, rng)) for _ in range(100))
    return checks


def _suite_grading(args, mod):
    from .composition import cartan_grading_cayley, okubo_grading, zorn_cayley

    F = mod["field"]
    checks = {}
    g = cartan_grading_cayley(zorn_cayley(F))
    checks["cartan_verifies"] = g.verified
    u = universal_group(g)
    checks["cartan_universal_Z2"] = u.group == make_group(2)
    go = okubo_grading(mod["okubo"], "+")
    checks["okubo_verifies"] = go.verified
    corrupted = go.copy_with_degree("A", 0, go.group.element((1, 1)))
    checks["mutation_detected"] = not verify_grading(corrupted).ok
    return checks


def _suite_typeIII(args, mod):
    from .albert import grade_albert
    from .trialitarian import (
        alpha,
        clifford_even,
        detect_type,
        e_grading_kappa_alpha_compatible,
        end_algebra,
        induce_E_grading,
        kappa,
    )
    from .trilie import center_orbit, orbit_pairwise_distinct

    checks = {}
    for kind in ("cartan", "z2cubed", "okubo"):
        built = fine_typeIII(kind, args.conductor)
        grading, V = built.grading, built.V
        names = ["center_orbit_distinct", "center_orbit_same_E_and_tri", "E_type_III", "E_kappa_alpha_graded"]
        names += ["albert_fine"] if kind == "okubo" else []
        if not verify_grading(grading).ok:
            # every check below reads the grading's components as a grading
            checks.update(dict.fromkeys((f"{kind}_{name}" for name in names), False))
            continue
        same, orbit = center_orbit(grading)
        checks[f"{kind}_center_orbit_distinct"] = orbit_pairwise_distinct(orbit)
        checks[f"{kind}_center_orbit_same_E_and_tri"] = same
        E, Cl = end_algebra(V), clifford_even(V)
        gE = induce_E_grading(grading, E)
        checks[f"{kind}_E_type_III"] = detect_type(gE) == ("III", built.h)
        checks[f"{kind}_E_kappa_alpha_graded"] = e_grading_kappa_alpha_compatible(
            grading, gE, E, Cl, kappa(V, E, Cl), alpha(V, E, Cl)
        )
        if kind == "okubo":
            # the Okubo grading extends to J = L + V with 27 one-dimensional components
            comps = grade_albert(grading).components()
            checks["okubo_albert_fine"] = len(comps) == 27 and all(len(ix) == 1 for ix in comps.values())
    return checks


SUITES = {
    "composition": _suite_composition,
    "cyclic": _suite_cyclic,
    "lie": _suite_lie,
    "trialitarian": _suite_trialitarian,
    "jordan": _suite_jordan,
    "grading": _suite_grading,
    "typeIII": _suite_typeIII,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    checks = SUITES[args.suite](args, models(args.conductor))
    ok = all(checks.values())
    rep = base_report(args, "pass" if ok else "fail", suite=args.suite, checks=dict(sorted(checks.items())))
    return emit(rep, args.out, 0 if ok else 1)


def cmd_invariants(args) -> int:
    p = params_from_json(json.loads(args.params))
    built = build(p, args.conductor)
    inv = invariants_of_built(built)
    rep = base_report(args, "pass", params=p.describe(), invariants=inv)
    return emit(rep, args.out, 0)


def invariants_of_built(built) -> dict:
    """Rank, support, type vector (n_i components of dimension i) and
    universal group of a built grading on V, read off its record."""
    comps = built.components
    dims = [len(ix) for ix in comps.values()]
    U = built.universal.group
    out = {
        "rank": built.rank,
        "support": [list(s) for s in sorted(comps)],
        "type_vector": [dims.count(i) for i in range(1, max(dims) + 1)],
        "universal_group": {"free_rank": U.free_rank, "torsion": list(U.torsion)},
    }
    if built.rank == 0:
        out["orientation"] = okubo_orientation(built)
    return out


def cmd_similar(args) -> int:
    data = json.loads(args.params)
    if not isinstance(data, dict) or not {"first", "second"} <= data.keys():
        raise UsageError('similar takes --params {"first": {...}, "second": {...}}')
    p = params_from_json(data["first"])
    q = params_from_json(data["second"])
    verdict = similar_params(p, q)
    rep = base_report(
        args,
        "pass",
        first=p.describe(),
        second=q.describe(),
        similar=verdict.similar,
        trace=verdict.trace,
    )
    return emit(rep, args.out, 0)


def cmd_brauer(args) -> int:
    from .brauer import verify_brauer_relations
    from .fgab import has_characters

    kind = args.kind
    built = fine_typeIII(kind, args.conductor)
    Q, _pr = built.brauer_quotient
    if not has_characters(Q, args.conductor):
        # the Brauer relations take the characters of the quotient group
        raise UsageError(
            f"brauer --kind {kind} needs characters of order {Q.exponent()}, "
            f"which the field conductor {args.conductor} does not provide"
        )
    report = verify_brauer_relations(built.related, built.V.field)
    per_factor = []
    for pparam in report.params:
        per_factor.append(
            {
                "T_invariant_factors": list(pparam.support_group.torsion),
                "beta": {f"{list(s)},{list(t)}": v.to_strings() for (s, t), v in sorted(pparam.beta.items())},
                "trivial": pparam.trivial,
            }
        )
    ok = report.ok()
    rep = base_report(
        args,
        "pass" if ok else "fail",
        kind=kind,
        grading_group={"free_rank": Q.free_rank, "torsion": list(Q.torsion)},
        note="free directions quotiented away" if built.grading.group.free_rank else None,
        factors=per_factor,
        relations={
            "squares_trivial": report.elementary2 and report.beta_pm1,
            "product_relation": report.product_relation,
        },
    )
    return emit(rep, args.out, 0 if ok else 1)


def cmd_catalog(args) -> int:
    if args.what != "fine-typeIII":
        raise UsageError("catalog knows only fine-typeIII")
    fines = {kind: fine_typeIII(kind, args.conductor) for kind in ("cartan", "z2cubed", "okubo")}
    rows = [
        {
            "kind": kind,
            "rank": built.rank,
            "support_size": len(built.grading.support("V")),
            "universal_group": {
                "free_rank": built.universal.group.free_rank,
                "torsion": list(built.universal.group.torsion),
            },
            "universal_matches_expected": built.universal.group == built.grading.group,
        }
        for kind, built in fines.items()
    ]
    refinements = {}
    ok = all(row["universal_matches_expected"] for row in rows)
    for a in fines:
        for b in fines:
            if a == b:
                continue
            reason = refinement_impossible(fines[a], fines[b])
            refinements[f"{b} refines {a}"] = reason or "NOT REFUTED"
            if reason is None:
                ok = False
    rep = base_report(args, "pass" if ok else "fail", table=rows, non_refinement=refinements)
    return emit(rep, args.out, 0 if ok else 1)


# ------------------------------------------------------------------ driver


def make_parser() -> argparse.ArgumentParser:
    # environment defaults stay strings: argparse converts them with `type`
    # during parse_args, so a bad value is a usage error (exit 2)
    ap = argparse.ArgumentParser(prog="triality", description=__doc__)
    ap.add_argument(
        "--field-conductor",
        dest="conductor",
        type=int,
        default=os.environ.get("TRIALITY_FIELD_CONDUCTOR", "12"),
        help="conductor N of the cyclotomic scalar field Q(zeta_N) (env TRIALITY_FIELD_CONDUCTOR)",
    )
    ap.add_argument(
        "--seed",
        type=int,
        default=os.environ.get("TRIALITY_SEED", "0"),
        help="seed for randomized sweeps (env TRIALITY_SEED)",
    )
    ap.add_argument("--out", default=os.environ.get("TRIALITY_OUT"), help="write the JSON report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a constructor by name")
    b.add_argument("--constructor", required=True)
    b.add_argument("--params", help="JSON parameters")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True)
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("invariants", help="invariants of a Type III grading")
    i.add_argument("--params", required=True)
    i.set_defaults(func=cmd_invariants)

    s = sub.add_parser("similar", help="decide similarity of two parameter tuples")
    s.add_argument("--params", required=True, help='JSON {"first": {...}, "second": {...}}')
    s.set_defaults(func=cmd_similar)

    br = sub.add_parser("brauer", help="related triple + Brauer relations for a fine kind")
    br.add_argument("--kind", required=True, choices=["cartan", "z2cubed", "okubo"])
    br.set_defaults(func=cmd_brauer)

    c = sub.add_parser("catalog", help="catalog tables")
    c.add_argument("what")
    c.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
        if args.conductor < 1 or args.conductor % 3:
            # every construction needs a primitive cube root of unity
            ap.error(f"argument --field-conductor: must be a positive multiple of 3, got {args.conductor}")
        if args.conductor > MAX_CONDUCTOR:
            ap.error(f"argument --field-conductor: must be at most {MAX_CONDUCTOR}, got {args.conductor}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.time()
    try:
        code = args.func(args)
    except (UsageError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except classify.ParamError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification error: {type(exc).__name__}: {exc}\n")
        return 1
    except Exception as exc:  # a fault of the program, not a failed proof
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    sys.stderr.write(f"elapsed: {time.time() - t0:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
