"""Tests of the benchmark itself.

    python3 perfbench/selftest.py            # about two minutes on 2 cores

Every independent check must reject a corrupted copy of a correct output
(one structure constant or one degree changed), and every workload must
run to its end on a reduced input.  The file is not named test_*.py, so the
repository's pytest run does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402


def cli_json(*args):
    proc = subprocess.run([sys.executable, "-m", "triality.cli", *args], capture_output=True,
                          env=workloads.child_env(), cwd=workloads.ROOT, check=True)
    return json.loads(proc.stdout)


class CyclotomicTest(unittest.TestCase):
    def test_power_basis(self):
        for n, d in ((12, 4), (24, 8), (6, 2)):
            cf = checks.Cyclotomic(n)
            self.assertEqual(cf.degree, d)
            z = (0, 1) + (0,) * (d - 2)
            p = cf.one
            for _ in range(n):
                p = cf.mul(p, z)
            self.assertEqual(p, cf.one)  # zeta^N = 1
            half = cf.one
            for _ in range(n // 2):
                half = cf.mul(half, z)
            self.assertEqual(half, cf.neg(cf.one))  # zeta^(N/2) = -1


class FlexibleLawTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rep = cli_json("build", "--constructor", "okubo")
        cls.cf = checks.Cyclotomic(12)

    def test_okubo_table_is_flexible(self):
        table = checks.parse_product_table(self.rep, self.cf)
        self.assertEqual(checks.flexible_violations(table, 8, self.cf), [])

    def test_one_changed_constant_is_caught(self):
        table = checks.parse_product_table(self.rep, self.cf)
        for key in sorted(table)[:: max(1, len(table) // 6)]:
            bad = copy.deepcopy(table)
            k = next(iter(bad[key]))
            bad[key][k] = self.cf.add(bad[key][k], self.cf.one)
            with self.subTest(entry=key):
                self.assertNotEqual(checks.flexible_violations(bad, 8, self.cf), [])


class ReportChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.catalog = cli_json("catalog", "fine-typeIII")
        params = {"rank": 0, "group": {"free_rank": 0, "torsion": [3, 3, 3]}, "h": [0, 0, 1],
                  "K": [[1, 0, 0], [0, 1, 0]], "delta": "-"}
        cls.invariants = cli_json("invariants", "--params", json.dumps(params))
        cls.grading = cli_json("verify", "--suite", "grading")

    def test_correct_reports_pass(self):
        self.assertEqual(checks.catalog_problems(self.catalog), [])
        self.assertEqual(checks.invariants_problems(self.invariants, 0), [])
        self.assertEqual(checks.suite_problems("grading", self.grading), [])
        self.assertEqual(checks.report_problems("grading", self.grading), [])

    def test_catalog_corruptions(self):
        bad = copy.deepcopy(self.catalog)
        bad["table"][2]["universal_group"]["torsion"][0] = 9
        self.assertNotEqual(checks.catalog_problems(bad), [])
        bad = copy.deepcopy(self.catalog)
        bad["non_refinement"][next(iter(bad["non_refinement"]))] = "NOT REFUTED"
        self.assertNotEqual(checks.catalog_problems(bad), [])

    def test_invariants_corruptions(self):
        for field, value in (("rank", 1), ("type_vector", [23, 1]), ("orientation", None)):
            bad = copy.deepcopy(self.invariants)
            bad["invariants"][field] = value
            with self.subTest(field=field):
                self.assertNotEqual(checks.invariants_problems(bad, 0), [])

    def test_suite_corruptions(self):
        bad = copy.deepcopy(self.grading)
        bad["checks"]["mutation_detected"] = False
        self.assertNotEqual(checks.suite_problems("grading", bad), [])
        bad = copy.deepcopy(self.grading)
        del bad["checks"]["okubo_verifies"]
        self.assertNotEqual(checks.suite_problems("grading", bad), [])
        bad = copy.deepcopy(self.grading)
        bad["status"] = "fail"
        self.assertNotEqual(checks.report_problems("grading", bad), [])


class GradedTableTest(unittest.TestCase):
    """The degree and antisymmetry checks on a Lie algebra the program
    builds (the induced grading of the Okubo model's tri on a coarse
    grading is too slow here, so the test uses sl2-like data built from the
    program's scalars) and on the Okubo algebra's Z3^2 grading."""

    def setUp(self):
        from triality.classify import models
        from triality.composition import okubo_grading

        self.S = models(12)["okubo"]
        self.g = okubo_grading(self.S, "+")

    def test_okubo_grading(self):
        degs = self.g.degrees["A"]
        self.assertEqual(checks.graded_table_violations(self.S.mul, degs, self.g.group, False), [])
        for i in range(len(degs)):
            moved = list(degs)
            moved[i] = moved[i] + moved[(i + 1) % len(degs)]
            with self.subTest(index=i):
                self.assertNotEqual(checks.graded_table_violations(self.S.mul, moved, self.g.group, False), [])

    def test_antisymmetry(self):
        from triality.fgab import make_group
        from triality.scalars import make_field

        F = make_field(12)
        G = make_group(0, [3])
        one, two = F.one, F.scalar(2)
        # [e, f] = h, [h, e] = 2e, [h, f] = -2f with deg e = 1, deg f = 2
        mul = {(0, 1): {2: one}, (1, 0): {2: -one}, (2, 0): {0: two}, (0, 2): {0: -two},
               (2, 1): {1: -two}, (1, 2): {1: two}}
        degs = [G.element((1,)), G.element((2,)), G.element((0,))]
        self.assertEqual(checks.graded_table_violations(mul, degs, G, True), [])
        bad = copy.deepcopy(mul)
        bad[(1, 0)][2] = one
        self.assertNotEqual(checks.graded_table_violations(bad, degs, G, True), [])
        self.assertNotEqual(checks.graded_table_violations(mul, [degs[0], degs[0], degs[2]], G, True), [])


class RootDatumTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from triality.classify import models
        from triality.trilie import root_datum, tri_basis

        cls.rd = root_datum(tri_basis(models(12)["okubo"]))

    def test_d4(self):
        rd = self.rd
        self.assertEqual(checks.root_datum_problems(rd.roots, rd.simple_roots, rd.cartan_matrix), [])

    def test_corruptions(self):
        rd = self.rd
        for i in range(0, 24, 5):
            roots = copy.deepcopy(rd.roots)
            roots[i] = [x + (k == 0) for k, x in enumerate(roots[i])]
            with self.subTest(root=i):
                self.assertNotEqual(checks.root_datum_problems(roots, rd.simple_roots, rd.cartan_matrix), [])
        cmat = copy.deepcopy(rd.cartan_matrix)
        cmat[0][1] = -1 - cmat[0][1]
        self.assertNotEqual(checks.root_datum_problems(rd.roots, rd.simple_roots, cmat), [])
        simple = copy.deepcopy(rd.simple_roots)
        simple[0] = [-x for x in simple[0]]
        self.assertNotEqual(checks.root_datum_problems(rd.roots, simple, rd.cartan_matrix), [])


class BrauerFactorTest(unittest.TestCase):
    def test_factors(self):
        one, minus = ["1", "0", "0", "0"], ["-1", "0", "0", "0"]
        self.assertEqual(checks.brauer_factor_problems({(0, 1): [minus, minus, one]}), [])
        self.assertNotEqual(checks.brauer_factor_problems({(0, 1): [minus, one, one]}), [])
        self.assertNotEqual(checks.brauer_factor_problems({(0, 1): [["0", "1", "0", "0"], one, one]}), [])
        self.assertNotEqual(checks.brauer_factor_problems({}), [])


class SimilarityTest(unittest.TestCase):
    def setUp(self):
        self.fams = workloads.sweep_inputs(7, 0)

    def test_rank8_and_rank4_counts(self):
        r8 = checks.paper_classes(self.fams[("Z3^3", 8)])
        self.assertEqual(len(r8), checks.rank8_class_count(self.fams[("Z3^3", 8)]))
        self.assertEqual(len(r8), 4)
        # g and g^-1 for both generators of <h>: classes of four over Z3^3
        self.assertEqual({len(c) for c in checks.paper_classes(self.fams[("Z3^3", 4)])}, {4})

    def test_sweep_check_catches_a_flipped_decision(self):
        from triality.classify import canonical_key, similar_params

        key = ("Z3^3", 4)
        tuples = self.fams[key]
        params = [workloads.to_params(t) for t in tuples]
        dec = {(i, j): bool(similar_params(p, q).similar) for i, p in enumerate(params) for j, q in enumerate(params)}
        keys = [canonical_key(p) for p in params]
        classes = checks.paper_classes(tuples)
        self.assertEqual(workloads.sweep_problems(key, tuples, dec, keys, classes, {}), [])
        bad = dict(dec)
        bad[(0, 1)] = not bad[(0, 1)]
        self.assertNotEqual(workloads.sweep_problems(key, tuples, bad, keys, classes, {}), [])
        inv = {"rank": 4, "support": [[0, 0, 1]], "type_vector": [24], "universal_group": {"free_rank": 0, "torsion": [3]}}
        c = classes[0]
        invs = {(key, c[0]): inv, (key, c[1]): dict(inv, type_vector=[22, 1])}
        self.assertNotEqual(workloads.sweep_problems(key, tuples, dec, keys, classes, invs), [])

    def test_rank0_orientation_is_required_not_compared(self):
        key = ("Z3^3", 0)
        tuples = self.fams[key]
        classes = checks.paper_classes(tuples)
        label = {i: n for n, c in enumerate(classes) for i in c}
        dec = {(i, j): label[i] == label[j] for i in range(len(tuples)) for j in range(len(tuples))}
        keys = [label[i] for i in range(len(tuples))]
        inv = {"rank": 0, "support": [], "type_vector": [24], "universal_group": {"free_rank": 0, "torsion": [3, 3, 3]}}
        c = classes[0]
        invs = {(key, c[0]): dict(inv, orientation="+"), (key, c[1]): dict(inv, orientation="-")}
        self.assertEqual(workloads.sweep_problems(key, tuples, dec, keys, classes, invs), [])
        invs[(key, c[1])] = inv
        self.assertNotEqual(workloads.sweep_problems(key, tuples, dec, keys, classes, invs), [])

    def test_paper_conditions_against_a_wrong_sign(self):
        t = self.fams[("Z3^3", 0)][0]
        flipped = checks.Tup(t.mod, 0, t.h, K=t.K, delta="+" if t.delta == "-" else "-")
        self.assertFalse(checks.paper_similar(t, flipped))
        swapped = checks.Tup(t.mod, 0, t.h, K=t.K[::-1], delta=flipped.delta)
        self.assertTrue(checks.paper_similar(t, swapped))


class WorkloadTest(unittest.TestCase):
    """Each workload runs to its end; cli-proofs and similarity-sweep on a
    reduced input.  tri-brauer has no smaller input on the same path and
    runs whole (about 40 s)."""

    def run_round(self, fn, failed=0, **kw):
        with Clock() as clock:
            rnd = fn(5, 0, clock, **kw)
        self.assertEqual(rnd.failed, failed)
        self.assertEqual(rnd.problems, [])
        self.assertGreater(rnd.ref_s, 0)
        return rnd

    def test_cli_proofs_reduced(self):
        light = {"catalog", "similar", "build-okubo", "invariants", "verify-grading"}
        full = workloads.cli_commands

        def reduced(rng, seed):
            return [c for c in full(rng, seed) if c[0] in light or c[0] == "invariants-repeat"]

        with mock.patch.object(workloads, "cli_commands", reduced):
            rnd = self.run_round(workloads.cli_round)
            self.assertEqual(rnd.attempted, 6)
            traced = self.run_round(workloads.cli_round, traced=True)
        spans = traced.details["trace"]["spans"]
        self.assertGreater(spans["classify.models"]["calls"], 0)
        self.assertGreater(traced.details["trace"]["counters"]["scalars.mul.calls"], 0)

    def test_similarity_sweep_reduced(self):
        full = workloads.sweep_template

        def reduced():
            return {key: tuples[:12] for key, tuples in full().items()}

        with mock.patch.object(workloads, "sweep_template", reduced):
            self.run_round(workloads.sweep_round, failed=1)  # the orientation probe

    def test_tri_brauer(self):
        rnd = self.run_round(workloads.tri_brauer_round)
        self.assertEqual(rnd.attempted, 12)

    def test_fresh_round(self):
        import run

        rnd = run.fresh_round("similarity-sweep", 5, 0)
        # 22116 decisions, 98 builds and the orientation probe, which fails
        self.assertEqual((rnd.attempted, rnd.failed, rnd.problems), (22116 + 98 + 1, 1, []))
        self.assertGreater(rnd.details["peak_rss_kb"], 0)

    def test_failed_operation_fails_the_run(self):
        import run

        rnd = workloads.Round(attempted=3)
        self.assertTrue(run.result([rnd], {})[1]["correct"])
        rnd.fail("an operation")
        problems, res = run.result([rnd], {})
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (3, 1))

    def test_orientation_probe(self):
        from triality.cli import invariants_of_built

        rnd = workloads.Round()
        workloads.orientation_probe(rnd)
        self.assertEqual((rnd.attempted, rnd.failed, rnd.problems), (1, 1, []))
        # a program that reports one orientation for the class passes
        with mock.patch("triality.cli.invariants_of_built", lambda b: dict(invariants_of_built(b), orientation="+")):
            rnd = workloads.Round()
            workloads.orientation_probe(rnd)
        self.assertEqual((rnd.attempted, rnd.failed, rnd.problems), (1, 0, []))


class TracerTest(unittest.TestCase):
    def test_install_and_uninstall(self):
        import triality.linalg
        import triality.trilie
        from triality.scalars import CycloScalar, make_field

        original = triality.linalg.null_space
        mul = CycloScalar.__mul__
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(triality.trilie.null_space, original)
            F = make_field(12)
            with Clock() as clock:
                triality.linalg.null_space(F, 3, [{0: F.one, 1: F.omega}])
        finally:
            tracer.uninstall()
        self.assertIs(triality.trilie.null_space, original)
        self.assertIs(CycloScalar.__mul__, mul)
        with tempfile.TemporaryDirectory() as tmp:
            tracer.write(Path(tmp) / "t")
            summary = tracing.summarize([tracing.Trace(Path(tmp) / "t")], clock)
        self.assertEqual(summary["spans"]["linalg.null_space"]["calls"], 1)
        self.assertEqual(summary["spans"]["linalg.Echelon.insert"]["calls"], 1)
        self.assertEqual(summary["counters"]["linalg.Echelon.insert.useful"], 1)
        self.assertGreater(summary["counters"]["scalars.mul.calls"], 0)


class CheckoutTest(unittest.TestCase):
    def test_no_sources_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "tri-brauer", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  env=env, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
