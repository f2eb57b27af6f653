import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

from triality.scalars import MAX_CONDUCTOR

PARAMS_R8 = '{"rank": 8, "group": {"free_rank": 0, "torsion": [3,3,3]}, "h": [0,0,1], "t": "p"}'
PARAMS_R8_O = '{"rank": 8, "group": {"free_rank": 0, "torsion": [3,3,3]}, "h": [0,0,1], "t": "o"}'
Z333 = '"group": {"free_rank": 0, "torsion": [3,3,3]}, "h": [0,0,1]'
SIMILAR_R2 = (
    f'{{"first": {{"rank": 2, {Z333}, "gamma": [[1,0,0],[0,1,0],[2,2,0]]}}, '
    f'"second": {{"rank": 2, {Z333}, "gamma": [[0,1,1],[1,0,1],[2,2,1]]}}}}'
)
SIMILAR_R0 = (
    f'{{"first": {{"rank": 0, {Z333}, "K": [[1,0,0],[0,1,0]], "delta": "-"}}, '
    f'"second": {{"rank": 0, {Z333}, "K": [[0,1,0],[1,0,0]], "delta": "+"}}}}'
)
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PARAMS_R1 = '{"rank": 1, "group": {"free_rank": 0, "torsion": [2,2,6]}, "h": [0,0,2], "K": [[1,0,0],[0,1,0],[0,0,3]]}'
PARAMS_R0 = f'{{"rank": 0, {Z333}, "K": [[1,0,0],[0,1,0]], "delta": "+"}}'
PARAMS_R0_MINUS = f'{{"rank": 0, {Z333}, "K": [[1,0,0],[0,1,0]], "delta": "-"}}'
PARAMS_R2 = f'{{"rank": 2, {Z333}, "gamma": [[1,0,0],[0,1,0],[2,2,0]]}}'
PARAMS_R4_FREE = '{"rank": 4, "group": {"free_rank": 1, "torsion": [3]}, "h": [0,1], "g": [1,0]}'


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "triality.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_catalog_fine_typeIII():
    proc = run_cli("catalog", "fine-typeIII")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["status"] == "pass"
    unis = {row["kind"]: row["universal_group"] for row in data["table"]}
    assert unis["cartan"] == {"free_rank": 2, "torsion": [3]}
    assert unis["z2cubed"] == {"free_rank": 0, "torsion": [2, 2, 6]}
    assert unis["okubo"] == {"free_rank": 0, "torsion": [3, 3, 3]}
    assert all("NOT REFUTED" not in v for v in data["non_refinement"].values())


def test_reports_embed_conductor_and_version():
    proc = run_cli("similar", "--params", json.dumps({"first": json.loads(PARAMS_R8), "second": json.loads(PARAMS_R8_O)}))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["field_conductor"] == 12
    assert data["version"]
    assert data["similar"] is False


@pytest.mark.parametrize("name, params", [("similar_rank2", SIMILAR_R2), ("similar_rank0", SIMILAR_R0)])
def test_similar_golden_stdout(name, params):
    # the decisions pinned from the version of `similar` that did group
    # arithmetic for every pair, the traces re-recorded from the orbit key:
    # a rank-2 pair similar through the word swap, shift (pi = (1, 0, 2),
    # j = 1), and a rank-0 pair with a swapped frame, whose two tuples have
    # one alpha (the empty word)
    proc = run_cli("--seed", "0", "similar", "--params", params)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, args",
    [
        ("build_okubo", ["build", "--constructor", "okubo"]),
        ("brauer_okubo", ["brauer", "--kind", "okubo"]),
        ("brauer_z2cubed", ["brauer", "--kind", "z2cubed"]),
        ("brauer_cartan", ["brauer", "--kind", "cartan"]),
        ("verify_jordan", ["verify", "--suite", "jordan"]),
        ("verify_trialitarian", ["verify", "--suite", "trialitarian"]),
        ("verify_composition", ["verify", "--suite", "composition"]),
        ("verify_composition_n24", ["--field-conductor", "24", "verify", "--suite", "composition"]),
    ],
)
def test_product_fed_golden_stdout(name, args):
    # bytes pinned from the version whose structure-constant products and
    # b_Q normalized every term on its own; the two composition suites from
    # the version that read each Okubo product at all eight duals
    proc = run_cli("--seed", "11", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, args",
    [
        ("catalog_fine_typeIII", ["catalog", "fine-typeIII"]),
        ("build_typeIII_r1", ["build", "--constructor", "typeIII", "--params", PARAMS_R1]),
        ("build_typeIII_r0_plus", ["build", "--constructor", "typeIII", "--params", PARAMS_R0]),
        ("build_typeIII_r0_minus", ["build", "--constructor", "typeIII", "--params", PARAMS_R0_MINUS]),
        ("build_typeIII_r2", ["build", "--constructor", "typeIII", "--params", PARAMS_R2]),
        ("build_typeIII_r4_free", ["build", "--constructor", "typeIII", "--params", PARAMS_R4_FREE]),
        ("build_typeIII_r8_p", ["build", "--constructor", "typeIII", "--params", PARAMS_R8]),
        ("build_typeIII_r8_o", ["build", "--constructor", "typeIII", "--params", PARAMS_R8_O]),
        ("invariants_r0_plus", ["invariants", "--params", PARAMS_R0]),
        ("invariants_r0_minus", ["invariants", "--params", PARAMS_R0_MINUS]),
        ("invariants_r0_plus_n3", ["--field-conductor", "3", "invariants", "--params", PARAMS_R0]),
        ("invariants_r0_minus_n3", ["--field-conductor", "3", "invariants", "--params", PARAMS_R0_MINUS]),
        ("invariants_r0_plus_n24", ["--field-conductor", "24", "invariants", "--params", PARAMS_R0]),
        ("invariants_r0_minus_n24", ["--field-conductor", "24", "invariants", "--params", PARAMS_R0_MINUS]),
    ],
)
def test_record_golden_stdout(name, args):
    # bytes pinned from the version that re-derived rank, universal group
    # and related triple in each command instead of reading them off the
    # record that build returns; the build_typeIII files other than r1 from
    # the version that wrote a degree formula per rank family and verified
    # every tuple's grading; the invariants files from the version that
    # rescaled the rank-0 generators to n(x, x*x) = 1 before reading the
    # orientation
    proc = run_cli("--seed", "11", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_verify_typeIII_golden(typeIII_report):
    # the same pin for `--seed 0 verify --suite typeIII`, read from the
    # session's in-process run, which `emit` wrote in this format
    code, rep = typeIII_report
    assert code == 0
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == (GOLDEN / "verify_typeIII.json").read_text(encoding="utf-8")


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli("--seed", "7", "--out", str(out), "invariants", "--params", PARAMS_R8)
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    proc1 = run_cli("--seed", "7", "catalog", "fine-typeIII")
    proc2 = run_cli("--seed", "7", "catalog", "fine-typeIII")
    assert proc1.stdout == proc2.stdout


def test_invariants_command():
    proc = run_cli("invariants", "--params", PARAMS_R8)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["invariants"]["rank"] == 8
    assert data["invariants"]["universal_group"] == {"free_rank": 0, "torsion": [3]}


def test_exit_codes():
    bad = '{"rank": 4, "group": {"free_rank": 0, "torsion": [3,3,3]}, "h": [0,0,1], "g": [0,0,2]}'
    redundant_r1 = PARAMS_R1.replace("[0,0,3]]", "[0,0,3],[1,1,0]]")  # rank 1 reads an ordered triple
    cases = [
        (("build", "--constructor", "nope"), 2),
        (("similar", "--params", "not json"), 2),
        (("invariants", "--params", bad), 2),  # g in <h>
        (("build", "--constructor", "typeIII", "--params", redundant_r1), 2),
        (("invariants", "--params", redundant_r1), 2),
        (("verify", "--suite", "composition"), 0),
        (("--field-conductor", "0", "verify", "--suite", "composition"), 2),
        (("--field-conductor", "4", "verify", "--suite", "composition"), 2),  # no cube root of unity
        (("--field-conductor", str(MAX_CONDUCTOR + 3), "verify", "--suite", "composition"), 2),
        (("invariants", "--params", "[1,2]"), 2),
        (("invariants", "--params", PARAMS_R8.replace("[3,3,3]", "[0]")), 2),  # torsion: [0]
        (("invariants", "--params", PARAMS_R8.replace("[0,0,1]", '"ab"')), 2),  # "h": "ab"
        (("invariants", "--params", PARAMS_R8.replace("[0,0,1]", "[0,1]")), 2),  # h of length 2 in Z3^3
        (("--field-conductor", "3", "brauer", "--kind", "z2cubed"), 2),  # characters of order 2 over Q(zeta3)
        (("invariants", "--params", PARAMS_R8.replace('"rank": 8', '"rank": 8.9')), 2),
        (("invariants", "--params", PARAMS_R1.replace('"rank": 1', '"rank": true')), 2),
        (("invariants", "--params", '{"rank": 8, "group": {"torsion": [3.7]}, "h": [1], "t": "p"}'), 2),
        (("invariants", "--params", PARAMS_R8.replace('"free_rank": 0', '"free_rank": "1"').replace("[0,0,1]", "[0,0,0,1]")), 2),
    ]
    for args, code in cases:
        proc = run_cli(*args)
        assert proc.returncode == code, proc.stderr


def test_verify_trialitarian_reports_real_checks():
    proc = run_cli("verify", "--suite", "trialitarian")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks == {
        "alpha_bijective_homomorphism": True,
        "alpha_involutions": True,
        "lie_of_E_dimension_28": True,
        "lie_of_E_equals_derivations": True,
    }


def test_verify_lie_reports_real_checks():
    proc = run_cli("verify", "--suite", "lie")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks == {
        "okubo_cyclic_shift": True,
        "okubo_d4_cartan_matrix": True,
        "okubo_jacobi": True,
        "para_zorn_cyclic_shift": True,
        "para_zorn_d4_cartan_matrix": True,
        "para_zorn_jacobi": True,
    }


def run_typeIII_in_process(tmp_path):
    from triality.cli import main

    out = tmp_path / "typeIII.json"
    code = main(["--field-conductor", "12", "--out", str(out), "verify", "--suite", "typeIII"])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_verify_typeIII_fails_on_corrupted_degree(tmp_path, monkeypatch, typeIII_report):
    # one V degree of each fine grading moved by its distinguished element:
    # no grading verifies, and every check of the suite reads false
    from triality import cli

    real = cli.fine_typeIII

    def corrupted(kind, conductor):
        built = real(kind, conductor)
        g = built.grading
        bad = g.copy_with_degree("V", 0, g.degrees["V"][0] + built.params.h)
        # a new record: nothing derived from the sound grading carries over
        return dataclasses.replace(built, grading=bad)

    monkeypatch.setattr(cli, "fine_typeIII", corrupted)
    code, rep = run_typeIII_in_process(tmp_path)
    assert code == 1 and rep["status"] == "fail"
    assert rep["checks"] == dict.fromkeys(typeIII_report[1]["checks"], False)


def test_verify_typeIII_fails_on_one_false_check(tmp_path, monkeypatch, typeIII_report):
    # one operator degree shifted by deg(xi) fails the center-orbit decision
    # of each fine grading; the trialitarian layer binds its own
    # operator_degrees at import, so the E checks keep reading the real one
    from triality import trialitarian, trilie

    real = trilie.operator_degrees
    assert trialitarian.operator_degrees is real
    monkeypatch.setattr(trilie, "operator_degrees", lambda g: [real(g)[0] + g.degrees["L"][1]] + real(g)[1:])
    code, rep = run_typeIII_in_process(tmp_path)
    assert code == 1 and rep["status"] == "fail"
    passing = typeIII_report[1]["checks"]
    assert rep["checks"] == {key: not key.endswith("_center_orbit_same_E_and_tri") for key in passing}
    assert len(passing) == 13 and all(v is True for v in passing.values())


def test_typeIII_suite_solves_no_tri(tmp_path, monkeypatch):
    # the center-orbit decision reads the operator degrees; it neither
    # solves tri(S) nor splits it
    from triality import trilie

    calls = []
    for name in ("tri_basis", "_homogeneous_pieces"):
        real = getattr(trilie, name)
        monkeypatch.setattr(trilie, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
    code, _rep = run_typeIII_in_process(tmp_path)
    assert code == 0 and calls == []


def test_unknown_suite_is_refused_before_the_models_are_built(monkeypatch, capsys):
    from triality import cli

    built = []
    monkeypatch.setattr(cli, "models", built.append)
    assert cli.main(["verify", "--suite", "nope"]) == 2
    assert built == []
    assert "usage error: unknown suite 'nope'" in capsys.readouterr().err


def test_unknown_constructor_is_refused_before_the_models_are_built(monkeypatch, capsys):
    from triality import cli

    built = []
    monkeypatch.setattr(cli, "models", built.append)
    assert cli.main(["build", "--constructor", "nope"]) == 2
    assert built == []
    assert "usage error: unknown constructor 'nope'" in capsys.readouterr().err


def package_errors():
    from triality.albert import AlbertError
    from triality.brauer import BrauerError
    from triality.composition import CompositionError
    from triality.cyclic import CyclicAxiomError
    from triality.trialitarian import TrialitarianError
    from triality.trilie import TrialityError

    return [TrialityError, TrialitarianError, AlbertError, BrauerError, CyclicAxiomError, CompositionError]


@pytest.mark.parametrize(
    "error, code, prefix",
    [(err, 1, "verification error") for err in package_errors()]
    + [(AssertionError, 3, "internal error"), (KeyError, 3, "internal error"), (ValueError, 3, "internal error")],
)
def test_internal_errors_exit_3(monkeypatch, capsys, error, code, prefix):
    # a verification error of the package is a failed proof (exit 1); any
    # other exception from the machinery is a fault of the program (exit 3)
    from triality import cli

    def broken(*_args):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "build", broken)
    assert cli.main(["invariants", "--params", PARAMS_R8]) == code
    assert capsys.readouterr().err.startswith(f"{prefix}: {error.__name__}: ")


def test_brauer_and_typeIII_suite_compute_no_universal_group(tmp_path, monkeypatch):
    # neither command prints a universal group, so the record never forms one
    from triality import classify
    from triality.cli import main

    calls = []
    real = classify.universal_group
    monkeypatch.setattr(classify, "universal_group", lambda g: calls.append(g) or real(g))
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "brauer", "--kind", "okubo"]) == 0
    assert main(["--field-conductor", "12", "--out", str(out), "verify", "--suite", "typeIII"]) == 0
    assert calls == []


def test_cli_import_loads_no_structure_layer():
    # every cli-proofs command is a fresh process that compiles what it
    # imports, so importing the CLI loads only the modules that every
    # command needs; tri(S), the Brauer layer, the trialitarian algebra and
    # the Albert algebra are imported inside the commands that use them
    probe = "import json, sys, triality.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith('triality'))))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "triality",
        *(f"triality.{m}" for m in ("classify", "cli", "composition", "cyclic", "fgab", "grading", "linalg", "scalars")),
    ]


def test_readme_names_every_suite():
    from triality.cli import SUITES

    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^# verification suites: (.*)$", readme, re.M)
    assert [line.split(", ") for line in listed] == [sorted(SUITES)]


def test_build_typeIII():
    proc = run_cli("build", "--constructor", "typeIII", "--params", PARAMS_R8)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["rank"] == 8
    assert data["support_size"] == 3


def test_env_override(tmp_path, monkeypatch):
    # The child inherits the test's environment (PYTHONPATH included); only
    # the overrides under test are set, with no --seed or --out flags.
    out = tmp_path / "envout.json"
    monkeypatch.setenv("TRIALITY_OUT", str(out))
    monkeypatch.setenv("TRIALITY_SEED", "3")
    proc = run_cli("invariants", "--params", PARAMS_R8)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    data = json.loads(out.read_text())
    assert data["seed"] == 3


@pytest.mark.parametrize("name", ["TRIALITY_SEED", "TRIALITY_FIELD_CONDUCTOR"])
def test_bad_env_value_is_usage_error(monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    proc = run_cli("catalog", "fine-typeIII")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "invalid int value: 'abc'" in proc.stderr
