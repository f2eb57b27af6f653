import json

import pytest

from triality.scalars import make_field
from triality.classify import models, fine_typeIII


@pytest.fixture(autouse=True)
def _clear_cli_env(monkeypatch):
    """Keep the caller's TRIALITY_* overrides out of CLI subprocesses.

    The rest of the environment, PYTHONPATH included, is still inherited;
    a test that wants an override sets it itself with monkeypatch.setenv.
    """
    for name in ("TRIALITY_FIELD_CONDUCTOR", "TRIALITY_SEED", "TRIALITY_OUT"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="session")
def field():
    return make_field(12)


@pytest.fixture(scope="session")
def mod():
    return models(12)


@pytest.fixture(scope="session")
def tri_zorn(mod):
    from triality.trilie import tri_basis

    return tri_basis(mod["para_zorn"])


@pytest.fixture(scope="session")
def tri_okubo(mod):
    from triality.trilie import tri_basis

    return tri_basis(mod["okubo"])


@pytest.fixture(scope="session")
def trial_zorn(mod):
    """E, Cl, kappa, alpha for the para-Cayley triple model."""
    from triality.trialitarian import alpha, clifford_even, end_algebra, kappa

    V = mod["V_zorn"]
    E = end_algebra(V)
    Cl = clifford_even(V)
    km = kappa(V, E, Cl)
    am = alpha(V, E, Cl)
    return {"V": V, "E": E, "Cl": Cl, "kappa": km, "alpha": am}


@pytest.fixture(scope="session")
def typeIII_report(tmp_path_factory):
    """(exit code, JSON report) of `verify --suite typeIII`, run once in
    process.  The flags are explicit, so no TRIALITY_* override applies."""
    from triality.cli import main

    out = tmp_path_factory.mktemp("typeIII") / "report.json"
    code = main(["--field-conductor", "12", "--seed", "0", "--out", str(out), "verify", "--suite", "typeIII"])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fines():
    """The three fine Type III gradings, as records of classify.build."""
    return {kind: fine_typeIII(kind) for kind in ("cartan", "z2cubed", "okubo")}


@pytest.fixture(scope="session")
def okubo_triple(fines):
    return fines["okubo"].related


@pytest.fixture(scope="session")
def z2cubed_triple(fines):
    return fines["z2cubed"].related


@pytest.fixture(scope="session")
def cyclic_axiom_reports(mod):
    from triality.cyclic import opposite, verify_cyclic_axioms

    return {
        "zorn": verify_cyclic_axioms(mod["V_zorn"]),
        "okubo": verify_cyclic_axioms(mod["V_okubo"]),
        "zorn_op": verify_cyclic_axioms(opposite(mod["V_zorn"])),
    }
