import hashlib
import random
from collections import Counter
from operator import getitem

import pytest

import sweep_utils
from triality import grading as grading_module
from triality.classify import build, models
from triality.composition import cartan_grading_cayley, okubo_grading, okubo_sl3, zorn_cayley
from triality.fgab import GroupHom, _cokernel, make_group
from triality.grading import (
    SCALAR_SORT,
    Grading,
    RelationLattice,
    Report,
    UniversalResult,
    coarsen,
    universal_group,
    verify_grading,
)


def test_trivial_grading_passes(field):
    A = zorn_cayley(field)
    G = make_group(0, [3])
    g = Grading(A, G, {"A": [G.identity()] * 8})
    assert verify_grading(g).ok


def test_cartan_passes_and_mutation_located(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    assert g.verified
    bad = g.copy_with_degree("A", 2, g.group.element((5, 5)))  # corrupt deg u1
    report = verify_grading(bad)
    assert not report.ok
    # the report names offending (map, inputs, output, coefficient) tuples
    assert all(len(v) == 4 for v in report.violations)
    assert any(2 in v[1] for v in report.violations)


@pytest.mark.parametrize(
    "sort, index, coords, count, checked, digest",
    [
        # V_5 of the rank-0 tensor grading moved from (0, 2, 2) to (2, 2, 2)
        ("V", 5, (2, 2, 2), 45, 441, "6ef9fab6765e5a36cce3b79682fa8b0bd4558b9d1f951a330c7ad3c7d91fa4c8"),
        # deg xi moved from h to h^2
        ("L", 1, (0, 0, 2), 52, 441, "cd9e3c9cdddb63ec7488f651ca087a2a782501c452d5acc692a70e28f211c469"),
        # s_3 of the Okubo Z3^2 grading moved from (1, 1) to e
        ("A", 3, (0, 0), 13, 40, "4217f24c3620e98d32fb9d912e2ec93dab8e39097973966e7235967034b973e7"),
    ],
)
def test_verify_grading_pins_violations(fines, sort, index, coords, count, checked, digest):
    """The whole violation list, in order, and the count of one corrupted
    degree; the digests were taken from the loop that added GroupElems."""
    if sort == "A":
        g = okubo_grading(models(12)["okubo"], "+")
    else:
        g = fines["okubo"].grading
    report = verify_grading(g.copy_with_degree(sort, index, g.group.element(coords)))
    assert (len(report.violations), report.checked) == (count, checked)
    assert hashlib.sha256(repr(report.violations).encode()).hexdigest() == digest


def test_coarsen_identity_and_zero(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    G = g.group
    same = coarsen(g, GroupHom.identity(G))
    assert (same.group, same.degrees) == (g.group, g.degrees)
    T = make_group(0, [])
    zero = coarsen(g, GroupHom.zero(G, T))
    assert len(zero.components()) == 1 and zero.verified


def test_universal_group_idempotent(field):
    g = cartan_grading_cayley(zorn_cayley(field))
    u1 = universal_group(g)
    u2 = universal_group(u1.grading)
    assert u2.group == u1.group
    # the second relabeling is inverted by its own to_original hom
    back = coarsen(u2.grading, u2.to_original)
    assert (back.group, back.degrees) == (u1.grading.group, u1.grading.degrees)


def test_universal_roundtrip_reproduces(field):
    g = okubo_grading(okubo_sl3(field), "+")
    u = universal_group(g)
    back = coarsen(u.grading, u.to_original)
    assert (back.group, back.degrees) == (g.group, g.degrees)


def test_relation_lattice_spans_the_relations():
    """On random sparse relation sets the echelon basis spans the same
    lattice as the relations, so the cokernel is the same group; neither
    insert nor reduce changes its argument or, for reduce, a stored column."""
    rng = random.Random(14)

    def random_vectors(m, count):
        out = []
        for _ in range(count):
            rows = rng.sample(range(m), rng.randint(1, min(3, m)))
            out.append({i: c for i in rows if (c := rng.randint(-2, 2))})
        return out

    for _ in range(400):
        m = rng.randint(1, 6)
        rels = random_vectors(m, rng.randint(0, 80))
        snapshot = [dict(vec) for vec in rels]
        lattice = RelationLattice()
        for vec in rels:
            lattice.insert(vec)
        assert rels == snapshot
        assert all(min(col) == p for p, col in lattice.columns.items())
        columns = {p: dict(col) for p, col in lattice.columns.items()}
        # every relation lies in the basis lattice ...
        assert not any(lattice.reduce(vec) for vec in rels)
        # ... and reduce works on its own copy, inside the lattice or not
        probes = random_vectors(m, 5)
        probe_snapshot = [dict(vec) for vec in probes]
        for vec in probes:
            lattice.reduce(vec)
        assert rels == snapshot and probes == probe_snapshot and lattice.columns == columns
        # ... and every basis column in the relation lattice
        dense = [[vec.get(i, 0) for i in range(m)] for vec in rels]
        Q, proj, _ = _cokernel(m, dense)
        for col in lattice.columns.values():
            assert Q.element([sum(r[i] * c for i, c in col.items()) for r in proj]).is_identity()
        basis = [[col.get(i, 0) for i in range(m)] for col in lattice.columns.values()]
        assert _cokernel(m, basis)[0] == Q


class CopyingLattice(RelationLattice):
    """The lattice with the reduce of the oracle below: a fresh dict at
    every pivot step."""

    def reduce(self, vec):
        while vec:
            p = min(vec)
            col = self.columns.get(p)
            if col is None:
                return vec
            q = vec[p] // col[p]
            vec = dict(vec)
            for i, c in col.items():
                vec[i] = vec.get(i, 0) - q * c
            vec = {i: c for i, c in vec.items() if c}
            if p in vec:
                return vec
        return vec


def entry_relations(grading):
    """The relation vector of every distinct (sorted inputs, output)
    pattern of the structure maps, in order of first occurrence."""
    support = sorted({d.canonical() for ds in grading.degrees.values() for d in ds})
    index = {s: i for i, s in enumerate(support)}
    numbers = {s: [index[d.canonical()] for d in ds] for s, ds in grading.degrees.items()}
    patterns = {}
    for smap in grading.structure.grading_maps():
        in_nums = [numbers[s] for s in smap.inputs]
        out_nums = None if smap.output == SCALAR_SORT else numbers[smap.output]
        for key, out_idx, _c in smap.entries():
            patterns[tuple(sorted(map(getitem, in_nums, key))), None if out_nums is None else out_nums[out_idx]] = None
    vectors = []
    for ins, out in patterns:
        vec = Counter(ins)
        if out is not None:
            vec[out] -= 1
        vectors.append({j: c for j, c in vec.items() if c})
    return support, vectors


def oracle_universal_group(grading):
    """universal_group as it was before it read the relations once: every
    pattern's relation inserted, and the relabeled grading checked entry by
    entry with verify_grading."""
    G = grading.group
    support, vectors = entry_relations(grading)
    index = {s: i for i, s in enumerate(support)}
    m = len(support)
    lattice = CopyingLattice()
    for vec in vectors:
        lattice.insert(vec)
    basis = [[col.get(i, 0) for i in range(m)] for _p, col in sorted(lattice.columns.items())]
    U, rows, lifts = _cokernel(m, basis)
    degree_of = {s: U.element(tuple(row[index[s]] for row in rows)) for s in support}
    relabeled = Grading(grading.structure, U, {s: [degree_of[d.canonical()] for d in ds] for s, ds in grading.degrees.items()})
    cols = []
    for lift in lifts:
        coords = [0] * G.ndim
        for s_pos, mult in enumerate(lift):
            for a in range(G.ndim):
                coords[a] += mult * support[s_pos][a]
        cols.append(coords)
    matrix = [[cols[j][a] for j in range(len(cols))] for a in range(G.ndim)]
    verify_grading(relabeled).require(AssertionError, "universal relabeling")
    return UniversalResult(U, relabeled, GroupHom(U, G, matrix))


@pytest.fixture(scope="module")
def oracle_gradings(field, fines):
    cartan = cartan_grading_cayley(zorn_cayley(field))
    out = {
        "cartan": cartan,
        "okubo": okubo_grading(okubo_sl3(field), "+"),
        "cartan_relabeled": universal_group(cartan).grading,
    }
    out.update({f"fine_{kind}": built.grading for kind, built in fines.items()})
    for (G, r), params in sweep_utils.enumerate_tuples().items():
        out[f"{G}_r{r}"] = build(params[0]).grading
    return out


def universal_summary(u):
    degrees = {s: [d.canonical() for d in ds] for s, ds in u.grading.degrees.items()}
    return u.group, degrees, u.to_original.matrix, u.grading.verified


def test_universal_group_matches_oracle(oracle_gradings):
    assert len(oracle_gradings) == 3 + 3 + 8
    for name, g in oracle_gradings.items():
        assert universal_summary(universal_group(g)) == universal_summary(oracle_universal_group(g)), name


def test_universal_group_reads_the_relations_once(oracle_gradings, monkeypatch):
    """One walk of the structure maps and one insert per distinct relation
    vector; the oracle walks twice and inserts every pattern's vector."""
    calls = Counter()
    real_insert = RelationLattice.insert

    def insert(self, vec):
        calls["insert"] += 1
        real_insert(self, vec)

    monkeypatch.setattr(RelationLattice, "insert", insert)
    for cls in {type(g.structure) for g in oracle_gradings.values()}:

        def grading_maps(self, real=cls.grading_maps):
            calls["walk"] += 1
            return real(self)

        monkeypatch.setattr(cls, "grading_maps", grading_maps)
    repeated = 0
    for name, g in oracle_gradings.items():
        vectors = entry_relations(g)[1]
        distinct = len({frozenset(vec.items()) for vec in vectors})
        repeated += len(vectors) - distinct
        calls.clear()
        universal_group(g)
        assert calls == {"walk": 1, "insert": distinct}, name
        calls.clear()
        oracle_universal_group(g)
        assert calls == {"walk": 2, "insert": len(vectors)}, name
    assert repeated > 0


def test_universal_relabeling_check_catches_a_wrong_projection(field, monkeypatch):
    """Every entry of the cokernel projection, off by 1, sends some relation
    to a nonzero element of U, and universal_group refuses the relabeling."""
    g = cartan_grading_cayley(zorn_cayley(field))
    ndim = universal_group(g).group.ndim
    m = len(g.support())
    real_cokernel = grading_module._cokernel
    for r in range(ndim):
        for j in range(m):

            def off_by_one(n, columns, r=r, j=j):
                Q, rows, lifts = real_cokernel(n, columns)
                rows = [list(row) for row in rows]
                rows[r][j] += 1
                return Q, rows, lifts

            monkeypatch.setattr(grading_module, "_cokernel", off_by_one)
            with pytest.raises(AssertionError, match="universal relabeling failed to verify"):
                universal_group(g)


def test_trivial_universal_group(field):
    A = zorn_cayley(field)
    G = make_group(0, [5])
    g = Grading(A, G, {"A": [G.identity()] * 8})
    verify_grading(g)
    assert universal_group(g).group.is_trivial()


def test_invariants_weighted_sum(field):
    # the Cartan grading: six one-dimensional components around the
    # two-dimensional identity component, over its universal group Z^2
    g = cartan_grading_cayley(zorn_cayley(field))
    dims = sorted(len(ix) for ix in g.components().values())
    assert dims == [1] * 6 + [2]
    assert len(g.identity_component()) == 2
    assert universal_group(g).group == make_group(2)


def test_report_verdict_and_require():
    good = Report([], 5)
    assert good.ok and bool(good) and good.checked == 5
    good.require(ValueError, "nothing")
    with pytest.raises(AttributeError):
        good.ok = False  # read-only: the verdict is the violation list
    with pytest.raises(TypeError):
        Report([])  # every producer states its count
    bad = Report([("a", 1), ("b", 2), ("c", 3), ("d", 4)], 9)
    assert not bad.ok and not bad
    with pytest.raises(RuntimeError, match=r"thing failed to verify: \[\('a', 1\), \('b', 2\), \('c', 3\)\]"):
        bad.require(RuntimeError, "thing")
    bad.violations.clear()
    assert bad.ok  # ok is read from the violations, never stored


def test_no_grading_map_stores_a_zero(mod, fines, trial_zorn, tri_zorn, tri_okubo, okubo_triple, z2cubed_triple):
    # SMap.entries walks every stored entry, so a stored zero would be a
    # spurious relation of universal_group and a spurious check of
    # verify_grading: walk every map of the models, of the three fine
    # gradings on V, E, tri(S) and J, and of the related triples
    from triality.albert import grade_albert
    from triality.trialitarian import end_algebra, induce_E_grading
    from triality.trilie import induce_tri_grading, tri_basis

    structures = [mod[k] for k in ("para_zorn", "para_doubled", "okubo", "V_zorn", "V_doubled", "V_okubo")]
    tris = {"cartan": tri_zorn, "z2cubed": tri_basis(mod["para_doubled"]), "okubo": tri_okubo}
    for kind, tri in tris.items():
        built = fines[kind]
        E = trial_zorn["E"] if built.V is trial_zorn["V"] else end_algebra(built.V)
        gt, _adapted = induce_tri_grading(built.grading, tri)
        structures += [built.V, induce_E_grading(built.grading, E).structure, gt.structure, grade_albert(built.grading).structure]
    structures += okubo_triple.algebras + z2cubed_triple.algebras
    zeros = [
        (type(A).__name__, smap.name, key, k)
        for A in structures
        for smap in A.grading_maps()
        for key, outs in smap.table.items()
        for k, c in outs.items()
        if c.is_zero()
    ]
    assert zeros == []
    assert len(structures) == 6 + 3 * 4 + 6
