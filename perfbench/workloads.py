"""The three benchmark workloads.

Each workload is a closed loop with one client: one operation at a time,
single-threaded, at most one child process at a time.  A round draws its
inputs from the seed, times the operations, then checks every output with
``checks`` outside the timed part.  Each round function returns a ``Round``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 150


@dataclass
class Round:
    ref_s: float = 0.0    # timed part in reference seconds (see clock.py)
    wall_s: float = 0.0   # the same, raw wall time
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, what):
        """Count a failed operation.  Its outputs go unchecked, so it is a
        problem too, and the run is not correct."""
        self.failed += 1
        self.problems.append(f"{what} failed")
        sys.stderr.write(f"{what} failed\n")


def child_env() -> dict:
    """The caller's environment without TRIALITY_* overrides, importing
    triality from this checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRIALITY_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    code: int
    t0: float
    t1: float
    maxrss_kb: int
    stdout: bytes
    stderr: str


def run_child(argv, tag, clock) -> Child:
    """Run one child process to its end and reap it; stdout and stderr go
    to files under ``out/``.  The clock kills it after CHILD_TIMEOUT_S."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=child_env())
        clock.child, clock.deadline = proc, t0 + CHILD_TIMEOUT_S
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            clock.child = clock.deadline = None
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, t0, t1, usage.ru_maxrss, out_path.read_bytes(), err_path.read_text(errors="replace"))


SETUP_CODE = """
import time
t0 = time.perf_counter()
import triality.cli
from triality.classify import models
models(12)
t1 = time.perf_counter()
print(triality.__file__)
print(repr(t0), repr(t1))
"""


def measure_setup(clock, reps: int = 3) -> list:
    """(reference seconds, wall seconds) to import triality and build
    models(12), each time in a fresh interpreter."""
    times = []
    for i in range(reps):
        child = run_child([sys.executable, "-c", SETUP_CODE], f"setup-{i}", clock)
        lines = child.stdout.decode().split()
        if child.code != 0 or len(lines) != 3 or not lines[0].startswith(str(SRC)):
            raise RuntimeError(f"set-up child failed (exit {child.code}): {child.stderr.strip()[-400:]}")
        t0, t1 = float(lines[1]), float(lines[2])
        times.append((clock.reference_s(t0, t1), t1 - t0))
    return times


# ------------------------------------------------------------ inputs


def gl3(rng, p):
    """A uniformly random invertible 3x3 matrix over F_p, as columns."""
    while True:
        cols = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)]
        a, b, c = cols
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - b[0] * (a[1] * c[2] - a[2] * c[1])
            + c[0] * (a[1] * b[2] - a[2] * b[1])
        ) % p
        if det:
            return cols


def rank0_tuple(rng):
    """(k1, k2, h, delta) over Z3^3 with K = <k1, k2> of order 9 and h
    outside K: the columns of a random invertible matrix."""
    k1, k2, h = gl3(rng, 3)
    return k1, k2, h, rng.choice("+-")


def group_json(torsion):
    return {"free_rank": 0, "torsion": list(torsion)}


# ------------------------------------------------------------ cli-proofs


def cli_commands(rng, seed):
    """(label, CLI arguments, check) for one round, in a seeded order;
    the last command repeats the first invariants command, whose stdout
    must come back byte for byte."""
    k1, k2, h, delta = rank0_tuple(rng)
    r0 = {"rank": 0, "group": group_json((3, 3, 3)), "h": list(h), "K": [list(k1), list(k2)], "delta": delta}
    h8 = list(rank0_tuple(rng)[2])
    pair = {
        "first": {"rank": 8, "group": group_json((3, 3, 3)), "h": h8, "t": "p"},
        "second": {"rank": 8, "group": group_json((3, 3, 3)), "h": h8, "t": "o"},
    }

    def suite(name, conductor=12):
        return lambda rep: checks.report_problems(f"verify {name}", rep, conductor) + checks.suite_problems(name, rep)

    def similar_check(rep):
        out = checks.report_problems("similar", rep)
        if rep.get("similar") is not False:
            out.append(f"similar: rank-8 p vs o decided {rep.get('similar')!r}, expected false")
        return out

    def okubo_check(rep):
        out = checks.report_problems("build okubo", rep)
        cf = checks.Cyclotomic(12)
        bad = checks.flexible_violations(checks.parse_product_table(rep, cf), rep["dimension"], cf)
        if rep["dimension"] != 8 or bad:
            out.append(f"build okubo: dimension {rep['dimension']}, flexible law fails on {bad[:3]}")
        return out

    cmds = [
        ("verify-composition", ["verify", "--suite", "composition"], suite("composition")),
        ("verify-grading", ["verify", "--suite", "grading"], suite("grading")),
        ("verify-cyclic", ["verify", "--suite", "cyclic"], suite("cyclic")),
        ("verify-trialitarian", ["verify", "--suite", "trialitarian"], suite("trialitarian")),
        ("verify-jordan", ["verify", "--suite", "jordan"], suite("jordan")),
        ("catalog", ["catalog", "fine-typeIII"], lambda rep: checks.report_problems("catalog", rep) + checks.catalog_problems(rep)),
        ("invariants", ["invariants", "--params", json.dumps(r0)],
         lambda rep: checks.report_problems("invariants", rep) + checks.invariants_problems(rep, 0)),
        ("similar", ["similar", "--params", json.dumps(pair)], similar_check),
        ("build-okubo", ["build", "--constructor", "okubo"], okubo_check),
        ("verify-composition-n24", ["--field-conductor", "24", "verify", "--suite", "composition"], suite("composition", 24)),
    ]
    rng.shuffle(cmds)
    first = next(c for c in cmds if c[0] == "invariants")
    cmds.append(("invariants-repeat",) + first[1:])
    return [(label, ["--seed", str(seed), *args], check) for label, args, check in cmds]


def cli_round(seed, index, clock, traced=False):
    rng = random.Random(f"cli-proofs/{seed}/{index}")
    rnd = Round()
    stdouts, walls, traces = {}, {}, []
    peak_kb = 0
    for label, args, check in cli_commands(rng, seed):
        tag = f"cli-{label}"
        if traced:
            prefix = OUT / f"trace-{tag}"
            argv = [sys.executable, str(HERE / "launch.py"), str(prefix), *args]
        else:
            argv = [sys.executable, "-m", "triality.cli", *args]
        rnd.attempted += 1
        child = run_child(argv, tag, clock)
        code, out, err = child.code, child.stdout, child.stderr
        walls[label] = clock.reference_s(child.t0, child.t1)
        rnd.ref_s += walls[label]
        rnd.wall_s += child.t1 - child.t0
        peak_kb = max(peak_kb, child.maxrss_kb)
        stdouts[label] = out
        if traced and code in (0, 1):
            traces.append(tracing.Trace(prefix))
        if code not in (0, 1):
            rnd.fail(f"{label}: exit {code}: {err.strip()[-400:]}")
            continue
        try:
            rep = json.loads(out)
        except ValueError:
            rnd.problems.append(f"{label}: exit {code}, stdout is not JSON")
            continue
        if code != 0:
            rnd.problems.append(f"{label}: exit {code}")
        rnd.problems += check(rep)
    if stdouts.get("invariants-repeat") != stdouts.get("invariants"):
        rnd.problems.append("invariants: stdout differs between two runs of the same command")
    rnd.details = {"cli_wall_s": walls, "peak_rss_kb": peak_kb, "stdout": stdouts, "trace": tracing.summarize(traces, clock) if traced else None}
    return rnd


# ------------------------------------------------------------ tri-brauer


def tri_brauer_round(seed, index, clock, traced=False):
    from triality.brauer import related_triple, verify_brauer_relations
    from triality.classify import build, models, params_r0, params_r8
    from triality.fgab import GroupHom, make_group, quotient
    from triality.grading import coarsen, universal_group
    from triality.trilie import graded_module_check, induce_tri_grading, root_datum, tri_basis

    rng = random.Random(f"tri-brauer/{seed}/{index}")
    k1, k2, h, delta = rank0_tuple(rng)
    # the Brauer data is taken on G/<h, k>, k one of the four lines of K
    a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, 2)])
    k = tuple((a * x + b * y) % 3 for x, y in zip(k1, k2))
    G = make_group(0, [3, 3, 3])
    el = G.element
    # G = K + <h>; the projection onto <h> along K takes the fine grading
    # to the rank-8 Okubo grading t = o with the same h
    row = inverse_mod3([k1, k2, h])[2]
    to_h = GroupHom(G, G, [[hi * r % 3 for r in row] for hi in h])

    st = {}

    def fine_related():
        Q, pr = quotient(G, [el(h), el(k)])
        return Q, related_triple([(pr(g), trip) for g, trip in st["induce"][1]], st["build"].V.S)

    def coarse_tri():
        gt = coarsen(st["induce"][0], to_h)
        return gt, [(to_h(g), trip) for g, trip in st["induce"][1]]

    steps = [
        ("build", lambda: build(params_r0(G, el(k1), el(k2), el(h), delta))),
        ("universal_group", lambda: universal_group(st["build"].grading)),
        ("tri_basis", lambda: tri_basis(st["build"].V.S)),
        ("root_datum", lambda: root_datum(st["tri_basis"])),
        ("induce", lambda: induce_tri_grading(st["build"].grading, st["tri_basis"])),
        ("module_check", lambda: graded_module_check(st["build"].grading, st["induce"][1])),
        ("related_triple", fine_related),
        ("brauer", lambda: verify_brauer_relations(st["related_triple"][1], models(12)["field"])),
        ("build_r8", lambda: build(params_r8(G, el(h), "o"))),
        ("tri_basis_r8", lambda: tri_basis(st["build_r8"].V.S)),
        ("coarsen_r8", coarse_tri),
        ("module_check_r8", lambda: graded_module_check(st["build_r8"].grading, st["coarsen_r8"][1])),
    ]
    rnd = Round()
    step_s = {}
    for name, fn in steps:
        rnd.attempted += 1
        if rnd.failed:
            rnd.failed += 1  # a later step cannot run without the earlier ones
            continue
        t0 = time.perf_counter()
        try:
            st[name] = fn()
        except Exception as exc:  # an operation of the program failed: count it, keep the run whole
            rnd.fail(f"tri-brauer {name}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        step_s[name] = clock.reference_s(t0, t1)
        rnd.ref_s += step_s[name]
        rnd.wall_s += t1 - t0
    if not rnd.failed:
        rnd.problems += tri_brauer_problems(st, G)
    rnd.details = {"step_s": step_s, "brauer_quotient_line": [a, b]}
    if "induce" in st:
        rnd.details["fine_pieces"] = checks.piece_dims(st["induce"][0].degrees["A"])
    return rnd


def inverse_mod3(cols):
    """Inverse over F3 of the matrix with the given columns, as rows."""
    m = [[cols[j][i] % 3 for j in range(3)] for i in range(3)]
    inv = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            minor = [[m[r][c] for c in range(3) if c != i] for r in range(3) if r != j]
            inv[i][j] = (-1) ** (i + j) * (minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0])
    det = sum(m[0][c] * inv[c][0] for c in range(3)) % 3
    return [[x * det % 3 for x in r] for r in inv]  # 1/det = det in F3


def tri_brauer_problems(st, G) -> list:
    out = []
    uni = st["universal_group"].group
    if (uni.free_rank, list(uni.torsion)) != (0, [3, 3, 3]):
        out.append(f"universal group of the Okubo fine grading is {uni}, expected Z3^3")
    for tag in ("tri_basis", "tri_basis_r8"):
        tri = st[tag]
        trivial = [G.identity()] * tri.dim
        bad = checks.graded_table_violations(tri.lie.mul, trivial, G, antisymmetric=True)
        if tri.dim != 28 or bad:
            out.append(f"{tag}: dimension {tri.dim}, bracket breaks {bad[:3]}")
    rd = st["root_datum"]
    out += checks.root_datum_problems(rd.roots, rd.simple_roots, rd.cartan_matrix)
    gt, _adapted = st["induce"]
    bad = checks.graded_table_violations(gt.structure.mul, gt.degrees["A"], G, antisymmetric=True)
    if bad:
        out.append(f"induced tri grading: structure constants break {bad[:3]}")
    if sum(checks.piece_dims(gt.degrees["A"])) != 28:
        out.append(f"induced tri grading: pieces {checks.piece_dims(gt.degrees['A'])} do not add up to 28")
    for key in ("module_check", "module_check_r8"):
        if st[key] is not True:
            out.append(f"{key}: graded_module_check returned {st[key]!r}")
    gt8 = st["coarsen_r8"][0]
    ident = sum(1 for g in gt8.degrees["A"] if not any(checks.coords(g)))
    # Der(Okubo) = sl3 is the identity component; para-Cayley would give 14, 7, 7
    if ident != 8 or checks.piece_dims(gt8.degrees["A"]) != [8, 10, 10]:
        out.append(f"rank-8 Okubo tri grading: identity {ident}, pieces {checks.piece_dims(gt8.degrees['A'])}")
    Q, triple = st["related_triple"]
    for i, (alg, gr) in enumerate(zip(triple.algebras, triple.gradings)):
        bad = checks.graded_table_violations(alg.mul, gr.degrees["A"], Q, antisymmetric=False)
        if alg.dim != 64 or bad:
            out.append(f"related algebra {i + 1}: dimension {alg.dim}, degrees break {bad[:3]}")
    rep = st["brauer"]
    if not rep.ok():
        out.append("Brauer report does not hold")
    return out + checks.brauer_factor_problems(rep.details["factors"])


# ------------------------------------------------------------ similarity-sweep

Z333 = (3, 3, 3)
Z2223 = (2, 2, 2, 3)


def _outside(mod, h, elems):
    H = checks.span(mod, (h,))
    return [g for g in elems if g not in H]


def _all(mod):
    return list(itertools.product(*(range(m) for m in mod)))


def sweep_template():
    """Fixed parameter families over Z3^3 and Z2^3 x Z3, on plain tuples;
    a round maps them by a seeded automorphism of each group."""
    T = checks.Tup
    fam = {}
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    hs = [e3, (0, 0, 2)]
    fam[("Z3^3", 8)] = [T(Z333, 8, h, t=t) for h in (e3, (0, 0, 2), (1, 0, 1), (2, 0, 2)) for t in "po"]
    fam[("Z3^3", 4)] = [T(Z333, 4, h, gamma=(g,)) for h in hs for g in _outside(Z333, e3, _all(Z333))]
    cand = _outside(Z333, e3, _all(Z333))[:8]
    fam[("Z3^3", 2)] = [
        T(Z333, 2, h, gamma=(g1, g2, checks.g_mul(Z333, -1, checks.g_add(Z333, g1, g2))))
        for h in hs
        for g1 in cand
        for g2 in cand
        if checks.g_add(Z333, g1, g2) not in checks.span(Z333, (e3,))
    ]
    fam[("Z3^3", 0)] = [
        T(Z333, 0, h, K=pair, delta=d)
        for a, b in ((e1, e2), (e1, (0, 1, 1)), (e2, (1, 0, 1)))
        for pair in ((a, b), (b, a))
        for h in hs + [(0, 1, 2), (0, 2, 1)]
        for d in "+-"
    ]
    h = (0, 0, 0, 1)
    hs = [h, (0, 0, 0, 2)]
    bases = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
             ((1, 0, 0), (1, 1, 0), (1, 1, 1)), ((0, 0, 1), (0, 1, 1), (1, 1, 1)), ((1, 0, 1), (0, 1, 0), (0, 1, 1))]
    fam[("Z2^3xZ3", 1)] = [T(Z2223, 1, hh, K=[k + (0,) for k in basis]) for hh in hs for basis in bases]
    cand = _outside(Z2223, h, _all(Z2223))[:8]
    fam[("Z2^3xZ3", 2)] = [
        T(Z2223, 2, hh, gamma=(g1, g2, checks.g_mul(Z2223, -1, checks.g_add(Z2223, g1, g2))))
        for hh in hs
        for g1 in cand
        for g2 in cand
        if checks.g_add(Z2223, g1, g2) not in checks.span(Z2223, (h,))
    ]
    fam[("Z2^3xZ3", 4)] = [T(Z2223, 4, hh, gamma=(g,)) for hh in hs for g in _outside(Z2223, h, _all(Z2223))]
    fam[("Z2^3xZ3", 8)] = [T(Z2223, 8, hh, t=t) for hh in hs for t in "po"]
    return fam


def _automorphism(rng, mod):
    if mod == Z333:
        cols = gl3(rng, 3)
        return lambda x: tuple(sum(cols[j][i] * x[j] for j in range(3)) % 3 for i in range(3))
    cols = gl3(rng, 2)
    u = rng.choice((1, 2))
    return lambda x: tuple(sum(cols[j][i] * x[j] for j in range(3)) % 2 for i in range(3)) + ((u * x[3]) % 3,)


def _mapped(t, phi):
    return checks.Tup(t.mod, t.rank, phi(t.h), K=[phi(k) for k in t.K], gamma=[phi(g) for g in t.gamma], delta=t.delta, t=t.t)


def sweep_inputs(seed, index):
    rng = random.Random(f"similarity-sweep/{seed}/{index}")
    phis = {Z333: _automorphism(rng, Z333), Z2223: _automorphism(rng, Z2223)}
    fams = {}
    for key, tuples in sweep_template().items():
        mapped = [_mapped(t, phis[t.mod]) for t in tuples]
        rng.shuffle(mapped)
        fams[key] = mapped
    return fams


def to_params(t):
    """The program's parameter tuple for a plain tuple.  Z2^3 x Z3 is
    Z2 x Z2 x Z6 in the program's chain coordinates: (a, b, c, d) maps to
    (a, b, 3c + 4d mod 6)."""
    from triality.classify import params_r0, params_r1, params_r2, params_r4, params_r8
    from triality.fgab import make_group

    if t.mod == Z333:
        G = make_group(0, [3, 3, 3])
        el = G.element
    else:
        G = make_group(0, [2, 2, 2, 3])

        def el(x):
            return G.element((x[0], x[1], (3 * x[2] + 4 * x[3]) % 6))

    if t.rank == 0:
        return params_r0(G, el(t.K[0]), el(t.K[1]), el(t.h), t.delta)
    if t.rank == 1:
        return params_r1(G, [el(k) for k in t.K], el(t.h))
    if t.rank == 2:
        return params_r2(G, tuple(el(g) for g in t.gamma), el(t.h))
    if t.rank == 4:
        return params_r4(G, el(t.gamma[0]), el(t.h))
    return params_r8(G, el(t.h), t.t)


def sweep_round(seed, index, clock, traced=False):
    from triality.classify import build, canonical_key, similar_params
    from triality.cli import invariants_of_built

    fams = sweep_inputs(seed, index)
    params = {key: [to_params(t) for t in tuples] for key, tuples in fams.items()}
    oracle = {key: checks.paper_classes(tuples) for key, tuples in fams.items()}
    rnd = Round()
    decisions = {}
    t0 = time.perf_counter()
    for key, ps in params.items():
        dec = decisions[key] = {}
        for i, p in enumerate(ps):
            for j, q in enumerate(ps):
                rnd.attempted += 1
                try:
                    dec[(i, j)] = bool(similar_params(p, q).similar)
                except Exception as exc:  # count the failed decision, keep the run whole
                    rnd.fail(f"similar_params {key} {i} {j}: {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    decide_s = clock.reference_s(t0, t1)
    rnd.wall_s += t1 - t0
    ndecisions = rnd.attempted
    invs = {}
    t0 = time.perf_counter()
    for key, classes in oracle.items():
        for members in classes:
            for i in members[:2]:
                rnd.attempted += 1
                try:
                    invs[(key, i)] = invariants_of_built(build(params[key][i]))
                except Exception as exc:  # count the failed build, keep the run whole
                    rnd.fail(f"build {key} {i}: {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    invariants_s = clock.reference_s(t0, t1)
    rnd.wall_s += t1 - t0
    rnd.ref_s = decide_s + invariants_s
    nbuilds = rnd.attempted - ndecisions
    orientation_probe(rnd)
    keys = {key: [canonical_key(p) for p in ps] for key, ps in params.items()}
    for key in fams:
        rnd.problems += sweep_problems(key, fams[key], decisions[key], keys[key], oracle[key], invs)
    rnd.details = {
        "decisions": ndecisions,
        "decide_s": decide_s,
        "builds": nbuilds,
        "invariants_s": invariants_s,
        "classes": {f"{g} r={r}": [len(fams[(g, r)]), len(oracle[(g, r)])] for g, r in fams},
    }
    return rnd


def sweep_problems(key, tuples, dec, keys, classes, invs) -> list:
    out = []
    n = len(tuples)
    for (i, j), d in dec.items():
        if d != (keys[i] == keys[j]):
            out.append(f"{key}: decision {i},{j} = {d} but canonical keys {'agree' if keys[i] == keys[j] else 'differ'}")
        if i == j and not d:
            out.append(f"{key}: tuple {i} not similar to itself")
        if dec.get((j, i)) != d:
            out.append(f"{key}: decision {i},{j} is not symmetric")
    if len(dec) != n * n:
        return out + [f"{key}: {n * n - len(dec)} decisions missing"]
    program_classes = {}
    for i in range(n):
        rep = next(j for j in range(n) if dec[(i, j)])
        program_classes.setdefault(rep, []).append(i)
    if sorted(program_classes.values()) != classes:
        out.append(f"{key}: {len(program_classes)} classes decided, {len(classes)} by the classification conditions")
    if key[1] == 8 and len(classes) != checks.rank8_class_count(tuples):
        out.append(f"{key}: {len(classes)} rank-8 classes, expected two per <h> present")
    for members in classes:
        got = {i: invs[(key, i)] for i in members[:2] if (key, i) in invs}
        # the program reads the rank-0 orientation in each tuple's own frame
        # (k1, k2), so it is only required here: which members are built
        # depends on the seed.  orientation_probe compares it on fixed inputs.
        shared = [{f: inv[f] for f in CLASS_INVARIANTS} for inv in got.values()]
        if any(s != shared[0] for s in shared):
            out.append(f"{key}: similar tuples {members[:2]} have different invariants")
        for i, inv in got.items():
            if inv["rank"] != key[1]:
                out.append(f"{key}: tuple {i} has an identity component of dimension {inv['rank']}")
            if key[1] == 0 and inv.get("orientation") not in ("+", "-"):
                out.append(f"{key}: tuple {i} has orientation {inv.get('orientation')!r}")
    return out


CLASS_INVARIANTS = ("rank", "support", "type_vector", "universal_group")

# (k1, k2, h, -) and (k2, k1, h, +): similar, because swapping k1 and k2
# reverses the orientation of the frame
ORIENTATION_PAIR = (
    checks.Tup(Z333, 0, (0, 0, 1), K=((1, 0, 0), (0, 1, 0)), delta="-"),
    checks.Tup(Z333, 0, (0, 0, 1), K=((0, 1, 0), (1, 0, 0)), delta="+"),
)


def orientation_probe(rnd):
    """One operation on fixed inputs, the same in every round: two similar
    rank-0 tuples must report the same orientation.  The program reads the
    orientation in each tuple's own frame, so at this writing the two differ
    on every run.  That mismatch counts in ``failed`` and is not a problem of
    the run: ``correct`` speaks of the operations that did not fail.  An
    exception in the program is a problem as usual."""
    from triality.classify import build
    from triality.cli import invariants_of_built

    rnd.attempted += 1
    if not checks.paper_similar(*ORIENTATION_PAIR):
        rnd.problems.append("orientation probe: the fixed pair is not similar")
        return
    try:
        got = [invariants_of_built(build(to_params(t))).get("orientation") for t in ORIENTATION_PAIR]
    except Exception as exc:
        rnd.fail(f"orientation probe: {type(exc).__name__}: {exc}")
        return
    if None in got:
        rnd.problems.append(f"orientation probe: orientations {got}")
    elif got[0] != got[1]:
        rnd.failed += 1
        sys.stderr.write(f"orientation probe: similar rank-0 tuples report orientations {got}\n")


WORKLOADS = {
    "cli-proofs": cli_round,
    "tri-brauer": tri_brauer_round,
    "similarity-sweep": sweep_round,
}
