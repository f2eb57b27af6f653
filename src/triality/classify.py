"""The five Type III grading families on the rank-8 cyclic composition
algebra, their ranks, the combinatorial similarity decision procedure, the
explicit witness (anti-)isomorphisms behind it, and the three fine Type III
gradings with their universal groups.

Parameter conventions (G a f.g. abelian group, h of order 3, H = <h>):

  r=0  (K via an ordered generator pair (k1, k2) with K iso Z3^2, h not in
       K, sign delta): the Okubo grading with support K \\ {e} tensored
       with deg xi = h.  delta = '+' puts the degree-k1 generator x and the
       degree-k2 generator y in the orientation x*y = 0.
  r=1  (K via generators of a Z2^3, h not in K): the unique Z2^3-supported
       Cayley grading tensored with deg xi = h.
  r=2  (gamma = (g1, g2, g3) with g_i not in H and g1 g2 g3 = e, h): the
       Cartan-induced grading deg u_i = g_i tensored with deg xi = h.
  r=4  (g not in H, h): the r=2 family with gamma = (e, g, g^-1).
  r=8  (h, t in {'p', 'o'}): the trivial grading on the para-Cayley (t='p')
       or Okubo (t='o') algebra tensored with deg xi = h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .scalars import make_field
from .fgab import AbGroup, GroupElem, make_group, subgroup_elements, in_subgroup, subgroup_generated
from .grading import Grading, Report, verify_grading, universal_group
from .linalg import Echelon, axpy, mat_vec
from .composition import (
    zorn_cayley,
    doubled_cayley,
    okubo_sl3,
    para,
)
from .cyclic import (
    CyclicAlgebra,
    cyclic_from_symmetric,
    cut_on_basis,
    make_L,
    opposite,
    tensor_grading,
    para_subalgebra_from_idempotent,
)


class ParamError(ValueError):
    pass


# ---------------------------------------------------------------- models


@lru_cache(maxsize=None)
def models(conductor: int = 12):
    """The shared base models over Q(zeta_N): para-Cayley on the Zorn and
    doubling bases, the Okubo algebra, and their cyclic triple models."""
    F = make_field(conductor)
    L = make_L(F)
    pz = para(zorn_cayley(F))
    pd = para(doubled_cayley(F))
    ok = okubo_sl3(F)
    return {
        "field": F,
        "L": L,
        "para_zorn": pz,
        "para_doubled": pd,
        "okubo": ok,
        "V_zorn": cyclic_from_symmetric(pz, L),
        "V_doubled": cyclic_from_symmetric(pd, L),
        "V_okubo": cyclic_from_symmetric(ok, L),
    }


# ------------------------------------------------------------- parameters


@dataclass(frozen=True)
class TypeIIIParams:
    rank: int
    group: AbGroup
    h: GroupElem
    K: tuple = ()          # ordered generators (r = 0, 1)
    gamma: tuple = ()      # (g1, g2, g3) for r = 2; (g,) for r = 4
    delta: str = ""        # '+' / '-' for r = 0
    t: str = ""            # 'p' / 'o' for r = 8

    def describe(self):
        out = {"rank": self.rank, "group": repr(self.group), "h": list(self.h.coords)}
        if self.K:
            out["K"] = [list(k.coords) for k in self.K]
        if self.gamma:
            out["gamma"] = [list(g.coords) for g in self.gamma]
        if self.delta:
            out["delta"] = self.delta
        if self.t:
            out["t"] = self.t
        return out


def validate(p: TypeIIIParams):
    G = p.group
    if p.h.group != G:
        raise ParamError("h does not lie in the parameter group")
    if p.h.order() != 3:
        raise ParamError(f"h must have order 3, got {p.h.order()}")
    if p.rank == 0:
        if len(p.K) != 2:
            raise ParamError("r=0 needs an ordered pair of generators for K")
        K, _ = subgroup_generated(G, list(p.K))
        if K != make_group(0, [3, 3]):
            raise ParamError(f"K is {K}, not Z3 x Z3")
        if in_subgroup(p.h, list(p.K)):
            raise ParamError("h must lie outside K")
        if p.delta not in ("+", "-"):
            raise ParamError("delta must be '+' or '-'")
    elif p.rank == 1:
        K, _ = subgroup_generated(G, list(p.K))
        if K != make_group(0, [2, 2, 2]):
            raise ParamError(f"K is {K}, not Z2^3")
        if in_subgroup(p.h, list(p.K)):
            raise ParamError("h must lie outside K")
    elif p.rank == 2:
        if len(p.gamma) != 3:
            raise ParamError("r=2 needs gamma = (g1, g2, g3)")
        if not (p.gamma[0] + p.gamma[1] + p.gamma[2]).is_identity():
            raise ParamError("gamma must satisfy g1 g2 g3 = e")
        for g in p.gamma:
            if in_subgroup(g, [p.h]):
                raise ParamError("every g_i must lie outside <h>")
    elif p.rank == 4:
        if len(p.gamma) != 1:
            raise ParamError("r=4 needs a single element g")
        if in_subgroup(p.gamma[0], [p.h]):
            raise ParamError("g must lie outside <h>")
    elif p.rank == 8:
        if p.t not in ("p", "o"):
            raise ParamError("t must be 'p' or 'o'")
    else:
        raise ParamError(f"rank must be one of 0, 1, 2, 4, 8, got {p.rank}")
    return p


def params_r0(G, k1, k2, h, delta):
    return validate(TypeIIIParams(0, G, h, K=(k1, k2), delta=delta))


def params_r1(G, gens, h):
    return validate(TypeIIIParams(1, G, h, K=tuple(gens)))


def params_r2(G, gamma, h):
    return validate(TypeIIIParams(2, G, h, gamma=tuple(gamma)))


def params_r4(G, g, h):
    return validate(TypeIIIParams(4, G, h, gamma=(g,)))


def params_r8(G, h, t):
    return validate(TypeIIIParams(8, G, h, t=t))


# ------------------------------------------------------------------ build


@dataclass
class BuiltGrading:
    params: TypeIIIParams
    V: CyclicAlgebra
    grading: Grading


def _grade_S(S, G, degree_list):
    g = Grading(S, G, {"A": degree_list})
    verify_grading(g).require(ParamError, "S grading")
    return g


def build(p: TypeIIIParams, conductor: int = 12) -> BuiltGrading:
    """Construct the graded cyclic composition algebra of the family and
    verify everything: the S grading, the tensor grading, and that the
    identity component has dimension exactly p.rank."""
    validate(p)
    mod = models(conductor)
    G = p.group
    e = G.identity()
    if p.rank == 0:
        S = mod["okubo"]
        V = mod["V_okubo"]
        k1, k2 = p.K
        degs = []
        for a, b in S.monomial_keys:
            if p.delta == "+":
                degs.append(a * k1 + b * k2)
            else:
                degs.append(a * k2 + b * k1)
        gS = _grade_S(S, G, degs)
    elif p.rank == 1:
        S = mod["para_doubled"]
        V = mod["V_doubled"]
        k1, k2, k3 = p.K

        def word_degree(label):
            acc = e
            for idx, k in enumerate((k1, k2, k3), start=1):
                if f"g{idx}" in label:
                    acc = acc + k
            return acc

        gS = _grade_S(S, G, [word_degree(lab) for lab in S.labels])
    elif p.rank in (2, 4):
        S = mod["para_zorn"]
        V = mod["V_zorn"]
        if p.rank == 2:
            g1, g2 = p.gamma[0], p.gamma[1]
        else:
            g1, g2 = e, p.gamma[0]
        g3 = -(g1 + g2)
        degs = [e, e, g1, g2, g3, -g1, -g2, -g3]
        gS = _grade_S(S, G, degs)
    else:
        S = mod["para_zorn"] if p.t == "p" else mod["okubo"]
        V = mod["V_zorn"] if p.t == "p" else mod["V_okubo"]
        gS = _grade_S(S, G, [e] * S.dim)
    grading = tensor_grading(gS, p.h, V)
    r = len(grading.identity_component("V"))
    if r != p.rank:
        raise ParamError(f"built grading has rank {r}, expected {p.rank}")
    return BuiltGrading(p, V, grading)


def rank(built: BuiltGrading) -> int:
    r = len(built.grading.identity_component("V"))
    if r not in (0, 1, 2, 4, 8):
        raise ParamError(f"rank {r} outside the composition dimensions")
    return r


# ------------------------------------------------------------- similarity


@dataclass
class SimilarityVerdict:
    similar: bool
    trace: dict

    def __bool__(self):
        return self.similar


@lru_cache(maxsize=65536)
def _subgroup_key(G: AbGroup, coords: tuple) -> frozenset:
    return subgroup_elements([G.element(c) for c in coords])


def _gen_key(gens) -> tuple:
    return tuple(sorted(g.canonical() for g in gens))


def _same_subgroup(G, gens_a, gens_b) -> bool:
    return _subgroup_key(G, _gen_key(gens_a)) == _subgroup_key(G, _gen_key(gens_b))


def _h_span(p: TypeIIIParams) -> frozenset:
    # h has order 3 for every valid parameter tuple
    G = p.group
    return frozenset({G.identity().canonical(), p.h.canonical(), (2 * p.h).canonical()})


def _orientation_in_frame(p: TypeIIIParams, frame) -> str:
    """The sign of the grading of p read against the ordered generator
    frame (k1, k2), working modulo H = <h>: the chart of p maps its own
    generators to (1,0), (0,1) (swapped for '-'), and the orientation
    against the frame flips with the determinant of the change of basis."""
    k1p, k2p = p.K
    hspan = _h_span(p)
    coords = []
    for k in frame:
        # solve k = a k1p + b k2p modulo <h>
        hit = None
        for a in range(3):
            for b in range(3):
                cand = a * k1p + b * k2p
                if (k - cand).canonical() in hspan:
                    hit = (a, b)
                    break
            if hit:
                break
        if hit is None:
            raise ParamError("frame does not lie in K<h>")
        coords.append(hit)
    det = (coords[0][0] * coords[1][1] - coords[0][1] * coords[1][0]) % 3
    if det == 0:
        raise ParamError("frame is degenerate modulo <h>")
    base = 1 if p.delta == "+" else -1
    sign = base * (1 if det == 1 else -1)
    return "+" if sign == 1 else "-"


def similar_params(p: TypeIIIParams, q: TypeIIIParams) -> SimilarityVerdict:
    """The similarity decision procedure: implements the classification
    conditions bullet by bullet, with a replayable trace naming the
    witnessing data."""
    if p.group != q.group:
        raise ParamError("parameters live over different groups")
    G = p.group
    if p.rank != q.rank:
        return SimilarityVerdict(False, {"bullet": "rank", "ranks": (p.rank, q.rank)})
    # <h'> = <h> for order-3 elements means h' = h or h' = h^2
    same_h_span = q.h == p.h or q.h == 2 * p.h
    if p.rank == 8:
        ok = same_h_span and p.t == q.t
        return SimilarityVerdict(ok, {"bullet": "r8", "same_h_span": same_h_span, "t": (p.t, q.t)})
    if p.rank == 4:
        ok = same_h_span and (q.gamma[0] == p.gamma[0] or q.gamma[0] == -p.gamma[0])
        return SimilarityVerdict(
            ok,
            {"bullet": "r4", "same_h_span": same_h_span, "inverted": bool(q.gamma[0] == -p.gamma[0])},
        )
    if p.rank == 2:
        if not same_h_span:
            return SimilarityVerdict(False, {"bullet": "r2", "same_h_span": False})
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
                        return SimilarityVerdict(
                            True,
                            {"bullet": "r2", "pi": pi, "j": j, "inverted": inverted},
                        )
        return SimilarityVerdict(False, {"bullet": "r2", "same_h_span": True, "match": None})
    if p.rank == 1:
        ok = same_h_span and _same_subgroup(G, list(p.K), list(q.K))
        return SimilarityVerdict(ok, {"bullet": "r1", "same_h_span": same_h_span})
    # rank 0
    kh_p = _subgroup_key(G, _gen_key(list(p.K) + [p.h]))
    kh_q = _subgroup_key(G, _gen_key(list(q.K) + [q.h]))
    if kh_p != kh_q or not same_h_span:
        return SimilarityVerdict(False, {"bullet": "r0", "same_KH": kh_p == kh_q, "same_h_span": same_h_span})
    delta_q_in_p_frame = _orientation_in_frame(q, p.K)
    if q.h == p.h and delta_q_in_p_frame == p.delta:
        return SimilarityVerdict(True, {"bullet": "r0", "case": "same h, same sign", "frame_sign": delta_q_in_p_frame})
    if q.h == -p.h and delta_q_in_p_frame != p.delta:
        return SimilarityVerdict(True, {"bullet": "r0", "case": "inverse h, flipped sign", "frame_sign": delta_q_in_p_frame})
    return SimilarityVerdict(False, {"bullet": "r0", "frame_sign": delta_q_in_p_frame, "h_flipped": bool(q.h == -p.h)})


def canonical_key(p: TypeIIIParams):
    """A canonical similarity-class key, computed independently of
    similar_params: two valid parameter tuples are similar iff their keys
    coincide.  Used as the oracle in the equivalence-relation sweeps."""
    G = p.group
    h_span = _subgroup_key(G, _gen_key([p.h]))
    if p.rank == 8:
        return (8, h_span, p.t)
    if p.rank == 4:
        g = p.gamma[0]
        return (4, h_span, frozenset((g.canonical(), (-g).canonical())))
    if p.rank == 2:
        best = None
        for pi in itertools.permutations(range(3)):
            for j in range(3):
                for inverted in (False, True):
                    cand = []
                    for i in range(3):
                        base = p.gamma[pi[i]]
                        if inverted:
                            base = -base
                        cand.append((base + j * p.h).canonical())
                    cand = tuple(cand)
                    if best is None or cand < best:
                        best = cand
        return (2, h_span, best)
    if p.rank == 1:
        return (1, h_span, _subgroup_key(G, _gen_key(p.K)))
    kh = _subgroup_key(G, _gen_key(list(p.K) + [p.h]))
    # canonical frame: the two lexicographically smallest elements of
    # KH \ H that are independent modulo H
    candidates = sorted(kh - h_span)
    f1 = G.element(candidates[0])
    f2 = None
    for c in candidates[1:]:
        cand = G.element(c)
        if all((cand - a * f1).canonical() not in h_span for a in range(3)):
            f2 = cand
            break
    if f2 is None:
        raise ParamError("could not pick a canonical frame")
    sign = _orientation_in_frame(p, (f1, f2))
    inv = frozenset(
        {(sign, p.h.canonical()), ("-" if sign == "+" else "+", (-p.h).canonical())}
    )
    return (0, kh, h_span, inv)


# --------------------------------------------------------- orientation


def okubo_orientation(built: BuiltGrading, frame=None) -> str:
    """The orientation of a rank-0 grading: for normalized homogeneous
    generators x in V_{k1} and y in V_{k2} (n(x, x*x) = 1 = n(y, y*y)),
    return '+' if x*y = 0 and '-' if y*x = 0.  Exactly one of the two
    products vanishes; anything else is an error."""
    if rank(built) != 0:
        raise ParamError("orientation is defined for rank-0 gradings")
    V = built.grading.structure
    L = V.L
    F = V.field
    k1, k2 = frame if frame is not None else built.params.K
    comps = built.grading.components("V")

    def normalized_generator(k):
        idxs = comps.get(k.canonical())
        if not idxs or len(idxs) != 1:
            raise ParamError(f"component at {k} is not a line")
        x = V.basis_vec(idxs[0])
        c = L.scalar_part(V.bform(x, V.product(x, x)))
        lam = _cube_root_scalar(F, c.inverse())
        return V.scale(lam, x)

    x = normalized_generator(k1)
    y = normalized_generator(k2)
    for v in (x, y):
        if L.scalar_part(V.bform(v, V.product(v, v))) != F.one:
            raise ParamError("normalization n(x, x*x) = 1 failed")
    xy = V.product(x, y)
    yx = V.product(y, x)
    if bool(xy) == bool(yx):
        raise ParamError("orientation dichotomy violated")
    return "+" if not xy else "-"


def orientation_invariant(built: BuiltGrading) -> frozenset:
    """The unordered pair {(delta, h), (-delta, h^-1)} that separates the
    two rank-0 similarity classes."""
    sign = okubo_orientation(built)
    h = built.params.h
    flip = "-" if sign == "+" else "+"
    return frozenset({(sign, h.canonical()), (flip, (-h).canonical())})


def _cube_root_scalar(F, c):
    from .composition import _cube_roots

    roots = _cube_roots(F, c)
    if not roots:
        raise ParamError("normalization unachievable: no cube root in the field")
    return roots[0]


# ------------------------------------------------------- graded witnesses


def verify_graded_iso(phi_cols, phi0, gr_A: Grading, gr_B: Grading, opposite: bool) -> Report:
    """Exact check that (phi1, phi0) is a degree-preserving isomorphism of
    graded cyclic composition algebras from V_A (or its opposite, when the
    flag is set) onto V_B.

    phi_cols: {basis index of V_A: image vector in V_B};
    phi0: a map on xi-coordinate triples of L.

    The count covers 2 n^2 + 2 n + 2 identities, n = dim V_A: product and
    b_Q on basis pairs, semilinearity and degree on basis vectors, phi0
    against the twists (one identity on three probes) and bijectivity.
    """
    VA = gr_A.structure
    VB = gr_B.structure
    LA, LB = VA.L, VB.L
    F = VA.field
    viol = []

    t_src = VA.twist if not opposite else 3 - VA.twist
    for probe in (LA.xi, LA.xi2, LA.elt(F.one, F.scalar(2), F.scalar(-5))):
        if phi0(LA.rho(probe, t_src)) != LB.rho(phi0(probe), VB.twist):
            viol.append(("phi0_rho", None))
            break
    ech = Echelon(F, VB.dim)
    for i in range(VA.dim):
        ech.insert(dict(phi_cols[i]))
    if ech.rank != VA.dim:
        viol.append(("bijective", ech.rank))
    for i in range(VA.dim):
        x = VA.basis_vec(i)
        if mat_vec(phi_cols, VA.act(LA.xi, x)) != VB.act(phi0(LA.xi), mat_vec(phi_cols, x)):
            viol.append(("semilinear", i))
    for i in range(VA.dim):
        x = VA.basis_vec(i)
        px = mat_vec(phi_cols, x)
        for j in range(VA.dim):
            y = VA.basis_vec(j)
            py = mat_vec(phi_cols, y)
            src = VA.product(y, x) if opposite else VA.product(x, y)
            if mat_vec(phi_cols, src) != VB.product(px, py):
                viol.append(("product", (i, j)))
            if phi0(VA.bform(x, y)) != VB.bform(px, py):
                viol.append(("b_Q", (i, j)))
    # the components of V_B are coordinate subspaces: an image lies in
    # (V_B)_g when every index of its support has degree g
    degs_B = [d.canonical() for d in gr_B.degrees["V"]]
    for g, idxs in gr_A.components("V").items():
        if g not in degs_B:
            viol.append(("degree_support", g))
            continue
        for ii in idxs:
            if any(degs_B[k] != g for k in mat_vec(phi_cols, VA.basis_vec(ii))):
                viol.append(("degree", (g, ii)))
    n = VA.dim
    return Report(viol, 2 * n * n + 2 * n + 2)


def _conj_tensor_tau_cols(built: BuiltGrading):
    """phi1 = (standard involution of S) (x) tau on the tensor basis."""
    V = built.grading.structure
    S = V.S
    F = V.field
    # conjugation on a para-Hurwitz algebra: x~ = n(x, pu) pu - x
    pu = S.para_unit
    cols = {}
    for p in range(S.dim):
        x = S.basis_vec(p)
        conj = axpy(S.scale(S.polar(x, pu), pu), F.scalar(-1), x)
        for j in range(3):
            i = V.idx(p, j)
            cols[i] = {V.idx(r, (2 * j) % 3): c for r, c in conj.items()}
    return cols


def _tau(L):
    return lambda l: L.tau(l)


def witness_map(case: str, G: AbGroup, conductor: int = 12, **kw) -> dict:
    """Construct and verify the explicit witness behind a similarity
    bullet.  Returns a dict with the built gradings, the map, and the
    passing Report.

    Cases: 'rank1_h_flip', 'rank2_h_flip', 'rank4_h_flip', 'rank2_shift',
    'rank0_flip'.
    """
    mod = models(conductor)
    L = mod["L"]
    h_flips = {
        "rank1_h_flip": lambda h: params_r1(G, kw["K"], h),
        "rank2_h_flip": lambda h: params_r2(G, kw["gamma"], h),
        "rank4_h_flip": lambda h: params_r4(G, kw["g"], h),
    }
    if case in h_flips:
        A = build(h_flips[case](kw["h"]), conductor)
        B = build(h_flips[case](2 * kw["h"]), conductor)
        cols = _conj_tensor_tau_cols(A)
        rep = verify_graded_iso(cols, _tau(L), A.grading, B.grading, opposite=True)
        return {"A": A, "B": B, "cols": cols, "report": rep, "opposite": True}
    if case == "rank2_shift":
        return _witness_rank2_shift(G, kw["gamma"], kw["h"], conductor)
    if case == "rank0_flip":
        return _witness_rank0_flip(G, kw["K"], kw["h"], conductor)
    raise ParamError(f"unknown witness case {case!r}")


def _witness_rank2_shift(G, gamma, h, conductor):
    """Gamma_2(G, gamma, h) is isomorphic to Gamma_2(G, h gamma, h): re-cut
    the para-Cayley subalgebra at the second para-unit of C_e and identify
    V with C' (x) L.  With our xi-conventions the para-unit
    omega^2 e1 + omega e2 cuts C' = (C_e (x) 1) + (U (x) xi) + (V (x) xi^2),
    whose induced Cartan parameters are h gamma; the other para-unit gives
    the h^2 shift."""
    mod = models(conductor)
    F = mod["field"]
    L = mod["L"]
    pA = params_r2(G, gamma, h)
    B_target = build(pA, conductor)
    V = B_target.grading.structure
    w = F.omega
    eps = {V.idx(0, 0): w * w, V.idx(1, 0): w}
    _, basis = para_subalgebra_from_idempotent(V, eps)
    # homogeneous adapted basis of the cut, with its degrees: the pieces of
    # the cut basis vectors on one component of V span the cut's component
    per_degree = {}
    for vec in basis:
        pieces = {}
        for i, c in vec.items():
            pieces.setdefault(B_target.grading.degrees["V"][i].canonical(), {})[i] = c
        for g, piece in pieces.items():
            per_degree.setdefault(g, Echelon(F, V.dim)).insert(piece)
    hom_basis = []
    hom_degs = []
    for g in sorted(per_degree):
        for row in per_degree[g].basis():
            hom_basis.append(row)
            hom_degs.append(G.element(g))
    if len(hom_basis) != 8:
        raise ParamError(f"homogeneous cut basis has {len(hom_basis)} elements")
    # rebuild the cut algebra on the homogeneous basis
    S_cut = cut_on_basis(V, hom_basis, eps)
    gS = Grading(S_cut, G, {"A": hom_degs})
    verify_grading(gS).require(ParamError, "cut grading")
    # the cut must be Cartan-shaped with parameters h * gamma
    shifted = sorted(((h + g).canonical() for g in gamma))
    supp = gS.components()
    ident_dim = len(gS.identity_component())
    ok_pattern = ident_dim == 2 and sorted(
        x for x, idxs in supp.items() for _ in idxs if not G.element(x).is_identity()
    ) == sorted(
        list(shifted) + [(-(h + g)).canonical() for g in gamma]
    )
    VA = cyclic_from_symmetric(S_cut, L)
    gr_A = tensor_grading(gS, h, VA)
    cols = {}
    for m in range(8):
        for j in range(3):
            img = V.act((L.one, L.xi, L.xi2)[j], hom_basis[m])
            cols[VA.idx(m, j)] = img
    rep = verify_graded_iso(cols, lambda l: l, gr_A, B_target.grading, opposite=False)
    rep.checked += 1
    if not ok_pattern:
        rep.violations.append(("cartan_pattern", None))
    return {
        "A": (gr_A, S_cut),
        "B": B_target,
        "cols": cols,
        "report": rep,
        "opposite": False,
        "shifted_gamma": shifted,
    }


def okubo_involution(conductor: int = 12):
    """The unique involution of the Okubo algebra with sigma(X) = Y (and
    sigma(Y) = X), found by propagating the anti-automorphism condition
    through the monomial basis and certified on all pairs.

    sigma maps the monomial of degree (a, b) to a scalar multiple of the
    monomial of degree (b, a)."""
    mod = models(conductor)
    S = mod["okubo"]
    F = S.field
    keys = S.monomial_keys
    kidx = {k: i for i, k in enumerate(keys)}

    def swap(k):
        return (k[1], k[0])

    c = {(1, 0): F.one, (0, 1): F.one}
    # propagate coefficients through nonzero single-term products
    changed = True
    while changed and len(c) < 8:
        changed = False
        for ka in keys:
            for kb in keys:
                if ka not in c or kb not in c:
                    continue
                row = S.mul.get((kidx[ka], kidx[kb]))
                if not row:
                    continue
                (ridx, coef), = row.items()
                kr = keys[ridx]
                if kr in c:
                    continue
                # sigma(a * b) = sigma(b) * sigma(a)
                row2 = S.mul.get((kidx[swap(kb)], kidx[swap(ka)]))
                if not row2:
                    raise ParamError("involution propagation hit a zero product")
                (r2idx, coef2), = row2.items()
                if keys[r2idx] != swap(kr):
                    raise ParamError("involution propagation is inconsistent")
                c[kr] = c[kb] * c[ka] * coef2 / coef
                changed = True
    if len(c) != 8:
        raise ParamError("involution propagation did not reach every monomial")
    cols = {kidx[k]: {kidx[swap(k)]: c[k]} for k in keys}
    # certify: involution, anti-automorphism, isometry
    for i in range(8):
        x = S.basis_vec(i)
        sx = mat_vec(cols, x)
        if mat_vec(cols, sx) != x:
            raise ParamError("sigma^2 != id")
        for j in range(8):
            y = S.basis_vec(j)
            sy = mat_vec(cols, y)
            if mat_vec(cols, S.product(x, y)) != S.product(sy, sx):
                raise ParamError("sigma is not an anti-automorphism")
            if S.polar(sx, sy) != S.polar(x, y):
                raise ParamError("sigma is not an isometry")
    return cols


def _witness_rank0_flip(G, K, h, conductor):
    """sigma (x) tau is a graded isomorphism from the opposite of
    Gamma_0(G, K, h, +) onto Gamma_0(G, K, h^-1, -)."""
    mod = models(conductor)
    L = mod["L"]
    pA = params_r0(G, K[0], K[1], h, "+")
    pB = params_r0(G, K[0], K[1], 2 * h, "-")
    A = build(pA, conductor)
    B = build(pB, conductor)
    V = A.grading.structure
    sig = okubo_involution(conductor)
    cols = {}
    for p in range(8):
        for j in range(3):
            i = V.idx(p, j)
            cols[i] = {V.idx(r, (2 * j) % 3): c for r, c in sig[p].items()}
    rep = verify_graded_iso(cols, _tau(L), A.grading, B.grading, opposite=True)
    return {"A": A, "B": B, "cols": cols, "report": rep, "opposite": True}


# --------------------------------------------------------- fine gradings


def fine_typeIII(kind: str, conductor: int = 12):
    """The three fine Type III gradings with their universal groups:
    cartan -> Z^2 x Z3, z2cubed -> Z2^3 x Z3, okubo -> Z3^3."""
    if kind == "cartan":
        G = make_group(2, [3])
        p = params_r2(G, (G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((-1, -1, 0))), G.element((0, 0, 1)))
        expected = make_group(2, [3])
    elif kind == "z2cubed":
        G = make_group(0, [2, 2, 2, 3])
        gens = [G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 3))]
        p = params_r1(G, gens, G.element((0, 0, 2)))
        expected = make_group(0, [2, 2, 2, 3])
    elif kind == "okubo":
        G = make_group(0, [3, 3, 3])
        p = params_r0(G, G.element((1, 0, 0)), G.element((0, 1, 0)), G.element((0, 0, 1)), "+")
        expected = make_group(0, [3, 3, 3])
    else:
        raise ParamError("kind must be cartan, z2cubed or okubo")
    built = build(p, conductor)
    uni = universal_group(built.grading)
    return {"built": built, "universal": uni, "expected": expected, "matches": uni.group == expected}


def refinement_impossible(fine_a: dict, fine_b: dict):
    """Necessary-condition refutation that the grading of fine_b could be a
    proper refinement of the grading of fine_a (equivalently, a-grading a
    coarsening of b's): a coarsening can only lower the universal group
    (quotient) and can only grow component dimensions.  Returns a reason
    string when refuted, None when not refuted."""
    Ua = fine_a["universal"].group
    Ub = fine_b["universal"].group
    ra = len(fine_a["built"].grading.identity_component("V"))
    rb = len(fine_b["built"].grading.identity_component("V"))
    if ra < rb:
        return f"identity component would shrink ({ra} < {rb})"
    if Ua.free_rank > Ub.free_rank:
        return f"universal group {Ua} has larger free rank than {Ub}"
    if Ub.is_finite():
        if not Ua.is_finite():
            return f"{Ua} is infinite, {Ub} is finite"
        if Ub.order() % Ua.order():
            return f"|{Ua}| does not divide |{Ub}|"
    return None
