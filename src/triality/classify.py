"""The Type III gradings on the rank-8 cyclic composition algebra: the
three fine gradings with their universal groups, the five families, the
similarity decision procedure and the witness (anti-)isomorphisms behind it.

A Type III grading is one datum (kind, alpha): the fine grading of the kind
over its universal group U pushed forward along alpha: U -> G, which sends
h_U = deg xi to h of order 3.  `coarsening` builds every record; G and h
are read off its grading.  A grading composed with a homomorphism is again
a grading, so only the three fine gradings are verified.  A family tuple
(G a f.g. abelian group, H = <h>) names alpha by the images of e1, e2, e3:
`build` validates it and keeps it on the record.

  r=0  (K via an ordered generator pair (k1, k2) with K iso Z3^2, h not in
       K, sign delta): okubo, U = Z3^3, alpha = (k1, k2, h), or (k2, k1, h)
       when delta = '-'.  The Okubo algebra has support K \\ {e}; delta =
       '+' puts the degree-k1 generator x and the degree-k2 generator y in
       the orientation x*y = 0.
  r=1  (K via generators k1, k2, k3 of a Z2^3, h not in K): z2cubed,
       U = Z2^2 x Z6, alpha = (k1, k2, k3 - h), the Z2^3-graded Cayley algebra.
  r=2  (gamma = (g1, g2, g3) with g_i not in H and g1 g2 g3 = e, h): cartan,
       U = Z^2 x Z3, alpha = (g1, g2, h), the Cartan grading deg u_i = g_i.
  r=4  (g not in H, h): the r=2 family with gamma = (e, g, g^-1).
  r=8  (h, t in {'p', 'o'}): cartan (t='p') or okubo (t='o') at alpha =
       (e, e, h), the trivially graded para-Cayley or Okubo algebra.

Similarity.  Tuples p, q over one G are similar exactly when they have one
rank and kind and alpha_q = alpha_p o w for some w in a finite group W_kind
of automorphisms of U, generated by one automorphism per rule of the
classification (its columns w(e1), w(e2), w(e3) are in _FINE_KINDS):

  cartan, |W| = 72: cycle e1 -> e2 -> -e1-e2 and swap e1 <-> e2 permute
    gamma; negate e1, e2 -> -e1, -e2 inverts it (g -> g^-1 at r=4); shift
    e1, e2 -> e1+e3, e2+e3 takes gamma to h gamma; h_flip e3 -> -e3 takes
    h to h^-1.
  okubo, |W| = 432: the transvections e1 -> e1+e2 and e2 -> e2+e1 generate
    SL2(F3), the frames (k1, k2) of K of one orientation; shift e1 -> e1+e3
    reads the frame modulo H; flip e1 <-> e2, e3 -> -e3 is the rule
    (K, h, delta) ~ (K, h^-1, -delta).
  z2cubed, |W| = 336: cycle (e1, e2, e3) -> (e2, 3e3, e1+4e3) and
    transvection e1 -> e1+e2 act on the 2-torsion <e1, e2, 3e3> = Z2^3 as
    GL3(F2), the ordered generating triples of one K, and fix 2e3, which
    alpha sends to h; h_flip e3 -> 5e3 takes h to h^-1.

canonical_key(p) is (rank, kind, least (alpha(w e1), alpha(w e2),
alpha(w e3)) over W), alpha = alpha_p.  That triple determines alpha o w,
so the triples over W are the orbit of alpha_p; orbits are equal or
disjoint and each holds its least point, so equal keys mean one orbit, that
is similar tuples (ranks 2, 4 and 8 share the kind cartan, hence the rank).
W is closed once (_weyl), as a permutation group on its 20, 26 or 21
distinct columns w(e_i): the columns are found by arithmetic in U, each
generator becomes a tuple of column indices, and each product in W is a
tuple lookup.  alpha_p is evaluated on the columns once per tuple, in one
`AbGroup.images` pass, as coarsenings and their universal groups are.
witness_map realises h_flip, the rank-2 shift and the rank-0 flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .scalars import make_field
from .fgab import AbGroup, GroupElem, GroupHom, make_group, quotient, in_subgroup, subgroup_generated
from .grading import Grading, Report, coarsen, coarsened_universal, verify_grading, universal_group
from .linalg import Echelon, axpy, mat_vec
from .composition import doubled_cayley, okubo_sl3, para, zorn_cayley
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

    @cached_property
    def key(self) -> tuple:
        """canonical_key(self), kept in the instance __dict__."""
        kind, images = _fine_kind_and_alpha(self)
        values = _alpha_on_columns(kind, images)
        return (self.rank, kind, min((values[a], values[b], values[c]) for a, b, c in _weyl(kind)[1]))


def validate(p: TypeIIIParams):
    G = p.group
    if p.h.group != G:
        raise ParamError("h does not lie in the parameter group")
    if p.h.order() != 3:
        raise ParamError(f"h must have order 3, got {p.h.order()}")
    if any(g.group != G for g in (*p.K, *p.gamma)):
        raise ParamError("K and gamma must lie in the parameter group")
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
        if len(p.K) != 3:
            raise ParamError("r=1 needs an ordered triple of generators for K")
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
    elif p.rank == 4:
        if len(p.gamma) != 1:
            raise ParamError("r=4 needs a single element g")
    elif p.rank == 8:
        if p.t not in ("p", "o"):
            raise ParamError("t must be 'p' or 'o'")
    else:
        raise ParamError(f"rank must be one of 0, 1, 2, 4, 8, got {p.rank}")
    if p.rank in (2, 4):  # one quotient G/<h> decides every g_i
        _Q, pr = quotient(G, [p.h])
        if any(pr(g).is_identity() for g in p.gamma):
            raise ParamError("every g_i must lie outside <h>" if p.rank == 2 else "g must lie outside <h>")
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
    """The Type III grading (kind, alpha): the fine grading of `kind` pushed
    forward along `alpha`: U -> G, with G = `grading.group`.  `params` is
    the tuple it was built from, if any, for `describe` and the rank-0
    frame.  The derived members (V's components, the universal group, the
    Brauer quotient, the related triple) are computed on first use and kept
    on the record; `dataclasses.replace(record, grading=...)` starts a
    record with none of them, and its `universal` raises unless the new
    grading is still the pushforward along `alpha`."""

    V: CyclicAlgebra
    grading: Grading
    kind: str
    alpha: GroupHom
    params: TypeIIIParams | None = None

    @cached_property
    def components(self) -> dict:
        """{canonical degree: sorted basis indices} of V, grouped once for
        `rank`, the invariants and the orientation."""
        return self.grading.components("V")

    @property
    def rank(self) -> int:
        """The dimension of the identity component of V."""
        return len(self.components.get(self.grading.group.identity().canonical(), ()))

    @property
    def h(self) -> GroupElem:
        """The degree of xi, alpha(h_U)."""
        return self.grading.degrees["L"][1]

    @cached_property
    def universal(self):
        """The universal group of the grading, the fine grading's modulo the
        differences of its support elements that alpha identifies
        (`grading.coarsened_universal`); no structure map is read again."""
        return coarsened_universal(_fine_universal(self.kind, self.V.field.conductor), self.alpha, self.grading)

    @cached_property
    def brauer_quotient(self):
        """(Q, pr) with Q = G/<h>, the free generators of G quotiented away
        as well when G has free rank: the Brauer relations take the
        characters of a finite group."""
        G = self.grading.group
        return quotient(G, [self.h] + [G.generator(i) for i in range(G.free_rank)])

    @cached_property
    def related(self):
        """The related triple of the grading over the Brauer quotient."""
        from .brauer import related_triple
        from .trilie import induce_tri_grading, tri_basis

        _gt, adapted = induce_tri_grading(self.grading, tri_basis(self.V.S))
        _Q, pr = self.brauer_quotient
        return related_triple([(pr(g), trip) for g, trip in adapted], self.V.S)


def coarsening(kind: str, images, conductor: int = 12) -> BuiltGrading:
    """The record of the fine grading of the kind pushed forward along the
    alpha: U -> G with alpha(e_i) = images[i], which GroupHom checks is well
    defined; it is of Type III when alpha(h_U) has order 3."""
    fine = _fine_grading(kind, conductor)
    alpha = GroupHom(fine.group, images[0].group, list(zip(*(g.coords for g in images))))
    built = BuiltGrading(fine.structure, coarsen(fine, alpha), kind, alpha)
    if built.h.order() != 3:
        raise ParamError(f"alpha sends h_U to an element of order {built.h.order()}, not 3")
    return built


def _fine_kind_and_alpha(p: TypeIIIParams):
    """The kind of p's family and alpha_p on the generators of U."""
    e = p.group.identity()
    if p.rank == 0:
        k1, k2 = p.K if p.delta == "+" else p.K[::-1]
        return "okubo", (k1, k2, p.h)
    if p.rank == 1:
        k1, k2, k3 = p.K
        return "z2cubed", (k1, k2, k3 - p.h)
    if p.rank in (2, 4):
        g1, g2 = p.gamma[:2] if p.rank == 2 else (e, p.gamma[0])
        return "cartan", (g1, g2, p.h)
    return ("cartan" if p.t == "p" else "okubo"), (e, e, p.h)


def build(p: TypeIIIParams, conductor: int = 12) -> BuiltGrading:
    """The coarsening of p's kind along alpha_p, kept with p; its identity
    component must have dimension p.rank."""
    validate(p)
    built = coarsening(*_fine_kind_and_alpha(p), conductor)
    built.params = p
    if built.rank != p.rank:
        raise ParamError(f"built grading has rank {built.rank}, expected {p.rank}")
    return built


# ------------------------------------------------------------- similarity


@dataclass
class SimilarityVerdict:
    first: TypeIIIParams
    second: TypeIIIParams
    similar: bool

    @cached_property
    def trace(self) -> dict:
        """{"kinds": [kind of p, kind of q], "word": the word of the first w
        in W (breadth-first) with alpha_q = alpha_p o w, or None}."""
        kind, images = _fine_kind_and_alpha(self.first)
        kind_q, images_q = _fine_kind_and_alpha(self.second)
        word = None
        if self.similar:
            values = _alpha_on_columns(kind, images)
            _columns, triples, words = _weyl(kind)
            target = tuple(g.canonical() for g in images_q)
            word = next(words[n] for n, (a, b, c) in enumerate(triples) if (values[a], values[b], values[c]) == target)
        return {"kinds": [kind, kind_q], "word": word}


@lru_cache(maxsize=None)
def _weyl(kind: str):
    """W_kind closed breadth-first from the identity: (columns, triples,
    words), columns the distinct w(e_i) over U, each w the triple of the
    indices of w(e1), w(e2), w(e3), with a shortest word [g1, ..., gn] of
    generator names composing to w = g1 o ... o gn.

    W is closed as a permutation group on the columns C, the orbit of e1,
    e2, e3 under the generators, which is the only arithmetic in U.  A
    generator g is the tuple sigma_g of the indices of g(C[i]) in C, and an
    element w the tuple of the indices of w(C[i]), so w o g is
    (w[j] for j in sigma_g).  Each w is linear, hence fixed by its triple,
    and W maps C to itself, so w is also fixed by its permutation of C:
    closing on permutations or on triples visits the same elements in the
    same order, with the same words."""
    group_args, _model, generators = _FINE_KINDS[kind]
    U = make_group(*group_args)
    units = [U.generator(i).canonical() for i in range(3)]
    matrices = {name: list(zip(*g)) for name, g in generators.items()}  # g(c) = c1 g(e1) + c2 g(e2) + c3 g(e3)
    orbit, new = set(units), units
    while new:  # the images of the columns found last, until none is new
        new = {c for m in matrices.values() for c in U.images(m, new, 3)} - orbit
        orbit |= new
    columns = sorted(orbit)
    index = {c: i for i, c in enumerate(columns)}
    sigmas = {name: tuple(map(index.__getitem__, U.images(m, columns, 3))) for name, m in matrices.items()}
    queue = [tuple(range(len(columns)))]
    words = {queue[0]: []}
    for w in queue:  # grows while it is read: breadth-first
        for name, sigma in sigmas.items():
            wg = tuple(map(w.__getitem__, sigma))
            if wg not in words:
                words[wg] = words[w] + [name]
                queue.append(wg)
    e1, e2, e3 = (index[u] for u in units)
    return columns, [(w[e1], w[e2], w[e3]) for w in words], list(words.values())


def _alpha_on_columns(kind: str, images) -> list:
    """The alpha: U_kind -> G with alpha(e_i) = images[i] on the columns of
    W_kind, canonical, in one `AbGroup.images` pass."""
    return images[0].group.images(list(zip(*(g.coords for g in images))), _weyl(kind)[0], 3)


def similar_params(p: TypeIIIParams, q: TypeIIIParams) -> SimilarityVerdict:
    """p and q are similar exactly when their keys coincide (see the module
    docstring); the verdict's trace searches a witnessing word when read."""
    if p.group != q.group:
        raise ParamError("parameters live over different groups")
    return SimilarityVerdict(p, q, p.key == q.key)


def canonical_key(p: TypeIIIParams) -> tuple:
    """(rank, kind, the least point of the orbit of alpha_p under W_kind):
    two valid tuples over one group are similar iff their keys coincide."""
    return p.key


# --------------------------------------------------------- orientation


def okubo_orientation(built: BuiltGrading) -> str:
    """The orientation of a rank-0 grading: for homogeneous generators x
    of the line V_{k1} and y of the line V_{k2}, return '+' if x*y = 0 and
    '-' if y*x = 0.  Scaling x by a != 0 and y by b != 0 scales both
    products by ab, so the same product vanishes for every choice of
    generators, and the basis vector spanning each line serves.  Exactly
    one of the two products vanishes; anything else is an error."""
    if built.rank != 0:
        raise ParamError("orientation is defined for rank-0 gradings")
    if built.params is None:
        raise ParamError("orientation is read in the frame (k1, k2) of a tuple, and the record has none")
    V = built.grading.structure
    comps = built.components

    def generator(k):
        idxs = comps.get(k.canonical())
        if not idxs or len(idxs) != 1:
            raise ParamError(f"component at {k} is not a line")
        return V.basis_vec(idxs[0])

    x, y = (generator(k) for k in built.params.K)
    xy = V.product(x, y)
    yx = V.product(y, x)
    if bool(xy) == bool(yx):
        raise ParamError("orientation dichotomy violated")
    return "+" if not xy else "-"


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
    ech = Echelon(F)
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
        rep = verify_graded_iso(cols, L.tau, A.grading, B.grading, opposite=True)
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
    # the pieces of the cut basis vectors on one component of V span the
    # cut's component; V's grading is basis-aligned, so the reduced rows of
    # all pieces are the per-degree reduced rows: a homogeneous basis
    degrees_V = B_target.grading.degrees["V"]
    hom_cut = Echelon(F)
    for vec in para_subalgebra_from_idempotent(V, eps).basis():
        pieces = {}
        for i, c in vec.items():
            pieces.setdefault(degrees_V[i].canonical(), {})[i] = c
        for piece in pieces.values():
            hom_cut.insert(piece)
    if hom_cut.rank != 8:
        raise ParamError(f"homogeneous cut basis has {hom_cut.rank} elements")
    hom_basis = hom_cut.basis()
    hom_degs = [degrees_V[min(row)] for row in hom_basis]
    S_cut = cut_on_basis(V, hom_cut, eps)
    gS = Grading(S_cut, G, {"A": hom_degs})
    verify_grading(gS).require(ParamError, "cut grading")
    # the cut must be Cartan-shaped with parameters h * gamma
    shifted = sorted(((h + g).canonical() for g in gamma))
    off_identity = [x for x, idxs in gS.components().items() for _ in idxs if not G.element(x).is_identity()]
    expected = shifted + [(-(h + g)).canonical() for g in gamma]
    ok_pattern = len(gS.identity_component()) == 2 and sorted(off_identity) == sorted(expected)
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
                row2 = S.mul.get((kidx[kb[::-1]], kidx[ka[::-1]]))
                if not row2:
                    raise ParamError("involution propagation hit a zero product")
                (r2idx, coef2), = row2.items()
                if keys[r2idx] != kr[::-1]:
                    raise ParamError("involution propagation is inconsistent")
                c[kr] = c[kb] * c[ka] * coef2 / coef
                changed = True
    if len(c) != 8:
        raise ParamError("involution propagation did not reach every monomial")
    cols = {kidx[k]: {kidx[k[::-1]]: c[k]} for k in keys}
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
    rep = verify_graded_iso(cols, L.tau, A.grading, B.grading, opposite=True)
    return {"A": A, "B": B, "cols": cols, "report": rep, "opposite": True}


# --------------------------------------------------------- fine gradings


# kind -> (U as make_group arguments; the V it grades; the generators of
# W_kind by name, as columns w(e1), w(e2), w(e3) over U: module docstring)
_FINE_KINDS = {
    "cartan": ((2, [3]), "V_zorn", {
        "cycle": ((0, 1, 0), (-1, -1, 0), (0, 0, 1)),
        "swap": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        "negate": ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
        "shift": ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
        "h_flip": ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
    }),
    "z2cubed": ((0, [2, 2, 2, 3]), "V_doubled", {
        "cycle": ((0, 1, 0), (0, 0, 3), (1, 0, 4)),
        "transvection": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        "h_flip": ((1, 0, 0), (0, 1, 0), (0, 0, 5)),
    }),
    "okubo": ((0, [3, 3, 3]), "V_okubo", {
        "transvection_12": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        "transvection_21": ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
        "shift": ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
        "flip": ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    }),
}


@lru_cache(maxsize=None)
def _fine_grading(kind: str, conductor: int) -> Grading:
    """The fine grading of the kind over U, built once per conductor: its
    degree rule on S, tensored with L at deg xi = h_U.  tensor_grading
    verifies it, and that covers S: the star products and b_Q values of the
    s (x) 1 are the products and norms of S."""
    if kind not in _FINE_KINDS:
        raise ParamError("kind must be cartan, z2cubed or okubo")
    U = make_group(*_FINE_KINDS[kind][0])
    V = models(conductor)[_FINE_KINDS[kind][1]]
    u1, u2, u3 = map(U.generator, range(3))
    if kind == "okubo":  # deg X^a Y^b = a e1 + b e2
        return tensor_grading(Grading(V.S, U, {"A": [a * u1 + b * u2 for a, b in V.S.monomial_keys]}), u3, V)
    if kind == "z2cubed":  # deg g1, g2, g3 = e1, e2, 3 e3, the 2-torsion of U
        K = (u1, u2, 3 * u3)
        degs = [sum((k for i, k in enumerate(K, start=1) if f"g{i}" in label), U.identity()) for label in V.S.labels]
        return tensor_grading(Grading(V.S, U, {"A": degs}), 2 * u3, V)
    e, g3 = U.identity(), -(u1 + u2)  # deg u_i = e1, e2, -e1-e2
    return tensor_grading(Grading(V.S, U, {"A": [e, e, u1, u2, g3, -u1, -u2, -g3]}), u3, V)


@lru_cache(maxsize=None)
def _fine_universal(kind: str, conductor: int):
    """universal_group of the fine grading of the kind, once per conductor:
    the one walk of its structure maps that every coarsening reads."""
    return universal_group(_fine_grading(kind, conductor))


def fine_typeIII(kind: str, conductor: int = 12) -> BuiltGrading:
    """The fine grading of the kind over its universal group U, as a new
    record: the coarsening along the identity of U."""
    U = _fine_grading(kind, conductor).group
    return coarsening(kind, [U.generator(i) for i in range(3)], conductor)


def refinement_impossible(fine_a: BuiltGrading, fine_b: BuiltGrading):
    """Necessary-condition refutation that the grading of fine_b could be a
    proper refinement of the grading of fine_a (equivalently, a-grading a
    coarsening of b's): a coarsening can only lower the universal group
    (quotient) and can only grow component dimensions.  Returns a reason
    string when refuted, None when not refuted."""
    Ua = fine_a.universal.group
    Ub = fine_b.universal.group
    ra, rb = fine_a.rank, fine_b.rank
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
