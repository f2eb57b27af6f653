"""The triality Lie algebra tri(S) of an 8-dimensional symmetric
composition algebra: triples (d1, d2, d3) of n-skew maps with
d1(x.y) = d2(x).y + x.d3(y), computed as the kernel of the defining linear
system over so(S,n)^3.  Includes the D4 root datum, derivation algebras of
the triple model, induced gradings on tri, and the center orbit of a
Type III grading.

An element of tri(S), like every element of End(S)^3 here, is one sparse
vector over the 3*n*n positions c*n*n + i*n + j: block c holds the flat
form {i*n + j: entry} of the c-th map (linalg.compose multiplies two
blocks).  A triple (d1, d2, d3) has its components as blocks; an L-linear
map d = sum_k delta_k (x) xi^k has its delta (xi-graded) coordinates
delta_k as blocks, and xi_transform converts between the two.  In delta
coordinates, position k*n*n + p*n + r is the elementary operator (p, r, k)
of E = End_L(V), which sends s_r (x) xi^c to s_p (x) xi^(c+k): an element
of E is such a vector (trialitarian.EndAlgebraE uses the same index),
apply_deltas applies it to V through the one table of that rule, and
operator_degrees lists the degree of each position under a grading of V.

Brackets are taken componentwise on triples only.  The basis
TriAlgebra.vectors is the reduced rows of tri(S) in triple coordinates, so
a vector of tri(S) is written over it by linalg.Echelon.coordinates, and
tri.lie expresses the brackets in coordinates over it.  An induced grading
is computed in those coordinates too: its components are spans over the 28
basis vectors, and the bracket of two adapted rows is written over the
reduced rows of its degree only (grading.AdaptedRows).  root_datum splits
tri(S) into eigenspaces the same way, each held as the reduced rows of its
span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .linalg import axpy, bilinear, compose, echelon_from, invert_dense, kernel, mat_vec, null_space, summed, to_flat
from .grading import AdaptedRows, Grading, Report, StructAlgebra, VerificationError, verify_grading


class TrialityError(VerificationError):
    pass


# ------------------------------------------------------- End(S)^3 vectors


def _blocks(vec, nn):
    """The three flat n x n blocks of a vector of End(S)^3."""
    out = ({}, {}, {})
    for idx, c in vec.items():
        k, rem = divmod(idx, nn)
        out[k][rem] = c
    return out


def xi_transform(F, vec, nn, to_deltas):
    """Change the coordinates of a vector of End(S)^3 from a triple
    (d1, d2, d3) to deltas, delta_k = 1/3 sum_c omega^(-ck) d_c (the
    discrete Fourier transform over the three components of L), or back,
    d_c = sum_k omega^(ck) delta_k."""
    w = F.omega
    wp = (F.one, w, w * w)
    if to_deltas:
        third = F.scalar(1, 3)
        fac = [[third * wp[(-j * i) % 3] for i in range(3)] for j in range(3)]
    else:
        fac = [[wp[(j * i) % 3] for i in range(3)] for j in range(3)]
    terms = {}
    for idx, c in vec.items():
        i, rem = divmod(idx, nn)
        for j in range(3):
            terms.setdefault(j * nn + rem, []).append((fac[j][i], c))
    return dict(sorted(summed(terms).items()))


def _bracket(F, xs, ys, n):
    """The componentwise commutator [x, y]_c = x_c y_c - y_c x_c of two
    vectors of End(S)^3 given by their blocks."""
    minus_one = F.scalar(-1)
    return {
        k * n * n + idx: c
        for k, (a, b) in enumerate(zip(xs, ys))
        if a and b
        for idx, c in axpy(compose(a, b, n), minus_one, compose(b, a, n)).items()
    }


@lru_cache(maxsize=None)
def _operator_table(V):
    """How each elementary operator acts on the tensor basis of V, as a
    bilinear table {(delta position, V index): {V index: 1}}: position
    k*n*n + p*n + r, the operator (p, r, k), sends s_r (x) xi^c to
    s_p (x) xi^(c+k).  Built once per V."""
    n, one = V.S.dim, V.field.one
    return {
        (k * n * n + p * n + r, V.idx(r, c)): {V.idx(p, c + k): one}
        for k in range(3)
        for p in range(n)
        for r in range(n)
        for c in range(3)
    }


def apply_deltas(V, x, vec):
    """The element x of End_L(V), in delta coordinates, applied to a sparse
    V-vector through the table of the elementary operators."""
    return bilinear(_operator_table(V), x, vec)


def operator_degrees(grading: Grading) -> list:
    """The degree deg_V(s_p) - deg_V(s_r) + k deg(xi) of each elementary
    operator (p, r, k) of End_L(V) under a grading of V, listed by delta
    position k*n*n + p*n + r."""
    V = grading.structure
    n = V.S.dim
    h = grading.degrees["L"][1]
    pdeg = [grading.degrees["V"][V.idx(p, 0)] for p in range(n)]
    return [pdeg[p] - pdeg[r] + k * h for k in range(3) for p in range(n) for r in range(n)]


# ------------------------------------------------------------------ so(S,n)


def so_blocks(S):
    """The n-skew maps G^-1 (E_pq - E_qp), p < q, where G is the Gram
    matrix of the polar form, put in each of the three blocks of End(S)^3:
    for dim S = 8, vector 28c + m is the m-th map in block c.  The first 28
    are so(S,n) as flat matrices."""
    F = S.field
    n = S.dim
    G = [[S.forms["n"].get((i, j), F.zero) for j in range(n)] for i in range(n)]
    Ginv = to_flat(invert_dense(F, G))
    so = [compose(Ginv, {p * n + q: F.one, q * n + p: -F.one}, n) for p in range(n) for q in range(p + 1, n)]
    return [{c * n * n + idx: v for idx, v in sorted(B.items())} for c in range(3) for B in so]


# ------------------------------------------------------------------- tri(S)


class TriAlgebra:
    """tri(S) with its 28-element basis: the reduced rows of the span of the
    given triples, and `lie`, the bracket structure constants over them,
    built on first read.  A vector of End(S)^3 is written in the basis by
    `span.coordinates`."""

    def __init__(self, S, vectors):
        self.S = S
        self.field = S.field
        self.span = echelon_from(S.field, vectors)
        self.vectors = self.span.basis()  # basis triples as vectors of End(S)^3
        self.dim = len(self.vectors)

    def contains(self, vec) -> bool:
        """Whether a vector of End(S)^3 lies in tri(S)."""
        return self.span.contains(vec)

    @cached_property
    def lie(self) -> StructAlgebra:
        """The bracket over the basis; raises unless the span is closed under it."""
        n = self.S.dim
        blocks = [_blocks(v, n * n) for v in self.vectors]
        # the bracket is a commutator, so [b, a] = -[a, b]
        mul = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                coords = self.span.coordinates(_bracket(self.field, blocks[a], blocks[b], n))
                if coords is None:
                    raise TrialityError("bracket is not in tri(S)")
                if coords:
                    mul[(a, b)] = coords
                    mul[(b, a)] = {k: -c for k, c in coords.items()}
        labels = [f"t{k}" for k in range(self.dim)]
        return StructAlgebra(self.field, labels, mul)


def _solve_triples(S, shifts, what) -> TriAlgebra:
    """The triples of n-skew maps with d_a(u.v) = d_(a+1)(u).v + u.d_(a+2)(v)
    (indices mod 3) for every shift a, solved on all basis pairs as the
    kernel of a linear system over so(S,n)^3.  The kernel must be
    28-dimensional."""
    F = S.field
    n = S.dim
    blocks = so_blocks(S)
    m = len(blocks) // 3
    so = blocks[:m]
    bas = [S.basis_vec(i) for i in range(n)]
    so_cols = []
    for B in so:
        by_col = {r: {} for r in range(n)}
        for idx, c in B.items():
            by_col[idx % n][idx // n] = c
        so_cols.append(by_col)

    # column comp*m + mm: the images of so[mm] in component comp, keyed by
    # the identity (a, i, j, k) they enter
    cols = [{} for _ in range(3 * m)]
    for a in shifts:
        for i in range(n):
            for j in range(n):
                pij = S.product(bas[i], bas[j])
                for mm in range(m):
                    left, mid, right = (cols[(a + s) % 3 * m + mm] for s in range(3))
                    for k, c in mat_vec(so_cols[mm], pij).items():
                        left[(a, i, j, k)] = c
                    # a block with an empty column contributes nothing there
                    if so_cols[mm][i]:
                        for k, c in S.product(so_cols[mm][i], bas[j]).items():
                            mid[(a, i, j, k)] = -c
                    if so_cols[mm][j]:
                        for k, c in S.product(bas[i], so_cols[mm][j]).items():
                            right[(a, i, j, k)] = -c
    sols = kernel(F, cols)
    if len(sols) != 28:
        raise TrialityError(f"{what} has dimension {len(sols)}, expected 28")
    block_cols = dict(enumerate(blocks))
    return TriAlgebra(S, [mat_vec(block_cols, vec) for vec in sols])


def tri_basis(S) -> TriAlgebra:
    """Solve the defining identity d1(x.y) = d2(x).y + x.d3(y) over
    so(S,n)^3 on all basis pairs.  The kernel must be 28-dimensional and
    each coordinate projection must have full rank 28.

    The result is computed once per model instance and kept on S: a
    model's tables are built by its constructor and never changed
    afterwards, and models() hands out shared instances.  The entry names the instance it was solved
    for, so a copy of S (corrupted or not) is solved afresh."""
    hit = S.__dict__.get("_tri_basis")
    if hit is not None and hit[0] is S:
        return hit[1]
    tri = _solve_triples(S, (0,), "tri(S)")
    nn = S.dim * S.dim
    # each projection must be injective on the 28-dimensional kernel
    for comp in range(3):
        ech = echelon_from(S.field, [_blocks(v, nn)[comp] for v in tri.vectors])
        if ech.rank != 28:
            raise TrialityError(f"projection {comp + 1} has rank {ech.rank}, expected 28")
    S.__dict__["_tri_basis"] = (S, tri)
    return tri


def cyclic_shift_closed(tri: TriAlgebra) -> bool:
    """(d1,d2,d3) -> (d3,d1,d2) maps tri into itself."""
    nn = tri.S.dim * tri.S.dim
    return all(
        tri.contains({(idx // nn + 1) % 3 * nn + idx % nn: c for idx, c in v.items()}) for v in tri.vectors
    )


def verify_lie(tri: TriAlgebra) -> Report:
    """Exact antisymmetry and Jacobi for the bracket structure constants.
    The count covers d alternating, C(d, 2) antisymmetry and C(d, 3) Jacobi
    identities on basis tuples.  TriAlgebra stores [b, a] as -[a, b], so
    antisymmetry holds by construction for tri.lie; it is still checked on
    the full table, which a caller may replace."""
    A = tri.lie
    viol = []
    d = A.dim
    for a in range(d):
        if A.mul.get((a, a)):
            viol.append(("alternating", (a, a)))
        for b in range(a + 1, d):
            lhs = A.mul.get((a, b), {})
            rhs = A.mul.get((b, a), {})
            if lhs != {k: -c for k, c in rhs.items()}:
                viol.append(("antisymmetric", (a, b)))
    for a, b, c in itertools.combinations(range(d), 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for k, co in A.mul.get((x, y), {}).items():
                axpy(acc, co, A.mul.get((k, z), {}))
        if acc:
            viol.append(("jacobi", (a, b, c)))
    return Report(viol, d + d * (d - 1) // 2 + d * (d - 1) * (d - 2) // 6)


# ------------------------------------------------------------ derivations


def der_cyclic(V) -> TriAlgebra:
    """Der_L(V, *, Q) for the standard-twist triple model, solved directly:
    L-linear maps are block triples (d1, d2, d3), and the derivation rule
    d(x*y) = d(x)*y + x*d(y) unfolds into the three cyclicly shifted
    identities d_i(u.v) = d_{i+1}(u).v + u.d_{i+2}(v); skewness of b_Q is
    per-block n-skewness.  The result must equal tri(S) as a span."""
    if V.twist != 1:
        raise TrialityError("derivations are computed for the standard twist")
    return _solve_triples(V.S, (0, 1, 2), "Der_L(V)")


# ------------------------------------------------------------- root datum


@dataclass
class RootDatum:
    cartan: list          # 4 coefficient dicts over the tri basis
    roots: list           # 24 integer vectors
    simple_roots: list    # 4 integer vectors
    cartan_matrix: list   # 4x4 integers


def _ad_matrix(tri: TriAlgebra, coords: dict):
    """ad(x) in tri-basis coordinates for x given by coordinates."""
    d = tri.dim
    cols = []
    for b in range(d):
        acc = {}
        for a, ca in coords.items():
            axpy(acc, ca, tri.lie.mul.get((a, b), {}))
        cols.append(acc)
    return cols  # column k -> dict row -> scalar


def _trace_form(F, ad_a, ad_b):
    """tr(ad_a ad_b) = sum over i, j of ad_a[j][i] ad_b[i][j], for two
    matrices in the column form of _ad_matrix."""
    total = F.zero
    for j, col in enumerate(ad_a):
        for i, c in col.items():
            c2 = ad_b[i].get(j)
            if c2 is not None:
                total = total + c * c2
    return total


# root_datum scans the ad-eigenvalues -EIGEN_BOUND..EIGEN_BOUND, nearest to
# 0 first, and stops once the eigenspaces found fill the space.  They are
# the values of the roots on the normalized Cartan basis, which lie in
# -1..1 on the para-Zorn and Okubo models; an eigenvalue outside the range
# cannot pass unnoticed, because the eigenspaces found then fall short of
# the whole space and root_datum raises.
EIGEN_BOUND = 8


def root_datum(tri: TriAlgebra) -> RootDatum:
    """Cartan subalgebra (preimage under the first projection of the
    diagonal skew maps in the distinguished basis), integer root system,
    deterministic simple roots and the Cartan matrix."""
    F = tri.field
    n = tri.S.dim
    # combinations whose first component is diagonal: one row per
    # off-diagonal position of block 0, in ascending position order
    rows = {}
    for k, vec in enumerate(tri.vectors):
        for idx, c in vec.items():
            if idx < n * n and idx // n != idx % n:
                rows.setdefault(idx, {})[k] = c
    cartan = null_space(F, tri.dim, [rows[idx] for idx in sorted(rows)])
    if len(cartan) != 4:
        raise TrialityError(f"Cartan candidate has dimension {len(cartan)}, expected 4")
    # normalize each basis vector by a root of unity so that ad-eigenvalues
    # are rational integers: tr(ad(s h)^2) = s^2 tr(ad h^2) must be a
    # positive rational, which pins s^2 among the powers of zeta
    normalized = []
    for h in cartan:
        ad = _ad_matrix(tri, h)
        t2 = _trace_form(F, ad, ad)
        if t2.is_zero():
            raise TrialityError("Cartan candidate contains an ad-nilpotent vector")
        for k in range(F.conductor):
            s = F.zeta(k)
            probe = s * s * t2
            if probe.is_rational() and probe.rational_value() > 0:
                normalized.append({a: s * c for a, c in h.items()})
                break
        else:
            raise TrialityError("no root-of-unity rescaling makes ad-eigenvalues rational")
    cartan = normalized
    ads = [_ad_matrix(tri, h) for h in cartan]

    def _split(space, labels, ad_cols):
        """The eigenspaces of ad on a space (an Echelon over the tri basis),
        each the Echelon of its span, with its eigenvalue appended to the
        labels."""
        rows = space.basis()
        mat = []  # ad on the span of rows: column j -> dict i -> scalar
        for v in rows:
            img = {}
            for a, ca in v.items():
                axpy(img, ca, ad_cols[a])
            col = space.coordinates(img)
            if col is None:
                raise TrialityError("adjoint action leaves the subspace")
            mat.append(col)
        space_cols = dict(enumerate(rows))
        out = []
        found = 0
        for lam in sorted(range(-EIGEN_BOUND, EIGEN_BOUND + 1), key=abs):
            if found == space.rank:
                break
            neg_lam = F.scalar(-lam)
            shifted = [axpy(dict(col), None, {j: neg_lam}) for j, col in enumerate(mat)]  # mat - lam I
            eigen = echelon_from(F, (mat_vec(space_cols, kv) for kv in kernel(F, shifted)))
            if not eigen.rank:
                continue
            found += eigen.rank
            out.append((eigen, labels + [lam]))
        if found != space.rank:
            raise TrialityError("non-integral eigenvalues: wrong Cartan choice")
        return sorted(out, key=lambda piece: piece[1][-1])  # by eigenvalue

    spaces = [(echelon_from(F, ({k: F.one} for k in range(tri.dim))), [])]
    for ad_cols in ads:
        new_spaces = []
        for space, labels in spaces:
            new_spaces.extend(_split(space, labels, ad_cols))
        spaces = new_spaces

    roots = []
    cartan_space = None
    for space, labels in spaces:
        if all(x == 0 for x in labels):
            cartan_space = space
            continue
        if space.rank != 1:
            raise TrialityError("root space of dimension > 1")
        roots.append(tuple(labels))
    if cartan_space is None or cartan_space.rank != 4 or len(roots) != 24:
        raise TrialityError(f"expected 4 + 24 decomposition, got {len(roots)} roots")
    # Killing form on the Cartan from the roots; exact rational arithmetic
    K = [[F.scalar(sum(r[a] * r[b] for r in roots)) for b in range(4)] for a in range(4)]
    Kinv = [[c.rational_value() for c in row] for row in invert_dense(F, K)]

    def pair(al, be):
        v = [sum(Kinv[i][j] * be[j] for j in range(4)) for i in range(4)]
        return sum(al[i] * v[i] for i in range(4))

    pos = [r for r in roots if r > (0, 0, 0, 0)]
    pset = set(pos)
    simple = [r for r in pos if not any((tuple(x - y for x, y in zip(r, q)) in pset) for q in pos if q != r)]
    simple.sort()
    if len(simple) != 4:
        raise TrialityError(f"found {len(simple)} simple roots")
    cmat = []
    for al in simple:
        row = []
        for be in simple:
            v = 2 * pair(al, be) / pair(be, be)
            if v.denominator != 1:
                raise TrialityError("non-integral Cartan matrix entry")
            row.append(int(v))
        cmat.append(row)
    return RootDatum(cartan, roots, simple, cmat)


def is_d4_cartan_matrix(cmat) -> bool:
    """Diagonal 2, off-diagonal 0/-1, exactly one valence-3 node and three
    valence-1 nodes."""
    if any(cmat[i][i] != 2 for i in range(4)):
        return False
    for i in range(4):
        for j in range(4):
            if i != j and cmat[i][j] not in (0, -1):
                return False
            if cmat[i][j] != cmat[j][i]:
                return False
    valences = sorted(sum(1 for j in range(4) if i != j and cmat[i][j] == -1) for i in range(4))
    return valences == [1, 1, 1, 3]


# ------------------------------------------- induced gradings on tri(S)


def _homogeneous_pieces(tri: TriAlgebra, degrees, error):
    """Split every basis triple of tri, in delta coordinates, into its
    pieces on the elementary operators of one degree each, degrees[pos]
    being the degree of delta position pos.  Every piece must lie in tri(S)
    again.  Returns {degree: [pieces in coordinates over tri.vectors]}."""
    F = tri.field
    nn = tri.S.dim * tri.S.dim
    buckets = {}
    for vec in tri.vectors:
        pieces = {}
        for pos, c in xi_transform(F, vec, nn, to_deltas=True).items():
            pieces.setdefault(degrees[pos], {})[pos] = c
        for g, piece in pieces.items():
            coords = tri.span.coordinates(xi_transform(F, piece, nn, to_deltas=False))
            if coords is None:
                raise TrialityError(error)
            buckets.setdefault(g, []).append(coords)
    return buckets


def induce_tri_grading(grading: Grading, tri: TriAlgebra):
    """The grading tri_g = {d : d(V_a) <= V_(g a)} induced by a verified
    basis-aligned grading on V.  Returns (Grading on the adapted Lie
    algebra, adapted basis as a list of (degree, vector of End(S)^3 in
    triple coordinates)).

    Every homogeneous piece of every basis derivation is verified to lie in
    tri(S) again, and the piece dimensions must sum to 28.  Each component
    is an echelon over the coordinates of tri.vectors.  The bracket of
    adapted rows of degrees g1 and g2 is computed with tri.lie and written
    over the rows of degree g1 + g2 only; one outside their span raises
    TrialityError.
    """
    if not grading.verified:
        raise TrialityError("verify the grading before inducing")
    F = tri.field
    G = grading.group
    op_degrees = [g.canonical() for g in operator_degrees(grading)]
    buckets = _homogeneous_pieces(tri, op_degrees, "homogeneous piece leaves tri(S); invalid input grading")
    # the echelon rows of each component are a canonical homogeneous basis
    basis = dict(enumerate(tri.vectors))
    ad = AdaptedRows(((G.element(g), echelon_from(F, buckets[g])) for g in sorted(buckets)), TrialityError)
    rows = ad.rows
    if len(rows) != 28:
        raise TrialityError(f"induced components span {len(rows)} dimensions, expected 28")
    adapted = [(g, dict(sorted(mat_vec(basis, row).items()))) for g, row in zip(ad.degrees, rows)]

    # the brackets of tri.lie are commutators, so [b, a] = -[a, b]
    mul = {}
    for a in range(28):
        for b in range(a + 1, 28):
            row = ad.expand(tri.lie.product(rows[a], rows[b]), (a, b), "bracket leaves the span of its degree")
            if row:
                mul[(a, b)] = row
                mul[(b, a)] = {k: -c for k, c in row.items()}
    lie = StructAlgebra(F, [f"d{k}" for k in range(28)], mul)
    out = Grading(lie, G, {"A": ad.degrees})
    verify_grading(out).require(TrialityError, "induced tri grading")
    return out, adapted


def graded_module_check(grading: Grading, adapted) -> bool:
    """tri_g . V_a <= V_(g a), checked exactly for every adapted basis
    derivation and every basis vector of V.  The grading is basis-aligned,
    so V_(g a) is a coordinate subspace: an image lies in it when every
    index of its support has degree g a.

    The supports are read off the delta positions of the derivation x,
    without applying it.  The operator (p, r, k) sends s_r (x) xi^c to
    s_p (x) xi^(c+k) and every other basis vector to 0, so x (s_r (x) xi^c)
    is the sum of x_(p,r,k) s_p (x) xi^(c+k) over the positions (p, r, k)
    of x with that r.  Distinct (p, k) give distinct s_p (x) xi^(c+k), so
    no term cancels, and the support is exactly those s_p (x) xi^(c+k).
    Hence the check is deg(s_p (x) xi^(c+k)) = g + deg(s_r (x) xi^c) for
    every position (p, r, k) of x and every c."""
    V = grading.structure
    n = V.S.dim
    nn = n * n
    degs = [d.canonical() for d in grading.degrees["V"]]
    for g, trip in adapted:
        targets = [(g + d).canonical() for d in grading.degrees["V"]]
        for pos in xi_transform(V.field, trip, nn, to_deltas=True):
            k, rem = divmod(pos, nn)
            p, r = divmod(rem, n)
            if any(degs[V.idx(p, c + k)] != targets[V.idx(r, c)] for c in range(3)):
                return False
    return True


# ----------------------------------------------------------- center orbit


def center_elements(L):
    """The four elements (e1, e2, e3) with entries +-1 and product 1, in
    xi-coordinates (the center of the spin group inside L)."""
    F = L.field
    out = []
    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        comps = [F.scalar(s) for s in signs]
        idem = L.idempotents()
        acc = L.zero
        for c, e in zip(comps, idem):
            acc = L.add(acc, L.smul(c, e))
        out.append(acc)
    return out


def component_spans(grading: Grading, l_elt):
    """The component subspaces of the grading moved by multiplication with
    l_elt: {canonical degree: Echelon of l . V_g}."""
    V = grading.structure
    return {
        g: echelon_from(V.field, (V.act(l_elt, V.basis_vec(i)) for i in idxs))
        for g, idxs in grading.components("V").items()
    }


def center_orbit(grading: Grading):
    """The orbit of a Type III grading Gamma under the center C of L: the
    four regradings l . Gamma, with components l V_g.  Returns (same,
    orbit): orbit lists component_spans(grading, l) for each l, and same
    decides that every l . Gamma induces the grading of Gamma on
    E = End_L(V) and on tri(S).

    Each l must be an automorphism, (l x) * (l y) = l (x * y) on all basis
    pairs, or TrialityError is raised.  `same` is decided once, not per l,
    on the elementary operators f of End_L(V) (delta positions) and the
    basis vectors x of V:
    - f x lies in V_(deg f + deg x), deg f read from operator_degrees; the
      grading is basis-aligned, so this is the coordinate test of
      graded_module_check, and it makes f homogeneous of degree deg f;
    - f(xi x) = xi f(x).
    Given both: L = F[xi], so f is L-linear and commutes with every l in
    C.  Hence f(l V_g) = l f(V_g) <= l V_(g + deg f), and f has the same
    degree for l . Gamma as for Gamma; the elementary operators span E.
    The tri(S) components are read off the operator degrees alone
    (_homogeneous_pieces), so they coincide as well.
    """
    V = grading.structure
    one = V.field.one
    xi = V.L.xi
    degs = grading.degrees["V"]
    canon = [d.canonical() for d in degs]
    basis = [V.basis_vec(i) for i in range(V.dim)]
    moved = [V.act(xi, x) for x in basis]

    def homogeneous_and_linear(pos, d):
        f = {pos: one}
        for i, x in enumerate(basis):
            fx = apply_deltas(V, f, x)
            target = (d + degs[i]).canonical()
            if any(canon[j] != target for j in fx) or apply_deltas(V, f, moved[i]) != V.act(xi, fx):
                return False
        return True

    same = all(homogeneous_and_linear(pos, d) for pos, d in enumerate(operator_degrees(grading)))
    orbit = []
    for l_elt in center_elements(V.L):
        # multiplication by an element of C is a graded automorphism of the
        # algebra structure: (l x) * (l y) = l (x * y), Q(l x) = Q(x)
        for x in basis:
            for y in basis:
                if V.product(V.act(l_elt, x), V.act(l_elt, y)) != V.act(l_elt, V.product(x, y)):
                    raise TrialityError("center element is not an automorphism")
        orbit.append(component_spans(grading, l_elt))
    return same, orbit


def orbit_pairwise_distinct(orbit) -> bool:
    """Every pair of orbit gradings differs as a decomposition of V."""
    canon = [{g: ech.canonical() for g, ech in spans.items()} for spans in orbit]
    return all(a != b for a, b in itertools.combinations(canon, 2))
