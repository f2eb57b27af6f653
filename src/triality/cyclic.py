"""Cyclic composition algebras over L = F x F x F in the triple model.

L is represented on the basis (1, xi, xi^2) with xi = (1, omega, omega^2),
so L = F[xi]/(xi^3 - 1) and the cyclic shift rho acts diagonally:
rho(xi^k) = omega^k xi^k.  A cyclic composition algebra V = S (x) L sits on
the 24-element tensor basis s_p (x) xi^j; the product of S (x) L expands as

    (x (x) xi^a) * (y (x) xi^b) = omega^(a+2b) (x . y) (x) xi^(a+b)

for the standard twist rho (the opposite algebra uses rho^2, which doubles
the omega exponent).  The form b_Q is L-valued: b_Q(s_p xi^a, s_q xi^b) =
n(s_p, s_q) xi^(a+b).  All axioms are verified exactly: V is a free
L-module on the 8 vectors s_p (x) 1, and each tensor basis element is
xi^j (s_p (x) 1), so once the product is rho-semilinear and b_Q is
L-bilinear on the tensor basis, the polarized identities need only the
L-basis tuples (see verify_cyclic_axioms).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .composition import SymCompAlgebra, is_symmetric_composition
from .grading import SMap, Grading, Report, StructAlgebra, VerificationError, verify_grading
from .linalg import Echelon, Residues, axpy, bilinear, echelon_from, grouped, kernel


class CyclicAxiomError(VerificationError):
    pass


class CubicEtale:
    """L = F x F x F with the cyclic shift rho, in xi-coordinates."""

    def __init__(self, F):
        self.field = F
        self.omega = F.omega
        self._rho_factors = (F.one, F.omega, F.omega * F.omega)  # omega^k
        self.labels = ["1", "xi", "xi^2"]
        self.zero = (F.zero, F.zero, F.zero)
        self.one = (F.one, F.zero, F.zero)
        self.xi = (F.zero, F.one, F.zero)
        self.xi2 = (F.zero, F.zero, F.one)

    def elt(self, c0, c1, c2):
        return (c0, c1, c2)

    def mul(self, a, b):
        out = [self.field.zero, self.field.zero, self.field.zero]
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[(i + j) % 3] = out[(i + j) % 3] + x * y
        return tuple(out)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def smul(self, c, a):
        return tuple(c * x for x in a)

    def rho(self, a, power=1):
        fac = self._rho_factors
        return tuple(fac[(k * power) % 3] * a[k] for k in range(3))

    def tau(self, a):
        """The involution of (L, rho) swapping the last two components;
        in xi-coordinates it swaps xi and xi^2."""
        return (a[0], a[2], a[1])

    def norm(self, a):
        return self.mul(self.mul(a, self.rho(a)), self.rho(a, 2))

    def trace(self, a):
        return self.add(self.add(a, self.rho(a)), self.rho(a, 2))

    def sharp(self, a):
        return self.mul(self.rho(a), self.rho(a, 2))

    def scalar_part(self, a):
        """The F-value of an element known to lie in F.1."""
        if not (a[1].is_zero() and a[2].is_zero()):
            raise ValueError(f"{a} is not in F.1")
        return a[0]

    def components(self, a):
        """The componentwise view (l1, l2, l3): component i evaluates xi
        at omega^(i-1), matching xi = (1, omega, omega^2)."""
        fac = self._rho_factors
        return tuple(a[0] + fac[i] * a[1] + fac[2 * i % 3] * a[2] for i in range(3))

    def idempotents(self):
        """The three primitive idempotents (1/3)(1 + w^-i xi + w^-2i xi^2)."""
        F = self.field
        third = F.scalar(1, 3)
        w = self.omega
        out = []
        for wi in (F.one, w * w, w):  # omega^(-i) for i = 0, 1, 2
            out.append((third, third * wi, third * wi * wi))
        return out


def make_L(F) -> CubicEtale:
    """The cubic etale algebra with its invariants verified exactly:
    rho^3 = id, N(xi) = 1, rho(xi) = omega xi, xi# = xi^2."""
    L = CubicEtale(F)
    for a in ((F.one, F.scalar(2), F.scalar(-3)), L.xi, L.xi2):
        if L.rho(L.rho(L.rho(a))) != a:
            raise CyclicAxiomError("rho^3 is not the identity")
    if L.norm(L.xi) != L.one:
        raise CyclicAxiomError("N(xi) != 1")
    if L.rho(L.xi) != L.smul(L.omega, L.xi):
        raise CyclicAxiomError("xi is not an omega-eigenvector of rho")
    if L.sharp(L.xi) != L.mul(L.xi, L.xi):
        raise CyclicAxiomError("xi# != xi^2")
    return L


class CyclicAlgebra(StructAlgebra):
    """The triple model V = S (x) L on the 24-element tensor basis, its
    product given by structure constants.

    twist = 1 is the standard orientation (rho-semilinear in the first
    argument); twist = 2 is used by opposite algebras.
    """

    def __init__(self, S: SymCompAlgebra, L: CubicEtale, mul, bq, twist):
        self.S = S
        self.L = L
        self.twist = twist
        self.bq = bq          # dict (i, j) -> dict (L index) -> scalar
        labels = []
        for p in range(S.dim):
            for suffix in ("", "(x)xi", "(x)xi^2"):
                labels.append(S.labels[p] + suffix)
        super().__init__(S.field, labels, mul)
        self.main_sort = "V"

    def idx(self, p, j):
        return 3 * p + (j % 3)

    def split(self, i):
        return divmod(i, 3)

    def bform(self, x, y):
        b = bilinear(self.bq, x, y)
        zero = self.field.zero
        return b.get(0, zero), b.get(1, zero), b.get(2, zero)

    def quadratic(self, x):
        half = self.field.scalar(1, 2)
        return tuple(half * c for c in self.bform(x, x))

    def act(self, l, x):
        """The L-action through the L.act table that verify_grading checks:
        xi^k sends s_p (x) xi^j to s_p (x) xi^(j+k)."""
        return bilinear(self._l_tables[1], {k: c for k, c in enumerate(l) if not c.is_zero()}, x)

    def embed(self, p, j=0):
        return {self.idx(p, j): self.field.one}

    # -- grading protocol: two sorts, V and L

    def grading_sorts(self):
        return {"V": self.dim, "L": 3}

    @cached_property
    def _l_tables(self):
        """The L.mul and L.act tables, built once for all grading maps and
        for `act`."""
        one = self.field.one
        lmul = {(j, k): {(j + k) % 3: one} for j in range(3) for k in range(3)}
        act = {}
        for k in range(3):
            for i in range(self.dim):
                p, j = self.split(i)
                act[(k, i)] = {self.idx(p, j + k): one}
        return lmul, act

    def grading_maps(self):
        lmul, act = self._l_tables
        return [
            SMap("L.mul", ("L", "L"), "L", lmul),
            SMap("star", ("V", "V"), "V", self.mul),
            SMap("L.act", ("L", "V"), "V", act),
            SMap("b_Q", ("V", "V"), "L", self.bq),
        ]


def cyclic_from_symmetric(S: SymCompAlgebra, L: CubicEtale) -> CyclicAlgebra:
    """The cyclic composition algebra S (x) (L, rho), in the standard twist."""
    if S.dim != 8:
        raise CyclicAxiomError("the triple model needs an 8-dimensional symmetric composition algebra")
    F = S.field
    w = F.omega
    wpow = [F.one, w, w * w]
    mul = {}
    bq = {}
    for p in range(S.dim):
        for q in range(S.dim):
            row = S.mul.get((p, q), {})
            npq = S.forms["n"].get((p, q))
            for a in range(3):
                for b in range(3):
                    i, j = 3 * p + a, 3 * q + b
                    if row:
                        fac = wpow[(a + 2 * b) % 3]
                        mul[(i, j)] = {3 * r + ((a + b) % 3): fac * c for r, c in row.items()}
                    if npq is not None:
                        bq[(i, j)] = {(a + b) % 3: npq}
    return CyclicAlgebra(S, L, mul, bq, twist=1)


def opposite(V: CyclicAlgebra) -> CyclicAlgebra:
    """The same module and form with x *op y = y * x, a cyclic composition
    algebra over (L, rho^2)."""
    mul = {(j, i): dict(row) for (i, j), row in V.mul.items()}
    return CyclicAlgebra(V.S, V.L, mul, dict(V.bq), twist=3 - V.twist)


def verify_cyclic_axioms(V: CyclicAlgebra) -> Report:
    """Exact verification of the cyclic composition axioms.

    On all n^2 pairs of tensor basis elements, for t = V.twist:
    - the product is rho-semilinear, (xi x)*y = rho^t(xi)(x*y) and
      x*(xi y) = rho^2t(xi)(x*y) (semilinear_x, semilinear_y);
    - b_Q is L-bilinear, b_Q(xi x, y) = xi b_Q(x, y) = b_Q(x, xi y)
      (bq_L_bilinear).
    On the m = 8 L-basis vectors s_p (x) 1 (indices V.idx(p, 0)), the
    multiplicativity of Q and the identities (x*y)*x = rho^2t(Q(x)) y,
    x*(y*x) = rho^t(Q(x)) y in fully polarized form, which is equivalent
    in characteristic 0; and b_Q is nonsingular over L on that basis.
    On the n basis vectors, 1 x = x and xi (xi x) = xi^2 x: the checks
    above read only the xi row of the L.act table that `act` reads.

    Why the L-basis tuples suffice: every tensor basis element is
    xi^j (s_p (x) 1), and once the first two checks hold, scaling one
    argument of a polarized identity by xi multiplies both of its sides by
    the same unit of L.  In the notation of the helpers below:
    - norm_multiplicative: rho^t(xi) for x and x', rho^2t(xi) for y and y';
    - bq_cyclic at (x, y, z): rho^t(xi), rho^2t(xi), xi;
    - eq1_left at (x, y, z): rho^2t(xi), xi, rho^2t(xi);
    - eq1_right at (x, y, z): rho^t(xi), xi, rho^t(xi).
    For example (x*(xi y))*z = (rho^2t(xi)(x*y))*z = rho^3t(xi)(x*y)*z =
    xi (x*y)*z, and the right side rho^2t(b_Q(x, z)) xi y of eq1_left
    carries the same xi.  Both sides are F-multilinear and xi is a unit,
    so an identity that holds on the L-basis tuples holds on all tensor
    basis tuples, hence on V.  The count covers the
    2 n^2 + 2 n^2 + m^4 + 3 m^3 + 2 n identities checked (7,984 for n = 24).

    The polarized identities are decided on `linalg.Residues` tables keyed
    by L-basis tuple, not by a loop over the m^4 and m^3 tuples: every term
    of either side is a product of nonzero structure constants, so the
    terms are reached from those constants, and a tuple that no term
    reaches has both sides exactly 0.  Every L-basis tuple is decided, and
    a failure is reported at the L-basis tuples where it shows.
    """
    L = V.L
    t = V.twist
    n = V.dim
    viol = []
    bas = [V.basis_vec(i) for i in range(n)]
    xi_bas = [V.act(L.xi, x) for x in bas]
    prod = [[V.product(bas[i], bas[j]) for j in range(n)] for i in range(n)]
    rho_t_xi = L.rho(L.xi, t)
    rho_2t_xi = L.rho(L.xi, 2 * t)

    for i, j in itertools.product(range(n), repeat=2):
        if V.product(xi_bas[i], bas[j]) != V.act(rho_t_xi, prod[i][j]):
            viol.append(("semilinear_x", (i, j)))
        if V.product(bas[i], xi_bas[j]) != V.act(rho_2t_xi, prod[i][j]):
            viol.append(("semilinear_y", (i, j)))
        xi_b = L.mul(L.xi, V.bform(bas[i], bas[j]))
        if V.bform(xi_bas[i], bas[j]) != xi_b or V.bform(bas[i], xi_bas[j]) != xi_b:
            viol.append(("bq_L_bilinear", (i, j)))
    m = V.S.dim
    lbasis = [V.idx(p, 0) for p in range(m)]
    viol.extend(_polarized_norm_check(V, prod, lbasis))
    viol.extend(_triple_check(V, prod, lbasis))

    # b_Q is nonsingular over L = F x F x F on the L-basis s_p (x) 1 exactly
    # when each of its three component Gram matrices has rank m
    gram = [[L.components(V.bform(V.embed(p), V.embed(q))) for q in range(m)] for p in range(m)]
    if any(echelon_from(L.field, [{q: row[q][c] for q in range(m)} for row in gram]).rank < m for c in range(3)):
        viol.append(("b_Q_nonsingular", ()))
    for i, x in enumerate(bas):
        if V.act(L.one, x) != x:
            viol.append(("l_module_unit", i))
        if V.act(L.xi, xi_bas[i]) != V.act(L.xi2, x):
            viol.append(("l_module_xi2", i))
    return Report(viol, 4 * n * n + m ** 4 + 3 * m ** 3 + 2 * n)


def _rho_rows(V: CyclicAlgebra, power):
    """rho^power of every b_Q entry, as {xi power: scalar} rows."""
    F = V.field
    wp = (F.one, F.omega, F.omega * F.omega)
    return {key: {m: c * wp[power * m % 3] for m, c in row.items()} for key, row in V.bq.items()}


def _polarized_norm_check(V: CyclicAlgebra, prod, lbasis):
    """Fully polarized multiplicativity of Q on the L-basis 4-tuples:
    b_Q(x*y, x'*y') + b_Q(x*y', x'*y) = rho^t(b_Q(x, x')) rho^2t(b_Q(y, y')).

    Both sides are summed as L-values into one residue table keyed
    (i, k, j, l), reached from the nonzero products of L-basis vectors and
    the b_Q entries.
    """
    t = V.twist
    on = set(lbasis)
    # basis index b -> [(k, l, coefficient of b in x_k * x_l)]
    pairs_on = grouped((b, (k, l, c)) for k in lbasis for l in lbasis for b, c in prod[k][l].items())
    partners = grouped((a, (b, row)) for (a, b), row in V.bq.items())  # a -> [(b, b_Q(x_a, x_b))]
    diff = Residues()  # (i, k, j, l) -> lhs - rhs as {xi power: scalar}
    for i in lbasis:
        for j in lbasis:
            for a, ca in prod[i][j].items():
                for b, row in partners.get(a, ()):
                    for k, l, cb in pairs_on.get(b, ()):
                        # b_Q(x_i*x_j, x_k*x_l): the first term at (i, j, k, l),
                        # the second at (i, l, k, j)
                        c = ca * cb
                        diff.add((i, k, j, l), c, row)
                        diff.add((i, k, l, j), c, row)
    # rho^2t(b_Q(x_j, x_l)) multiplied by xi^s, for s = 0, 1, 2
    shifted = {
        (j, l): [{(s + m) % 3: c for m, c in r.items()} for s in range(3)]
        for (j, l), r in _rho_rows(V, 2 * t).items()
        if j in on and l in on
    }
    for (i, k), row in _rho_rows(V, t).items():
        if i not in on or k not in on:
            continue
        left = [(s, -c) for s, c in row.items()]  # -rho^t(b_Q(x_i, x_k))
        for (j, l), right in shifted.items():
            for s, c in left:
                diff.add((i, k, j, l), c, right[s])
    return [("norm_multiplicative", (i, j, k, l)) for (i, k, j, l) in diff.uncancelled()]


_TRIPLE_NAMES = ("bq_cyclic", "bq_cyclic", "eq1_left", "eq1_right")


def _triple_check(V: CyclicAlgebra, prod, lbasis):
    """The identities on the L-basis triples (x_i, x_j, x_k):

        f = 0, 1:  b_Q(x_i*x_j, x_k) = rho^t(b_Q(x_j*x_k, x_i))
                                     = rho^2t(b_Q(x_k*x_i, x_j))   (bq_cyclic)
        f = 2:     (x_i*x_j)*x_k + (x_k*x_j)*x_i = rho^2t(b_Q(x_i, x_k)) x_j
        f = 3:     x_i*(x_j*x_k) + x_k*(x_j*x_i) = rho^t(b_Q(x_i, x_k)) x_j

    Both sides are summed into one residue table keyed (i, j, k, f).  Each
    product x_i*x_j of L-basis vectors is read once and its b_Q values,
    right and left products with L-basis vectors are filed under every
    triple whose identity holds that term.  The violations come sorted by
    (i, j, k), bq_cyclic, eq1_left and eq1_right in that order within a
    triple.
    """
    t = V.twist
    on = set(lbasis)
    rho_t, rho_2t = _rho_rows(V, t), _rho_rows(V, 2 * t)
    # a -> [(k, b_Q(x_a, x_k), its rho^t, its rho^2t)]
    partners = grouped((a, (k, row, rho_t[(a, k)], rho_2t[(a, k)])) for (a, k), row in V.bq.items() if k in on)
    right = grouped((a, (k, row)) for (a, k), row in V.mul.items() if k in on)  # a -> [(k, x_a * x_k)]
    left = grouped((a, (k, row)) for (k, a), row in V.mul.items() if k in on)  # a -> [(k, x_k * x_a)]
    diff = Residues()
    for i in lbasis:
        for j in lbasis:
            for a, c in prod[i][j].items():
                for k, row, row_t, row_2t in partners.get(a, ()):
                    # b_Q(x_i*x_j, x_k) is the middle of bq_cyclic at (i, j, k),
                    # its rho^t the left side at (k, i, j), its rho^2t the
                    # right side at (j, k, i)
                    diff.add((i, j, k, 0), c, row)
                    diff.add((i, j, k, 1), c, row)
                    diff.add((k, i, j, 0), -c, row_t)
                    diff.add((j, k, i, 1), -c, row_2t)
                for k, row in right.get(a, ()):
                    # (x_i*x_j)*x_k: eq1_left at (i, j, k) and at (k, j, i)
                    diff.add((i, j, k, 2), c, row)
                    diff.add((k, j, i, 2), c, row)
                for k, row in left.get(a, ()):
                    # x_k*(x_i*x_j): eq1_right at (k, i, j) and at (j, i, k)
                    diff.add((k, i, j, 3), c, row)
                    diff.add((j, i, k, 3), c, row)
    # the right sides rho^2t(b_Q(x_i, x_k)) x_j and rho^t(b_Q(x_i, x_k)) x_j
    for (i, k), row_t in rho_t.items():
        if i not in on or k not in on:
            continue
        row_2t = rho_2t[(i, k)]
        for j in lbasis:
            p, e = V.split(j)
            diff.add((i, j, k, 2), None, {V.idx(p, e + m): -c for m, c in row_2t.items()})
            diff.add((i, j, k, 3), None, {V.idx(p, e + m): -c for m, c in row_t.items()})
    return list(dict.fromkeys((_TRIPLE_NAMES[f], (i, j, k)) for i, j, k, f in diff.uncancelled()))


# ------------------------------------------------ gradings on the triple model


def tensor_grading(grading_S: Grading, h, V: CyclicAlgebra) -> Grading:
    """The grading Gamma_S (x) Gamma_L on V = S (x) L: the tensor basis
    element s_p (x) xi^j has degree deg(s_p) + j*h, and L is graded with
    deg xi = h.  h must have order 3."""
    if grading_S.structure is not V.S:
        raise ValueError("grading does not live on the S used to build V")
    G = grading_S.group
    if h.group != G or h.order() != 3:
        raise ValueError("the distinguished element must lie in the group and have order 3")
    sdeg = grading_S.degrees["A"]
    vdeg = []
    for p in range(V.S.dim):
        for j in range(3):
            vdeg.append(sdeg[p] + j * h)
    ldeg = [G.identity(), h, 2 * h]
    g = Grading(V, G, {"V": vdeg, "L": ldeg})
    verify_grading(g).require(AssertionError, "tensor grading")
    return g


# ------------------------------------------------ idempotent-cut subalgebras


def para_subalgebra_from_idempotent(V: CyclicAlgebra, eps) -> Echelon:
    """The 8-dimensional F-subspace C_eps = {X : X*eps = b_Q(X,eps)eps - X}
    cut out by an idempotent eps (eps*eps = eps != 0, which forces
    Q(eps) = 1), as the Echelon of its span; cut_on_basis makes it a
    symmetric composition algebra and certifies it."""
    F = V.field
    L = V.L
    minus_one = F.scalar(-1)
    if not eps or V.product(eps, eps) != eps:
        raise CyclicAxiomError("eps is not a nonzero idempotent")
    if V.quadratic(eps) != L.one:
        raise CyclicAxiomError("idempotent with Q(eps) != 1")
    # columns of the linear condition X*eps + X - b_Q(X,eps) eps = 0
    cols = []
    for i in range(V.dim):
        x = V.basis_vec(i)
        vec = axpy(V.product(x, eps), None, x)
        cols.append(axpy(vec, minus_one, V.act(V.bform(x, eps), eps)))
    cut = echelon_from(F, kernel(F, cols))
    if cut.rank != 8:
        raise CyclicAxiomError(f"idempotent cut has dimension {cut.rank}, expected 8")
    return cut


def cut_on_basis(V: CyclicAlgebra, cut: Echelon, eps) -> SymCompAlgebra:
    """The cut C_eps of an idempotent eps as a symmetric composition algebra
    on the reduced rows of cut (an Echelon of V-vectors spanning it):
    structure constants and polar form read in that basis by
    cut.coordinates, verified to be a symmetric composition algebra with
    eps as its para-unit."""
    F = V.field
    L = V.L
    minus_one = F.scalar(-1)
    basis = cut.basis()
    para_unit = cut.coordinates(eps)
    if para_unit is None:
        raise CyclicAxiomError("eps does not lie in its cut")
    mul = {}
    n_polar = {}
    for a in range(len(basis)):
        for b in range(len(basis)):
            row = cut.coordinates(V.product(basis[a], basis[b]))
            if row is None:
                raise CyclicAxiomError("subalgebra is not closed under the product")
            if row:
                mul[(a, b)] = row
            val = V.bform(basis[a], basis[b])
            sc = L.scalar_part(val)  # raises unless the value sits in F.1
            if not sc.is_zero():
                n_polar[(a, b)] = sc
    labels = [f"c{k}" for k in range(len(basis))]
    S_sub = SymCompAlgebra(F, labels, mul, n_polar, para_unit=para_unit)
    is_symmetric_composition(S_sub).require(CyclicAxiomError, "idempotent cut")
    # eps must act as the para-unit: eps * x = x~ = n(x, eps)eps - x on C_eps
    pu = S_sub.para_unit
    for k in range(len(basis)):
        x = S_sub.basis_vec(k)
        conj = axpy(S_sub.scale(S_sub.polar(x, pu), pu), minus_one, x)
        if S_sub.product(pu, x) != conj or S_sub.product(x, pu) != conj:
            raise CyclicAxiomError("idempotent is not a para-unit of its cut")
    return S_sub
