"""Hurwitz, para-Hurwitz and Okubo algebras with their standard gradings.

Two coexisting models of the split Cayley algebra are kept on purpose: the
Zorn vector-matrix model carries the Cartan Z^2-grading on its natural
hyperbolic basis, and the iterated Cayley-Dickson model carries the Z_2^3
grading on its natural doubling basis.  The Okubo algebra lives on the
traceless 3x3 matrices over a field containing a primitive cube root of
unity omega, with homogeneous basis X^a Y^b where X = diag(1, omega,
omega^2) and Y is the cyclic permutation matrix (so XY = omega YX).

Every constructor is certified by an exact verifier; nothing is assumed
about the structure constants beyond what the verifiers confirm.  The
polarized laws on basis tuples (norm multiplicativity, associativity of the
polar form, the two-sided identities) are decided on `linalg.Residues`
tables reached from the nonzero product and form constants, not by a loop
over the tuples; a tuple that no term reaches has both sides exactly 0, so
every tuple is decided, and `checked` still counts each of them.
"""

from __future__ import annotations

from .fgab import make_group
from .grading import Grading, Report, StructAlgebra, VerificationError, verify_grading
from .linalg import Residues, axpy, echelon_from, grouped


class CompositionError(VerificationError):
    pass


class HurwitzAlgebra(StructAlgebra):
    """A unital composition algebra: product, polar norm form "n", standard
    involution x -> n(x,1)1 - x, and the unit vector."""

    def __init__(self, field, labels, mul, n_polar, unit, involution, doubling_steps=0):
        super().__init__(field, labels, mul, forms={"n": n_polar}, involution=involution, unit=unit)
        self.doubling_steps = doubling_steps


class SymCompAlgebra(StructAlgebra):
    """A (not necessarily unital) composition algebra whose polar norm form
    is associative.  para_unit is set for para-Hurwitz constructions."""

    def __init__(self, field, labels, mul, n_polar, para_unit=None):
        super().__init__(field, labels, mul, forms={"n": n_polar})
        self.para_unit = para_unit

    def polar(self, x, y):
        return self.form_value("n", x, y)


# --------------------------------------------------------------- Zorn model


def zorn_cayley(F) -> HurwitzAlgebra:
    """The split Cayley algebra as Zorn vector matrices on the basis
    (e1, e2, u1, u2, u3, v1, v2, v3), with hyperbolic norm n = ab - u.v."""
    zero, one = F.zero, F.one

    def vm(a, u, v, b):
        return (a, tuple(u), tuple(v), b)

    def basis_vm(i):
        e = [zero] * 3
        if i == 0:
            return vm(one, e, e, zero)
        if i == 1:
            return vm(zero, e, e, one)
        if 2 <= i <= 4:
            u = list(e)
            u[i - 2] = one
            return vm(zero, u, e, zero)
        v = list(e)
        v[i - 5] = one
        return vm(zero, e, v, zero)

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    def vm_mul(x, y):
        a, u, v, b = x
        c, s, t, d = y
        au = tuple(a * si + d * ui - cv for si, ui, cv in zip(s, u, cross(v, t)))
        av = tuple(c * vi + b * ti + cu for vi, ti, cu in zip(v, t, cross(u, s)))
        return (a * c + dot(u, t), au, av, b * d + dot(v, s))

    def vm_coords(x):
        a, u, v, b = x
        return [a, b, u[0], u[1], u[2], v[0], v[1], v[2]]

    labels = ["e1", "e2", "u1", "u2", "u3", "v1", "v2", "v3"]
    mul = {}
    for i in range(8):
        for j in range(8):
            coords = vm_coords(vm_mul(basis_vm(i), basis_vm(j)))
            row = {k: c for k, c in enumerate(coords) if not c.is_zero()}
            if row:
                mul[(i, j)] = row
    # polar of n(x) = ab - u.v: the hyperbolic pairing
    m1 = F.scalar(-1)
    n_polar = {(0, 1): one, (1, 0): one}
    for i in range(3):
        n_polar[(2 + i, 5 + i)] = m1
        n_polar[(5 + i, 2 + i)] = m1
    unit = {0: one, 1: one}
    involution = {0: {1: one}, 1: {0: one}}
    for i in range(2, 8):
        involution[i] = {i: m1}
    return HurwitzAlgebra(F, labels, mul, n_polar, unit, involution)


# ------------------------------------------------------- Cayley-Dickson


def ground_field_algebra(F) -> HurwitzAlgebra:
    """F itself as the 1-dimensional Hurwitz algebra with n(x) = x^2."""
    one = F.one
    return HurwitzAlgebra(F, ["1"], {(0, 0): {0: one}}, {(0, 0): F.scalar(2)}, {0: one}, {0: {0: one}})


def cayley_dickson(A: HurwitzAlgebra, mu) -> HurwitzAlgebra:
    """One doubling step: (a,b)(c,d) = (ac + mu d~b, da + bc~) with norm
    n(a,b) = n(a) - mu n(b).  Doubling an 8-dimensional algebra would leave
    the composition class and is refused."""
    if A.dim not in (1, 2, 4):
        raise CompositionError("can only double algebras of dimension 1, 2 or 4")
    if mu.is_zero():
        raise CompositionError("doubling parameter must be nonzero")
    F = A.field
    n = A.dim
    step = A.doubling_steps + 1
    gen = f"g{step}"
    labels = list(A.labels) + [gen if lab == "1" else lab + gen for lab in A.labels]

    def shift(vec, by):
        return {i + by: c for i, c in vec.items()}

    mul = {}
    for i in range(n):
        bi = A.basis_vec(i)
        for j in range(n):
            bj = A.basis_vec(j)
            ac = A.product(bi, bj)  # (a,0)(c,0) = (ac, 0)
            if ac:
                mul[(i, j)] = ac
            dbar_b = A.product(A.conj(bj), bi)  # (0,b)(0,d) = (mu d~b, 0)
            r = {k: mu * c for k, c in dbar_b.items()}
            if r:
                mul[(i + n, j + n)] = r
            da = A.product(bj, bi)  # (a,0)(0,d) = (0, da)
            if da:
                mul[(i, j + n)] = shift(da, n)
            bc = A.product(bi, A.conj(bj))  # (0,b)(c,0) = (0, b c~)
            if bc:
                mul[(i + n, j)] = shift(bc, n)
    n_polar = {}
    for (i, j), c in A.forms["n"].items():
        n_polar[(i, j)] = c
        n_polar[(i + n, j + n)] = -(mu * c)
    unit = dict(A.unit)
    # conjugation: (a,b)~ = (a~, -b)
    involution = {i: dict(row) for i, row in A.involution.items()}
    for i in range(n):
        involution[i + n] = {i + n: -F.one}
    return HurwitzAlgebra(F, labels, mul, n_polar, unit, involution, doubling_steps=step)


def doubled_cayley(F) -> HurwitzAlgebra:
    """The split Cayley algebra built by three doublings of F with mu = 1."""
    A = ground_field_algebra(F)
    for _ in range(3):
        A = cayley_dickson(A, F.one)
    return A


# --------------------------------------------------------------- para


def para(A: HurwitzAlgebra) -> SymCompAlgebra:
    """The para-Hurwitz algebra: same space and norm, product x~ y~."""
    S_mul = {}
    for i in range(A.dim):
        ci = A.conj(A.basis_vec(i))
        for j in range(A.dim):
            cj = A.conj(A.basis_vec(j))
            row = A.product(ci, cj)
            if row:
                S_mul[(i, j)] = row
    return SymCompAlgebra(A.field, list(A.labels), S_mul, dict(A.forms["n"]), para_unit=dict(A.unit))


# --------------------------------------------------------------- Okubo


def okubo_sl3(F) -> SymCompAlgebra:
    """The Okubo algebra on traceless 3x3 matrices:
    x * y = mu xy + (1-mu) yx - (1/3) tr(xy) 1 with mu = (2+omega)/3 and
    n(x) = (1/6) tr(x^2).  The homogeneous basis is X^a Y^b, (a,b) != (0,0).

    X^a Y^b is a generalized permutation matrix, held as its rows, one
    (column, entry) pair each; products of such matrices are again of that
    form.  A traceless matrix has the coordinates tr(Z M_-k) / tr(M_k M_-k)
    on M_k, and tr(1 M_-k) = 0, so x * y of two monomials has the
    coordinates of mu xy + (1-mu) yx.
    """
    w = F.omega
    zero, one = F.zero, F.one
    third = F.scalar(1, 3)
    mu = (F.scalar(2) + w) * third
    one_minus_mu = one - mu

    def mat_mul(A, B):
        return tuple((B[j][0], c * B[j][1]) for j, c in A)

    def tr_prod(A, B):
        """tr(AB): the rows i where B maps the column of A's entry back to i."""
        return sum((c * B[j][1] for i, (j, c) in enumerate(A) if B[j][0] == i), zero)

    X = ((0, one), (1, w), (2, w * w))
    Y = ((2, one), (0, one), (1, one))
    eye = ((0, one), (1, one), (2, one))

    keys = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    keys.sort()
    mono = {}
    for a, b in keys:
        M = eye
        for _ in range(a):
            M = mat_mul(M, X)
        for _ in range(b):
            M = mat_mul(M, Y)
        mono[(a, b)] = M

    # the trace pairing tr(M_k M_-k) is nonzero; its reciprocals are computed once
    duals = [mono[((-a) % 3, (-b) % 3)] for a, b in keys]
    inv_pairing = [tr_prod(mono[k], dual).inverse() for k, dual in zip(keys, duals)]

    # M_(a,b) M_(c,d) lies on the line of M_(a+c, b+d): x * y has one
    # coordinate, read at that one dual, and none on degree (0, 0), where
    # mu xy + (1-mu) yx = tr(xy)/3 1; n pairs only degrees adding to (0, 0)
    index = {k: i for i, k in enumerate(keys)}
    mul = {}
    n_polar = {}
    for i, (a, b) in enumerate(keys):
        for j, (c, d) in enumerate(keys):
            A, B = mono[(a, b)], mono[(c, d)]
            k = ((a + c) % 3, (b + d) % 3)
            if k == (0, 0):
                t = third * tr_prod(A, B)
                if not t.is_zero():
                    n_polar[(i, j)] = t
                continue
            idx = index[k]
            t1, t2 = tr_prod(mat_mul(A, B), duals[idx]), tr_prod(mat_mul(B, A), duals[idx])
            t = (mu * t1 + one_minus_mu * t2) * inv_pairing[idx]
            if not t.is_zero():
                mul[(i, j)] = {idx: t}
    labels = [f"X^{a}Y^{b}" if a and b else (f"X^{a}" if a else f"Y^{b}") for a, b in keys]
    S = SymCompAlgebra(F, labels, mul, n_polar)
    S.monomial_keys = keys
    return S


# ------------------------------------------------------------- verifiers


def _nonsingular(S) -> bool:
    """The Gram matrix of the polar form, row by row from its table, has
    full rank."""
    rows = grouped((i, (j, c)) for (i, j), c in S.forms["n"].items())
    return echelon_from(S.field, [dict(row) for row in rows.values()]).rank == S.dim


def _norm_multiplicative(S) -> list:
    """Violations of the fully polarized multiplicativity of the norm,
    n(x_i x_j, x_k x_l) + n(x_k x_j, x_i x_l) = n(x_i, x_k) n(x_j, x_l),
    on all basis 4-tuples, as ("norm_multiplicative", (i, j, k, l), repr of
    the left side), in (i, k, j, l) order.

    lhs - rhs is summed on a `Residues` table keyed (i, k, j, l), as
    one-entry vectors {0: value}.  A term n(x_i x_j, x_k x_l) is reached
    from a constant at a of x_i x_j, a form entry n(a, b) and a product
    x_k x_l landing at b; it is the first term at (i, j, k, l) and the
    second at (k, j, i, l).  The left side of a violation is its residue
    plus the right side."""
    form = S.forms["n"]
    pairs_on = grouped((b, (k, l, c)) for (k, l), row in S.mul.items() for b, c in row.items())
    partners = grouped((a, (b, {0: c})) for (a, b), c in form.items())
    diff = Residues()
    for (i, j), row in S.mul.items():
        for a, ca in row.items():
            for b, nab in partners.get(a, ()):
                for k, l, cb in pairs_on.get(b, ()):
                    c = ca * cb
                    diff.add((i, k, j, l), c, nab)
                    diff.add((k, i, j, l), c, nab)
    for (i, k), c in form.items():
        for (j, l), d in form.items():
            diff.add((i, k, j, l), None, {0: -(c * d)})
    zero = S.field.zero
    return [
        ("norm_multiplicative", (i, j, k, l), repr(diff[(i, k, j, l)][0] + form.get((i, k), zero) * form.get((j, l), zero)))
        for i, k, j, l in diff.uncancelled()
    ]


def is_symmetric_composition(S) -> Report:
    """Exact check of the symmetric-composition laws on the basis closure:
    nonsingular polar form, multiplicativity of the norm (fully polarized),
    associativity of the polar form, n(x_i x_j, x_k) = n(x_i, x_j x_k), and
    the polarized two-sided identities
    (x_i x_j) x_k + (x_k x_j) x_i = n(x_i, x_k) x_j = x_i (x_j x_k) + x_k (x_j x_i).
    The count covers the n^4 + 3 n^3 identities on basis tuples.

    Like the norm, the last three are decided on `Residues` tables, keyed
    (i, j, k) and (i, k, j, left 0 / right 1), filled from the constants of
    each product x_p x_q: its form entries on either side, and its left and
    right products with basis vectors, each filed under every tuple whose
    identity holds that term."""
    n = S.dim
    form = S.forms["n"]
    viol = []
    if not _nonsingular(S):
        viol.append(("nonsingular", (), "polar form is singular"))
    viol += _norm_multiplicative(S)
    after = grouped((a, (k, {0: c})) for (a, k), c in form.items())  # n(x_a, x_k)
    before = grouped((a, (i, {0: -c})) for (i, a), c in form.items())  # -n(x_i, x_a)
    right = grouped((a, (k, row)) for (a, k), row in S.mul.items())  # x_a x_k
    left = grouped((a, (k, row)) for (k, a), row in S.mul.items())  # x_k x_a
    assoc, ident = Residues(), Residues()
    for (p, q), row in S.mul.items():
        for a, c in row.items():
            for k, r in after.get(a, ()):
                assoc.add((p, q, k), c, r)
            for i, r in before.get(a, ()):
                assoc.add((i, p, q), c, r)
            for k, r in right.get(a, ()):
                # (x_p x_q) x_k: left at (p, q, k) and at (k, q, p)
                ident.add((p, k, q, 0), c, r)
                ident.add((k, p, q, 0), c, r)
            for k, r in left.get(a, ()):
                # x_k (x_p x_q): right at (k, p, q) and at (q, p, k)
                ident.add((k, q, p, 1), c, r)
                ident.add((q, k, p, 1), c, r)
    for (i, k), c in form.items():
        for j in range(n):
            ident.add((i, k, j, 0), None, {j: -c})
            ident.add((i, k, j, 1), None, {j: -c})
    viol += [("polar_associative", key, "") for key in assoc.uncancelled()]
    viol += [(("left_identity", "right_identity")[f], (i, j, k), "") for i, k, j, f in ident.uncancelled()]
    return Report(viol, n ** 4 + 3 * n ** 3)


def is_hurwitz(A: HurwitzAlgebra) -> Report:
    """Unitality, fully polarized norm multiplicativity, and the standard
    involution laws, all exact.  The count covers the n^4 + n^2 + 3 n
    identities on basis tuples."""
    minus_one = A.field.scalar(-1)
    n = A.dim
    bas = [A.basis_vec(i) for i in range(n)]
    pol = lambda x, y: A.form_value("n", x, y)
    viol = []
    if not _nonsingular(A):
        viol.append(("nonsingular", (), ""))
    for i in range(n):
        if A.product(A.unit, bas[i]) != bas[i] or A.product(bas[i], A.unit) != bas[i]:
            viol.append(("unital", (i,), ""))
        xb = A.conj(bas[i])
        if A.conj(xb) != bas[i]:
            viol.append(("involutive", (i,), ""))
        for j in range(n):
            if pol(xb, A.conj(bas[j])) != pol(bas[i], bas[j]):
                viol.append(("norm_of_conjugate", (i, j), ""))
        expected = axpy(A.scale(pol(bas[i], A.unit), A.unit), minus_one, bas[i])
        if xb != expected:
            viol.append(("standard_involution", (i,), ""))
    viol += _norm_multiplicative(A)
    return Report(viol, n ** 4 + n * n + 3 * n)


# --------------------------------------------------------------- gradings


def cartan_grading_cayley(A: HurwitzAlgebra):
    """The Cartan Z^2-grading of the Zorn model: e1, e2 in degree 0,
    deg u1 = (1,0), deg u2 = (0,1), deg u3 = (-1,-1), deg v_i = -deg u_i."""
    if A.labels[:3] != ["e1", "e2", "u1"]:
        raise CompositionError("the Cartan grading lives on the Zorn basis")
    G = make_group(2)
    degs = [
        (0, 0), (0, 0),
        (1, 0), (0, 1), (-1, -1),
        (-1, 0), (0, -1), (1, 1),
    ]
    g = Grading(A, G, {"A": [G.element(d) for d in degs]})
    verify_grading(g).require(AssertionError, "Cartan grading")
    return g


def okubo_grading(S: SymCompAlgebra, sign: str):
    """The two Z_3^2 gradings of the Okubo algebra: deg X^a Y^b = (a, b)
    for "+", and with the two generators swapped for "-"."""
    if not hasattr(S, "monomial_keys"):
        raise CompositionError("the Okubo grading lives on the monomial basis")
    if sign not in ("+", "-"):
        raise CompositionError("sign must be '+' or '-'")
    G = make_group(0, [3, 3])
    degs = []
    for a, b in S.monomial_keys:
        degs.append(G.element((a, b) if sign == "+" else (b, a)))
    g = Grading(S, G, {"A": degs})
    verify_grading(g).require(AssertionError, "Okubo grading")
    return g
