"""The Albert algebra J(L, V) = L + V built from a rank-8 cyclic
composition algebra: cubic norm N, trace forms, adjoint, and the Jordan
product obtained by linearizing the adjoint,

    X o Y = 1/2 ( X x Y + T(X) Y + T(Y) X - (T(X)T(Y) - T(X,Y)) 1 ),

with X x Y = (X+Y)# - X# - Y# and (l, v)# = (l# - Q(v), v*v - l v).

The product table and the trace form are read off the tables of L and V,
not evaluated through # on basis pairs: X x Y is the polarized adjoint of
L, minus the L-action on V, or the symmetrized product and form of V, and
T(X, Y) is 3 times the coefficient of 1 in l l' + b_Q(v, w).  The tables
are not taken on faith: `albert` certifies them against two independent
oracles, agreement with the product of L on the subalgebra (l, 0) and the
generic degree-3 identity
X^3 - T(X) X^2 + S(X) X - N(X) 1 = 0.  The identity is cubic in X, so it
is decided for every X at once: each coefficient of its left side, one per
sorted basis triple, must vanish (`degree3_table`).
"""

from __future__ import annotations

import itertools
import math

from .grading import Grading, Report, StructAlgebra, VerificationError, verify_grading
from .linalg import axpy, grouped, summed


class AlbertError(VerificationError):
    pass


class AlbertAlgebra(StructAlgebra):
    """27-dimensional Jordan algebra on the basis (1, xi, xi^2) + tensor
    basis of V.  Elements are sparse dicts over indices 0..26; helper
    methods convert to and from (l, v) pairs."""

    def __init__(self, V):
        self.V = V
        self.L = V.L
        self.field = F = V.field
        labels = ["1", "xi", "xi^2"] + [f"v:{lab}" for lab in V.labels]
        mul, trace_form = self._build_tables(V)
        super().__init__(F, labels, mul, forms={"T": trace_form}, unit={0: F.one})

    # -- (l, v) pair helpers

    def pair(self, x):
        F = self.field
        l = [F.zero, F.zero, F.zero]
        v = {}
        for i, c in x.items():
            if i < 3:
                l[i] = c
            else:
                v[i - 3] = c
        return tuple(l), v

    def element(self, l, v):
        out = {}
        for k, c in enumerate(l):
            if not c.is_zero():
                out[k] = c
        for i, c in v.items():
            if not c.is_zero():
                out[i + 3] = c
        return out

    def trace_linear(self, x):
        """T((l, v)) = T_L(l) = 3 * (coefficient of 1 in l)."""
        c = x.get(0, self.field.zero)
        return self.field.scalar(3) * c

    def sharp(self, x):
        V, L = self.V, self.L
        F = self.field
        l, v = self.pair(x)
        q = V.quadratic(v)
        l_sharp = L.sharp(l)
        new_l = tuple(a - b for a, b in zip(l_sharp, q))
        new_v = axpy(V.product(v, v), F.scalar(-1), V.act(l, v))
        return self.element(new_l, new_v)

    def norm(self, x):
        """N((l, v)) = N(l) + b_Q(v, v*v) - T(l Q(v)), an F-scalar."""
        V, L = self.V, self.L
        l, v = self.pair(x)
        n_l = L.scalar_part(L.norm(l))
        middle = L.scalar_part(V.bform(v, V.product(v, v)))
        t_term = L.scalar_part(L.trace(L.mul(l, V.quadratic(v))))
        return n_l + middle - t_term

    def _build_tables(self, V):
        """J.mul and the trace form T, read off the tables of L and V.  On
        basis elements the cross product X x Y = (X+Y)# - X# - Y# is
        - (l x l', 0) for l, l' in L, l x l' = rho(l) rho^2(l') + rho(l') rho^2(l);
        - (0, -l v) for l in L and v in V (`V.act`);
        - (-1/2 (b_Q(v, w) + b_Q(w, v)), v*w + w*v) for v, w in V (`V.bq`,
          `V.mul`);
        T(e_a) is 3 at a = 0 only, and T(X, Y) = 3 (coefficient of 1 in
        l l' + b_Q(v, w)), as L's trace is 3 times the coefficient of 1."""
        F, L = V.field, V.L
        one, half, three = F.one, F.scalar(1, 2), F.scalar(3)
        lbasis = (L.one, L.xi, L.xi2)
        trace = [three] + [F.zero] * (2 + V.dim)
        tform = {(a, -a % 3): three for a in range(3)}
        for (i, j), row in V.bq.items():
            if 0 in row and not row[0].is_zero():
                tform[(3 + i, 3 + j)] = three * row[0]
        cross = {}
        for a in range(3):
            for b in range(a, 3):
                l_ab = L.add(L.mul(L.rho(lbasis[a]), L.rho(lbasis[b], 2)), L.mul(L.rho(lbasis[b]), L.rho(lbasis[a], 2)))
                cross[(a, b)] = {n: c for n, c in enumerate(l_ab) if not c.is_zero()}
            for i in range(V.dim):
                cross[(a, 3 + i)] = {3 + k: -c for k, c in V.act(lbasis[a], {i: one}).items()}
        for i in range(V.dim):
            for j in range(i, V.dim):
                row = axpy(axpy({}, -half, V.bq.get((i, j), {})), -half, V.bq.get((j, i), {}))
                for k, c in axpy(dict(V.mul.get((i, j), {})), None, V.mul.get((j, i), {})).items():
                    row[3 + k] = c
                cross[(3 + i, 3 + j)] = row
        # X o Y = 1/2 (X x Y + T(X) Y + T(Y) X - (T(X)T(Y) - T(X,Y)) 1), i <= j
        mul = {}
        for (i, j), row in cross.items():
            out = dict(row)
            axpy(out, trace[i], {j: one})
            axpy(out, trace[j], {i: one})
            axpy(out, tform.get((i, j), F.zero) - trace[i] * trace[j], {0: one})
            prod = axpy({}, half, out)
            if prod:
                mul[(i, j)] = prod
                if i != j:
                    mul[(j, i)] = dict(prod)
        return mul, tform


def albert(V) -> AlbertAlgebra:
    """Build J(L, V) and certify the product formula by its two oracles:
    the restriction to L is the product of L, and the generic degree-3
    identity holds exactly for every X (`verify_degree3`)."""
    J = AlbertAlgebra(V)
    F = J.field
    L = J.L
    # oracle 1: L is a subalgebra with its own product
    for a in range(3):
        for b in range(3):
            la = [F.zero] * 3
            lb = [F.zero] * 3
            la[a] = F.one
            lb[b] = F.one
            got = J.product(J.element(la, {}), J.element(lb, {}))
            expected = J.element(L.mul(tuple(la), tuple(lb)), {})
            if got != expected:
                raise AlbertError(f"restriction to L fails at ({a},{b})")
    # oracle 2: the generic degree-3 identity
    verify_degree3(J).require(AlbertError, "degree-3 identity")
    # V is the orthogonal complement of L for the trace form
    for a in range(3):
        for i in range(V.dim):
            if not (J.forms["T"].get((a, 3 + i), F.zero)).is_zero():
                raise AlbertError("V is not orthogonal to L under T")
    # unit sanity: T(1) = 3, 1# = 1, N(1) = 1
    one = J.unit
    if J.trace_linear(one) != F.scalar(3) or J.sharp(one) != one or J.norm(one) != F.one:
        raise AlbertError("unit data is wrong")
    return J


def degree3_table(J: AlbertAlgebra) -> dict:
    """The coefficients of the generic degree-3 identity

        P(X) = X^3 - T(X) X^2 + S(X) X - N(X) 1 = 0,
        S(X) = (T(X)^2 - T(X^2)) / 2,

    as {(i, j, k): coefficient vector of x_i x_j x_k in P(X)} over the
    sorted basis triples i <= j <= k where that vector is not 0.

    P is homogeneous cubic in X = sum x_i e_i, so P(X) is the sum of the
    table's vectors times their monomials, and the identity holds for
    every X exactly when the table is empty.  Every term is a product of
    nonzero constants and is reached from them:
    - X^3 = (X X) X from the rows of J.mul, X X summed on sorted pairs;
    - T(X) X^2 and S(X) X from the same X X, with T(e_i) as trace_linear
      reads it;
    - N(X) = N_L(l) + b_Q(v, v*v) - T_L(l Q(v)) from the inputs of
      `AlbertAlgebra.norm`: the product and rho of L, V.mul and V.bq (J
      index a is the xi^a coordinate of l, 3 + i the i-th of v).
    N(X) is summed as an element of L.  `norm` reads its F-part and
    requires the rest to vanish, so the xi and xi^2 parts are kept under
    the keys ("N", 1) and ("N", 2): a table on which N leaves F is not
    empty either.  The terms of each (triple, coordinate) are added at
    once by `linalg.summed`.
    """
    F, L, V = J.field, J.L, J.V
    one, half, minus_one = F.one, F.scalar(1, 2), F.scalar(-1)
    terms = {}

    def put(i, j, k, out, a, b, c=one):
        terms.setdefault((tuple(sorted((i, j, k))), out), []).append((a, b, c))

    # X^2 = sum over p <= q of x_p x_q square[(p, q)]
    square = {}
    for (p, q), row in J.mul.items():
        axpy(square.setdefault((min(p, q), max(p, q)), {}), None, row)
    by_left = grouped((p, (q, row)) for (p, q), row in J.mul.items())
    traces = {i: J.trace_linear({i: one}) for i in range(J.dim)}
    trace = {i: t for i, t in traces.items() if not t.is_zero()}
    s_terms = grouped(((min(p, q), max(p, q)), (half, t, u)) for p, t in trace.items() for q, u in trace.items())
    for (p, q), vec in square.items():
        for m, c in vec.items():
            for r, row in by_left.get(m, ()):
                for k, d in row.items():
                    put(p, q, r, k, c, d)
        for r, t in trace.items():
            for k, c in vec.items():
                put(p, q, r, k, minus_one, t, c)
        t_sq = J.trace_linear(vec)
        if not t_sq.is_zero():
            s_terms.setdefault((p, q), []).append((minus_one, half, t_sq))
    for (p, q), s in summed(s_terms).items():
        for r in range(J.dim):
            put(p, q, r, r, s, one)

    # - N(X) 1, the F-part at the unit e_0
    n_out = (0, ("N", 1), ("N", 2))
    lbasis = (L.one, L.xi, L.xi2)
    for a, b, c in itertools.product(range(3), repeat=3):
        n_abc = L.mul(L.mul(lbasis[a], L.rho(lbasis[b])), L.rho(lbasis[c], 2))
        for n, d in enumerate(n_abc):
            if not d.is_zero():
                put(a, b, c, n_out[n], minus_one, d)
    bq_by_right = grouped((m, (i, row)) for (i, m), row in V.bq.items())
    for (j, k), row in V.mul.items():
        for m, c in row.items():
            for i, brow in bq_by_right.get(m, ()):
                for n, d in brow.items():
                    put(3 + i, 3 + j, 3 + k, n_out[n], minus_one, c, d)
    trace_of_mul = {}
    for a, b in itertools.product(range(3), repeat=2):
        t_ab = L.trace(L.mul(lbasis[a], lbasis[b]))
        trace_of_mul[(a, b)] = [(n, d) for n, d in enumerate(t_ab) if not d.is_zero()]
    for (i, j), brow in V.bq.items():
        for b, c in brow.items():
            for a in range(3):
                for n, d in trace_of_mul[(a, b)]:
                    put(a, 3 + i, 3 + j, n_out[n], half, c, d)

    table = {}
    for (key, out), c in summed(terms).items():
        table.setdefault(key, {})[out] = c
    return table


def verify_degree3(J: AlbertAlgebra) -> Report:
    """The generic degree-3 identity for every X, decided on
    `degree3_table`: the violations are the sorted basis triples whose
    coefficient does not cancel, and the count is the C(n + 2, 3) sorted
    triples (3,654 for n = 27).  The table is kept as J.degree3, so a
    caller reads its samples off the table the decision was made on."""
    J.degree3 = degree3_table(J)
    return Report(sorted(J.degree3), math.comb(J.dim + 2, 3))


def degree3_residual(table: dict, x) -> dict:
    """P(x), read off a `degree3_table`: its vectors times the monomials
    x_i x_j x_k of x.  0 at every x when the table is empty."""
    out = {}
    for (i, j, k), vec in table.items():
        if i in x and j in x and k in x:
            axpy(out, x[i] * x[j] * x[k], vec)
    return out


def verify_jordan(J: AlbertAlgebra) -> Report:
    """Commutativity, unit, and the Jordan identity
    (X^2 o (Y o X)) = ((X^2 o Y) o X), exact on all basis pairs.  The count
    covers the n + 2 n^2 identities on basis tuples."""
    n = J.dim
    viol = []
    for i in range(n):
        x = J.basis_vec(i)
        if J.product(J.unit, x) != x:
            viol.append(("unit", i))
        x2 = J.product(x, x)
        for j in range(n):
            y = J.basis_vec(j)
            if J.product(x, y) != J.product(y, x):
                viol.append(("commutative", (i, j)))
            lhs = J.product(x2, J.product(y, x))
            rhs = J.product(J.product(x2, y), x)
            if lhs != rhs:
                viol.append(("jordan", (i, j)))
    return Report(viol, n + 2 * n * n)


def random_element(J: AlbertAlgebra, rng):
    out = {}
    for i in range(J.dim):
        c = rng.randint(-5, 5)
        if c:
            out[i] = J.field.scalar(c, rng.randint(1, 3))
    return out


def grade_albert(grading_V: Grading) -> Grading:
    """Extend a verified Type III grading on V to J = L + V with
    J_g = L_g + V_g; verified as a Jordan grading with the trace form
    degree-compatible."""
    V = grading_V.structure
    if not grading_V.verified:
        raise AlbertError("verify the V grading first")
    h = grading_V.degrees["L"][1]
    if h.order() != 3:
        raise AlbertError("grade_albert needs a Type III grading (deg xi of order 3)")
    J = albert(V)
    G = grading_V.group
    degs = list(grading_V.degrees["L"]) + list(grading_V.degrees["V"])
    g = Grading(J, G, {"A": degs})
    verify_grading(g).require(AlbertError, "Albert grading")
    return g
