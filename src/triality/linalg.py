"""Exact sparse linear algebra over a cyclotomic field.

Vectors are dicts {column index: CycloScalar}; a matrix is a list of such
rows.  Everything is deterministic: pivots are chosen as the smallest column
index, rows are processed in the order given.

An n x n matrix that is itself a vector (an element of End(S), say) is held
flat, {i*n + j: c}, the row format that Echelon reduces; `compose` multiplies
two of them, and `to_flat` converts a small dense matrix (a Gram matrix or
its inverse) to that form.  No sparse vector stores a zero entry.

`axpy(acc, a, x)` is the one accumulate step: acc += a x in place, with
cancelled entries dropped.  Every loop that adds multiples of stored sparse
rows (structure constants, column maps, cached images) goes through it; a
linear combination is `axpy` in a loop.  It is one plain loop over x, the
unscaled case included: a second loop for `a is None`, skipping the product
and the zero test of new entries, was within 0.4 % on every benchmark
workload (ten alternating pairs, inside the spread of its runs).  It is not a
generator kernel: the vectors here have one to three entries, and a
`collect(terms)` generator in the End_L(V) product and sigma made
`end_algebra` 1.4-1.6x slower.  `Echelon.reduce` and `insert` stay
written out; they are the inner loop of every elimination, and `axpy` in
`reduce` made the tri(S)-to-Brauer path 8-14 % slower (2-core VM, medians
of 3).  With `axpy` they are the only sums added by hand, and
`tests/test_hygiene.py` names any other.

`bilinear(table, x, y)` evaluates a sparse bilinear table {(i, j): {k: c}}:
every `StructAlgebra.product`, b_Q and the L-action of `CyclicAlgebra` (the
`L.act` table that `verify_grading` checks), and `trilie.apply_deltas`
(the table of the elementary operators of End_L(V) on V).  Where `axpy`
normalizes a scalar per term, it sums each output's terms with one
`CycloField.sum_products` (a dense Jordan product: ~1,800 terms, 27 sums).
`summed` is that step on its own, for products of two or three factors:
the sums whose output index is computed per term go through it (`compose`,
trilie's xi transform, the product and reversal of `CliffordEven`, the
central-scalar shift `EndAlgebraE.scale_l`), and
`albert.degree3_table` adds the terms of the degree-3 identity through it,
one sum per (basis triple, coordinate): 9,423 terms in 2,880 sums on the
Albert algebra.  A short sum costs more here than products added in
place: per call, in one process (2-core VM, best of 5), the L-action took
1.4-1.6x as long as the loop it replaced, `scale_l` (now a Clifford
product) 2.5x, the Clifford product 1.2x, `compose` and `apply_deltas`
1.1x, the xi transform and the reversal as long.  These sums are a small
share of every command.

`Residues` is the one way an identity on basis tuples is decided without
a dense loop over the tuples: `axpy` into one vector per tuple, from the
nonzero structure constants, and the tuples that do not cancel.  Its users
are the composition laws of `is_hurwitz` and `is_symmetric_composition`
(F-valued sides as one-entry vectors {0: c}), the polarized identities of
`verify_cyclic_axioms` (L-valued sides) and the involution of
`end_algebra`.  `grouped` builds the indexes
they are filled through: the products landing at an index, the form
entries at an index, the products with a given left or right factor.

`kernel(field, columns)` is the one kernel solver: every linear condition
of the package (the derivation identities of tri(S) and Der_L(V), the
eigenspaces of root_datum, L(E), the Clifford center, the idempotent cut,
the character units) is written as the sparse images of its unknowns, and
`kernel` transposes them into equations.  A caller that wants the kernel in
a basis applies `mat_vec` with the basis as a column map.  `null_space` is
its row form; only root_datum's Cartan candidate calls it directly, since
its conditions are already rows (one per off-diagonal position).

`Echelon.coordinates` is the one coordinate rule: every adapted basis of
the package (the basis of tri(S), the eigenspaces of root_datum, the
components of an induced grading or of a related algebra, an idempotent
cut) is the reduced rows of its span, and a vector of the span is read off
at their pivot columns.  Reduced rows have private pivot columns (no other
row has an entry there), so the entry of a vector at a row's pivot is its
coefficient on that row; one `reduce` to 0 certifies that the vector lies
in the span.
"""

from __future__ import annotations

from functools import reduce
from operator import mul


class Echelon:
    """Incremental reduced row echelon form over a field."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot col -> normalized row dict

    def reduce(self, vec: dict) -> dict:
        """Fully reduce vec against the current echelon (returns a new dict).

        The rows are in reduced row echelon form: no row has an entry in
        another row's pivot column.  So eliminating a pivot column changes
        no other pivot column, and the pivot columns of vec are eliminated
        in one pass, smallest first, each with its entry in vec.
        """
        v = {j: c for j, c in vec.items() if not c.is_zero()}
        piv_cols = [j for j in v if j in self.rows]
        if not piv_cols:
            return v
        for col in sorted(piv_cols):
            c = v.pop(col)
            for j, r in self.rows[col].items():
                if j == col:
                    continue
                t = v.get(j)
                t = -(c * r) if t is None else t - c * r
                if t.is_zero():
                    v.pop(j, None)
                else:
                    v[j] = t
        return v

    def insert(self, vec: dict) -> bool:
        """Reduce and insert; returns True if the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = v[piv].inverse()
        v = {j: c * inv for j, c in v.items()}
        for row in self.rows.values():
            c = row.get(piv)
            if c is not None:
                for j, r in v.items():
                    t = row.get(j)
                    t = -(c * r) if t is None else t - c * r
                    if t.is_zero():
                        row.pop(j, None)
                    else:
                        row[j] = t
        self.rows[piv] = v
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self):
        return [dict(self.rows[p]) for p in sorted(self.rows)]

    def coordinates(self, vec: dict):
        """{k: coefficient of basis()[k]} of vec, or None if vec is outside
        the span.  A reduced row is the only row with an entry in its pivot
        column, so the coefficients are the entries of vec there."""
        if self.reduce(vec):
            return None
        return {k: vec[p] for k, p in enumerate(sorted(self.rows)) if p in vec}

    def canonical(self):
        """Hashable canonical form of the row span."""
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            out.append(tuple((j, row[j]) for j in sorted(row)))
        return tuple(out)


def echelon_from(field, vectors) -> Echelon:
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech


def null_space(field, ncols, rows) -> list:
    """Basis of {x : row . x = 0 for every row}: one vector per free column,
    in ascending order, holding 1 there and minus the free column of each
    pivot row, pivots ascending.  It depends on the row span only, not on
    the order of the rows."""
    ech = Echelon(field)
    for r in rows:
        ech.insert(r)
    pivots = sorted(ech.rows)
    basis = []
    for f in range(ncols):
        if f in ech.rows:
            continue
        v = {f: field.one}
        for p in pivots:
            c = ech.rows[p].get(f)
            if c is not None:
                v[p] = -c
        basis.append(v)
    return basis


def kernel(field, columns) -> list:
    """Basis of {x : sum_j x_j columns[j] = 0}, as null_space returns it.
    columns[j] is the sparse image of the j-th unknown; its keys name the
    equations and may be any hashable."""
    rows = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return null_space(field, len(columns), list(rows.values()))


def invert_dense(field, mat):
    """Exact inverse of a small dense matrix (list of lists of scalars)."""
    n = len(mat)
    zero, one = field.zero, field.one
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise ArithmeticError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def axpy(acc: dict, a, x: dict) -> dict:
    """acc += a x in place, dropping entries that cancel; returns acc.
    a is None adds x unscaled."""
    for i, c in x.items():
        if a is not None:
            c = a * c
        t = acc.get(i)
        if t is not None:
            c = t + c
        if c.is_zero():
            acc.pop(i, None)
        else:
            acc[i] = c
    return acc


def bilinear(table: dict, x: dict, y: dict) -> dict:
    """The sum of x_i y_j table[(i, j)][k] e_k: the terms are grouped by k
    in first-appearance order and added by `summed`.  One entry in x and
    in y (basis products) takes a * b once for the whole row."""
    terms = {}
    for i, a in x.items():
        for j, b in y.items():
            row = table.get((i, j))
            if row:
                if len(x) == 1 == len(y):
                    ab = a * b
                    for k, c in row.items():
                        terms[k] = ab * c
                    return terms
                for k, c in row.items():
                    terms.setdefault(k, []).append((a, b, c))
    return summed(terms)


def summed(terms: dict) -> dict:
    """{key: the sum of the products of the scalar tuples (pairs or
    triples) of terms[key]}: a lone product is multiplied out, a longer sum
    is one `CycloField.sum_products`, and sums that cancel are dropped."""
    out = {}
    for key, t in terms.items():
        s = reduce(mul, t[0]) if len(t) == 1 else t[0][0].field.sum_products(t)
        if any(s.num):
            out[key] = s
    return out


class Residues(dict):
    """A sparse residue table {basis tuple: vector} for an identity checked
    on all basis tuples: the terms of both sides are added with opposite
    signs under the tuple they belong to.  The terms are reached from the
    nonzero structure constants only, so a tuple without an entry has both
    sides exactly 0; `uncancelled` lists the tuples where the identity
    fails."""

    def add(self, key, a, x: dict):
        axpy(self.setdefault(key, {}), a, x)

    def uncancelled(self) -> list:
        return sorted(key for key, acc in self.items() if acc)


def grouped(pairs) -> dict:
    """{key: [item, ...]} from (key, item) pairs, each list in the order of
    the pairs."""
    out = {}
    for key, item in pairs:
        out.setdefault(key, []).append(item)
    return out


def mat_vec(mat_cols, vec: dict) -> dict:
    """Apply a sparse column-map {j: {i: c}} to a sparse vector."""
    out = {}
    for j, a in vec.items():
        col = mat_cols.get(j)
        if col:
            axpy(out, a, col)
    return out


def compose(A: dict, B: dict, n: int) -> dict:
    """The product A B of two flat n x n matrices {i*n + j: c}: entry
    (i, j) is the `summed` products of row i of A with column j of B."""
    rows_b = {}
    for idx, b in B.items():
        rows_b.setdefault(idx // n, []).append((idx % n, b))
    terms = {}
    for idx, a in A.items():
        row_b = rows_b.get(idx % n)
        if row_b:
            base = idx - idx % n
            for j, b in row_b:
                terms.setdefault(base + j, []).append((a, b))
    return summed(terms)


def to_flat(M) -> dict:
    """The flat form {i*n + j: c} of a dense n x n matrix."""
    n = len(M)
    return {i * n + j: c for i, row in enumerate(M) for j, c in enumerate(row) if not c.is_zero()}
