import random

from hypothesis import example, given, settings, strategies as st

from triality.linalg import Echelon, axpy, bilinear, compose, echelon_from, kernel, mat_vec, to_flat
from triality.scalars import Rational, make_field

F = make_field(12)
W = F.omega
I4 = F.zeta(3)
# zero, rationals and non-rationals of Q(zeta12), each with its negative,
# so that sums of products cancel often
POOL = [F.zero, F.one, -F.one, F.scalar(2), F.scalar(-1, 3), W, -W, W * W, -(W * W), I4, -I4, W + I4, -(W + I4)]


def schoolbook(A, B):
    """Dense product of two square lists of lists, summing every term."""
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), F.zero) for j in range(n)] for i in range(n)]


@st.composite
def square_pair(draw):
    n = draw(st.integers(1, 5))
    pick = st.lists(st.sampled_from(POOL), min_size=n * n, max_size=n * n)
    return [[x[i * n:(i + 1) * n] for i in range(n)] for x in (draw(pick), draw(pick))]


@settings(max_examples=150, deadline=None)
@given(square_pair())
def test_compose_against_schoolbook(pair):
    A, B = pair
    n = len(A)
    flat_a = {i * n + j: c for i in range(n) for j in range(n) if not (c := A[i][j]).is_zero()}
    flat_b = {i * n + j: c for i in range(n) for j in range(n) if not (c := B[i][j]).is_zero()}
    out = compose(flat_a, flat_b, n)
    ref = schoolbook(A, B)
    assert all(not c.is_zero() for c in out.values())
    assert out == {i * n + j: ref[i][j] for i in range(n) for j in range(n) if not ref[i][j].is_zero()}
    assert to_flat(A) == flat_a


def test_compose_cancels_to_empty():
    # (1 1; 0 0) (w; -w) = 0: the two products cancel and nothing is stored
    A = {0: F.one, 1: F.one}
    B = {0: W, 2: -W}
    assert compose(A, B, 2) == {}
    assert compose({}, B, 2) == {}


@st.composite
def coordinates_case(draw):
    """Sparse rows on columns 0..n-1 and one drawn coefficient per row."""
    n = draw(st.integers(1, 8))
    sparse = st.dictionaries(st.integers(0, n - 1), st.sampled_from(POOL), max_size=n)
    rows = draw(st.lists(sparse, max_size=n))
    return n, rows, draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(coordinates_case())
@example((3, [{0: F.one, 2: W}, {1: F.one, 2: F.one}], [F.scalar(2), -W, F.zero]))
def test_coordinates_round_trip(case):
    # a combination of the reduced rows reads back its coefficients; a
    # vector with an entry on a column that no row touches is outside
    n, rows, coeffs = case
    ech = echelon_from(F, rows)
    combo = {}
    for a, row in zip(coeffs, ech.basis()):
        axpy(combo, a, row)
    assert ech.coordinates(combo) == {k: a for k, a in enumerate(coeffs[:ech.rank]) if not a.is_zero()}
    assert ech.coordinates({}) == {}
    assert ech.coordinates(axpy(dict(combo), W, {n: F.one})) is None
    if ech.rank < n:
        free = min(set(range(n)) - set(ech.rows))
        assert ech.coordinates({free: F.one}) is None


def rescanning_reduce(ech, vec):
    """Echelon.reduce as a loop that rescans the vector for its smallest
    pivot column after every elimination: the reference for the one-pass
    reduce."""
    v = {j: c for j, c in vec.items() if not c.is_zero()}
    while True:
        piv_cols = [c for c in v if c in ech.rows]
        if not piv_cols:
            return v
        col = min(piv_cols)
        c = v.pop(col)
        for j, r in ech.rows[col].items():
            if j == col:
                continue
            t = v.get(j)
            t = -(c * r) if t is None else t - c * r
            if t.is_zero():
                v.pop(j, None)
            else:
                v[j] = t


@st.composite
def reduce_case(draw):
    """Sparse rows inserted into an Echelon, and a sparse vector whose keys
    come in a drawn order, some of its values zero."""
    n = draw(st.integers(1, 8))
    sparse = st.dictionaries(st.integers(0, n - 1), st.sampled_from(POOL), max_size=n)
    rows = draw(st.lists(sparse, max_size=n))
    return rows, draw(sparse)


@settings(max_examples=300, deadline=None)
@given(reduce_case())
# pivot columns 1 and 0 in that key order, each row bringing a new column:
# the columns that elimination adds come in pivot order
@example(([{0: F.one, 2: W}, {1: F.one, 3: I4}], {1: F.one, 0: W}))
def test_reduce_equals_rescanning_loop(case):
    rows, vec = case
    ech = echelon_from(F, rows)
    out = ech.reduce(vec)
    assert list(out.items()) == list(rescanning_reduce(ech, vec).items())
    assert not set(out) & set(ech.rows)
    assert ech.contains(vec) == (not out)


def dense_axpy(acc, a, x, n):
    """acc + a x entry by entry over all n columns, zeros dropped."""
    s = F.one if a is None else a
    dense = [acc.get(i, F.zero) + s * x.get(i, F.zero) for i in range(n)]
    return {i: c for i, c in enumerate(dense) if not c.is_zero()}


@st.composite
def axpy_case(draw):
    n = draw(st.integers(1, 6))
    sparse = st.lists(st.sampled_from(POOL), min_size=n, max_size=n).map(
        lambda cs: {i: c for i, c in enumerate(cs) if not c.is_zero()}
    )
    return n, draw(sparse), draw(st.one_of(st.none(), st.sampled_from(POOL))), draw(sparse)


@settings(max_examples=200, deadline=None)
@given(axpy_case())
def test_axpy_against_dense(case):
    n, acc, a, x = case
    expected = dense_axpy(acc, a, x, n)
    x_before = dict(x)
    assert axpy(acc, a, x) is acc
    assert acc == expected
    assert all(not c.is_zero() for c in acc.values())
    assert x == x_before


def test_axpy_cancels_to_empty():
    x = {0: W, 3: I4}
    acc = {0: -W, 3: -I4}
    assert axpy(acc, None, x) == {}
    acc = {0: -(W * W), 3: -(W * I4)}
    assert axpy(acc, W, x) == {}
    acc = {1: F.one}
    assert axpy(acc, F.zero, x) == {1: F.one}


@st.composite
def kernel_case(draw):
    """Sparse columns keyed by tuple equation names (shift, index), and the
    dense matrix they form."""
    ncols = draw(st.integers(1, 6))
    keys = [(k % 2, k // 2) for k in range(draw(st.integers(1, 5)))]
    dense = [draw(st.lists(st.sampled_from(POOL), min_size=len(keys), max_size=len(keys))) for _ in range(ncols)]
    return [{key: c for key, c in zip(keys, col) if not c.is_zero()} for col in dense], dense


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_kernel_of_columns(case):
    columns, dense = case
    ncols = len(columns)
    ech = Echelon(F)
    for r in range(len(dense[0])):
        ech.insert({j: col[r] for j, col in enumerate(dense) if not col[r].is_zero()})
    sols = kernel(F, columns)
    assert all(mat_vec(dict(enumerate(columns)), v) == {} for v in sols)
    assert len(sols) == ncols - ech.rank
    assert echelon_from(F, sols).rank == len(sols)
    assert all(not c.is_zero() for v in sols for c in v.values())
    # the basis does not depend on the order of the equations, dict order included
    reordered = kernel(F, [dict(reversed(col.items())) for col in columns])
    assert [list(v.items()) for v in reordered] == [list(v.items()) for v in sols]


def test_kernel_of_empty_columns():
    assert kernel(F, []) == []
    assert kernel(F, [{}, {("x", 1): W}, {}]) == [{0: F.one}, {2: F.one}]


def scalar_loop(table, x, y):
    """The structure-constant product as a loop of scalar products and sums,
    each normalized on its own: the reference for `bilinear`."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            row = table.get((i, j))
            if row:
                axpy(out, a * b, row)
    return out


@st.composite
def scalar_of(draw, G):
    """A nonzero scalar of G: rational or not, with denominators above 1."""
    num = st.integers(-3, 3)
    den = st.integers(1, 4)
    if draw(st.booleans()):
        c = G.scalar(draw(num.filter(bool)), draw(den))
    else:
        c = G.element([Rational(draw(num), draw(den)) for _ in range(G.degree)])
    return c if not c.is_zero() else G.one


@st.composite
def bilinear_case(draw):
    """A sparse table on a few indices, two sparse vectors, and the field;
    each value is drawn from a short list, and with its negative, so that
    sums cancel often."""
    G = make_field(draw(st.sampled_from([3, 12, 24])))
    pool = draw(st.lists(scalar_of(G), min_size=1, max_size=3))
    pool += [-c for c in pool]
    value = st.sampled_from(pool)
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    table = draw(st.dictionaries(st.tuples(idx, idx), st.dictionaries(idx, value, min_size=1, max_size=n), max_size=n * n))
    vec = st.dictionaries(idx, value, max_size=n)
    return table, draw(vec), draw(vec)


@settings(max_examples=300, deadline=None)
@given(bilinear_case())
def test_bilinear_against_scalar_loop(case):
    table, x, y = case
    out = bilinear(table, x, y)
    assert out == scalar_loop(table, x, y)
    assert all(not c.is_zero() for c in out.values())


def test_bilinear_single_entries_and_cancellation():
    half, third = F.scalar(1, 2), F.scalar(-1, 3)
    table = {(0, 0): {0: W, 1: half}, (1, 0): {0: -W, 2: third}, (0, 1): {1: I4}}
    # one entry in each operand: every output is a lone term
    assert bilinear(table, {0: third}, {0: W}) == {0: third * W * W, 1: third * W * half}
    assert bilinear(table, {1: W}, {1: W}) == {}
    # x_0 = x_1 cancels output 0 and keeps output 2
    x = {0: W + half, 1: W + half}
    assert bilinear(table, x, {0: I4}) == {1: (W + half) * I4 * half, 2: (W + half) * I4 * third}
    # the two terms of output 1 cancel as well: the product is empty
    table[(1, 0)] = {0: -W, 1: -half}
    assert bilinear(table, x, {0: I4}) == {}
    assert bilinear(table, {}, {0: I4}) == {}


def test_bform_against_scalar_loop(mod):
    rng = random.Random(5)
    for name in ("V_zorn", "V_okubo"):
        V = mod[name]
        zero = V.field.zero
        pool = [F.scalar(1, 2), F.scalar(-3), W, F.scalar(2, 3) * I4 + W, -F.one]
        for _ in range(20):
            x = {i: rng.choice(pool) for i in rng.sample(range(V.dim), rng.randint(1, V.dim))}
            y = {i: rng.choice(pool) for i in rng.sample(range(V.dim), rng.randint(1, 3))}
            ref = scalar_loop(V.bq, x, y)
            assert V.bform(x, y) == tuple(ref.get(k, zero) for k in range(3))
