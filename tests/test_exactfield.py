import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recollab import exactfield
from recollab.errors import DimensionMismatch, FieldMismatch
from recollab.exactfield import (
    GF,
    QQ,
    Matrix,
    _descend,
    _restrict,
    check_same_field,
    combine_rows,
    express_in_row_basis,
    field_tag_str,
    kernel_basis,
    kron,
    linear_combination,
    parse_field,
    quotient_map,
    rank,
    row_space_basis,
    rref,
    solve,
    solve_matrix,
    sparse_rank,
    subspace_equal,
    sylvester_rows,
    unit_vector,
)

F5 = GF(5)


def naive_rank(rows, p=None):
    """Independent oracle: plain fraction/modular elimination, no pivot rule shared."""
    rows = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    rk = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = None
        for i in range(rk, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        pv = rows[rk][c]
        inv = (1 / pv) if p is None else pow(pv, p - 2, p)
        rows[rk] = [x * inv if p is None else (x * inv) % p for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b if p is None else (a - f * b) % p
                           for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def test_rank_identity():
    assert rank(Matrix.identity(QQ, 3)) == 3


def test_rank_zero_matrix():
    assert rank(Matrix.zeros(QQ, 2, 5)) == 0


def test_rank_proportional_rows():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_of_identity_is_empty():
    k = kernel_basis(Matrix.identity(QQ, 4))
    assert k.ncols == 0 and k.nrows == 4


def test_kernel_normalisation_1xn():
    k = kernel_basis(Matrix(QQ, [[1, -1]]))
    assert k.ncols == 1
    assert k.col(0) == (Fraction(1), Fraction(1))


def test_kernel_random_6x9_over_f5():
    rng = random.Random(20240)
    rows = [[rng.randrange(5) for _ in range(9)] for _ in range(6)]
    m = Matrix(F5, rows)
    k = kernel_basis(m)
    assert k.ncols == 9 - rank(m)
    # independent re-elimination
    assert rank(m) == naive_rank(rows, p=5)
    assert m.mul(k).is_zero()


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    assert solve(m, [1, 2, 3]) == (Fraction(1), Fraction(2), Fraction(3))


def test_solve_free_variable_zero_rule():
    assert solve(Matrix(QQ, [[1, 1]]), [2]) == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    assert solve(Matrix(QQ, [[1], [1]]), [0, 1]) is None


def test_subspace_equal_cases():
    u = Matrix(QQ, [[1, 0]], ncols=2).transpose()
    v = Matrix(QQ, [[0, 1]], ncols=2).transpose()
    assert subspace_equal(u, u)
    assert not subspace_equal(u, v)
    w = Matrix(QQ, [[1, 1], [1, -1]], ncols=2).transpose()
    assert subspace_equal(w, Matrix.identity(QQ, 2))


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_rank_nullity_and_transpose_sweep(field, p):
    rng = random.Random(7)
    for trial in range(25):
        nr, nc = rng.randrange(0, 6), rng.randrange(0, 6)
        rows = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) if p is None
                 else rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
        m = Matrix(field, rows, ncols=nc)
        r = rank(m)
        k = kernel_basis(m)
        assert r + k.ncols == nc
        assert m.mul(k).is_zero()
        assert r == rank(m.transpose())
        if nr and nc:
            assert r == naive_rank(rows, p=p)


def test_solve_exactness_sweep():
    rng = random.Random(99)
    for trial in range(20):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        m = Matrix(QQ, [[rng.randrange(-2, 3) for _ in range(nc)] for _ in range(nr)])
        x0 = [Fraction(rng.randrange(-2, 3)) for _ in range(nc)]
        b = [sum(m.entry(i, j) * x0[j] for j in range(nc)) for i in range(nr)]
        x = solve(m, b)
        assert x is not None
        got = [sum(m.entry(i, j) * x[j] for j in range(nc)) for i in range(nr)]
        assert got == b


def test_determinism_bit_for_bit():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
    a = Matrix(QQ, rows)
    b = Matrix(QQ, rows)
    assert rref(a)[0] == rref(b)[0]
    assert kernel_basis(a) == kernel_basis(b)
    assert a.content_hash() == b.content_hash()


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        Matrix(QQ, [[1]]).mul(Matrix(F5, [[1]]))
    with pytest.raises(FieldMismatch):
        subspace_equal(Matrix(QQ, [[1]]), Matrix(F5, [[1]]))
    with pytest.raises(FieldMismatch):
        check_same_field(QQ, F5)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        solve(Matrix(QQ, [[1, 2]]), [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1]]).mul(Matrix(QQ, [[1], [2]]))


def test_prime_field_reduction_and_inverse():
    f7 = GF(7)
    assert f7.coerce(10) == 3
    assert f7.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert f7.coerce(f7.coerce(Fraction(1, 2)) * 2) == 1


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_parse_field_tags():
    assert parse_field("Q") == QQ
    assert parse_field("Fp:5") == F5
    with pytest.raises(ValueError):
        parse_field("R")


def test_matmul_fast_path_matches_generic():
    rng = random.Random(5)
    a = Matrix(QQ, [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)])
    b = Matrix(QQ, [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(2)]
                    for _ in range(4)])
    # generic product (b has denominators, a is integral -> mixed paths agree)
    prod = a.mul(b)
    expected = [[sum(a.entry(i, k) * b.entry(k, j) for k in range(4)) for j in range(2)]
                for i in range(3)]
    assert prod.rows == tuple(tuple(r) for r in expected)


def test_solve_matrix_and_row_basis():
    m = Matrix(QQ, [[1, 0], [1, 1], [0, 1]])
    B = Matrix(QQ, [[2, 0], [3, 1], [1, 1]])
    X = solve_matrix(m, B)
    assert m.mul(X) == B


def test_empty_shapes():
    e = Matrix(QQ, [], ncols=3)
    assert rank(e) == 0
    assert kernel_basis(e).ncols == 3  # kernel of 0xn map is everything
    z = Matrix(QQ, [[], []], ncols=0)
    assert rank(z) == 0
    assert kernel_basis(z).ncols == 0


def test_sparse_rank_matches_dense():
    # shapes up to 30 x 40, where a column reduces over several pivots
    rng = random.Random(31)
    for field, p in ((QQ, None), (F5, 5)):
        for trial in range(40):
            nr, nc = rng.randrange(1, 31), rng.randrange(1, 41)
            rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(nc)] for _ in range(nr)]
            m = Matrix(field, rows)
            cols = []
            for j in range(nc):
                col = {i: rows[i][j] for i in range(nr) if rows[i][j]}
                cols.append(col)
            assert sparse_rank(cols, field) == rank(m)


def _int_rows(rng, nr, nc):
    return [[rng.randrange(-2, 3) for _ in range(nc)] for _ in range(nr)]


@pytest.mark.parametrize("field", [QQ, F5])
def test_sylvester_rows_match_kron_oracle(field):
    rng = random.Random(404)
    for trial in range(12):
        na, nb = rng.randrange(1, 5), rng.randrange(1, 5)
        ints = [(_int_rows(rng, na, na), _int_rows(rng, nb, nb))
                for _ in range(rng.randrange(1, 4))]
        pairs = [(Matrix(field, a), Matrix(field, b)) for a, b in ints]
        oracle = np.vstack([np.kron(np.array(a), np.eye(nb, dtype=int))
                            - np.kron(np.eye(na, dtype=int), np.array(b))
                            for a, b in ints])
        got = Matrix(field, sylvester_rows(pairs), ncols=na * nb)
        assert got == Matrix(field, oracle.tolist(), ncols=na * nb)


def _sequential_projection(m, vec):
    """The reduce-then-read-free-coordinates loop that quotient_map replaced,
    kept only as the reference."""
    f = m.field
    R, pivots = rref(m)
    v = list(vec)
    for i, pc in enumerate(pivots):
        c = v[pc]
        if c:
            v = [f.coerce(a - c * b) for a, b in zip(v, R.rows[i])]
    return [v[j] for j in range(m.ncols) if j not in pivots]


@pytest.mark.parametrize("field", [QQ, F5])
def test_quotient_map_properties(field):
    rng = random.Random(505)
    for trial in range(25):
        n, k = rng.randrange(1, 8), rng.randrange(0, 5)
        # a product through k dimensions, so the row space is often proper
        m = Matrix(field, _int_rows(rng, rng.randrange(0, 6), k), ncols=k).mul(
            Matrix(field, _int_rows(rng, k, n), ncols=n))
        P, free = quotient_map(m)
        q = len(free)
        assert (P.nrows, P.ncols) == (n, q)
        assert m.mul(P).is_zero()
        assert P.take_rows(free) == Matrix.identity(field, q)
        assert rank(P) == n - rank(m)
        assert P == kernel_basis(m)
        for _ in range(3):
            vec = [field.coerce(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
                   if field == QQ else field.coerce(rng.randrange(5)) for _ in range(n)]
            expected = _sequential_projection(m, vec)
            assert combine_rows(P, enumerate(vec)) == tuple(expected)
            assert list(Matrix(field, [vec]).mul(P).row(0)) == expected


@pytest.mark.parametrize("field", [QQ, F5])
def test_linear_combination_and_unit_vector(field):
    rng = random.Random(606)
    mats = [Matrix(field, _int_rows(rng, 2, 3)) for _ in range(3)]
    coeffs = [field.coerce(c) for c in (2, 0, -1)]
    expected = mats[0].scale(coeffs[0]).add(mats[2].scale(coeffs[2]))
    assert linear_combination(coeffs, mats, field, 2, 3) == expected
    assert linear_combination([0] * 3, mats, field, 2, 3) == Matrix.zeros(field, 2, 3)
    # a unit vector gives the matrix itself, and every combination the sum
    for j in range(3):
        assert linear_combination(unit_vector(3, j), mats, field, 2, 3) is mats[j]
    for combo in itertools.product([0, 1, 2, -1, Fraction(1, 2)], repeat=3):
        coeffs = [field.coerce(c) for c in combo]
        want = Matrix.zeros(field, 2, 3)
        for c, m in zip(coeffs, mats):
            want = want.add(m.scale(c))
        assert linear_combination(coeffs, mats, field, 2, 3) == want
    assert unit_vector(3, 1) == (0, 1, 0)
    for n in range(7):
        for i in range(n):
            v = unit_vector(n, i)
            assert v == tuple(1 if k == i else 0 for k in range(n))
            assert type(v) is tuple and {*map(type, v)} == {int}


# --------------------------------------------------------------------------
# Randomised oracle: rref, rank, kernel_basis, solve and solve_matrix against
# sympy's DomainMatrix, over Q and over F_7, on the same 1000 shapes.
# --------------------------------------------------------------------------

ORACLE_SHAPES = 250     # per kind of entries; four kinds
BIG = 2**31


def _oracle_rows(rng, kind, nr, nc):
    """Rational entries of one kind: small ints, fractions, all-int rows mixed
    with fraction rows, or ints and fractions of 2^31 and more."""
    def small():
        return rng.choice((0, 0, 0, 1, -1, rng.randrange(-3, 4)))

    # denominators prime to 7, so that every case also lives over F_7
    def frac():
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 7))

    big_fracs = rng.random() < 0.5     # else all ints, for matmul's object path

    def big():
        x = rng.choice((0, 1, -1, BIG + rng.randrange(2**40), -(BIG * rng.randrange(1, 2**20))))
        return Fraction(x, 2 ** rng.randrange(1, 40)) if big_fracs and rng.random() < 0.2 else x

    rows = []
    for _ in range(nr):
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            rows.append([small() for _ in range(nc)])
        elif kind == "big":
            rows.append([big() for _ in range(nc)])
        else:
            rows.append([frac() if rng.random() < 0.6 else small() for _ in range(nc)])
    if nr > 1 and rng.random() < 0.5:    # a dependent row, so ranks drop
        c = rng.choice((2, -1, Fraction(1, 3)))
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1])]
    return rows


def _oracle_cases(kind, seed):
    rng = random.Random(seed)
    for _ in range(ORACLE_SHAPES):
        nr, nc = rng.randrange(1, 8), rng.randrange(1, 9)
        yield rng, _oracle_rows(rng, kind, nr, nc)


def _sympy(field):
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF as SGF, QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    dom = SQQ if field == QQ else SGF(field.p)

    def to_dm(rows, nc):
        ents = [[dom(x.numerator, x.denominator) if field == QQ else dom(field.coerce(x))
                 for x in r] for r in rows]
        return DomainMatrix(ents, (len(rows), nc), dom)

    def back(x):
        return Fraction(int(x.numerator), int(x.denominator)) if field == QQ \
            else int(x) % field.p
    return to_dm, back


def _is_canonical(x, field=QQ):
    """A reduced scalar: over Q an int, or a Fraction that is not integral;
    over F_p an int in range(p)."""
    if field == QQ:
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    return type(x) is int and 0 <= x < field.p


def _assert_canonical(field, *items):
    """Every entry of each Matrix, or of each tuple of scalars, is reduced."""
    for m in items:
        rows = m.rows if isinstance(m, Matrix) else (m,)
        assert all(_is_canonical(x, field) for r in rows for x in r), rows


F7 = GF(7)


@pytest.mark.parametrize("kind", ["int", "frac", "mixed", "big"])
@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_kernels_match_sympy(field, kind):
    to_dm, back = _sympy(field)
    seed = {"int": 1, "frac": 2, "mixed": 3, "big": 4}[kind]
    for rng, rows in _oracle_cases(kind, seed):
        nr, nc = len(rows), len(rows[0])
        m = Matrix(field, rows)
        dm = to_dm(m.rows, nc)
        R_s, piv_s = dm.rref()
        R, piv = rref(m)
        assert piv == tuple(piv_s)
        assert R.rows == tuple(tuple(back(x) for x in r) for r in R_s.to_list())
        assert rank(m) == dm.rank() == len(piv)
        # sympy's null space basis, scaled to 1 at its free column
        free = [j for j in range(nc) if j not in piv]
        K = kernel_basis(m)
        assert K.transpose().rows == tuple(tuple(back(x / r[j]) for x in r)
                                           for r, j in zip(dm.nullspace().to_list(), free))
        # solve: a consistent rhs (m x0) and a random one
        x0 = [field.coerce(rng.randrange(-3, 4)) for _ in range(nc)]
        for b in (m.mul(Matrix(field, [x0], ncols=nc).transpose()).col(0),
                  [field.coerce(rng.randrange(-3, 4)) for _ in range(nr)]):
            x = solve(m, b)
            aug = to_dm([list(r) + [bi] for r, bi in zip(m.rows, b)], nc + 1)
            if aug.rank() > dm.rank():
                assert x is None
                continue
            assert m.mul(Matrix(field, [x], ncols=nc).transpose()).col(0) == tuple(b)
            assert all(x[j] == 0 for j in free)
            _assert_canonical(field, x)
        B = Matrix(field, [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(nc)])
        X = solve_matrix(m, m.mul(B))
        assert m.mul(X) == m.mul(B)
        assert X.submatrix(free, range(2)).is_zero()
        _assert_canonical(field, R, K, X)


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_matmul_matches_sympy_on_both_numpy_paths(field):
    to_dm, back = _sympy(field)
    rng = random.Random(8)
    for kind in ("int", "frac", "big"):
        for _, rows in _oracle_cases(kind, 10 + len(kind)):
            a = Matrix(field, rows)
            b = Matrix(field, _oracle_rows(rng, kind, a.ncols, rng.randrange(1, 6)))
            expected = (to_dm(a.rows, a.ncols) * to_dm(b.rows, b.ncols)).to_list()
            prod = a.mul(b)
            assert prod.rows == tuple(tuple(back(x) for x in r) for r in expected)
            _assert_canonical(field, prod)


def test_rational_scalars_are_canonical():
    assert type(QQ.coerce(Fraction(4, 2))) is int and QQ.coerce(Fraction(4, 2)) == 2
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.coerce("6/3")) is int and type(QQ.coerce("-1/2")) is Fraction
    half = Fraction(1, 2)
    for x in (half + half, half - half, half * half, half + 3, half - 3, half * 3):
        assert _is_canonical(QQ.coerce(x))
    assert type(QQ.coerce(half + half)) is int
    # str, == and hash agree between n and Fraction(n)
    for n in (0, 1, -7, 2**70):
        assert str(n) == str(Fraction(n)) and n == Fraction(n)
        assert hash(n) == hash(Fraction(n))


@pytest.mark.parametrize("field", [QQ, F7, GF(2**31 - 1)], ids=["Q", "F7", "F31bit"])
def test_matrix_rows_of_every_scalar_type_are_reduced(field):
    """Matrix takes exact-int rows as they are over Q and reduces them by
    `% p` over F_p; rows of bool, Fraction or str go through `coerce`, alone
    or mixed with int rows, and the result is the same as coercing each
    entry."""
    third = Fraction(1, 3)
    rows = [[True, False, True], [Fraction(4, 2), third, -third], ["6/3", "-1/2", "7"],
            [10, -3, 2**70], [0, 1, 6], [True, 2, third], ["2", 5, Fraction(9, 3)]]
    for pick in ([0], [1], [2], [3], [4], [3, 4], [0, 3], [1, 4], [2, 3], [5], [6],
                 list(range(len(rows)))):
        sub = [rows[i] for i in pick]
        m = Matrix(field, sub)
        assert m.rows == tuple(tuple(map(field.coerce, r)) for r in sub)
        assert Matrix(field, (iter(r) for r in sub)) == m
        _assert_canonical(field, m)
    # a canonical int row is kept as the same tuple over Q
    row = (0, -5, 2**70)
    assert Matrix(QQ, [row]).rows[0] is row
    with pytest.raises(DimensionMismatch):
        Matrix(field, [[1, 2], [Fraction(1, 2)]])
    with pytest.raises(TypeError):
        Matrix(field, [[1, 2.5]])


def test_combinations_and_products_return_canonical_scalars():
    half = Fraction(1, 2)
    mats = [Matrix(QQ, [[half, 1], [0, Fraction(3, 2)]]), Matrix(QQ, [[half, 2], [1, half]])]
    lc = linear_combination([2, 1], mats, QQ, 2, 2)
    assert lc == Matrix(QQ, [[Fraction(3, 2), 4], [1, Fraction(7, 2)]])
    _assert_canonical(QQ, lc, mats[0].mul(mats[1]),
                      mats[0].mul(Matrix(QQ, [[2, 0], [0, 2]])))
    assert type(mats[0].mul(Matrix(QQ, [[2, 0], [0, 2]])).entry(0, 0)) is int


# over Q: ints, non-integral fractions, and ints and fractions whose products
# are integral (Fraction(3, 2) * Fraction(2, 3) is Fraction(1, 1)); over
# F_p for p = 2, 7 and a 31-bit prime, whose products take `mul`'s Python path
_KERNEL_FIELDS = (QQ, GF(2), GF(7), GF(2**31 - 1))
_Q_SCALARS = st.one_of(st.integers(-3, 3), st.sampled_from([2, -4, 6, 2**40]),
                       st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
                                        Fraction(-1, 3), Fraction(5, 4)]))


@st.composite
def _kernel_inputs(draw):
    field = draw(st.sampled_from(_KERNEL_FIELDS))
    scalar = (_Q_SCALARS if field == QQ
              else st.integers(0, field.p - 1) | st.sampled_from([1, field.p - 1]))

    def mat(nr, nc):
        rows = draw(st.lists(st.lists(scalar, min_size=nc, max_size=nc),
                             min_size=nr, max_size=nr))
        return Matrix(field, rows, ncols=nc)

    nr, nc, k = (draw(st.integers(0, 4)) for _ in range(3))
    mats = dict(a=mat(nr, nc), b=mat(nc, k), c=mat(nr, nc), d=mat(k % 3, nr % 3),
                x=mat(k, nr), y=mat(k, nc), B=mat(nr, k))
    return field, mats, draw(scalar), [draw(scalar) for _ in range(nr)], \
        [draw(scalar) for _ in range(2)]


def _assert_as_built_at_the_boundary(field, out):
    """`out` (a Matrix, or a tuple of scalars as one row) equals what the
    validating constructor makes of its rows, row for row and type for type."""
    if not isinstance(out, Matrix):
        assert type(out) is tuple
        out = Matrix._of(field, (out,), len(out))
    ref = Matrix(field, out.rows, ncols=out.ncols)
    assert (ref.nrows, ref.ncols) == (out.nrows, out.ncols)
    assert type(out.rows) is tuple
    assert all(type(r) is tuple and len(r) == out.ncols for r in out.rows)
    assert [[(type(x), x) for x in r] for r in out.rows] == \
        [[(type(x), x) for x in r] for r in ref.rows]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_kernel_inputs())
def test_kernel_outputs_are_what_the_validating_constructor_makes(case):
    """Every kernel hands back rows already reduced into the field, so the
    kernels that build their results with `Matrix._of` store no scalar the
    boundary constructor `Matrix(...)` would have changed: shapes with 0 rows
    and 0 columns, consistent and inconsistent systems."""
    field, m, s, vec, coeffs = case
    a, b, c, x, y, B = m["a"], m["b"], m["c"], m["x"], m["y"], m["B"]
    outs = [a.mul(b), x.mul(a), a.add(c), a.sub(c), a.neg(), a.scale(s), a.transpose(),
            kron(a, m["d"]), kron(m["d"], b),
            linear_combination(coeffs, [a, c], field, a.nrows, a.ncols),
            combine_rows(a, enumerate(vec)), rref(a)[0], quotient_map(a)[0],
            kernel_basis(a), row_space_basis(a), solve_matrix(a, a.mul(b)),
            solve_matrix(a, B), express_in_row_basis(a, x.mul(a)),
            express_in_row_basis(a, y)]
    if b.ncols:
        outs += [solve(a, a.mul(b).col(0)), solve(a, B.col(0))]
    for out in outs:
        if out is not None:
            _assert_as_built_at_the_boundary(field, out)
    assert a.mul(solve_matrix(a, a.mul(b))) == a.mul(b)
    assert express_in_row_basis(a, x.mul(a)).mul(a) == x.mul(a)


@pytest.mark.parametrize("field", [QQ, F5])
def test_stored_scalars_are_reduced(field):
    """What the engine stores or returns is reduced into the field even where
    the Python arithmetic behind it is not: over Q, 1/2 * 2 is an integral
    Fraction; over F_5, 4 * 3 is 12."""
    from recollab.algebra import Algebra, tensor
    from recollab.fixtures import kronecker_algebra
    from recollab.modules import hom_space, regular_bimodule, regular_module, tensor_over
    s, t = (Fraction(1, 2), 2) if field == QQ else (4, 3)
    a = kronecker_algebra(field)
    x, y = (s,) * a.dim, (t,) * a.dim
    _assert_canonical(field, a.multiply(x, y), a.multiply(y, x),
                      kron(Matrix(field, [x]), Matrix(field, [y])))

    def truncated(c):
        # k[u]/(u^3) in the basis 1, u, u^2 / c, so u * u = c b2
        struct = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            struct[0][i][i] = struct[i][0][i] = 1
        struct[1][1][2] = c
        return Algebra(field, struct, (1, 0, 0))

    st = tensor(truncated(s), truncated(t))
    _assert_canonical(field, st.unit, *(tuple(c for _, c in ent) for ent in st.table.values()))
    aa = tensor(a, a)
    _assert_canonical(field, aa.unit, aa.basic.radical_generators, *aa.basic.idempotent_coords,
                      *aa.basic.generator_coords)
    m = Matrix(field, [[s, t], [0, s]])
    _assert_canonical(field, m.scale(t), m.add(m), m.sub(m.scale(t)), m.neg())
    _assert_canonical(field, quotient_map(Matrix(field, [[1, t, s]]))[0])
    reg = regular_module(a)
    _assert_canonical(field, *(mp.matrix for mp in hom_space(reg, reg)))
    tp = tensor_over(regular_bimodule(a), regular_bimodule(a))
    _assert_canonical(field, tp.projection, *tp.bimodule.left_gens, *tp.bimodule.right_gens)


# -- restriction and descent of whole stacks, against the per-matrix reference --


def _restrict_reference(rows, mats):
    """`_restrict` one matrix at a time through `Matrix.mul`."""
    R, pivots = rref(rows)
    basis = R.take_rows(range(len(pivots)))
    acts = []
    for mat in mats:
        img = basis.mul(mat)
        coords = img.submatrix(range(img.nrows), pivots)
        if coords.mul(basis) != img:
            raise ValueError("rows do not span an invariant subspace")
        acts.append(coords)
    return basis, pivots, acts


def _descend_reference(rows, mats):
    """`_descend` one matrix at a time: `Matrix.mul` for the check and
    `combine_rows` for each induced row."""
    proj, free = quotient_map(rows)
    basis = row_space_basis(rows)
    acts = []
    for mat in mats:
        if not basis.mul(mat).mul(proj).is_zero():
            raise ValueError("rows do not span an invariant subspace")
        acts.append(Matrix(rows.field, [combine_rows(proj, enumerate(mat.rows[t]))
                                        for t in free], ncols=len(free)))
    return proj, free, acts


def _stack_case(field, rng, n, k, count, top):
    """(rows, mats): the first k rows of a random invertible P (entries up to
    `top`) and their sum, and `count` matrices P^-1 M P with M zero above
    row k and right of column k-1, which keep the span of the rows."""
    while True:
        p = Matrix(field, [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            break
    pinv = solve_matrix(p, Matrix.identity(field, n))
    mats = [pinv.mul(Matrix(field, [[0 if i < k <= j else rng.randint(-3, 3)
                                     for j in range(n)] for i in range(n)])).mul(p)
            for _ in range(count)]
    span = list(p.rows[:k])
    return Matrix(field, span + [[sum(c) for c in zip(*span)]] * bool(span), ncols=n), mats


def _same_entries(x, y):
    return x == y and all(type(s) is type(t) for r, w in zip(x.rows, y.rows)
                          for s, t in zip(r, w))


P31 = GF(2**31 - 1)


@pytest.mark.parametrize("chunk", ["whole", "one", "split"])
@pytest.mark.parametrize("field,top", [(QQ, 3), (QQ, 2**40), (F7, 3), (P31, 3)],
                         ids=["Q", "Qbig", "F7", "F31bit"])
def test_stacked_restriction_and_descent_match_the_per_matrix_reference(
        field, top, chunk, monkeypatch):
    """`_restrict` and `_descend` equal the per-matrix reference, entry for
    entry and with the same scalar types, on every span dimension k of k^5:
    over Q with RREF bases that have non-integral entries, over F_p, with
    entries that force `object` arrays, and with the stack in one chunk, one
    matrix per chunk or uneven chunks of two.  A stack whose last matrix
    moves the span raises, as the reference does."""
    n, count, rng = 5, 5, random.Random(31)
    monkeypatch.setattr(exactfield, "_CHUNK",
                        {"whole": exactfield._CHUNK, "one": 1, "split": 2 * n * n + 1}[chunk])
    dtypes, fractional = set(), False
    real = exactfield.integer_array

    def spy(*args):
        arr, den = real(*args)
        dtypes.add(arr.dtype)
        return arr, den
    monkeypatch.setattr(exactfield, "integer_array", spy)
    for k in range(n + 1):
        rows, mats = _stack_case(field, rng, n, k, count, top)
        fractional |= any(type(x) is Fraction for r in rref(rows)[0].rows for x in r)
        moved = mats + [Matrix(field, [[rng.randint(-3, 3) for _ in range(n)]
                                       for _ in range(n)])]
        for build, ref in ((_restrict, _restrict_reference), (_descend, _descend_reference)):
            got, want = build(rows, mats), ref(rows, mats)
            assert got[:2] == want[:2] and len(got[2]) == count
            assert all(_same_entries(x, y) for x, y in zip(got[2], want[2]))
            _assert_canonical(field, *got[2])
            if 0 < k < n:
                for cut in (build, ref):
                    with pytest.raises(ValueError, match="invariant subspace"):
                        cut(rows, moved)
    assert fractional == (field == QQ)
    big = top > 3 or field == P31
    assert (np.dtype(object) in dtypes) == big and (np.dtype(np.int64) in dtypes) != big
    # a module is cut and descended on its generator matrices alone; the
    # action it derives for each basis element is the per-matrix cut of the
    # whole per-basis stack, here of A_A for linear A_3 by right ideals x A
    from recollab.algebra import radical
    from recollab.cli import algebra_from_doc
    from recollab.modules import quotient_by_rows, regular_module, submodule_from_rows
    from test_homology import _basis_mats, _linear_doc
    a = algebra_from_doc(_linear_doc(3, field_tag_str(field)))
    reg, stack = regular_module(a), _basis_mats(a)[1]
    for g in a.generators() + radical(a).rows:
        span = a.left_mult_matrix(g)
        for cut, ref in ((submodule_from_rows, _restrict_reference),
                         (quotient_by_rows, _descend_reference)):
            got = cut(reg, span)[0]._stack()
            assert len(got) == a.dim
            assert all(_same_entries(x, y) for x, y in zip(got, ref(span, stack)[2]))
