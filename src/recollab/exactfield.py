"""Exact scalar arithmetic and dense/sparse matrix kernels.

Two fields are supported: the rationals and prime fields F_p (elements are
ints reduced to ``0..p-1``).  A field tag is a :class:`Field` instance;
scalars themselves are plain Python numbers, so there is no per-element
wrapper object.  A rational scalar is canonical: a Python ``int`` when it is
integral and a ``fractions.Fraction`` (denominator > 1) only when it is not.
``str``, ``==`` and ``hash`` agree between ``n`` and ``Fraction(n)``, so
callers compare scalars with ``==``, never by type.

The scalar rule: combine scalars with Python's ``+ - *``, then reduce the
result once with ``field.coerce`` where it is stored (a ``Matrix`` entry, a
structure constant, a returned coordinate tuple).  ``field.inv`` is the only
other scalar operation.  Canonical scalars print with ``str`` and are zero
exactly when falsy; an unreduced F_p sum is neither, so test and print only
what has been coerced.

Every operation is exact and deterministic.  Gaussian elimination always
pivots on the leftmost nonzero column of the topmost unreduced row, so the
reduced row echelon form, kernel bases and solve outputs are reproducible
bit for bit.  Rational elimination is fraction-free: it clears denominators
once, runs forward elimination and back substitution on Python integers
(cross-multiplication with per-row gcd normalisation, after Bareiss) and
divides each pivot row by its pivot only at the end.  Products of integer
matrices run in numpy (int64, or ``object`` when int64 could overflow).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch, FieldMismatch

_INT64_SAFE = 2**62
_INT = {int}


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """A field tag.  Scalars are plain Python numbers: they combine with
    Python's operators and are reduced by the field's `coerce` where they are
    stored; `inv` is the one operation the operators do not give."""

    name = "?"

    def __repr__(self):
        return self.name


def _canon(x):
    """An int or a Fraction as a canonical rational: an int when integral."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    name = "Q"

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return _canon(x)
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            return _canon(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _canon(Fraction(1) / a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()

_GF_CACHE = {}


def GF(p):
    """The prime field F_p (cached)."""
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def parse_field(tag):
    """Parse a field tag string: "Q" or "Fp:<prime>"."""
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        return GF(int(tag[3:]))
    raise ValueError(f"unknown field tag {tag!r}")


def field_tag_str(field):
    return "Q" if field == QQ else f"Fp:{field.p}"


def check_same_field(*fields):
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatch(f"{first} vs {f}")
    return first


def _canonical_rows(field, rows):
    """`rows` as a tuple of tuples of canonical scalars of `field`.

    Exact ints are canonical over Q as they are and over F_p once in 0..p-1;
    an all-int row is otherwise reduced by one `% p` map, and only a row
    holding another type (Fraction, bool, str) goes through `coerce`.
    """
    rows = tuple(map(tuple, rows))
    p = getattr(field, "p", None)
    flat = chain.from_iterable
    if {*map(type, flat(rows))} <= _INT:
        if p is None or 0 <= min(flat(rows), default=0) and max(flat(rows), default=0) < p:
            return rows
        return tuple(tuple(map(p.__rmod__, r)) for r in rows)
    coerce = field.coerce
    return tuple((r if p is None else tuple(map(p.__rmod__, r)))
                 if {*map(type, r)} <= _INT else tuple(map(coerce, r)) for r in rows)


class Matrix:
    """Immutable exact matrix over a fixed field (row-major tuples)."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref_cache")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = rows = _canonical_rows(field, rows)
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            for r in rows:
                if len(r) != self.ncols:
                    raise DimensionMismatch("ragged rows")
        else:
            if ncols is None:
                ncols = 0
            self.ncols = ncols
        self._rref_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, field, rows, ncols):
        """A matrix on `rows`, a tuple of equal-length tuples of canonical
        scalars of `field`, taken as they are (no coercion, no checks)."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        m._rref_cache = None
        return m

    @staticmethod
    def zeros(field, nrows, ncols):
        return Matrix._of(field, ((0,) * ncols,) * nrows, ncols)

    @staticmethod
    def identity(field, n):
        return Matrix._of(field, tuple(unit_vector(n, i) for i in range(n)), n)

    @staticmethod
    def from_cols(field, cols, nrows=None):
        cols = list(cols)
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            nrows = 0
        return Matrix(field, [[cols[j][i] for j in range(len(cols))] for i in range(nrows)],
                      ncols=len(cols))

    @staticmethod
    def row_vector(field, entries):
        return Matrix(field, [list(entries)], ncols=len(entries))

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def is_zero(self):
        return not any(map(any, self.rows))

    def transpose(self):
        rows = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return Matrix._of(self.field, rows, self.nrows)

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise DimensionMismatch("hstack needs equal row counts")
        check_same_field(self.field, other.field)
        return Matrix._of(self.field, tuple(a + b for a, b in zip(self.rows, other.rows)),
                          self.ncols + other.ncols)

    def vstack(self, other):
        if other.ncols != self.ncols:
            raise DimensionMismatch("vstack needs equal col counts")
        check_same_field(self.field, other.field)
        return Matrix._of(self.field, self.rows + other.rows, self.ncols)

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return Matrix._of(self.field, tuple(tuple(rows[i][j] for j in col_idx) for i in row_idx),
                          len(col_idx))

    def take_rows(self, idx):
        rows = self.rows
        return Matrix._of(self.field, tuple(rows[i] for i in idx), self.ncols)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, [[c * x for x in r] for r in self.rows], ncols=self.ncols)

    def add(self, other):
        self._check_shape(other)
        return Matrix(self.field,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def sub(self, other):
        self._check_shape(other)
        return Matrix(self.field,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def neg(self):
        return Matrix(self.field, [[-x for x in r] for r in self.rows], ncols=self.ncols)

    def _check_shape(self, other):
        check_same_field(self.field, other.field)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    # -- multiplication ----------------------------------------------------

    def mul(self, other):
        check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        if self.nrows == 0:
            return Matrix(self.field, [], ncols=other.ncols)
        if other.ncols == 0:
            return Matrix(self.field, [[] for _ in range(self.nrows)], ncols=0)
        if self.ncols == 0:
            return Matrix.zeros(self.field, self.nrows, other.ncols)
        fast = _matmul_fast(self, other)
        if fast is not None:
            return fast
        # exact sums of products, reduced into the field by the constructor
        bt = other.transpose().rows
        return Matrix(self.field, [[sum(a * b for a, b in zip(ra, cb) if a and b) for cb in bt]
                                   for ra in self.rows], ncols=other.ncols)

    def __matmul__(self, other):
        return self.mul(other)

    # -- serialisation -----------------------------------------------------

    def to_str_rows(self):
        return [[str(x) for x in r] for r in self.rows]

    def content_hash(self):
        h = hashlib.sha256()
        h.update(field_tag_str(self.field).encode())
        h.update(f":{self.nrows}x{self.ncols}:".encode())
        for r in self.rows:
            h.update((",".join(map(str, r)) + ";").encode())
        return h.hexdigest()


def _matmul_fast(a, b):
    """numpy matmul when all entries are ints; None when some entry is a Fraction.

    Over Q the product runs in int64 when |a| * |b| * inner dimension stays
    below 2^62, and on Python ints (`object` arrays) otherwise.
    """
    if a.field == QQ:
        ea, eb = chain.from_iterable(a.rows), chain.from_iterable(b.rows)
        if not {*map(type, ea), *map(type, eb)} <= _INT:
            return None
        ma = max(map(abs, chain.from_iterable(a.rows)))
        mb = max(map(abs, chain.from_iterable(b.rows)))
        dtype = np.int64 if max(ma, 1) * max(mb, 1) * a.ncols < _INT64_SAFE else object
        prod = np.array(a.rows, dtype=dtype) @ np.array(b.rows, dtype=dtype)
    else:
        p = a.field.p
        if (p - 1) * (p - 1) * a.ncols >= _INT64_SAFE:
            return None
        prod = (np.array(a.rows, dtype=np.int64) @ np.array(b.rows, dtype=np.int64)) % p
    return Matrix._of(a.field, tuple(map(tuple, prod.tolist())), b.ncols)


def integer_array(field, values, bound):
    """(array, den): the canonical scalars `values` of `field` as one flat
    integer numpy array, for checking polynomial identities in integers.

    Over Q the values are multiplied by their common denominator den (the
    caller scales each side of an identity to the same degree in den); over
    F_p they are the residues, den = 1, and the caller compares mod p.
    `bound(m)` must bound every integer the caller's products make from
    numbers of size at most m; m is the largest |entry| and den.  The array
    is int64 when that bound is below 2^62 and holds Python ints (`object`)
    otherwise, so the products are exact either way.
    """
    values = list(values)
    den = 1
    if field == QQ and not {*map(type, values)} <= _INT:
        den = lcm(*(x.denominator for x in values))
        values = [x.numerator * (den // x.denominator) for x in values]
    m = max(max(map(abs, values), default=0), den)
    return np.array(values, dtype=np.int64 if bound(m) < _INT64_SAFE else object), den


# --------------------------------------------------------------------------
# Gaussian elimination.
#
# Pivot rule: scan columns left to right; the pivot is the topmost unreduced
# row with a nonzero entry in that column.  This makes the RREF (which is
# unique anyway), the pivot list, kernel bases and solve outputs reproducible.
# --------------------------------------------------------------------------


def _rref_prime(rows, ncols, p):
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0
    nrows = len(rows)
    for pc in range(ncols):
        sel = None
        for i in range(pr, nrows):
            if rows[i][pc] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = pow(rows[pr][pc], p - 2, p)
        rows[pr] = [(x * inv) % p for x in rows[pr]]
        prow = rows[pr]
        for i in range(nrows):
            if i != pr and rows[i][pc]:
                c = rows[i][pc]
                ri = rows[i]
                rows[i] = [(x - c * y) % p for x, y in zip(ri, prow)]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def _rref_rational(rows, ncols):
    # Fraction-free: clear each row's denominators, eliminate forwards and
    # back on integers (each combination cross-multiplies by the reduced
    # pivot and entry, then divides out the row's gcd), and divide each pivot
    # row by its pivot only at the end.  The pivot rule is the one above, so
    # the result is the same RREF as exact rational elimination.
    irows = []
    for r in rows:
        if {*map(type, r)} <= {int}:
            ir = list(r)
        else:
            den = lcm(*(x.denominator for x in r))
            ir = [x.numerator * (den // x.denominator) for x in r]
        irows.append(_primitive(ir))
    pivots = []
    pr = 0
    nrows = len(irows)
    for pc in range(ncols):
        sel = None
        for i in range(pr, nrows):
            if irows[i][pc]:
                sel = i
                break
        if sel is None:
            continue
        irows[pr], irows[sel] = irows[sel], irows[pr]
        for i in range(pr + 1, nrows):
            if irows[i][pc]:
                irows[i] = _eliminate(irows[i], irows[pr], pc)
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    rank = len(pivots)
    for k in range(rank - 1, 0, -1):
        pc = pivots[k]
        for i in range(k):
            if irows[i][pc]:
                irows[i] = _eliminate(irows[i], irows[k], pc)
    out = []
    for k, pc in enumerate(pivots):
        row, pv = irows[k], irows[k][pc]
        if pv == 1:
            out.append(tuple(row))
        else:
            out.append(tuple(x // pv if x % pv == 0 else Fraction(x, pv) for x in row))
    out.extend([(0,) * ncols] * (nrows - rank))
    return tuple(out), pivots


def _eliminate(row, prow, pc):
    """row * (p/g) - prow * (c/g) with p = prow[pc], c = row[pc], g = gcd(p, c),
    divided by its gcd: the primitive integer row with a 0 at pc."""
    pv, c = prow[pc], row[pc]
    g = gcd(pv, c)
    a, b = pv // g, c // g
    return _primitive([x * a - y * b for x, y in zip(row, prow)])


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(m):
    """Reduced row echelon form: (rref matrix, pivot column tuple)."""
    if m._rref_cache is not None:
        return m._rref_cache
    if m.nrows == 0 or m.ncols == 0:
        res = (Matrix._of(m.field, m.rows, m.ncols), ())
        m._rref_cache = res
        return res
    if m.field == QQ:
        rows, pivots = _rref_rational(m.rows, m.ncols)
    else:
        rows, pivots = _rref_prime(m.rows, m.ncols, m.field.p)
        rows = tuple(map(tuple, rows))
    res = (Matrix._of(m.field, rows, m.ncols), tuple(pivots))
    m._rref_cache = res
    return res


def rank(m):
    """Rank over the exact field."""
    return len(rref(m)[1])


def kernel_basis(m):
    """Columns form the unique echelon-normalised basis of the right null space.

    Column j of the output corresponds to the j-th free column f of m: it has
    a 1 in position f, minus the RREF coefficient in each pivot position, and
    zeros elsewhere, so the output is unique and m @ K = 0 exactly.  It is the
    same matrix as the projection of :func:`quotient_map`.
    """
    return quotient_map(m)[0]


def quotient_map(m):
    """(P, free): the projection of k^n onto k^n / rowspace(m), n = m.ncols.

    The quotient is coordinatised by the free (non-pivot) columns of the RREF,
    listed in `free`; P is n x len(free).  Row j of P is the unit vector of j
    for a free column j, and minus the free part of RREF row i for the pivot
    column of row i.  RREF rows vanish on the other pivot columns, so vec @ P
    reduces vec modulo the row space and reads off its free coordinates.
    """
    R, pivots = rref(m)
    f = m.field
    n = m.ncols
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    rows = [None] * n
    for t, j in enumerate(free):
        rows[j] = unit_vector(len(free), t)
    for i, pc in enumerate(pivots):
        r = R.rows[i]
        rows[pc] = [-r[j] for j in free]
    return Matrix(f, rows, ncols=len(free)), free


def solve(m, b):
    """Some x with m @ x = b (free variables set to 0), or None.

    b is a sequence of length m.nrows; returns a tuple of length m.ncols.
    """
    f = m.field
    b = [f.coerce(x) for x in b]
    if len(b) != m.nrows:
        raise DimensionMismatch("rhs length != row count")
    aug = Matrix(f, [list(r) + [b[i]] for i, r in enumerate(m.rows)], ncols=m.ncols + 1)
    R, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = R.rows[i][m.ncols]
    return tuple(x)


def solve_matrix(m, B):
    """Solve m @ X = B column by column; None if any column is inconsistent."""
    f = check_same_field(m.field, B.field)
    if B.nrows != m.nrows:
        raise DimensionMismatch("solve_matrix shape")
    aug = m.hstack(B)
    R, pivots = rref(aug)
    if any(pc >= m.ncols for pc in pivots):
        return None
    cols = []
    for j in range(B.ncols):
        x = [0] * m.ncols
        for i, pc in enumerate(pivots):
            x[pc] = R.rows[i][m.ncols + j]
        cols.append(x)
    return Matrix.from_cols(f, cols, nrows=m.ncols)


def row_space_basis(m):
    """Canonical (RREF) basis of the row space, as a matrix of rows."""
    R, pivots = rref(m)
    return R.take_rows(range(len(pivots)))


def subspace_equal(u, v):
    """True iff the column spans of u and v coincide (same ambient row count)."""
    check_same_field(u.field, v.field)
    if u.nrows != v.nrows:
        raise DimensionMismatch("ambient dimensions differ")
    ru, rv = rank(u), rank(v)
    if ru != rv:
        return False
    return rank(u.hstack(v)) == ru


def subspace_leq(u, v):
    """True iff colspan(u) is contained in colspan(v)."""
    check_same_field(u.field, v.field)
    if u.nrows != v.nrows:
        raise DimensionMismatch("ambient dimensions differ")
    return rank(u.hstack(v)) == rank(v)


def express_in_row_basis(basis, vectors):
    """Coordinates of each row of `vectors` in the row space of `basis`.

    Returns a Matrix C with C @ basis = vectors, or None if some row is
    outside the span.  Deterministic (RREF-based back substitution).
    """
    f = check_same_field(basis.field, vectors.field)
    if basis.ncols != vectors.ncols:
        raise DimensionMismatch("ambient mismatch")
    sol = solve_matrix(basis.transpose(), vectors.transpose())
    if sol is None:
        return None
    return sol.transpose()


def unit_vector(n, i):
    """The i-th standard basis vector of k^n, as a tuple (canonical in every
    field)."""
    return tuple(1 if k == i else 0 for k in range(n))


def combine_rows(m, terms):
    """sum c * (row j of m) over the (j, c) pairs in `terms`, as a list.

    This is a sparse row vector times m: zero coefficients and zero entries
    of m are skipped, so applying a projection costs its non-zero entries,
    not a dense product.
    """
    acc = [0] * m.ncols
    rows = m.rows
    for j, c in terms:
        if c:
            for t, x in enumerate(rows[j]):
                if x:
                    acc[t] += c * x
    coerce = m.field.coerce
    return [coerce(x) for x in acc]


def linear_combination(coeffs, mats, field, nrows, ncols):
    """sum c * M over zip(coeffs, mats), an nrows x ncols matrix."""
    acc = [[0] * ncols for _ in range(nrows)]
    for c, mat in zip(coeffs, mats):
        if c:
            for arow, mrow in zip(acc, mat.rows):
                for t, x in enumerate(mrow):
                    if x:
                        arow[t] += c * x
    return Matrix(field, acc, ncols=ncols)


def kron(a, b):
    """The Kronecker product: row s nrows(b) + t is a[s] (x) b[t], with
    a[s][m] b[t][r] at column m ncols(b) + r."""
    return Matrix(a.field, [[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows],
                  ncols=a.ncols * b.ncols)


def sylvester_rows(pairs):
    """Stacked rows of kron(A, I_nB) - kron(I_nA, B), one block per (A, B).

    An nA x nB matrix X, flattened row-major, is in the kernel of the block
    of (A, B) iff A @ X = X @ B^T.  Rows come generator-major (one block per
    pair, in order), then in (x, y)-lexicographic order inside a block:
    row (x, y) has A[x][x2] at x2 * nB + y and -B[y][y2] at x * nB + y2.
    Hom_A(M, N) is the kernel for the pairs (g_M, g_N^T); the balancing
    relations x.g (x) y - x (x) g.y of M (x)_B N are the rows for the pairs
    (rho_M(g), lambda_N(g)).  Entries are differences of the blocks'
    entries, not yet reduced into the field: `Matrix` coerces them.
    """
    rows = []
    for a, b in pairs:
        na, nb = a.nrows, b.nrows
        n = na * nb
        a_nz = [[(k * nb, v) for k, v in enumerate(r) if v] for r in a.rows]
        b_nz = [[(l, v) for l, v in enumerate(r) if v] for r in b.rows]
        for x in range(na):
            off = x * nb
            for y in range(nb):
                row = [0] * n
                for k, v in a_nz[x]:
                    row[k + y] = v
                for l, v in b_nz[y]:
                    row[off + l] -= v
                rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Sparse integer rank, used by the truncated bar-complex oracle where dense
# matrices would not fit.  Columns are dicts {row_index: int coefficient}.
# --------------------------------------------------------------------------


def sparse_rank(columns, field):
    """Rank of the matrix whose columns are sparse int dicts, over `field`."""
    if field == QQ:
        return _sparse_rank_int(columns)
    return _sparse_rank_prime(columns, field.p)


def _sparse_rank_int(columns):
    # each column is reduced in place against the pivots, which are primitive
    pivots = {}
    rk = 0
    for col in columns:
        col = {r: c for r, c in col.items() if c}
        while col:
            lead = min(col)
            piv = pivots.get(lead)
            if piv is None:
                g = gcd(*col.values())
                if g > 1:
                    for r in col:
                        col[r] //= g
                pivots[lead] = col
                rk += 1
                break
            a, b = piv[lead], col[lead]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            if ma != 1:
                for r in col:
                    col[r] *= ma
            for r, c in piv.items():
                val = col.get(r, 0) - c * mb
                if val:
                    col[r] = val
                else:
                    del col[r]
    return rk


def _sparse_rank_prime(columns, p):
    # each column is reduced in place against the pivots, which are monic
    pivots = {}
    rk = 0
    for col in columns:
        col = {r: c % p for r, c in col.items() if c % p}
        while col:
            lead = min(col)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(col[lead], p - 2, p)
                for r in col:
                    col[r] = col[r] * inv % p
                pivots[lead] = col
                rk += 1
                break
            b = col[lead]
            for r, c in piv.items():
                val = (col.get(r, 0) - c * b) % p
                if val:
                    col[r] = val
                else:
                    del col[r]
    return rk
