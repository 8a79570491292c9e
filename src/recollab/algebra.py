"""Finite-dimensional associative unital algebras as structure constants.

An :class:`Algebra` stores its multiplication as one sparse table (the
nonzero coordinates of each nonzero product b_i * b_j), the coordinates of
the unit, and (when known) a *basic structure*: a complete list of
orthogonal primitive idempotents with A/rad split (a product of copies of
the ground field), plus rows generating the Jacobson radical as a left and
as a right ideal and a small generating set.  Quiver algebras get this for
free (the arrows); tensor
products, opposites, triangular matrix algebras, corners at vertex sums and
quotients propagate it, and over Q it can be discovered from scratch via the
trace form and idempotent lifting.

Conventions (fixed once, used everywhere):
  * module elements are row vectors;
  * paths multiply like functions: p * q is "q first, then p", so a path
    written b*a traverses a before b, and e_target * p * e_source = p.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, product
from math import gcd, lcm

import numpy as np

from .errors import (
    InvalidRelation,
    NotFiniteDimensional,
    NotSplitBasic,
    UnsupportedField,
)
from .exactfield import (
    QQ,
    Field,
    Matrix,
    _canonical_rows,
    _descend,
    _restrict,
    check_same_field,
    combine_rows,
    express_in_row_basis,
    field_tag_str,
    integer_array,
    kernel_basis,
    kron,
    linear_combination,
    parse_field,
    quotient_map,
    row_space_basis,
    rref,
    unit_vector,
)

@dataclass(frozen=True)
class BasicStructure:
    """Complete orthogonal primitive idempotents (split case), rows that
    generate rad A as a left and as a right ideal (rad = sum A r = sum r A; a
    basis qualifies, and `radical` derives one) and algebra generators."""

    idempotent_coords: tuple
    idempotent_labels: tuple
    radical_generators: Matrix
    generator_coords: tuple


class Algebra:
    """Finite-dimensional associative unital algebra over an exact field.

    `table` is the only stored form of the multiplication: `table[(i, j)]`
    lists the coordinates of b_i b_j as ((k, c), ...) pairs, k ascending and
    c a nonzero canonical scalar, and a key exists only for a nonzero
    product.  Readers that need dense rows derive them from it."""

    def __init__(self, field, struct, unit, labels=None, basic=None, _validate=True):
        """`struct[i][j]` is the dense coordinate vector of b_i b_j; exact
        ints are taken as they are (reduced mod p over F_p), other entries
        coerced, as `Matrix` does its rows."""
        dim = len(struct)
        table = {}
        for i in range(dim):
            for j, entry in enumerate(_canonical_rows(field, (struct[i][j] for j in range(dim)))):
                if len(entry) != dim:
                    raise ValueError("structure constant length != dim")
                ent = tuple((k, c) for k, c in enumerate(entry) if c)
                if ent:
                    table[(i, j)] = ent
        self._setup(field, dim, table, _canonical_rows(field, (unit,))[0], labels, basic,
                    _validate)

    @classmethod
    def _of(cls, field, dim, table, unit, labels=None, basic=None, _validate=False):
        """An algebra on `table`, already in the canonical form above, and a
        tuple of canonical scalars `unit`, both taken as they are."""
        a = object.__new__(cls)
        a._setup(field, dim, table, unit, labels, basic, _validate)
        return a

    def _setup(self, field, dim, table, unit, labels, basic, validate):
        self.field, self.dim, self.table, self.unit = field, dim, table, unit
        if len(unit) != dim:
            raise ValueError("unit coordinate length != dim")
        self.basis_labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(dim))
        if len(self.basis_labels) != dim:
            raise ValueError("label count != dim")
        self.basic = basic
        self._hashes = None
        self._ints = None
        self._radical = None
        # the words of `words`, or a function of no arguments that records them
        self._words = None
        self._opposite = None
        self._enveloping = None
        # (B, C) for a tensor product B (x) C built by `tensor`
        self._factors = None
        # modules over this algebra that modules.py builds once per instance
        self._modules = {}
        self.associativity_checked = False
        if validate and dim:
            self._validate()

    # -- core structure ----------------------------------------------------

    @property
    def is_zero_algebra(self):
        return self.dim == 0

    def _rows(self, keys):
        """The dense coordinate vector of b_i b_j for each (i, j) in `keys`."""
        n, tab = self.dim, self.table
        for key in keys:
            row = [0] * n
            for k, c in tab.get(key, ()):
                row[k] = c
            yield tuple(row)

    def multiply(self, x, y):
        """Coordinates of (sum x_i b_i) * (sum y_j b_j)."""
        out = [0] * self.dim
        tab = self.table
        xi = [(i, c) for i, c in enumerate(x) if c]
        yj = [(j, c) for j, c in enumerate(y) if c]
        for i, a in xi:
            for j, b in yj:
                ent = tab.get((i, j))
                if ent:
                    ab = a * b
                    for k, c in ent:
                        out[k] += ab * c
        return tuple(map(self.field.coerce, out))

    def left_mult_matrix(self, x):
        """Matrix of v |-> coords(x * v) acting on row vectors: row i is the
        sum of x_k b_k b_i, read off the table."""
        return self._mult_matrix(x, 0)

    def right_mult_matrix(self, x):
        """Matrix of v |-> coords(v * x) acting on row vectors: row i is the
        sum of x_k b_i b_k, read off the table."""
        return self._mult_matrix(x, 1)

    def _mult_matrix(self, x, side):
        rows = [[0] * self.dim for _ in range(self.dim)]
        for key, ent in self.table.items():
            if c := x[key[side]]:
                row = rows[key[1 - side]]
                for k, v in ent:
                    row[k] += c * v
        return Matrix(self.field, rows, ncols=self.dim)

    def generators(self):
        if self.basic is not None and self.basic.generator_coords:
            return self.basic.generator_coords
        return tuple(unit_vector(self.dim, i) for i in range(self.dim))

    def words(self):
        """How each basis element is a combination of words in `generators()`:
        per basis element the pairs (c, w), b_i = sum c g_w[0] g_w[1] ..., w
        the generator indices in product order.  Recorded once, on first use,
        by the constructor that knows them (a quiver path is one word in its
        arrows, b (x) c is (b (x) 1)(1 (x) c), an opposite reverses its
        words); otherwise found by `_find_words`, and where the generators
        are the basis each element is its own word."""
        if not isinstance(self._words, tuple):
            self._words = (self._words or self._find_words)()
        return self._words

    def _find_words(self):
        """Words by length, each kept when its product is independent of those
        kept before (the empty word, the unit, last if needed), and every
        basis element solved for on the kept ones."""
        n, f, gens = self.dim, self.field, self.generators()
        kept, level = [], [((t,), g) for t, g in enumerate(gens)]
        while level and len(kept) < n:
            cols = Matrix(f, [v for _, v in kept + level], ncols=n).transpose()
            new = [level[j - len(kept)] for j in rref(cols)[1][len(kept):]]
            kept += new
            level = [(w + (t,), self.multiply(v, g)) for w, v in new for t, g in enumerate(gens)]
        kept += [((), self.unit)] * (len(kept) < n)
        coords = express_in_row_basis(Matrix(f, [v for _, v in kept], ncols=n),
                                      Matrix.identity(f, n)) if n else Matrix(f, [], ncols=0)
        if coords is None:
            raise ValueError("the generators do not generate the algebra")
        return tuple(tuple((c, w) for c, (w, _) in zip(row, kept) if c) for row in coords.rows)

    def word_products(self, mats, xs, memo, reverse=False):
        """For each element x of xs (coordinates), the sum of
        c P mats[w[0]] mats[w[1]] ... over the terms (c, w) of its basis
        elements' `words` (read backwards with `reverse`, for an
        anti-homomorphism): each word one step past a prefix kept in `memo`.
        P is the identity, and a step a `Matrix.mul`, unless memo[()] holds a
        few rows P, which each step takes through the next matrix sparsely
        (`combine_rows`)."""
        def word(w):
            if w not in memo:
                if () in memo:
                    g = mats[w[-1]]
                    memo[w] = Matrix._of(self.field, tuple(combine_rows(g, enumerate(r))
                                                           for r in word(w[:-1]).rows), g.ncols)
                else:
                    memo[w] = (word(w[:-1]).mul(mats[w[-1]]) if len(w) > 1 else mats[w[0]] if w
                               else Matrix.identity(self.field, mats[0].nrows))
            return memo[w]
        nrows = memo[()].nrows if () in memo else mats[0].nrows
        words, out = self.words(), []
        for x in xs:
            terms = [(x[i] * d, word(w[::-1] if reverse else w))
                     for i in compress(range(len(x)), x) for d, w in words[i]]
            out.append(linear_combination([c for c, _ in terms], [m for _, m in terms],
                                          self.field, nrows, mats[0].ncols))
        return out

    def is_commutative(self):
        return all(self.table.get((j, i)) == ent for (i, j), ent in self.table.items())

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Algebra) and self.field == other.field
            and self.dim == other.dim and self.unit == other.unit
            and self.table == other.table)

    def __hash__(self):
        return hash((self.field, self.dim, self.unit, len(self.table)))

    def __repr__(self):
        return f"Algebra({field_tag_str(self.field)}, dim={self.dim})"

    def content_hash(self):
        """sha256 of the field, unit and structure constants."""
        return self._content_hashes()[0]

    def structure_hash(self):
        """content_hash extended by the basic structure (the idempotent,
        radical generator and generator rows): one table can carry several,
        and projective covers read it.  It keys only the resolution store,
        and no report carries it.  A tensor product's is derived from its
        factors', which fix its table and basic structure, so its table is
        never formatted."""
        if self._factors is not None:
            keys = "|".join(x.structure_hash() for x in self._factors)
            return hashlib.sha256(f"tensor|{keys}".encode()).hexdigest()
        return self._content_hashes()[1]

    def _content_hashes(self):
        # an algebra is immutable, so both hashes are formatted once; the
        # table is formatted dense, product by product in row-major order
        if self._hashes is None:
            h = hashlib.sha256()
            h.update(field_tag_str(self.field).encode())
            h.update(("|" + ",".join(map(str, self.unit))).encode())
            zero = ("|" + ",".join("0" * self.dim)).encode()
            for key in product(range(self.dim), repeat=2):
                h.update(("|" + ",".join(map(str, next(self._rows((key,)))))).encode()
                         if key in self.table else zero)
            content = h.hexdigest()
            b = self.basic
            if b is not None:
                for part in (b.idempotent_coords, b.radical_generators.rows,
                             b.generator_coords):
                    h.update(("#" + ";".join(",".join(map(str, v))
                                             for v in part)).encode())
            self._hashes = (content, h.hexdigest())
        return self._hashes

    def _int_tables(self):
        """(unit, gens, prods, s, m): the unit (dim,), the generators (g, dim)
        and the products g b_j of each generator with each basis element
        (g, dim, dim) as integer arrays, all three scaled by s (over Q, the
        square of the common denominator of unit, generators and table), with
        m >= s and every |entry|.  Built once; the module checks read them."""
        if self._ints is None:
            n, gens, p = self.dim, self.generators(), getattr(self.field, "p", None)
            # only the table rows b_i with i in some generator's support
            support = sorted({i for g in gens for i, c in enumerate(g) if c})
            flat = chain.from_iterable(self._rows((i, j) for i in support for j in range(n)))
            arr, den = integer_array(self.field, chain(self.unit, *gens, flat),
                                     lambda m: n * m * m)
            k = len(gens)
            unit, gen = arr[:n] * den, arr[n:n + k * n].reshape(k, n)
            rows = arr[n + k * n:].reshape(len(support), n * n)
            prods = (gen[:, support] @ rows).reshape(k, n, n)
            if p is not None:
                prods %= p
            tables = (unit, gen * den, prods)
            m = max([den * den] + [int(abs(t).max(initial=0)) for t in tables])
            self._ints = (*tables, den * den, m)
        return self._ints

    # -- validation ----------------------------------------------------------

    def _check(self):
        """Run the unit and associativity check unless it has passed: the
        certificate of everything built from A whose laws follow from A's.
        A failing check records nothing, so it raises every time."""
        if not self.associativity_checked:
            self._validate()

    def _validate(self):
        # unit law on every basis vector
        for i in range(self.dim):
            v = unit_vector(self.dim, i)
            if self.multiply(self.unit, v) != v or self.multiply(v, self.unit) != v:
                raise ValueError(f"unit law fails on basis element {i}")
        self._check_associative()
        self.associativity_checked = True

    def _check_associative(self):
        """Raise unless (b_i b_j) b_l = b_i (b_j b_l) for all i, j, l.

        The table's nonzeros are checked in integers (`integer_array`: over Q
        scaled by the common denominator, which scales both sides alike, over
        F_p compared mod p), scattered into a (dim, dim, dim) array C.  For
        each i, with J the j where b_i b_j != 0 and M the coordinates those
        products use, (b_i b_j) b_l is computed on the rows J and the (l, m)
        some b_k b_l with k in M reaches, b_i (b_j b_l) on the (j, l) whose
        product uses some k in J and the columns M.  Everything outside these
        blocks is zero, so comparing their nonzeros, keyed (j n + l) n + m,
        is the whole check.  Each entry sums at most dim terms of size at most
        max|c|^2.
        """
        f, n = self.field, self.dim
        at = [((i * n + j) * n + k, c) for (i, j), ent in self.table.items() for k, c in ent]
        vals = integer_array(f, (c for _, c in at), lambda m: m * m * n)[0]
        C = np.zeros((n, n, n), vals.dtype)
        C.flat[[t for t, _ in at]] = vals
        left, right, nz = C.reshape(n, n * n), C.reshape(n * n, n), C != 0
        # reaches[k]: (l, m) with (b_k b_l)_m != 0; uses[k]: (j, l) with (b_j b_l)_k != 0
        reaches, uses = nz.reshape(n, n * n), nz.reshape(n * n, n).T.copy()

        def nonzeros(x, row_keys, col_keys):
            x = x if f == QQ else x % f.p
            return (row_keys[:, None] + col_keys)[x != 0], x[x != 0]
        for i in range(n):
            J, M = np.flatnonzero(nz[i].any(1)), np.flatnonzero(nz[i].any(0))
            cols, rows = np.flatnonzero(reaches[M].any(0)), np.flatnonzero(uses[J].any(0))
            block = C[i, J][:, M]
            lhs = nonzeros(block @ left[M][:, cols], J * n * n, cols)
            rhs = nonzeros(right[rows][:, J] @ block, rows * n, M)
            if not all(map(np.array_equal, lhs, rhs)):
                raise ValueError("associativity fails")


def zero_algebra(field):
    """The zero ring, used for degenerate quotients (A = AeA)."""
    return Algebra._of(field, 0, {}, (), basic=BasicStructure((), (), Matrix(field, [], ncols=0), ()))


@dataclass(frozen=True)
class Idempotent:
    """A nonzero idempotent element of an algebra."""

    algebra: Algebra
    coords: tuple
    label: str = ""

    def __post_init__(self):
        a = self.algebra
        coords = tuple(a.field.coerce(x) for x in self.coords)
        object.__setattr__(self, "coords", coords)
        if not any(coords):
            raise ValueError("idempotent must be nonzero")
        if a.multiply(coords, coords) != coords:
            raise ValueError("e*e != e")

    @classmethod
    def zero(cls, algebra, label="0"):
        """The zero idempotent, which the constructor refuses: it cuts A into
        the sides (A, 0), the opposite of e = 1."""
        e = object.__new__(cls)
        for name, value in (("algebra", algebra), ("coords", (0,) * algebra.dim),
                            ("label", label)):
            object.__setattr__(e, name, value)
        return e


# --------------------------------------------------------------------------
# Quiver presentations.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverPresentation:
    """Vertices, arrows (source, target, label) and admissible relations.

    A relation is a list of (coefficient, path) terms, where a path is a
    tuple of arrow labels in traversal order; every term must have length
    >= 2 (admissibility).
    """

    vertices: tuple
    arrows: tuple
    relations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        arrows = tuple((str(s), str(t), str(l)) for (s, t, l) in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        labels = [l for (_, _, l) in arrows]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate arrow labels")
        vs, known = set(self.vertices), set(labels)
        for s, t, l in arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow {l}: unknown vertex")
        rels = []
        for rel in self.relations:
            terms = []
            for coeff, path in rel:
                path = tuple(str(x) for x in path)
                if len(path) < 2:
                    raise InvalidRelation(f"relation term {path} has length < 2")
                if not set(path) <= known:
                    raise ValueError(f"relation term {path} names an unknown arrow")
                terms.append((coeff, path))
            rels.append(tuple(terms))
        object.__setattr__(self, "relations", tuple(rels))


class _Path:
    __slots__ = ("source", "target", "labels")

    def __init__(self, source, target, labels):
        self.source = source
        self.target = target
        self.labels = labels  # traversal order

    def __len__(self):
        return len(self.labels)

    def display(self):
        if not self.labels:
            return f"e_{self.source}"
        return "*".join(reversed(self.labels))


def _enumerate_paths(q, max_len, budget):
    out_arrows = {}
    for s, t, l in q.arrows:
        out_arrows.setdefault(s, []).append((t, l))
    for v in q.vertices:
        out_arrows.setdefault(v, [])
    paths = [[_Path(v, v, ()) for v in q.vertices]]
    total = len(q.vertices)
    for d in range(1, max_len + 1):
        layer = []
        for p in paths[d - 1]:
            for (t, l) in sorted(out_arrows[p.target], key=lambda x: x[1]):
                layer.append(_Path(p.source, t, p.labels + (l,)))
                total += 1
                if total > budget:
                    raise NotFiniteDimensional(
                        f"path budget {budget} exceeded at length {d}; "
                        "the arrow ideal does not look nilpotent modulo the relations")
        paths.append(layer)
    return paths


class _Reducer:
    """Reduction of the path span modulo the relation ideal, up to a length bound."""

    def __init__(self, q, field, max_len, budget):
        self.q = q
        self.field = field
        self.max_len = max_len
        layers = _enumerate_paths(q, max_len, budget)
        self.layers = layers
        ordered = []
        for d in range(max_len, -1, -1):
            ordered.extend(sorted(layers[d], key=lambda p: p.labels))
        self.paths = ordered  # longest first, lex within a length
        self.index = {(p.source, p.labels): i for i, p in enumerate(self.paths)}
        self._build_ideal()

    def _relation_rows(self):
        f = self.field
        n = len(self.paths)
        rows = []
        for rel in self.q.relations:
            for p in self.paths:       # left factor (applied last)
                for qpath in self.paths:   # right factor (applied first)
                    total_min = len(p) + len(qpath) + min(len(path) for _, path in rel)
                    if total_min > self.max_len:
                        continue
                    row = [0] * n
                    nonzero = False
                    ok = True
                    for coeff, mid in rel:
                        if len(p) + len(qpath) + len(mid) > self.max_len:
                            ok = False
                            break
                        # qpath, then mid, then p: a path, if it is one, that ends
                        # where p does (p may be a vertex)
                        idx = self.index.get((qpath.source, qpath.labels + mid + p.labels))
                        if idx is not None and self.paths[idx].target == p.target:
                            row[idx] += f.coerce(coeff)
                            nonzero = True
                    if ok and nonzero:
                        rows.append(row)
        return rows

    def _build_ideal(self):
        rows = self._relation_rows()
        self.projection, self.basis_cols = quotient_map(
            Matrix(self.field, rows, ncols=len(self.paths)))

    def reduce_path(self, source, labels):
        """Coordinates of a path class over the surviving (non-pivot) paths."""
        idx = self.index.get((source, labels))
        if idx is None:
            raise NotFiniteDimensional(
                f"needed a path of length {len(labels)} beyond the working bound {self.max_len}")
        return {j: c for j, c in zip(self.basis_cols, self.projection.rows[idx]) if c}


def from_quiver(q, field_tag, degree_bound=32, path_budget=20000):
    """Path algebra of a quiver modulo admissible relations.

    The basis is the set of nonzero path classes, computed by a fixed-order
    linear-algebra closure degree by degree until the degree-d component
    vanishes; products of two surviving paths need reductions up to twice
    that degree, so the working bound is grown accordingly before the
    structure constants are read off.
    """
    field = field_tag if isinstance(field_tag, Field) else parse_field(field_tag)
    stab = None
    work = 2
    while work <= degree_bound:
        red = _Reducer(q, field, work, path_budget)
        by_len = {}
        for j in red.basis_cols:
            p = red.paths[j]
            by_len.setdefault(len(p), []).append(p)
        stab = None
        for d in range(work + 1):
            if not by_len.get(d):
                stab = d
                break
        if stab is not None:
            reach = 2 * max(stab - 1, 1)
            # products of two surviving paths must reduce strictly below stab
            boundary_ok = not any(stab <= ln <= reach for ln in by_len if by_len[ln])
            if reach <= work and boundary_ok:
                break
            stab = None
        work = min(max(work * 2, work + 2), degree_bound) if work < degree_bound else degree_bound + 1
    if stab is None:
        raise NotFiniteDimensional(
            f"degree components did not vanish below the bound {degree_bound} "
            "(or the bound is too small to reduce products of surviving paths)")

    survivors = [red.paths[j] for j in red.basis_cols if len(red.paths[j]) < stab]
    survivors.sort(key=lambda p: (len(p), str(p.source), p.labels))
    pos = {(p.source, p.labels): i for i, p in enumerate(survivors)}
    n = len(survivors)
    f = field

    table = {}
    for x, p in enumerate(survivors):           # left factor
        for y, qq_ in enumerate(survivors):     # right factor (applied first)
            if p.source == qq_.target:
                raw = red.reduce_path(qq_.source, qq_.labels + p.labels)
                ent = sorted((pos[(red.paths[j].source, red.paths[j].labels)], c)
                             for j, c in raw.items())
                if ent:
                    table[(x, y)] = tuple(ent)

    labels = [p.display() for p in survivors]
    idem = tuple(unit_vector(n, pos[(v, ())]) for v in q.vertices)
    # every path of length >= 1 is (path) * arrow and arrow * (path), so the
    # arrows generate the arrow ideal, the radical, from both sides
    kept = [(s, l) for (s, t, l) in q.arrows if (s, (l,)) in pos]
    arrows = tuple(unit_vector(n, pos[(s, (l,))]) for s, l in kept)
    basic = BasicStructure(idem, tuple(q.vertices), Matrix(f, arrows, ncols=n), idem + arrows)
    out = Algebra._of(f, n, table, tuple(map(sum, zip(*idem))), labels=labels, basic=basic,
                      _validate=True)
    # a path traversing a_1, .., a_k is the product a_k .. a_1, a vertex its idempotent
    gen = {l: len(idem) + t for t, (_, l) in enumerate(kept)}
    vertex = {v: t for t, v in enumerate(q.vertices)}
    out._words = tuple(((1, tuple(gen[l] for l in reversed(p.labels)) or (vertex[p.source],)),)
                       for p in survivors)
    return out


# --------------------------------------------------------------------------
# Constructions.
# --------------------------------------------------------------------------


def opposite(a):
    """Same space, transposed multiplication table; an involution, built once
    per instance (opposite(opposite(a)) is a)."""
    if a._opposite is not None:
        return a._opposite
    table = {(j, i): ent for (i, j), ent in a.table.items()}
    out = Algebra._of(a.field, a.dim, table, a.unit, labels=a.basis_labels, basic=a.basic)
    out.associativity_checked = a.associativity_checked
    out._words = lambda: tuple(tuple((c, w[::-1]) for c, w in ws) for ws in a.words())
    a._opposite, out._opposite = out, a
    return out


def tensor(a, b):
    """Tensor product algebra with lexicographic basis b_i (x) c_j: the
    product of b_i (x) c_j and b_k (x) c_l is b_i b_k (x) c_j c_l, so the
    table pairs each nonzero product of `a` with each of `b`."""
    check_same_field(a.field, b.field)
    f = a.field
    da, db = a.dim, b.dim
    n = da * db
    coerce, tabb = f.coerce, b.table.items()
    table = {}
    for (i, k), ea in a.table.items():
        for (j, l), eb in tabb:
            table[(i * db + j, k * db + l)] = tuple(
                (m * db + r, coerce(cm * cr)) for m, cm in ea for r, cr in eb)

    def kr(xs, ys):
        """The rows x (x) y, x in xs and y in ys, x-major."""
        return kron(Matrix(f, xs, ncols=da), Matrix(f, ys, ncols=db)).rows

    unit, = kr([a.unit], [b.unit])
    labels = tuple(f"{la}⊗{lb}" for la in a.basis_labels for lb in b.basis_labels)
    basic = None
    if a.basic is not None and b.basic is not None:
        ba, bb = a.basic, b.basic
        ilab = tuple(f"{la}⊗{lb}" for la in ba.idempotent_labels for lb in bb.idempotent_labels)
        # rad(A (x) B) = rad A (x) B + A (x) rad B: (x (x) y)(r (x) 1) =
        # x r (x) y, so the r (x) 1 and 1 (x) r' generate it from both sides
        rad = kr(ba.radical_generators.rows, [b.unit]) + kr([a.unit], bb.radical_generators.rows)
        gens = kr(a.generators(), [b.unit]) + kr([a.unit], b.generators())
        basic = BasicStructure(kr(ba.idempotent_coords, bb.idempotent_coords), ilab,
                               Matrix._of(f, rad, n), gens)
    out = Algebra._of(f, n, table, unit, labels=labels, basic=basic)
    out.associativity_checked = a.associativity_checked and b.associativity_checked
    out._factors = (a, b)
    if basic is not None:
        k = len(a.generators())
        out._words = lambda: tuple(
            tuple((coerce(c * d), u + tuple(k + t for t in w)) for c, u in wa for d, w in wb)
            for wa in a.words() for wb in b.words())
    return out


def enveloping(a):
    """A^op tensor A; A-A-bimodules are right modules over this algebra.
    Built once per instance."""
    if a._enveloping is None:
        a._enveloping = tensor(opposite(a), a)
    return a._enveloping


def triangular(a1, a2, m):
    """Triangular matrix algebra [[A1, 0], [M, A2]] for an A2-A1-bimodule M.

    Returns (algebra, e1, e2) where e1, e2 are the diagonal idempotents.
    Basis order: A1 block, then M block, then A2 block.
    """
    check_same_field(a1.field, a2.field)
    f = a1.field
    if m.left_algebra != a2 or m.right_algebra != a1:
        raise ValueError("triangular needs an A2-A1-bimodule (left a2, right a1)")
    d1, dm, d2 = a1.dim, m.dim, a2.dim
    n, o2 = d1 + dm + d2, d1 + dm

    def pad(off, vec):
        return (0,) * off + tuple(vec) + (0,) * (n - off - len(vec))

    def at(pairs, off):
        return tuple((k + off, c) for k, c in pairs if c)

    # the products inside the diagonal algebras, m x1 by the right action of
    # a1 and x2 m by the left action of a2; every other product is zero
    table = dict(a1.table)
    table.update(((i + o2, j + o2), at(ent, o2)) for (i, j), ent in a2.table.items())
    for x in range(d1):
        table.update(((d1 + i, x), at(enumerate(row), d1))
                     for i, row in enumerate(m.basis_action(x).rows) if any(row))
    for x in range(d2):
        table.update(((o2 + x, d1 + j), at(enumerate(row), d1))
                     for j, row in enumerate(m.basis_action(x, left=True).rows) if any(row))
    unit = a1.unit + (0,) * dm + a2.unit
    labels = tuple(f"L:{x}" for x in a1.basis_labels) + \
        tuple(f"M:m{i}" for i in range(dm)) + \
        tuple(f"R:{x}" for x in a2.basis_labels)
    basic = None
    if a1.basic is not None and a2.basic is not None:
        idem = tuple(pad(0, e) for e in a1.basic.idempotent_coords) + \
            tuple(pad(o2, e) for e in a2.basic.idempotent_coords)
        ilab = tuple(f"L:{l}" for l in a1.basic.idempotent_labels) + \
            tuple(f"R:{l}" for l in a2.basic.idempotent_labels)
        # rad = rad A1 + M + rad A2: the factors' generators and a basis of M
        mrows = tuple(pad(d1, unit_vector(dm, i)) for i in range(dm))
        rad = tuple(pad(0, r) for r in a1.basic.radical_generators.rows) + mrows + \
            tuple(pad(o2, r) for r in a2.basic.radical_generators.rows)
        gens = tuple(pad(0, g) for g in a1.generators()) + \
            tuple(pad(o2, g) for g in a2.generators()) + mrows
        basic = BasicStructure(idem, ilab, Matrix._of(f, rad, n), gens)
    alg = Algebra._of(f, n, table, unit, labels=labels, basic=basic, _validate=True)
    e1 = Idempotent(alg, pad(0, a1.unit), label="diag(1,0)")
    e2 = Idempotent(alg, pad(o2, a2.unit), label="diag(0,1)")
    return alg, e1, e2


def corner(a, e, with_embedding=False):
    """The corner algebra eAe with unit e, for an `Idempotent` e (and its
    basis in A-coordinates, `with_embedding`).  The basis is the RREF of the
    e b_i e, so an element of eAe, e among them, has its coordinates at the
    pivots; the table is right multiplication by the basis restricted to eAe
    (`_restrict`).  Its laws follow from A's and e^2 = e (checked by
    `Idempotent`), so A is checked once and certifies it."""
    a._check()
    f, ec = a.field, e.coords
    # row i of left_mult_matrix(e) right_mult_matrix(e) is e b_i e
    basis = row_space_basis(a.left_mult_matrix(ec).mul(a.right_mult_matrix(ec)))
    _, pivots, rights = _restrict(basis, [a.right_mult_matrix(x) for x in basis.rows])
    labels = tuple(_corner_label(a, row) for row in basis.rows)
    out = Algebra._of(f, basis.nrows, _table_of(rights), tuple(ec[p] for p in pivots),
                      labels=labels, basic=_corner_basic(a, ec, pivots, f))
    out.associativity_checked = True
    return (out, basis) if with_embedding else out


def _table_of(rights):
    """The canonical table whose right multiplication by b_j is rights[j]:
    (i, j) holds the nonzeros of row i of it, keys in row-major order."""
    n = len(rights)
    return {(i, j): ent for i in range(n) for j in range(n)
            if (ent := tuple((k, c) for k, c in enumerate(rights[j].rows[i]) if c))}


def _corner_label(a, row):
    nz = [(i, c) for i, c in enumerate(row) if c]
    if len(nz) == 1 and nz[0][1] == 1:
        return a.basis_labels[nz[0][0]]
    return "(" + "+".join(a.basis_labels[i] for i, _ in nz) + ")"


def _corner_basic(a, ec, pivots, f):
    if a.basic is None:
        return None
    # e must be an exact sum of a subset of the known orthogonal primitive
    # idempotents; then e*e_i is e_i (inside) or 0 (outside).
    chosen = []
    for idx, iv in enumerate(a.basic.idempotent_coords):
        prod = a.multiply(ec, iv)
        if prod == iv:
            chosen.append(idx)
        elif any(prod):
            return None
    if _sum_vecs(f, [a.basic.idempotent_coords[i] for i in chosen], a.dim) != ec:
        return None
    # the chosen idempotents, then the e r e, r in a basis of rad A (which
    # span e rad e = rad eAe), all in eAe: their corner coordinates are their
    # entries at its pivots
    rad = [v for v in (a.multiply(a.multiply(ec, r), ec) for r in radical(a).rows) if any(v)]
    coords = [tuple(v[p] for p in pivots)
              for v in [a.basic.idempotent_coords[idx] for idx in chosen] + rad]
    n = len(pivots)
    return BasicStructure(tuple(coords[:len(chosen)]),
                          tuple(a.basic.idempotent_labels[idx] for idx in chosen),
                          Matrix._of(f, tuple(coords[len(chosen):]), n),
                          tuple(unit_vector(n, i) for i in range(n)))


@dataclass
class IdealQuotient:
    ideal_rows: Matrix      # rows span the ideal (AeA) inside A
    quotient: Algebra       # A / AeA (may be the zero algebra)
    projection: Matrix      # dim(A) x dim(quotient), an algebra map
    section_cols: tuple     # basis indices of A representing quotient classes
    ideal_is_whole: bool
    left_action: tuple      # each generator of A acting on the quotient from the left
    right_action: tuple     # each generator of A acting on the quotient from the right


def ideal_and_quotient(a, e):
    """AeA for an `Idempotent` e, the quotient A/AeA, the projection and A's
    actions on the quotient (`_quotient_by_ideal`), after A's check."""
    a._check()
    n = a.dim
    # row j of left_mult_matrix(b_i e) is b_i e b_j
    span = [row for i in range(n)
            for row in a.left_mult_matrix(a.multiply(unit_vector(n, i), e.coords)).rows]
    return _quotient_by_ideal(a, Matrix(a.field, span, ncols=n), "~")


def center(a):
    """Row basis of the centre {z : z g = g z for every generator g}: the
    kernel of the rows (g, k) of z |-> (z g - g z)_k, read off the table: c
    at b_k in b_i b_j adds g_j c at column i and -g_i c at column j."""
    rows = {}
    for t, g in enumerate(a.generators()):
        for (i, j), ent in a.table.items():
            if g[i] or g[j]:
                for k, c in ent:
                    row = rows.setdefault((t, k), [0] * a.dim)
                    row[i] += g[j] * c
                    row[j] -= g[i] * c
    return kernel_basis(Matrix(a.field, rows.values(), ncols=a.dim)).transpose()


def radical(a):
    """RREF row basis of the Jacobson radical: with a basic structure, over
    any field, the span of the b_i r over its radical generators r (rad =
    sum A r), derived once per instance; otherwise the characteristic-zero
    trace form of the regular representation (F_p is unsupported there)."""
    if a.dim == 0:
        return Matrix(a.field, [], ncols=0)
    if a.basic is None:
        if a.field != QQ:
            raise UnsupportedField("radical over F_p needs a quiver presentation")
        return _radical_trace(a)
    if a._radical is None:
        # row (t, i) is b_i r_t: c at b_m in b_i b_k adds (r_t)_k c at m
        rows = {}
        for t, r in enumerate(a.basic.radical_generators.rows):
            for (i, k), ent in a.table.items():
                if r[k]:
                    row = rows.setdefault((t, i), [0] * a.dim)
                    for m, c in ent:
                        row[m] += r[k] * c
        a._radical = row_space_basis(Matrix(a.field, rows.values(), ncols=a.dim))
    return a._radical


def _radical_trace(a):
    n, tab = a.dim, a.table
    # the trace of b_k acting on A, then the trace form (b_i, b_j) = tr(b_i b_j)
    traces = [sum(dict(tab.get((k, i), ())).get(i, 0) for i in range(n)) for k in range(n)]
    rows = [[sum(c * traces[k] for k, c in tab.get((i, j), ())) for j in range(n)]
            for i in range(n)]
    gram = Matrix(a.field, rows, ncols=n)
    return kernel_basis(gram.transpose()).transpose()


# --------------------------------------------------------------------------
# Discovery of the basic structure over Q (structure-constant input).
# --------------------------------------------------------------------------


def discover_basic(a):
    """Attach primitive idempotents / radical to a Q-algebra given by tables.

    Works for split basic algebras (A/rad a product of copies of Q); raises
    NotSplitBasic otherwise.  Quiver-built algebras never need this.
    """
    if a.basic is not None:
        return a
    if a.field != QQ:
        raise UnsupportedField("basic-structure discovery requires Q")
    f = a.field
    rad = _radical_trace(a)
    iq = _quotient_by_ideal(a, rad)
    quot, lift_cols = iq.quotient, iq.section_cols
    if not quot.is_commutative():
        raise NotSplitBasic("A/rad is not commutative, hence not split basic")
    idem_bar = _split_commutative_semisimple(quot)
    # lift each idempotent along the section, then Newton + orthogonalise
    lifted = []
    for ev in idem_bar:
        x = [0] * a.dim
        for t, j in enumerate(lift_cols):
            x[j] = ev[t]
        one_minus = tuple(u - s for u, s in zip(a.unit, _sum_vecs(f, lifted, a.dim)))
        x = a.multiply(a.multiply(one_minus, tuple(x)), one_minus)
        x = _newton_idempotent(a, tuple(x))
        lifted.append(x)
    total = _sum_vecs(f, lifted, a.dim)
    if total != a.unit:
        raise NotSplitBasic("lifted idempotents do not sum to 1")
    basic = BasicStructure(tuple(lifted), tuple(f"p{i}" for i in range(len(lifted))),
                           rad, tuple(unit_vector(a.dim, i) for i in range(a.dim)))
    out = Algebra._of(f, a.dim, a.table, a.unit, labels=a.basis_labels, basic=basic)
    out.associativity_checked = a.associativity_checked
    return out


def _sum_vecs(f, vecs, n):
    out = [0] * n
    for v in vecs:
        out = [x + y for x, y in zip(out, v)]
    return tuple(map(f.coerce, out))


def _quotient_by_ideal(a, ideal, suffix=""):
    """A/I as an `IdealQuotient`, I the span of the rows of `ideal`: the
    multiplications by A's generators descend to it (`_descend`, which checks
    that I is closed under them, so a two-sided ideal), the classes of the
    b_j, j free, labelled with `suffix`, its basis, multiplied as A's products
    pushed to it.  Its laws follow from A's, so it is as checked as A is."""
    f, gens = a.field, a.generators()
    proj, free, acts = _descend(ideal, [a.left_mult_matrix(g) for g in gens]
                                + [a.right_mult_matrix(g) for g in gens])
    lam, rho = tuple(acts[:len(gens)]), tuple(acts[len(gens):])
    ideal_rows = row_space_basis(ideal)
    if not free:
        return IdealQuotient(ideal_rows, zero_algebra(f), proj, (), True, lam, rho)
    basic, b = None, a.basic

    def push(v):
        return combine_rows(proj, enumerate(v))
    if b is not None:
        idem = [(pv, il) for iv, il in zip(b.idempotent_coords, b.idempotent_labels)
                if any(pv := push(iv))]
        basic = BasicStructure(tuple(pv for pv, _ in idem), tuple(il for _, il in idem),
                               Matrix(f, [pv for r in b.radical_generators.rows
                                          if any(pv := push(r))], ncols=len(free)),
                               tuple(map(push, a.generators())))
    at = {j: t for t, j in enumerate(free)}
    table = {(at[i], at[j]): ent for (i, j), prod in a.table.items() if i in at and j in at
             if (ent := tuple((k, c) for k, c in enumerate(combine_rows(proj, prod)) if c))}
    quot = Algebra._of(f, len(free), table, push(a.unit),
                       labels=tuple(f"{a.basis_labels[j]}{suffix}" for j in free),
                       basic=basic)
    quot.associativity_checked = a.associativity_checked
    if basic is not None:
        # the class of b_j is b_j's combination of words in the generators' classes
        quot._words = lambda: tuple(a.words()[j] for j in free)
    return IdealQuotient(ideal_rows, quot, proj, tuple(free), False, lam, rho)


def _split_commutative_semisimple(quot):
    """Complete orthogonal primitive idempotents of a split commutative
    semisimple Q-algebra, by min-poly splitting (rational roots only)."""
    f = quot.field
    blocks = [tuple(quot.unit)]
    done = []
    while blocks:
        e = blocks.pop()
        sub = row_space_basis(quot.left_mult_matrix(e))    # the span of the e b_i
        if sub.nrows == 1:
            done.append(e)
            continue
        found = False
        for t in range(sub.nrows):
            y = sub.rows[t]
            roots = _rational_eigenvalues(quot, y, e, sub)
            if len(roots) >= 2:
                for lam in roots:
                    g = e
                    for mu in roots:
                        if mu != lam:
                            scale = f.inv(lam - mu)
                            g = quot.multiply(g, tuple(scale * (a_ - mu * b_)
                                                       for a_, b_ in zip(y, e)))
                    blocks.append(g)
                found = True
                break
        if not found:
            raise NotSplitBasic("A/rad has a factor not split over Q")
    done.sort()
    return done


def _rational_eigenvalues(quot, y, e, sub):
    """Rational roots of the minimal polynomial of y on the corner eA."""
    f = quot.field
    powers = [e]
    cur = e
    for _ in range(sub.nrows):
        cur = quot.multiply(cur, y)
        powers.append(cur)
    # first linear dependency gives the min poly
    m = Matrix(f, powers, ncols=quot.dim).transpose()
    ker = kernel_basis(m)
    coeffs = None
    for j in range(ker.ncols):
        colv = ker.col(j)
        deg = max(i for i, c in enumerate(colv) if c)
        if coeffs is None or deg < coeffs[0]:
            coeffs = (deg, colv)
    if coeffs is None:
        return []
    _, poly = coeffs
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    if not poly:
        return []
    den = lcm(*(c.denominator for c in poly))
    ipoly = [int(c * den) for c in poly]
    g = gcd(*ipoly)
    if g > 1:
        ipoly = [c // g for c in ipoly]
    roots = []
    while ipoly and ipoly[0] == 0:
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        ipoly = ipoly[1:]
    if len(ipoly) >= 2:
        a0, alead = ipoly[0], ipoly[-1]
        for p in _divisors(abs(a0)):
            for q in _divisors(abs(alead)):
                for sgn in (1, -1):
                    cand = Fraction(sgn * p, q)
                    val = Fraction(0)
                    for c in reversed(ipoly):
                        val = val * cand + c
                    if val == 0 and cand not in roots:
                        roots.append(cand)
    roots.sort()
    return roots


def _divisors(n):
    if n == 0:
        return [1]
    out = [d for d in range(1, abs(n) + 1) if n % d == 0]
    return out


def _newton_idempotent(a, x):
    f = a.field
    for _ in range(a.dim + 2):
        sq = a.multiply(x, x)
        if sq == x:
            return x
        cube = a.multiply(sq, x)
        x = tuple(f.coerce(3 * s - 2 * c) for s, c in zip(sq, cube))
    raise NotSplitBasic("idempotent lifting did not converge")
