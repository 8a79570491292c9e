"""Finite-dimensional associative unital algebras as structure constants.

An :class:`Algebra` stores the multiplication table c[i][j] = coordinates of
b_i * b_j, the coordinates of the unit, and (when known) a *basic structure*:
a complete list of orthogonal primitive idempotents with A/rad split (a
product of copies of the ground field), plus a basis of the Jacobson radical
and a small generating set.  Quiver algebras get this for free; tensor
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
from itertools import chain
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
    check_same_field,
    combine_rows,
    express_in_row_basis,
    field_tag_str,
    integer_array,
    kernel_basis,
    linear_combination,
    parse_field,
    quotient_map,
    row_space_basis,
    unit_vector,
)

@dataclass(frozen=True)
class BasicStructure:
    """Complete orthogonal primitive idempotents (split case) plus radical."""

    idempotent_coords: tuple
    idempotent_labels: tuple
    radical_rows: Matrix
    generator_coords: tuple


class Algebra:
    """Finite-dimensional associative unital algebra over an exact field."""

    def __init__(self, field, struct, unit, labels=None, basic=None, _validate=True):
        self.field = field
        dim = len(struct)
        self.dim = dim
        # exact ints are taken as they are (reduced mod p over F_p), other
        # entries coerced, as `Matrix` does its rows
        self.struct = tuple(_canonical_rows(field, (struct[i][j] for j in range(dim)))
                            for i in range(dim))
        self.unit = _canonical_rows(field, (unit,))[0]
        if len(self.unit) != dim:
            raise ValueError("unit coordinate length != dim")
        self.basis_labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(dim))
        if len(self.basis_labels) != dim:
            raise ValueError("label count != dim")
        self.basic = basic
        self._mult_sparse = None
        self._left_mats = None
        self._right_mats = None
        self._hashes = None
        self._ints = None
        self._opposite = None
        self._enveloping = None
        # (B, C) for a tensor product B (x) C built by `tensor`
        self._factors = None
        # modules over this algebra that modules.py builds once per instance
        self._modules = {}
        self.associativity_checked = False
        if _validate and dim:
            self._validate()

    # -- core structure ----------------------------------------------------

    @property
    def is_zero_algebra(self):
        return self.dim == 0

    def _sparse_table(self):
        if self._mult_sparse is None:
            tab = {}
            for i in range(self.dim):
                for j in range(self.dim):
                    ent = tuple((k, c) for k, c in enumerate(self.struct[i][j]) if c)
                    if ent:
                        tab[(i, j)] = ent
            self._mult_sparse = tab
        return self._mult_sparse

    def multiply(self, x, y):
        """Coordinates of (sum x_i b_i) * (sum y_j b_j)."""
        out = [0] * self.dim
        tab = self._sparse_table()
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
        """Matrix of v |-> coords(x * v) acting on row vectors: the sum of
        x_k times the matrix of b_k, whose row i is struct[k][i]."""
        return self._mult_matrix(x, self.basis_left_mats())

    def right_mult_matrix(self, x):
        """Matrix of v |-> coords(v * x) acting on row vectors: the sum of
        x_k times the matrix whose row i is struct[i][k]."""
        return self._mult_matrix(x, self.basis_right_mats())

    def _mult_matrix(self, x, mats):
        support = [k for k, c in enumerate(x) if c]
        if len(support) == 1 and x[support[0]] == 1:
            return mats[support[0]]
        return linear_combination(x, mats, self.field, self.dim, self.dim)

    def basis_left_mats(self):
        if self._left_mats is None:
            self._left_mats = tuple(Matrix._of(self.field, row, self.dim) for row in self.struct)
        return self._left_mats

    def basis_right_mats(self):
        if self._right_mats is None:
            self._right_mats = tuple(Matrix._of(self.field, col, self.dim)
                                     for col in zip(*self.struct))
        return self._right_mats

    def generators(self):
        if self.basic is not None and self.basic.generator_coords:
            return self.basic.generator_coords
        return tuple(unit_vector(self.dim, i) for i in range(self.dim))

    def is_commutative(self):
        return all(self.struct[i][j] == self.struct[j][i]
                   for i in range(self.dim) for j in range(i))

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.struct == other.struct
                and self.unit == other.unit)

    def __hash__(self):
        return hash((self.field, self.dim, self.unit, self.struct))

    def __repr__(self):
        return f"Algebra({field_tag_str(self.field)}, dim={self.dim})"

    def content_hash(self):
        """sha256 of the field, unit and structure constants."""
        return self._content_hashes()[0]

    def structure_hash(self):
        """content_hash extended by the basic structure (idempotent, radical
        and generator coordinates): one table can carry several, and
        projective covers read it.  A tensor product's is derived from its
        factors', which fix its table and basic structure, so its table is
        never formatted."""
        if self._factors is not None:
            keys = "|".join(x.structure_hash() for x in self._factors)
            return hashlib.sha256(f"tensor|{keys}".encode()).hexdigest()
        return self._content_hashes()[1]

    def _content_hashes(self):
        # an algebra is immutable, so both hashes are formatted once
        if self._hashes is None:
            h = hashlib.sha256()
            h.update(field_tag_str(self.field).encode())
            h.update(("|" + ",".join(map(str, self.unit))).encode())
            for i in range(self.dim):
                for j in range(self.dim):
                    h.update(("|" + ",".join(map(str, self.struct[i][j]))).encode())
            content = h.hexdigest()
            b = self.basic
            if b is not None:
                for part in (b.idempotent_coords, b.radical_rows.rows, b.generator_coords):
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
            flat = [x for i in support for entry in self.struct[i] for x in entry]
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

        The table is checked in integers (`integer_array`: over Q scaled by
        the common denominator, which scales both sides alike, over F_p
        compared mod p).  Each product sums dim terms of size at most max|c|^2.
        One slice per i keeps the working memory at dim^3 entries.
        """
        f, n = self.field, self.dim
        flat = [x for row in self.struct for entry in row for x in entry]
        C = integer_array(f, flat, lambda m: m * m * n)[0].reshape(n, n, n)
        left, right = C.reshape(n, n * n), C.reshape(n * n, n)
        for i in range(n):
            # [j, (l, k)]: ((b_i b_j) b_l)_k and (b_i (b_j b_l))_k
            lhs = C[i] @ left
            rhs = (right @ C[i]).reshape(n, n * n)
            if f != QQ:
                lhs, rhs = lhs % f.p, rhs % f.p
            if not np.array_equal(lhs, rhs):
                raise ValueError("associativity fails")


def zero_algebra(field):
    """The zero ring, used for degenerate quotients (A = AeA)."""
    return Algebra(field, (), (), labels=(), basic=BasicStructure((), (), Matrix(field, [], ncols=0), ()),
                   _validate=False)


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
        labels = [l for (_, _, l) in arrows]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate arrow labels")
        vs = set(self.vertices)
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

    def key(self):
        return (len(self.labels), self.labels, self.source)

    def display(self):
        if not self.labels:
            return f"e_{self.source}"
        return "*".join(reversed(self.labels))


def _enumerate_paths(q, max_len, budget):
    by_label = {l: (s, t) for (s, t, l) in q.arrows}
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
    return paths, by_label


class _Reducer:
    """Reduction of the path span modulo the relation ideal, up to a length bound."""

    def __init__(self, q, field, max_len, budget):
        self.q = q
        self.field = field
        self.max_len = max_len
        layers, self.arrow_ends = _enumerate_paths(q, max_len, budget)
        self.layers = layers
        ordered = []
        for d in range(max_len, -1, -1):
            ordered.extend(sorted(layers[d], key=lambda p: p.labels))
        self.paths = ordered  # longest first, lex within a length
        self.index = {(p.source, p.labels): i for i, p in enumerate(self.paths)}
        self._build_ideal()

    def _path_lookup(self, source, labels):
        return self.index.get((source, labels))

    def _relation_rows(self):
        f = self.field
        n = len(self.paths)
        rows = []
        for rel in self.q.relations:
            # determine common source/target of composable products
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
                        # compose qpath, then mid, then p
                        src, lab = qpath.source, qpath.labels
                        cur_target = qpath.target
                        # mid arrows must start where qpath ends
                        valid = True
                        for arrow in mid:
                            s, t = self.arrow_ends[arrow]
                            if s != cur_target:
                                valid = False
                                break
                            lab = lab + (arrow,)
                            cur_target = t
                        if valid and cur_target == p.source:
                            lab = lab + p.labels
                            idx = self._path_lookup(src, lab)
                            if idx is None:
                                valid = False
                            else:
                                row[idx] += f.coerce(coeff)
                                nonzero = True
                        if not valid:
                            continue
                    if ok and nonzero:
                        rows.append(row)
        return rows

    def _build_ideal(self):
        rows = self._relation_rows()
        self.projection, self.basis_cols = quotient_map(
            Matrix(self.field, rows, ncols=len(self.paths)))

    def reduce_path(self, source, labels):
        """Coordinates of a path class over the surviving (non-pivot) paths."""
        idx = self._path_lookup(source, labels)
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

    def reduce_to_basis(source, labels):
        raw = red.reduce_path(source, labels)
        out = [0] * n
        for j, c in raw.items():
            p = red.paths[j]
            out[pos[(p.source, p.labels)]] = c
        return tuple(out)

    struct = []
    for p in survivors:           # left factor
        row = []
        for qq_ in survivors:     # right factor (applied first)
            if p.source != qq_.target:
                row.append((0,) * n)
            else:
                row.append(reduce_to_basis(qq_.source, qq_.labels + p.labels))
        struct.append(tuple(row))

    labels = [p.display() for p in survivors]
    unit = [0] * n
    vert_coords = {}
    for v in q.vertices:
        i = pos[(v, ())]
        vert_coords[v] = unit_vector(n, i)
        unit[i] = 1
    rad_rows = Matrix(f, [unit_vector(n, i) for i, p in enumerate(survivors) if len(p) >= 1],
                      ncols=n)
    gens = tuple(vert_coords[v] for v in q.vertices) + tuple(
        unit_vector(n, pos[(s, (l,))]) for (s, t, l) in q.arrows if (s, (l,)) in pos)
    basic = BasicStructure(
        idempotent_coords=tuple(vert_coords[v] for v in q.vertices),
        idempotent_labels=tuple(q.vertices),
        radical_rows=rad_rows,
        generator_coords=gens,
    )
    alg = Algebra(f, struct, tuple(unit), labels=labels, basic=basic)
    alg.quiver = q
    return alg


# --------------------------------------------------------------------------
# Constructions.
# --------------------------------------------------------------------------


def opposite(a):
    """Same space, transposed multiplication table; an involution, built once
    per instance (opposite(opposite(a)) is a)."""
    if a._opposite is not None:
        return a._opposite
    struct = tuple(tuple(a.struct[j][i] for j in range(a.dim)) for i in range(a.dim))
    basic = None
    if a.basic is not None:
        basic = BasicStructure(a.basic.idempotent_coords, a.basic.idempotent_labels,
                               a.basic.radical_rows, a.basic.generator_coords)
    out = Algebra(a.field, struct, a.unit, labels=a.basis_labels, basic=basic, _validate=False)
    out.associativity_checked = a.associativity_checked
    a._opposite, out._opposite = out, a
    return out


def tensor(a, b):
    """Tensor product algebra with lexicographic basis b_i (x) c_j."""
    check_same_field(a.field, b.field)
    f = a.field
    da, db = a.dim, b.dim
    n = da * db
    taba = a._sparse_table()
    tabb = b._sparse_table()
    struct = [[None] * n for _ in range(n)]
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    row = [0] * n
                    ea = taba.get((i, k))
                    eb = tabb.get((j, l))
                    if ea and eb:
                        for m, cm in ea:
                            for r, cr in eb:
                                row[m * db + r] = cm * cr
                    struct[i * db + j][k * db + l] = tuple(row)
    struct = tuple(tuple(r) for r in struct)
    unit = tensor_coords(f, a.unit, b.unit, db)
    labels = tuple(f"{la}⊗{lb}" for la in a.basis_labels for lb in b.basis_labels)
    basic = None
    if a.basic is not None and b.basic is not None:
        idem = []
        ilab = []
        for ea, la in zip(a.basic.idempotent_coords, a.basic.idempotent_labels):
            for eb, lb in zip(b.basic.idempotent_coords, b.basic.idempotent_labels):
                idem.append(tensor_coords(f, ea, eb, db))
                ilab.append(f"{la}⊗{lb}")
        rad = []
        for rrow in a.basic.radical_rows.rows:
            for j in range(db):
                rad.append(tensor_coords(f, rrow, unit_vector(db, j), db))
        for i in range(da):
            for rrow in b.basic.radical_rows.rows:
                rad.append(tensor_coords(f, unit_vector(da, i), rrow, db))
        rad_rows = row_space_basis(Matrix(f, rad, ncols=n))
        gens = tuple(tensor_coords(f, g, b.unit, db) for g in a.generators()) + \
            tuple(tensor_coords(f, a.unit, g, db) for g in b.generators())
        basic = BasicStructure(tuple(idem), tuple(ilab), rad_rows, gens)
    out = Algebra(f, struct, unit, labels=labels, basic=basic, _validate=False)
    out.associativity_checked = a.associativity_checked and b.associativity_checked
    out._factors = (a, b)
    return out


def tensor_coords(f, x, y, db):
    """Coordinates of x (x) y in the lexicographic basis b_i (x) c_j (db = len(y))."""
    out = [0] * (len(x) * db)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    out[i * db + j] = xi * yj
    return tuple(map(f.coerce, out))


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
    n = d1 + dm + d2

    def pad(block, vec):
        out = [0] * n
        off = {0: 0, 1: d1, 2: d1 + dm}[block]
        for i, x in enumerate(vec):
            out[off + i] = x
        return tuple(out)

    rows = []
    zrow = (0,) * n
    for i in range(n):
        row = []
        for j in range(n):
            # basis element i times basis element j
            if i < d1 and j < d1:
                row.append(pad(0, a1.struct[i][j]))
            elif i < d1:
                row.append(zrow)
            elif i < d1 + dm:
                if j < d1:  # m * x1 : right action of a1
                    row.append(pad(1, m.right_action_matrices[j].row(i - d1)))
                else:
                    row.append(zrow)
            else:
                i2 = i - d1 - dm
                if d1 <= j < d1 + dm:  # x2 * m : left action of a2
                    row.append(pad(1, m.left_action_matrices[i2].row(j - d1)))
                elif j >= d1 + dm:
                    row.append(pad(2, a2.struct[i2][j - d1 - dm]))
                else:
                    row.append(zrow)
        rows.append(tuple(row))
    unit = [0] * n
    for i, x in enumerate(a1.unit):
        unit[i] = x
    for i, x in enumerate(a2.unit):
        unit[d1 + dm + i] = x
    labels = tuple(f"L:{x}" for x in a1.basis_labels) + \
        tuple(f"M:m{i}" for i in range(dm)) + \
        tuple(f"R:{x}" for x in a2.basis_labels)
    basic = None
    if a1.basic is not None and a2.basic is not None:
        idem = tuple(pad(0, e) for e in a1.basic.idempotent_coords) + \
            tuple(pad(2, e) for e in a2.basic.idempotent_coords)
        ilab = tuple(f"L:{l}" for l in a1.basic.idempotent_labels) + \
            tuple(f"R:{l}" for l in a2.basic.idempotent_labels)
        rad = [pad(0, r) for r in a1.basic.radical_rows.rows]
        rad += [pad(1, unit_vector(dm, i)) for i in range(dm)]
        rad += [pad(2, r) for r in a2.basic.radical_rows.rows]
        gens = tuple(pad(0, g) for g in a1.generators()) + \
            tuple(pad(2, g) for g in a2.generators()) + \
            tuple(pad(1, unit_vector(dm, i)) for i in range(dm))
        basic = BasicStructure(idem, ilab, row_space_basis(Matrix(f, rad, ncols=n)), gens)
    alg = Algebra(f, rows, tuple(unit), labels=labels, basic=basic)
    e1 = Idempotent(alg, pad(0, a1.unit), label="diag(1,0)")
    e2 = Idempotent(alg, pad(2, a2.unit), label="diag(0,1)")
    return alg, e1, e2


@dataclass
class CornerData:
    algebra: Algebra
    embedding: Matrix  # rows: corner basis in A-coordinates


def corner(a, e, with_embedding=False):
    """The corner algebra eAe with unit e."""
    f = a.field
    ec = e.coords if isinstance(e, Idempotent) else tuple(f.coerce(x) for x in e)
    span = []
    for i in range(a.dim):
        span.append(a.multiply(a.multiply(ec, unit_vector(a.dim, i)), ec))
    basis = row_space_basis(Matrix(f, span, ncols=a.dim))
    n = basis.nrows
    # the products b_i b_j (row-major) and then e, in the corner basis
    coords = _in_basis(basis, [a.multiply(x, y) for x in basis.rows for y in basis.rows] + [ec])
    struct = [coords[i * n:(i + 1) * n] for i in range(n)]
    unit = coords[-1]
    labels = tuple(_corner_label(a, basis.rows[i]) for i in range(n))
    basic = _corner_basic(a, ec, basis, f)
    out = Algebra(f, struct, unit, labels=labels, basic=basic)
    if with_embedding:
        return CornerData(out, basis)
    return out


def _corner_label(a, row):
    nz = [(i, c) for i, c in enumerate(row) if c]
    if len(nz) == 1 and nz[0][1] == 1:
        return a.basis_labels[nz[0][0]]
    return "(" + "+".join(a.basis_labels[i] for i, _ in nz) + ")"


def _in_basis(basis, vecs):
    """Coordinates of each of `vecs` in the rows of `basis`, one batch."""
    coords = express_in_row_basis(basis, Matrix(basis.field, vecs, ncols=basis.ncols))
    if coords is None:
        raise ValueError("vector not in subspace")
    return coords.rows


def _corner_basic(a, ec, basis, f):
    if a.basic is None:
        return None
    # e must be an exact sum of a subset of the known orthogonal primitive
    # idempotents; then e*e_i is e_i (inside) or 0 (outside).
    chosen = []
    zero_vec = (0,) * a.dim
    for idx, iv in enumerate(a.basic.idempotent_coords):
        prod = a.multiply(ec, iv)
        if prod == iv:
            chosen.append(idx)
        elif prod != zero_vec:
            return None
    acc = _sum_vecs(f, [a.basic.idempotent_coords[i] for i in chosen], a.dim)
    if acc != ec:
        return None
    ilab = tuple(a.basic.idempotent_labels[idx] for idx in chosen)
    rad = [v for v in (a.multiply(a.multiply(ec, r), ec) for r in a.basic.radical_rows.rows)
           if any(v)]
    # the chosen idempotents, then e rad e, in the corner basis
    coords = _in_basis(basis, [a.basic.idempotent_coords[idx] for idx in chosen] + rad)
    rad_rows = row_space_basis(Matrix(f, coords[len(chosen):], ncols=basis.nrows))
    gens = tuple(unit_vector(basis.nrows, i) for i in range(basis.nrows))
    return BasicStructure(coords[:len(chosen)], ilab, rad_rows, gens)


@dataclass
class IdealQuotient:
    ideal_rows: Matrix      # rows span AeA inside A
    quotient: Algebra       # A / AeA (may be the zero algebra)
    projection: Matrix      # dim(A) x dim(quotient), an algebra map
    section_cols: tuple     # basis indices of A representing quotient classes
    ideal_is_whole: bool


def ideal_and_quotient(a, e):
    """The two-sided ideal AeA, the quotient algebra, and the projection."""
    f = a.field
    ec = e.coords if isinstance(e, Idempotent) else tuple(f.coerce(x) for x in e)
    span = []
    for i in range(a.dim):
        bie = a.multiply(unit_vector(a.dim, i), ec)
        for j in range(a.dim):
            span.append(a.multiply(bie, unit_vector(a.dim, j)))
    ideal = Matrix(f, span, ncols=a.dim)
    proj, free = quotient_map(ideal)
    ideal_rows = row_space_basis(ideal)
    nq = len(free)
    if nq == 0:
        return IdealQuotient(ideal_rows, zero_algebra(f), proj, (), True)
    # coordinates in A/AeA of an element of A: reduce modulo AeA through proj
    struct = tuple(tuple(tuple(combine_rows(proj, enumerate(a.struct[i][j]))) for j in free)
                   for i in free)
    unit = tuple(combine_rows(proj, enumerate(a.unit)))
    labels = tuple(f"{a.basis_labels[j]}~" for j in free)
    basic = None
    if a.basic is not None:
        idem = []
        ilab = []
        for iv, il in zip(a.basic.idempotent_coords, a.basic.idempotent_labels):
            pv = tuple(combine_rows(proj, enumerate(iv)))
            if any(pv):
                idem.append(pv)
                ilab.append(il)
        rad_rows = row_space_basis(Matrix(f, [combine_rows(proj, enumerate(r))
                                              for r in a.basic.radical_rows.rows], ncols=nq))
        gens = tuple(tuple(combine_rows(proj, enumerate(g))) for g in a.generators())
        basic = BasicStructure(tuple(idem), tuple(ilab), rad_rows, gens)
    quot = Algebra(f, struct, unit, labels=labels, basic=basic)
    # the projection must be an algebra map
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = quot.multiply(proj.rows[i], proj.rows[j])
            rhs = tuple(combine_rows(proj, enumerate(a.struct[i][j])))
            if lhs != rhs:
                raise ValueError("projection failed to be an algebra map")
    return IdealQuotient(ideal_rows, quot, proj, tuple(free), False)


def center(a):
    """Row basis of the centre {z : z b_i = b_i z for all i}."""
    if a.dim == 0:
        return Matrix(a.field, [], ncols=0)
    stacked = None
    for i in range(a.dim):
        L = a.basis_left_mats()[i]
        Rm = a.basis_right_mats()[i]
        diff = Rm.sub(L).transpose()
        stacked = diff if stacked is None else stacked.vstack(diff)
    ker = kernel_basis(stacked)
    return ker.transpose()


def radical(a):
    """Row basis of the Jacobson radical.

    Quiver-presented (and other basic-tagged) algebras answer from the stored
    arrow-ideal basis over any field; otherwise the characteristic-zero trace
    form of the regular representation is used.  F_p without a presentation is
    unsupported.
    """
    if a.dim == 0:
        return Matrix(a.field, [], ncols=0)
    if a.basic is not None:
        return a.basic.radical_rows
    if a.field != QQ:
        raise UnsupportedField("radical over F_p needs a quiver presentation")
    return _radical_trace(a)


def _radical_trace(a):
    n = a.dim
    traces = [sum(a.struct[k][i][i] for i in range(n)) for k in range(n)]
    rows = [[sum(c * t for c, t in zip(a.struct[i][j], traces) if c) for j in range(n)]
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
    quot, proj, lift_cols = _quotient_by_ideal(a, rad)
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
    out = Algebra(f, a.struct, a.unit, labels=a.basis_labels, basic=basic, _validate=False)
    out.associativity_checked = a.associativity_checked
    return out


def _sum_vecs(f, vecs, n):
    out = [0] * n
    for v in vecs:
        out = [x + y for x, y in zip(out, v)]
    return tuple(map(f.coerce, out))


def _quotient_by_ideal(a, ideal_rows):
    proj, free = quotient_map(ideal_rows)
    struct = tuple(tuple(tuple(combine_rows(proj, enumerate(a.struct[i][j]))) for j in free)
                   for i in free)
    quot = Algebra(a.field, struct, tuple(combine_rows(proj, enumerate(a.unit))),
                   labels=tuple(a.basis_labels[j] for j in free), _validate=False)
    return quot, proj, tuple(free)


def _split_commutative_semisimple(quot):
    """Complete orthogonal primitive idempotents of a split commutative
    semisimple Q-algebra, by min-poly splitting (rational roots only)."""
    f = quot.field
    blocks = [tuple(quot.unit)]
    done = []
    while blocks:
        e = blocks.pop()
        sub = _corner_span(quot, e)
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


def _corner_span(quot, e):
    span = [quot.multiply(e, unit_vector(quot.dim, i)) for i in range(quot.dim)]
    return row_space_basis(Matrix(quot.field, span, ncols=quot.dim))


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
