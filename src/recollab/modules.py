"""Finite-dimensional right modules and bimodules with exact action matrices.

Module elements are row vectors.  A right action is a homomorphism
rho: A -> End, acting by v |-> v @ rho(a); a left action is an
anti-homomorphism lam (lam(bc) = lam(c) @ lam(b)), acting by v |-> v @ lam(b).
A B-A-bimodule therefore is the same thing as a right module over
B^op (x) A via (b^op (x) a) |-> lam(b) @ rho(a), which is how bimodules are
fed to the resolution machinery.

An action is given and stored as one matrix per element of its algebra's
`generators()`, as QPA stores a quiver representation: a module's `gens`, a
bimodule's `left_gens` and `right_gens`; the public constructors take these
and check their laws (`_checked`), and `_of` takes them unchecked.
Restriction, descent, sums, tops, Hom and (x), and everything over A^e read
these only.  A basis element's action is derived from its words
(`Algebra.words`) only where a reader needs it, and kept on the object: a
law check, a triangular algebra's table, `action_of` for a non-generator
(a cover's idempotents, a discovered radical, i_*).  Yoneda's blocks (out of a
`projective_module` or A_A), a cover's surjection and `free_cover` take
vectors along the words instead (`images`).

The action laws are asserted when a public constructor builds a module, map
or bimodule: once per object for a map, once per representative (below) for
a module or bimodule.  `_of` builds one unchecked, and every module the
engine derives is certified when built (`_certified`) by the checks that
imply its laws: the regular module and bimodule by A's unit and
associativity check; a restriction to an invariant subspace or a descent to
a quotient (`exactfield._restrict`, `_descend`, whose invariance checks prove
the laws inherited) by what it came from: Ae, eA, AeA and A/AeA by the
regular bimodule, a submodule or quotient by its module; a direct sum (a
`projective_module`, a free cover) by its summands; a swap of sides by what
it swaps; a bimodule's one-sided modules and its module over `enveloping`
by the bimodule; a vertex projective of B (x) C by its factors'; every
M (x)_B N and Hom_A(U, M) by their arguments; in `homology`, A over A^e; in
`recollement`, A/AeA over the quotient algebra by A/AeA, i_* by its module.
A right module is its own k-A-bimodule, checked only as a module.
Each check is complete: one `exactfield._blocks` conversion of every matrix
it reads, then integer numpy products per slice of at most `_CHUNK` entries;
the failing generator or basis element is located only once a check has
failed.

Built once per algebra instance (`_once` on `Algebra._modules`): vertex
projectives, tagged `projective_module`s, simples, regular module and bimodule,
the zero module.  Kept on a module: its left action lam(1) = id, hash, top,
top dimensions, derived actions and Hom out of it; on either, (x) out of
it.  Hom and (x) are keyed by the second argument's id, an entry keeps that
argument (so the id is never reused), nothing is global.  Per content: the
representative of a module or bimodule (`_rep`) is the first live object
over the same algebra instance (same pair, for a bimodule) with equal
generator actions, found in a weak table on the (right) algebra, so the law
check, Hom (rebound to the asking pair), (x) and a resolution step
(`complexes._step`) run once per representative, and Yoneda reads the layout
of a `projective_module` or A_A off every equal module.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .algebra import (
    Algebra,
    Idempotent,
    _Built,
    corner,
    discover_basic,
    ideal_and_quotient,
    opposite,
    radical,
)
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    Inconclusive,
    NotInHomSpace,
    UnsupportedField,
)
from .exactfield import (
    _CHUNK,
    QQ,
    Matrix,
    _blocks,
    _descend,
    _nonzero,
    _restrict,
    check_same_field,
    combine_rows,
    express_in_row_basis,
    kernel_basis,
    kron,
    linear_combination,
    quotient_map,
    rank,
    rref,
    sylvester_rows,
    unit_vector,
)


def _once(store, key, build):
    """store[key], from `build()` on the first request: the memo behind
    everything built once per algebra instance, module or bimodule."""
    if key not in store:
        store[key] = build()
    return store[key]


def _rep(x):
    """The representative of a module or bimodule x: the first live object
    over the same algebra instance (for a bimodule, the same pair) with equal
    generator actions, entry for entry.  The table is weak and kept on the
    (right) algebra; x keeps its representative in its memo, never itself."""
    memo = x._memo
    if "rep" not in memo:
        key = (x.dim,) + tuple((id(a), tuple(m.rows for m in gens)) for a, gens in x._sides.values())
        reps = _once(x._sides[False][0]._modules, "reps", weakref.WeakValueDictionary)
        rep = reps.setdefault(key, x)
        memo["rep"] = None if rep is x else rep
        if "checked" in memo:
            rep._memo["checked"] = None
    return memo["rep"] or x


def _record(x):
    """The memo that records x as checked: its representative's once x has
    one (x's own record passes to it then), else x's own."""
    return _rep(x)._memo if "rep" in x._memo else x._memo


def _checked(x):
    """x, its laws checked once per representative: they hold for x iff they
    hold for it.  A failing check stores nothing, so it raises every time."""
    if "checked" not in _record(x):
        _once(_rep(x)._memo, "checked", x._validate)
    return x


def _certified(x, *by):
    """x, recorded as checked (`_record`) once the objects `by`, whose laws
    imply x's, pass `_checked` (an algebra, `Algebra._check`); a failing one
    raises every time.  No representative is sought for x."""
    for y in by:
        if isinstance(y, Algebra):
            y._check()
        else:
            _checked(y)
    _record(x)["checked"] = None
    return x


def _shared(x):
    """x, given a representative now, so an equal module built later (often a
    simple) reads x's record instead of running its own check."""
    _rep(x)
    return x


def _check_action(a, R, G, r, d):
    """Raise unless the stack R (`_blocks`: a row of d * d integers per basis
    element of `a`, scaled by r) is a right action whose generators act by G
    (a row per generator, scaled by r): rho(1) = id, each generator's
    combination of R is its row of G, and rho(g b) = rho(g) rho(b) for every
    generator g and basis element b, so by induction on words rho is
    multiplicative, at |generators| * dim A products.  With the algebra's
    tables scaled by s, rho(g) rho(b_j) is scaled by s r^2 and
    sum_k (g b_j)_k rho(b_k) by s r, so the second is multiplied by r before
    comparing."""
    n = a.dim
    unit, gens, prods, s, _ = a._int_tables()
    p = getattr(a.field, "p", None)
    one = unit @ R
    one[::d + 1] -= s * r
    if _nonzero(one, p).any():
        raise ValueError("rho(1) != id")
    if _nonzero(gens @ R - s * G, p).any():
        raise ValueError("the generators act unlike their words")
    k, square = len(gens), R.reshape(n, d, d)
    rho = (gens @ R).reshape(k, 1, d, d)
    step = max(1, _CHUNK // (n * d * d))
    for g0 in range(0, k, step):
        lhs = (rho[g0:g0 + step] @ square).reshape(-1, n, d * d)
        bad = _nonzero(lhs - r * (prods[g0:g0 + step] @ R), p)
        if bad.any():
            g, j = np.argwhere(bad.any(axis=2))[0]
            raise ValueError(f"action incompatibility at generator "
                             f"{a.generators()[g0 + g]}, basis {j}")


def _shaped(a, gens, d):
    """gens, once they are one d x d matrix over a's field per generator of a."""
    gens = tuple(gens)
    if len(gens) != len(a.generators()) or any(m.nrows != d or m.ncols != d for m in gens):
        raise DimensionMismatch("need one dim x dim action matrix per algebra generator")
    check_same_field(a.field, *(m.field for m in gens))
    return gens


class _Acted(_Built):
    """What modules and bimodules share: each action is stored as one matrix
    per element of its algebra's `generators()` (`_sides`: left -> (algebra,
    matrices)), and a basis element's action is derived from its words where
    a reader needs it."""

    # the vertex of each summand e_v A, set only by `projective_module`
    summand_tags = None

    def _acting(self, left):
        """(algebra, generator matrices) of one side; a module's left one is
        not in `_sides`, which keys its representative."""
        if left:
            return self.left_algebra, self.left_gens
        return self.right_algebra, self.right_gens

    def basis_action(self, i, left=False):
        """The action of basis element i (of the left algebra of a bimodule,
        with `left`), derived from its words, with the products on the way,
        in the memo."""
        alg, gens = self._acting(left)
        memo = _once(self._memo, ("acts", left), dict)
        if i not in memo:
            memo[i] = alg.word_products(gens, [unit_vector(alg.dim, i)], memo, left)[0]
        return memo[i]

    def action_of(self, x, left=False):
        """The action of the element with coordinates x: a generator's stored
        matrix, otherwise the sum of its basis elements' derived actions."""
        alg, gens = self._acting(left)
        t = _once(alg._modules, "generator index",
                  lambda: {g: t for t, g in enumerate(alg.generators())}).get(tuple(x))
        if t is not None:
            return gens[t]
        terms = [(c, self.basis_action(i, left)) for i, c in enumerate(x) if c]
        return linear_combination([c for c, _ in terms], [m for _, m in terms],
                                  self.field, self.dim, self.dim)

    def images(self, rows, xs, left=False):
        """rows rho(x) for each element x of xs (coordinates), and with `left`
        rows lam(x)^T, a product in the order of x's words: no rho(x) is
        derived, each word taking the rows one generator matrix further."""
        alg, gens = self._acting(left)
        if left:
            gens = _once(self._memo, "transposed", lambda: [g.transpose() for g in gens])
        return alg.word_products(gens, xs, {(): rows})

    def _stack(self, left=False):
        """Every basis element's action: only a law check and a document's
        bimodule (`cli`) read them all."""
        return [self.basis_action(i, left) for i in range(self._acting(left)[0].dim)]

    def swap_sides(self):
        """The same space as an A^op-B^op-bimodule (for opposite transfers),
        certified by this object: its laws are the same laws."""
        return _certified(Bimodule._of(opposite(self.right_algebra), opposite(self.left_algebra),
                                       self.dim, self.right_gens, self.left_gens), self)

    def __eq__(self, other):
        return type(other) is type(self) and (self.dim, self._sides) == (other.dim, other._sides)

    def __hash__(self):
        return hash((self.dim, tuple(self._sides.values())))


class RightModule(_Acted):
    """Right module over a fixed algebra, given and stored as `gens`: the
    matrix of each element of `algebra.generators()`.  It is its own
    k-A-bimodule: `right_algebra` and `right_gens` name these, and the ground
    field acts on the left by lam(1) = id."""

    def __init__(self, algebra, dim, gens):
        """`gens` holds one matrix per element of `algebra.generators()`:
        checked for count and shape, then for the laws (`_checked`)."""
        self._setup(algebra, dim, _shaped(algebra, gens, dim))
        _checked(self)

    def _setup(self, algebra, dim, gens):
        self.gens = self.right_gens = gens = tuple(gens)
        self.algebra = self.right_algebra = algebra
        self.dim, self.field = dim, algebra.field
        self._sides, self._memo = {False: (algebra, gens)}, {}

    @property
    def left_algebra(self):
        return trivial_algebra(self.field)

    @property
    def left_gens(self):
        return _once(self._memo, "left_gens", lambda: (Matrix.identity(self.field, self.dim),))

    def restrict_right(self):
        return self

    def _validate(self):
        """The action laws (`_check_action`) on one conversion of the derived
        stack and the generator matrices."""
        a, d, n = self.algebra, self.dim, self.algebra.dim
        if d == 0:
            return
        ma = a._int_tables()[4]
        (R, G), r = _blocks(self.field, [(n, d * d, self._stack()), (len(self.gens), d * d, self.gens)],
                            lambda m: n * d * max(m, ma) ** 3)
        _check_action(a, R, G, r, d)

    def __repr__(self):
        return f"RightModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"

    def content_hash(self):
        """sha256 of the algebra's structure hash and the generator actions, once."""
        return _once(self._memo, "hash", lambda: hashlib.sha256("".join(
            [self.algebra.structure_hash(), f"|mod{self.dim}"]
            + [m.content_hash() for m in self.gens]).encode()).hexdigest())


def zero_module(algebra):
    """The zero module, one per algebra instance."""
    return _once(algebra._modules, "zero", lambda: _certified(RightModule._of(
        algebra, 0, (Matrix._of(algebra.field, (), 0),) * len(algebra.generators()))))


def regular_module(a):
    """A as a right module over itself, built once per instance, certified by A."""
    return _once(a._modules, "regular_module", lambda: _shared(_certified(RightModule._of(
        a, a.dim, [a.right_mult_matrix(g) for g in a.generators()]), a)))


class ModuleMap(_Built):
    """A-linear map between right modules, as a dim(src) x dim(tgt) matrix
    (`_of`: unchecked, for a map A-linear by construction)."""

    def __init__(self, source, target, matrix):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("module map across different algebras")
        if matrix.nrows != source.dim or matrix.ncols != target.dim:
            raise DimensionMismatch("module map shape")
        self._setup(source, target, matrix)
        self._validate()

    def _setup(self, source, target, matrix):
        self.source, self.target, self.matrix = source, target, matrix

    def _validate(self):
        """F is over the modules' field, and rho_src(g) F = F rho_tgt(g) for
        every generator g in integers: both actions and F share one scale."""
        src, tgt = self.source, self.target
        check_same_field(src.field, self.matrix.field)
        k, ds, dt = len(src.gens), src.dim, tgt.dim
        (S, T, F), _ = _blocks(
            src.field, [(k, ds * ds, src.gens), (k, dt * dt, tgt.gens), (ds, dt, (self.matrix,))],
            lambda m: max(ds, dt) * m * m)
        diff = S.reshape(k, ds, ds) @ F - F @ T.reshape(k, dt, dt)
        if _nonzero(diff, getattr(src.field, "p", None)).any():
            raise ValueError("matrix does not intertwine the actions")

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


class Bimodule(_Acted):
    """B-A-bimodule: commuting left B-action (anti-hom) and right A-action
    (hom), given and stored as `left_gens` and `right_gens`, the matrices of
    B's and A's `generators()`."""

    def __init__(self, left_algebra, right_algebra, dim, left_gens, right_gens):
        """The actions hold one matrix per element of each algebra's
        `generators()`: checked for counts and shapes, then for the laws
        (`_checked`)."""
        check_same_field(left_algebra.field, right_algebra.field)
        self._setup(left_algebra, right_algebra, dim, _shaped(left_algebra, left_gens, dim),
                    _shaped(right_algebra, right_gens, dim))
        _checked(self)

    def _setup(self, left_algebra, right_algebra, dim, left_gens, right_gens):
        left_gens, right_gens = tuple(left_gens), tuple(right_gens)
        self.left_algebra, self.right_algebra = left_algebra, right_algebra
        self.field, self.dim = left_algebra.field, dim
        self.left_gens, self.right_gens = left_gens, right_gens
        self._sides = {True: (left_algebra, left_gens), False: (right_algebra, right_gens)}
        self._memo = {}

    def _validate(self):
        """The right action is a module over A and the left one over B^op (a
        module's check of each, run afresh on sides sharing this bimodule's
        derived actions), and they commute."""
        if self.dim == 0:
            return
        B, A, d = self.left_algebra, self.right_algebra, self.dim
        for left, alg in ((False, A), (True, opposite(B))):
            side = RightModule._of(alg, d, self._sides[left][1])
            side._memo[("acts", False)] = _once(self._memo, ("acts", left), dict)
            side._validate()
        # the two actions commute: both are multiplicative, so the matrices
        # commuting with one action form a subalgebra, and generator pairs
        # suffice; in integers both actions share one scale
        kl, kr, p = len(self.left_gens), len(self.right_gens), getattr(self.field, "p", None)
        (lm, rm), _ = _blocks(self.field, [(kl, d * d, self.left_gens),
                                           (kr, d * d, self.right_gens)], lambda m: d * m * m)
        lm, rm = lm.reshape(kl, 1, d, d), rm.reshape(kr, d, d)
        step = max(1, _CHUNK // (kr * d * d))
        for g0 in range(0, kl, step):
            part = lm[g0:g0 + step]
            bad = _nonzero(part @ rm - rm @ part, p)
            if bad.any():
                g, h = np.argwhere(bad.reshape(-1, kr, d * d).any(axis=2))[0]
                raise ValueError(f"left and right actions do not commute at generators "
                                 f"{B.generators()[g0 + g]}, {A.generators()[h]}")

    def restrict_right(self):
        """Forget the left action: a right module over the right algebra,
        built once (a `RightModule` is its own)."""
        return self._side("right", self.right_algebra, self.right_gens)

    def left_as_op_module(self):
        """The left B-action viewed as a right module over B^op, built once."""
        return self._side("left_op", opposite(self.left_algebra), self.left_gens)

    def _side(self, key, alg, gens):
        """One action as a right module over `alg`, `_shared`: certified by
        this bimodule once that is checked or certified, else checked itself."""
        def build():
            mod = RightModule._of(alg, self.dim, gens)
            return _shared(_certified(mod, self if "checked" in _record(self) else mod))
        return _once(self._memo, key, build)

    def as_right_module_over(self, env):
        """Right module over env = `tensor(opposite(B), A)` of these very
        instances (`enveloping(A)` for an A-A-bimodule), built once per
        instance of env: its generators g (x) 1 and 1 (x) g act by the
        sides' generators, and its laws on the Kronecker table are the
        bimodule's, which certify it.  Any other env is refused, and so is
        one without a basic structure, whose generators are its basis."""
        bop, a = env._factors or (None, None)
        if a is not self.right_algebra or bop is not opposite(self.left_algebra):
            raise AlgebraMismatch("a bimodule acts over tensor(opposite(B), A) of its own algebras")
        if env.basic is None:
            raise UnsupportedField("a module over A^e needs the basic structure "
                                   "(quiver presentation or discovery over Q)")
        return _once(self._memo, ("env", id(env)), lambda: (env, _certified(RightModule._of(
            env, self.dim, self.left_gens + self.right_gens), self)))[1]

    def __repr__(self):
        return (f"Bimodule({self.left_algebra.dim}|{self.dim}|{self.right_algebra.dim})")


_TRIVIAL_CACHE = {}


def trivial_algebra(field):
    """The ground field as a one-dimensional algebra (for one-sided modules)."""
    return _once(_TRIVIAL_CACHE, field,
                 lambda: Algebra(field, [[(1,)]], (1,), labels=("1",)))


def regular_bimodule(a):
    """A as an A-A-bimodule, built once per algebra instance, certified by A."""
    return _once(a._modules, "regular", lambda: _certified(Bimodule._of(
        a, a, a.dim, [a.left_mult_matrix(g) for g in a.generators()],
        regular_module(a).gens), a))


# --------------------------------------------------------------------------
# Hom and tensor.
# --------------------------------------------------------------------------


def _summands(m):
    """The layout `_yoneda_basis` reads off a representative m, (v, the basis
    indices of m that e_v A occupies) per summand, or None: the one a
    `projective_module` equal to m recorded on m, in tag order; for the
    representative of `regular_module(a)`, the vertex split of A's basis
    (e_v b_i = b_i for one v, 0 for the others: each e_v A has an RREF basis
    of unit vectors), read once per algebra, None for a basis that does not
    split (one from `discover_basic`), and for a `Bimodule`."""
    a, memo = m.right_algebra, m._memo
    reg = a._modules.get("regular_module")
    if "layout" in memo or a.basic is None or reg is None or m.dim != a.dim or _rep(reg) is not m:
        return memo.get("layout")

    def split():
        bases = [vertex_projective(a, v)[1].rows for v in range(len(a.basic.idempotent_coords))]
        if all(not any(r[r.index(1) + 1:]) for rows in bases for r in rows):
            return [(v, tuple(r.index(1) for r in rows)) for v, rows in enumerate(bases)]
    return _once(a._modules, "vertex split", split)


def _yoneda_basis(p, n, layout, left=False):
    """(rows, pivots): the basis `kernel_basis` would give a subspace of
    k^(dim p * dim n), p a sum of vertex projectives laid out as `layout`
    (`_summands`), and each row's last nonzero column.

    The block (x, y), x in a summand e_v A, is spanned by the rows of
    [act(x_0) | act(x_1) | ...], x_i the basis `vertex_projective` keeps and
    act = rho_n, or lam_n^T with `left`; as act(x) = act(e_v) act(x), the
    rows of V act(x_i) span it too, V the nonzero rows of act(e_v)
    (`images`).  A kernel basis vector is 1 at its own free column, its last
    nonzero one, and 0 at the others: read right to left, the basis is in
    RREF.  So each block is reduced with its columns reversed (once per
    vertex and n, kept on n) and read back, its rows in order of their last
    nonzero column.  The blocks lie on disjoint columns, so the whole RREF is
    their rows, placed dn-wide slice by slice at their summands' indices and
    sorted by pivot.
    """
    a, f, dn = p.algebra, p.field, n.dim
    zero, found = (0,) * dn, []

    def block(v, xs):
        ev = n.action_of(a.basic.idempotent_coords[v], left)
        ev = ev.transpose() if left else ev
        V = ev.take_rows([j for j, r in enumerate(ev.rows) if any(r)])
        mats = [m.rows for m in n.images(V, xs, left)]
        span = Matrix._of(f, tuple(tuple(chain.from_iterable(m[j] for m in mats))[::-1]
                                   for j in range(V.nrows)), len(xs) * dn)
        R, piv = rref(span)
        return [(R.rows[i][::-1], len(xs) * dn - 1 - piv[i]) for i in reversed(range(len(piv)))]
    for v, idx in layout:
        xs = vertex_projective(a, v)[1].rows
        # an entry keeps the algebra, so its id is never reused
        for r, k in _once(n._memo, ("yoneda", id(a), v, left), lambda: (a, block(v, xs)))[1]:
            row = [zero] * p.dim
            for t, i in enumerate(idx):
                row[i] = r[t * dn:(t + 1) * dn]
            found.append((idx[k // dn] * dn + k % dn, tuple(chain.from_iterable(row))))
    found.sort(key=lambda e: e[0])
    return [r for _, r in found], [k for k, _ in found]


def hom_space(m, n):
    """Deterministic basis of Hom_A(m, n) as a list of ModuleMaps: the kernel
    of rho_m(g) F = F rho_n(g) over the generators g, or out of a
    module equal to a `projective_module`, and out of A_A when A's basis
    splits by vertices (`_summands`), the same basis read off by Yoneda,
    Hom(e_v A, n) = n e_v.  Computed once per pair of representatives and
    kept on m for the pair of objects; each call gets a new list."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom_space needs one algebra")

    def build():
        rm, rn = _rep(m), _rep(n)
        if rm is m and rn is n:
            return _hom_basis(m, n)
        return tuple(ModuleMap._of(m, n, mp.matrix) for mp in hom_space(rm, rn))
    return list(_once(m._memo, ("hom", id(n)), lambda: (n, build()))[1])


def _hom_basis(m, n):
    f = m.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return ()
    if (layout := _summands(m)) is not None:
        vecs, _ = _yoneda_basis(m, n, layout)
    else:
        pairs = [(x, y.transpose()) for x, y in zip(m.gens, n.gens)]
        vecs = kernel_basis(Matrix(f, sylvester_rows(pairs), ncols=dm * dn)).transpose().rows
    return tuple(ModuleMap._of(m, n, Matrix._of(f, tuple(v[i * dn:(i + 1) * dn] for i in range(dm)),
                                                dn)) for v in vecs)


def hom_vec_basis(maps, dm, dn, field):
    """The hom basis flattened to rows (for coordinate computations)."""
    return Matrix._of(field, tuple(tuple(chain.from_iterable(mp.matrix.rows)) for mp in maps),
                      dm * dn)


def hom_coords(basis, mats):
    """Coordinates of the matrices `mats` in a hom basis flattened by
    hom_vec_basis, solved as one batch: a len(mats) x basis.nrows Matrix."""
    vecs = Matrix._of(basis.field, tuple(tuple(chain.from_iterable(mat.rows)) for mat in mats),
                      basis.ncols)
    coords = express_in_row_basis(basis, vecs)
    if coords is None:
        raise NotInHomSpace("a map is not in the span of the hom basis")
    return coords


@dataclass
class TensorProduct:
    """M (x)_B N together with the projection from the plain tensor space."""

    bimodule: Bimodule
    projection: Matrix          # (dim M * dim N) x dim(result)
    section_indices: tuple      # chosen (x, y) coset representatives


def tensor_over(m, n):
    """Tensor product over the middle algebra: (C-B-bim) (x)_B (B-A-bim) -> C-A-bim.

    Computed as the vector-space tensor product modulo the balancing relations
    (x.b (x) y - x (x) b.y), with the induced outer actions; a right module
    is its own k-A-bimodule.  When m is equal to a `projective_module`, or to
    A_A whose basis splits by vertices (`_summands`), the relations are read
    off by Yoneda instead of solved for (`_yoneda_basis`); the result is the
    same.  Computed once per pair of representatives, kept on m's.  m and n
    are checked first (free for an object certified when it was built) and
    certify the product: the relations over generators span all relations.
    """
    if m.right_algebra != n.left_algebra:
        raise AlgebraMismatch("tensor_over: middle algebra mismatch")
    rm, rn = _rep(_checked(m)), _rep(_checked(n))
    tp = _once(rm._memo, ("tensor", id(rn)), lambda: (rn, _tensor(rm, rn)))[1]
    _certified(tp.bimodule)
    return tp


def _tensor(m, n):
    f = m.field
    dm, dn = m.dim, n.dim
    N = dm * dn
    if N == 0:
        empty = Matrix(f, [], ncols=0)
        bim = Bimodule._of(m.left_algebra, n.right_algebra, 0, (empty,) * len(m.left_gens),
                           (empty,) * len(n.right_gens))
        return TensorProduct(bim, Matrix(f, [[] for _ in range(N)], ncols=0), ())
    if (layout := _summands(m)) is not None:
        # e_v B (x)_B n = e_v n: the relations are the kernel of x (x) y |-> x y
        vecs, free = _yoneda_basis(m, n, layout, True)
        projection = Matrix._of(f, tuple(vecs), N).transpose()
    else:
        pairs = list(zip(m.right_gens, n.left_gens))
        projection, free = quotient_map(Matrix(f, sylvester_rows(pairs), ncols=N))
    sections = tuple(free)
    lam = tuple(tensor_map(sections, dn, projection, left=mat) for mat in m.left_gens)
    rho = tuple(tensor_map(sections, dn, projection, right=mat) for mat in n.right_gens)
    bim = Bimodule._of(m.left_algebra, n.right_algebra, len(free), lam, rho)
    return TensorProduct(bim, projection, sections)


def tensor_map(sections, dn, projection, left=None, right=None):
    """The map between quotient tensor spaces induced by kron(left, I) or
    kron(I, right) on the plain tensor spaces.

    `sections` are the source's coset representatives x * dn + y (dn the
    dimension of its right factor); each one's image under the Kronecker
    product is pushed through the target's `projection`, applied sparsely.
    """
    rows = []
    for idx in sections:
        x, y = divmod(idx, dn)
        if left is not None:
            terms = ((x2 * dn + y, c) for x2, c in enumerate(left.rows[x]))
        else:
            terms = ((x * right.ncols + y2, c) for y2, c in enumerate(right.rows[y]))
        rows.append(combine_rows(projection, terms))
    return Matrix._of(projection.field, tuple(rows), projection.ncols)


def hom_module(u, m):
    """Hom_A(U, M) as a module: U a B-A-bimodule, M an A-module or C-A-bimodule.

    Right B-action (f.b)(x) = f(b.x); left C-action (c.f)(x) = c.f(x), C = k
    for a right module M, its own k-A-bimodule.  Returns a Bimodule over
    (C, B).  U and M are checked first and certify the result, a subspace
    both actions keep (`hom_coords` raises otherwise).
    """
    if u.right_algebra != m.right_algebra:
        raise AlgebraMismatch("hom_module: right algebras differ")
    _checked(u)
    _checked(m)
    maps = hom_space(u.restrict_right(), m.restrict_right())
    basis = hom_vec_basis(maps, u.dim, m.dim, u.field)
    lam = tuple(hom_coords(basis, [mp.matrix.mul(lc) for mp in maps]) for lc in m.left_gens)
    rho = tuple(hom_coords(basis, [lb.mul(mp.matrix) for mp in maps]) for lb in u.left_gens)
    return _certified(Bimodule._of(m.left_algebra, u.left_algebra, len(maps), lam, rho))


# --------------------------------------------------------------------------
# Kernels, cokernels, covers and projectivity.
# --------------------------------------------------------------------------


@dataclass
class KernelCokernel:
    kernel: RightModule
    cokernel: RightModule
    inclusion: ModuleMap
    projection: ModuleMap


def submodule_from_rows(m, rows_matrix):
    """The submodule spanned by the given rows, on their RREF basis, with m's
    action restricted to it (`_restrict`, which checks that the span is a
    submodule); certified by m, whose laws imply the submodule's."""
    basis, _, acts = _restrict(rows_matrix, m.gens)
    sub = _certified(RightModule._of(m.algebra, basis.nrows, acts), m)
    return sub, ModuleMap._of(sub, m, basis)


def quotient_by_rows(m, rows_matrix):
    """The quotient of m by the submodule spanned by the rows, with m's
    action descended to it (`_descend`, which checks that the span is a
    submodule); certified by m, whose laws imply the quotient's."""
    proj, free, acts = _descend(rows_matrix, m.gens)
    quot = _certified(RightModule._of(m.algebra, len(free), acts), m)
    return quot, ModuleMap._of(m, quot, proj)


def kernel_cokernel(fmap):
    """Kernel and cokernel of a module map, with inclusion and projection."""
    m, n = fmap.source, fmap.target
    ker_cols = kernel_basis(fmap.matrix.transpose())
    ker_rows = ker_cols.transpose()
    kernel, incl = submodule_from_rows(m, ker_rows)
    image_rows = fmap.matrix
    coker, proj = quotient_by_rows(n, image_rows)
    return KernelCokernel(kernel, coker, incl, proj)


def top_of(m):
    """(projection M -> M / M rad, free coordinate indices lifting the top),
    once per module.  For rows r with rad = sum A r, M rad = sum M r: the
    basic structure's radical generators (for a quiver algebra and a tensor
    product of two, generators whose matrices are stored), or without one
    the radical's basis."""
    def build():
        a, rows = m.algebra, []
        gens = radical(a) if a.basic is None else a.basic.radical_generators
        for r in gens.rows:
            rows.extend(m.action_of(r).rows)
        proj, free = quotient_map(Matrix(m.field, rows, ncols=m.dim))
        return proj, tuple(free)
    return _once(m._memo, "top", build)


@dataclass
class FreeCover:
    free: RightModule
    surjection: ModuleMap
    generator_count: int


def free_cover(m):
    """Free cover A^r -> m with r the minimal generator count dim(m / m rad)."""
    a = m.algebra
    _, free_idx = top_of(m)
    r = len(free_idx)
    if r == 0:
        z = zero_module(a)
        return FreeCover(z, ModuleMap._of(z, m, Matrix(m.field, [], ncols=m.dim)), 0)
    F = direct_sum([regular_module(a)] * r)
    # basis element b_i of copy t maps to (lift of top basis vector t) * b_i
    lifts = m.images(Matrix.identity(m.field, m.dim).take_rows(free_idx),
                     [unit_vector(a.dim, i) for i in range(a.dim)])
    mat = Matrix._of(m.field, tuple(x.rows[t] for t in range(r) for x in lifts), m.dim)
    if rank(mat) != m.dim:
        raise ValueError("free cover failed to surject")
    return FreeCover(F, ModuleMap._of(F, m, mat), r)


def direct_sum(mods):
    """Block-diagonal direct sum of right modules over one algebra, certified
    by its summands: each generator acts on each summand by its action."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra")
    a = mods[0].algebra
    f = mods[0].field
    for m in mods:
        if m.algebra != a:
            raise AlgebraMismatch("direct sum across algebras")
    total, acts = sum(m.dim for m in mods), []
    for t in range(len(mods[0].gens)):
        rows, off = [], 0
        for m in mods:
            rows += [(0,) * off + row + (0,) * (total - off - m.dim) for row in m.gens[t].rows]
            off += m.dim
        acts.append(Matrix._of(f, tuple(rows), total))
    return _certified(RightModule._of(a, total, acts), *mods)


def vertex_projective(a, v_index):
    """e_v A as a right module, with its subspace basis inside A (kept on the
    algebra instance, whose basic structure names the idempotents): the RREF
    of e_v A.  For A = B (x) C from `tensor`, e_v A = e_i B (x) e_j C with
    v = i n_C + j: the Kronecker product of the factors' RREF bases is that
    RREF, and A's generators g (x) 1 and 1 (x) g' act by kron(X_g, I) and
    kron(I, Y_g'), X and Y the factors' generator actions, certified by the
    factors' checks: rho_B (x) rho_C is a module law on the Kronecker table
    if both are.  Otherwise e_v A is restricted from A_A, and A's check
    certifies it."""
    def build():
        if a._factors is not None:
            b, c = a._factors
            i, j = divmod(v_index, len(c.basic.idempotent_coords))
            (mb, ib), (mc, ic) = vertex_projective(b, i), vertex_projective(c, j)
            eb, ec = Matrix.identity(a.field, mb.dim), Matrix.identity(a.field, mc.dim)
            acts = [kron(x, ec) for x in mb.gens] + [kron(eb, y) for y in mc.gens]
            return (_shared(_certified(RightModule._of(a, mb.dim * mc.dim, acts), mb, mc)),
                    kron(ib, ic))
        basis, _, acts = _restrict(a.left_mult_matrix(a.basic.idempotent_coords[v_index]),
                                   regular_module(a).gens)
        return _shared(_certified(RightModule._of(a, basis.nrows, acts), a)), basis
    return _once(a._modules, v_index, build)


def projective_module(a, tags):
    """The direct sum of the vertex projectives e_v A for v in `tags`, in
    order, with `summand_tags` recording them (the zero module for no tags),
    built once per tag tuple and algebra instance.  Only this constructor
    sets the tags, and it records the layout they give on the module's
    representative, where `hom_space` and `tensor_over` read maps out of
    every equal module by Yoneda; the other module they read so is A_A, laid
    out by the vertex split of A's basis (`_summands`)."""
    def build():
        if not tags:
            return zero_module(a)
        mods = [vertex_projective(a, v)[0] for v in tags]
        p = direct_sum(mods)
        p.summand_tags = tuple(tags)
        ends = accumulate(m.dim for m in mods)
        _rep(p)._memo["layout"] = [(v, range(e - m.dim, e)) for v, m, e in zip(tags, mods, ends)]
        return p
    return _once(a._modules, ("projective", tuple(tags)), build)


@dataclass
class ProjectiveCover:
    module: RightModule          # the cover P = (+) e_v A
    surjection: ModuleMap        # P -> m
    picks: tuple                 # (vertex v, row t of rho(e_v)) per summand


def projective_cover(m, picks=None):
    """Minimal projective cover P = (+) e_v A -> m from the primitive
    idempotent decomposition.

    Summand v is generated by g = row t of rho(e_v) = y_t e_v, one (v, t) pick
    per summand.  Without `picks` they are searched for: the y_t e_v, t
    lifting the top, that raise the rank of their images in M / M rad, in
    scan order.  Given `picks` (a stored resolution replays them), the search
    is skipped and every index must be an int in range; minimality of such
    picks, the kernel inside P rad, is the caller's check.  Either way the
    surjection x |-> g x = y_t x on each e_v A is A-linear by construction
    (Yoneda) and is checked to be onto.  Rows of rho(x) are taken along x's
    words (`images`), with no rho(x) derived.
    """
    a = m.algebra
    if a.basic is None:
        raise UnsupportedField("projective covers need the basic structure "
                               "(quiver presentation or discovery over Q)")
    f, idems, ident = m.field, a.basic.idempotent_coords, Matrix.identity(m.field, m.dim)
    if picks is None:
        proj, free = top_of(m)
        cands = [(v, t) for v in range(len(idems)) for t in free]
        acts = [m.images(ident.take_rows(free), [ev])[0] for ev in idems]
        tops = Matrix._of(f, tuple(combine_rows(proj, enumerate(acts[v].row(k)))
                                   for v in range(len(idems)) for k in range(len(free))),
                          len(free)).transpose()
        pivots = rref(tops)[1]
        if len(pivots) != len(free):
            raise ValueError("top not covered by idempotent weight spaces")
        picks = tuple(cands[j] for j in pivots)
    else:
        picks = tuple((v, t) for v, t in picks)
        if not all(type(v) is int and type(t) is int and 0 <= v < len(idems)
                   and 0 <= t < m.dim for v, t in picks):
            raise ValueError("generator pick out of range")
    P = projective_module(a, tuple(v for v, _ in picks))
    rows = []
    for v, t in picks:
        # g x = y_t x for the basis elements x = e_v x of e_v A
        rows += [x.rows[0] for x in m.images(ident.take_rows([t]),
                                               vertex_projective(a, v)[1].rows)]
    surj = ModuleMap._of(P, m, Matrix._of(f, tuple(rows), m.dim))
    if rank(surj.matrix) != m.dim:
        raise ValueError("projective cover failed to surject")
    return ProjectiveCover(P, surj, picks)


def is_projective(m):
    """True iff the minimal cover has the same dimension as m."""
    if m.dim == 0:
        return True
    return projective_cover(m).module.dim == m.dim


# --------------------------------------------------------------------------
# Isomorphism testing.
# --------------------------------------------------------------------------


class IsoResult:
    """Truth value plus a verified witness when isomorphic."""

    def __init__(self, verdict, witness=None):
        self.verdict = verdict
        self.witness = witness

    def __bool__(self):
        return self.verdict


def _top_dims(m):
    """dim (M / M rad) e_v per vertex, once per module."""
    def build():
        proj = top_of(m)[0]
        return tuple(rank(m.action_of(e).mul(proj)) for e in m.algebra.basic.idempotent_coords)
    return _once(m._memo, "tops", build)


def iso_test(m, n, cap=200_000):
    """Decide whether two modules over one algebra are isomorphic.

    Different dimensions or tops mean "no"; otherwise a deterministic grid
    of the determinant polynomial on the Hom space decides (complete for side
    dim+1 over Q or over F_p with p > dim; full small-field enumeration
    otherwise).  Raises Inconclusive only when the grid hits the cap."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("iso_test needs one algebra")
    if m.dim != n.dim:
        return IsoResult(False)
    d = m.dim
    if d == 0 or _rep(m) is _rep(n):
        return IsoResult(True, Matrix.identity(m.field, d))
    # isomorphic modules have isomorphic tops: compare dim (M / M rad) e_v
    if m.algebra.basic is not None and _top_dims(m) != _top_dims(n):
        return IsoResult(False)
    maps = hom_space(m, n)
    h = len(maps)
    if h == 0:
        return IsoResult(False)
    f = m.field
    side = d + 1 if f == QQ else min(f.p, d + 1)
    values = range(side)
    total = side ** h
    mats = [mp.matrix for mp in maps]
    count = 0
    for combo in itertools.product(values, repeat=h):
        count += 1
        if count > cap:
            raise Inconclusive(f"iso_test grid cap {cap} reached ({total} points needed)")
        if not any(combo):
            continue
        acc = linear_combination(combo, mats, f, d, d)
        if rank(acc) == d:
            return IsoResult(True, acc)
    return IsoResult(False)


# --------------------------------------------------------------------------
# Canonical bimodules attached to an idempotent.
# --------------------------------------------------------------------------


@dataclass
class CanonicalBimodules:
    algebra: Algebra
    idempotent: Idempotent
    corner_algebra: Algebra
    quotient_algebra: Algebra
    regular: Bimodule            # A as A-A-bimodule
    ae: Bimodule                 # Ae as A-(eAe)-bimodule
    ea: Bimodule                 # eA as (eAe)-A-bimodule
    aea: Bimodule                # AeA as A-A-bimodule
    quotient: Bimodule           # A/AeA as A-A-bimodule
    ae_rows: Matrix              # basis of Ae inside A
    ea_rows: Matrix
    inclusion: Matrix            # AeA -> A on the chosen bases: its basis inside A
    projection: Matrix           # A -> A/AeA on the chosen bases
    section_cols: tuple          # A-basis indices representing quotient classes
    ideal_is_whole: bool


def canonical_bimodules(a, e):
    """A, Ae, eA, AeA and A/AeA with their natural bimodule structures: the
    regular bimodule's generator actions restricted (`_restrict`, eAe's
    generators acting through its embedding) or descended
    (`ideal_and_quotient`), and certified by it."""
    reg = regular_bimodule(a)
    iq = ideal_and_quotient(a, e)
    eAe, emb = corner(a, e, with_embedding=True)
    if eAe.basic is None and a.field == QQ and eAe.dim:
        eAe = discover_basic(eAe)
    L, R = reg.left_gens, reg.right_gens
    inside = [combine_rows(emb, enumerate(g)) for g in eAe.generators()]
    lc = tuple(a.left_mult_matrix(x) for x in inside)
    rc = tuple(a.right_mult_matrix(x) for x in inside)

    def cut(span, left, right, lam, rho):
        basis, _, acts = _restrict(span, lam + rho)
        k = len(lam)
        return basis, _certified(Bimodule._of(left, right, basis.nrows, acts[:k], acts[k:]), reg)

    ae_rows, ae = cut(a.right_mult_matrix(e.coords), a, eAe, L, rc)
    ea_rows, ea = cut(a.left_mult_matrix(e.coords), eAe, a, lc, R)
    _, aea = cut(iq.ideal_rows, a, a, L, R)
    quotient = _certified(Bimodule._of(a, a, iq.quotient.dim, iq.left_action, iq.right_action),
                          reg)
    return CanonicalBimodules(
        algebra=a, idempotent=e, corner_algebra=eAe, quotient_algebra=iq.quotient,
        regular=reg, ae=ae, ea=ea, aea=aea, quotient=quotient,
        ae_rows=ae_rows, ea_rows=ea_rows, inclusion=iq.ideal_rows, projection=iq.projection,
        section_cols=iq.section_cols, ideal_is_whole=iq.ideal_is_whole)


def simple_modules(a):
    """The simple right modules, one per primitive idempotent (split basic
    case), built once per algebra instance; each call gets a new list."""
    if a.basic is None:
        raise UnsupportedField("simples need the basic structure "
                               "(quiver presentation or discovery over Q)")
    return list(_once(a._modules, "simples", lambda: tuple(_simples(a))))


def _simples(a):
    f = a.field
    rad = radical(a)
    out = []
    for ev in a.basic.idempotent_coords:
        stack = Matrix(f, [list(ev)] + [list(r) for r in rad.rows], ncols=a.dim)
        # g acts on the simple at ev by the coefficient of ev in e g e mod rad
        ege = Matrix(f, [a.multiply(a.multiply(ev, g), ev) for g in a.generators()],
                     ncols=a.dim)
        coords = express_in_row_basis(stack, ege)
        if coords is None:
            raise ValueError("simple action not defined")
        out.append(_checked(RightModule._of(a, 1, [Matrix(f, [[c[0]]], ncols=1)
                                                    for c in coords.rows])))
    return out
