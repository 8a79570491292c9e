"""Finite-dimensional right modules and bimodules with exact action matrices.

Module elements are row vectors.  A right action is a homomorphism
rho: A -> End, acting by v |-> v @ rho(a); a left action is an
anti-homomorphism lam (lam(bc) = lam(c) @ lam(b)), acting by v |-> v @ lam(b).
A B-A-bimodule therefore is the same thing as a right module over
B^op (x) A via (b^op (x) a) |-> lam(b) @ rho(a), which is how bimodules are
fed to the resolution machinery.

The action-compatibility invariants are asserted once per object, when a
module, map or bimodule is built (or first restricted, for a bimodule built
unchecked); silent convention drift is the classic bug in this business.
Each check is complete and runs as a few integer numpy products over the
stacked action matrices (see `exactfield.integer_array`).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import Algebra, Idempotent, ideal_and_quotient, corner, radical
from .errors import AlgebraMismatch, DimensionMismatch, Inconclusive, NotInHomSpace
from .exactfield import (
    QQ,
    Matrix,
    check_same_field,
    combine_rows,
    express_in_row_basis,
    integer_array,
    kernel_basis,
    kron,
    linear_combination,
    quotient_map,
    rank,
    row_space_basis,
    rref,
    sylvester_rows,
    unit_vector,
)


# entries of the largest integer array one check builds at a time: the
# products for all generators at once unless that passes this size
_CHUNK = 2**20


def _stacked(field, groups, bound):
    """(arrays, scale): each group, a (count, rows, cols) shape and that many
    matrices, as one integer array of that shape; all arrays share one scale
    (`integer_array`)."""
    arr, scale = integer_array(field, chain.from_iterable(
        chain.from_iterable(m.rows) for _, mats in groups for m in mats), bound)
    cuts = np.cumsum([np.prod(shape) for shape, _ in groups])[:-1]
    return [a.reshape(shape) for a, (shape, _) in zip(np.split(arr, cuts), groups)], scale


def _combine(coeffs, mats):
    """sum_i c_i mats[i] for each coefficient vector c (the last axis of
    `coeffs`), for a stack of matrices `mats`."""
    out = coeffs @ mats.reshape(len(mats), int(np.prod(mats.shape[1:])))
    return out.reshape(coeffs.shape[:-1] + mats.shape[1:])


def _nonzero(arr, p):
    """Where an integer array is nonzero in the field (mod p over F_p)."""
    return (arr if p is None else arr % p) != 0


class RightModule:
    """Right module over a fixed algebra, given by one matrix per basis element."""

    # the vertex of each summand e_v A, set only by `projective_module`
    summand_tags = None
    _tops = None    # dim (M / M rad) e_v per vertex, set once by `_top_dims`

    def __init__(self, algebra, dim, action, _validate=True):
        self.algebra = algebra
        self.dim = dim
        self.field = algebra.field
        action = tuple(action)
        if len(action) != algebra.dim:
            raise DimensionMismatch("need one action matrix per algebra basis element")
        for m in action:
            if m.nrows != dim or m.ncols != dim:
                raise DimensionMismatch("action matrix shape != module dim")
        self.action = action
        if _validate:
            self._validate()

    def _validate(self):
        """rho(1) = id and rho(g b) = rho(g) rho(b) for every algebra generator
        g and basis element b: by induction on words in the generators, rho is
        then multiplicative on all of A, at |generators| * dim A products.

        In integers: with the action scaled by r and the algebra's tables by
        s, rho(g) rho(b_j) is scaled by s r^2 and sum_k (g b_j)_k rho(b_k) by
        s r, so the second is multiplied by r before comparing.
        """
        a, d, n = self.algebra, self.dim, self.algebra.dim
        if d == 0:
            return
        unit, gens, prods, s, ma = a._int_tables()
        (R,), r = _stacked(self.field, [((n, d, d), self.action)],
                           lambda m: n * d * max(m, ma) ** 3)
        p = getattr(self.field, "p", None)
        one = _combine(unit, R)
        if _nonzero(one - s * r * np.eye(d, dtype=one.dtype), p).any():
            raise ValueError("rho(1) != id")
        rho = _combine(gens, R)[:, None]
        step = max(1, _CHUNK // (n * d * d))
        for g0 in range(0, len(gens), step):
            part = slice(g0, g0 + step)
            bad = _nonzero(rho[part] @ R - r * _combine(prods[part], R), p)
            hits = np.argwhere(bad.reshape(-1, n, d * d).any(axis=2))
            if len(hits):
                g, j = hits[0]
                raise ValueError(f"action incompatibility at generator "
                                 f"{a.generators()[g0 + g]}, basis {j}")

    def is_zero(self):
        return self.dim == 0

    def __eq__(self, other):
        return (isinstance(other, RightModule) and self.algebra == other.algebra
                and self.dim == other.dim and self.action == other.action)

    def __hash__(self):
        return hash((self.algebra, self.dim, self.action))

    def __repr__(self):
        return f"RightModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"

    def content_hash(self):
        h = hashlib.sha256()
        h.update(self.algebra.structure_hash().encode())
        h.update(f"|mod{self.dim}".encode())
        for m in self.action:
            h.update(m.content_hash().encode())
        return h.hexdigest()


def zero_module(algebra):
    return RightModule(algebra, 0, (Matrix._of(algebra.field, (), 0),) * algebra.dim,
                       _validate=False)


def regular_module(a):
    """A as a right module over itself."""
    return RightModule(a, a.dim, a.basis_right_mats())


def dual_module(m):
    """The k-linear dual Hom_k(M, k) as a right module over the opposite
    algebra ((f.b^op)(x) = f(x.b)); sends projectives to injectives and back,
    which lets Ext be computed from either side without injective resolutions."""
    from .algebra import opposite
    aop = opposite(m.algebra)
    acts = tuple(mat.transpose() for mat in m.action)
    return RightModule(aop, m.dim, acts)


class ModuleMap:
    """A-linear map between right modules, as a dim(src) x dim(tgt) matrix."""

    def __init__(self, source, target, matrix, _validate=True):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("module map across different algebras")
        if matrix.nrows != source.dim or matrix.ncols != target.dim:
            raise DimensionMismatch("module map shape")
        self.source = source
        self.target = target
        self.matrix = matrix
        if _validate:
            self._validate()

    def _validate(self):
        """rho_src(g) F = F rho_tgt(g) for every generator g, in integers:
        both actions and F share one scale, so both sides scale alike."""
        src, tgt, a = self.source, self.target, self.source.algebra
        n, ds, dt = a.dim, src.dim, tgt.dim
        _, gens, _, _, ma = a._int_tables()
        (S, T, (F,)), _ = _stacked(
            src.field, [((n, ds, ds), src.action), ((n, dt, dt), tgt.action),
                        ((1, ds, dt), (self.matrix,))],
            lambda m: n * max(ds, dt) * max(m, ma) ** 3)
        diff = _combine(gens, S) @ F - F @ _combine(gens, T)
        if _nonzero(diff, getattr(src.field, "p", None)).any():
            raise ValueError("matrix does not intertwine the actions")

    def compose(self, other):
        """self followed by other."""
        if self.target != other.source:
            raise AlgebraMismatch("composition mismatch")
        return ModuleMap(self.source, other.target, self.matrix.mul(other.matrix),
                         _validate=False)

    def is_zero(self):
        return self.matrix.is_zero()

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


class Bimodule:
    """B-A-bimodule: commuting left B-action (anti-hom) and right A-action (hom)."""

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action,
                 _validate=True):
        check_same_field(left_algebra.field, right_algebra.field)
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.dim = dim
        self.left_action_matrices = tuple(left_action)
        self.right_action_matrices = tuple(right_action)
        if len(self.left_action_matrices) != left_algebra.dim:
            raise DimensionMismatch("left action count")
        if len(self.right_action_matrices) != right_algebra.dim:
            raise DimensionMismatch("right action count")
        self._env_module = self._right = self._left_op = None
        if _validate:
            self._validate()

    def _validate(self):
        if self.dim == 0:
            return
        # right action is a genuine right module
        self.restrict_right()
        # left action is a right module over the opposite algebra
        self.left_as_op_module()
        # the two actions commute: both are multiplicative, so the matrices
        # commuting with one action form a subalgebra, and generator pairs
        # suffice; in integers both actions share one scale
        B, A, d = self.left_algebra, self.right_algebra, self.dim
        (_, gl, _, _, mb), (_, gr, _, _, ma) = B._int_tables(), A._int_tables()
        (L, R), _ = _stacked(
            self.field, [((B.dim, d, d), self.left_action_matrices),
                         ((A.dim, d, d), self.right_action_matrices)],
            lambda m: d * B.dim * A.dim * max(m, mb, ma) ** 4)
        lm, rm = _combine(gl, L)[:, None], _combine(gr, R)
        step = max(1, _CHUNK // (len(gr) * d * d))
        for g0 in range(0, len(gl), step):
            part = lm[g0:g0 + step]
            bad = _nonzero(part @ rm - rm @ part, getattr(self.field, "p", None))
            hits = np.argwhere(bad.reshape(-1, len(gr), d * d).any(axis=2))
            if len(hits):
                g, h = hits[0]
                raise ValueError(f"left and right actions do not commute at generators "
                                 f"{B.generators()[g0 + g]}, {A.generators()[h]}")

    def restrict_right(self):
        """Forget the left action: a right module over the right algebra,
        built and checked once (the wrapped module itself for `as_bimodule`)."""
        if self._right is None:
            self._right = RightModule(self.right_algebra, self.dim, self.right_action_matrices)
        return self._right

    def left_as_op_module(self):
        """The left B-action viewed as a right module over B^op, built and
        checked once."""
        from .algebra import opposite
        if self._left_op is None:
            self._left_op = RightModule(opposite(self.left_algebra), self.dim,
                                        self.left_action_matrices)
        return self._left_op

    def as_right_module_over(self, env):
        """Right module over B^op (x) A (basis b_i^op (x) a_j, lexicographic)."""
        if self._env_module is not None and self._env_module[0] == env:
            return self._env_module[1]
        db = self.left_algebra.dim
        da = self.right_algebra.dim
        if env.dim != db * da:
            raise AlgebraMismatch("enveloping algebra dimension mismatch")
        mats = []
        for i in range(db):
            li = self.left_action_matrices[i]
            for j in range(da):
                mats.append(li.mul(self.right_action_matrices[j]))
        rm = RightModule(env, self.dim, mats)
        self._env_module = (env, rm)
        return rm

    def swap_sides(self):
        """The same space as an A^op-B^op-bimodule (for opposite transfers)."""
        from .algebra import opposite
        return Bimodule(opposite(self.right_algebra), opposite(self.left_algebra),
                        self.dim, self.right_action_matrices, self.left_action_matrices,
                        _validate=False)

    def __eq__(self, other):
        return (isinstance(other, Bimodule)
                and self.left_algebra == other.left_algebra
                and self.right_algebra == other.right_algebra
                and self.dim == other.dim
                and self.left_action_matrices == other.left_action_matrices
                and self.right_action_matrices == other.right_action_matrices)

    def __hash__(self):
        return hash((self.left_algebra, self.right_algebra, self.dim,
                     self.left_action_matrices, self.right_action_matrices))

    def __repr__(self):
        return (f"Bimodule({self.left_algebra.dim}|{self.dim}|{self.right_algebra.dim})")

    def content_hash(self):
        h = hashlib.sha256()
        h.update(self.left_algebra.content_hash().encode())
        h.update(self.right_algebra.content_hash().encode())
        h.update(f"|bim{self.dim}".encode())
        for m in self.left_action_matrices + self.right_action_matrices:
            h.update(m.content_hash().encode())
        return h.hexdigest()


_TRIVIAL_CACHE = {}


def trivial_algebra(field):
    """The ground field as a one-dimensional algebra (for one-sided modules)."""
    key = field
    if key not in _TRIVIAL_CACHE:
        _TRIVIAL_CACHE[key] = Algebra(field, [[(1,)]], (1,), labels=("1",))
    return _TRIVIAL_CACHE[key]


def as_bimodule(m):
    """Lift a right A-module to a k-A-bimodule (trivial left action)."""
    if isinstance(m, Bimodule):
        return m
    triv = trivial_algebra(m.field)
    ident = Matrix.identity(m.field, m.dim)
    bim = Bimodule(triv, m.algebra, m.dim, (ident,), m.action, _validate=False)
    bim._right = m
    return bim


def regular_bimodule(a):
    """A as an A-A-bimodule, built and checked once per algebra instance."""
    if "regular" not in a._modules:
        a._modules["regular"] = Bimodule(a, a, a.dim, a.basis_left_mats(),
                                         a.basis_right_mats())
    return a._modules["regular"]


# --------------------------------------------------------------------------
# Hom and tensor.
# --------------------------------------------------------------------------


def _yoneda_basis(p, act, dn):
    """(rows, pivots): the basis `kernel_basis` would give a subspace of
    k^(dim p * dn), p a `projective_module`, and each row's last nonzero column.

    The block (x, y), x in a summand e_v A, is spanned by the rows of
    [act(x_0) | act(x_1) | ...], x_i the basis `vertex_projective` keeps.  A
    kernel basis vector is 1 at its own free column, its last nonzero one, and
    0 at the others: read right to left, the basis is in RREF.  So each block
    is reduced with its columns reversed (once per vertex) and read back, its
    rows in order of their last nonzero column.
    """
    a, f, total = p.algebra, p.field, p.dim * dn
    blocks = {}
    rows, pivots, off = [], [], 0
    for v in p.summand_tags:
        xs = vertex_projective(a, v)[1].rows
        if v not in blocks:
            mats = [act(x).rows for x in xs]
            span = Matrix._of(f, tuple(tuple(chain.from_iterable(m[j] for m in mats))[::-1]
                                       for j in range(dn)), len(xs) * dn)
            R, piv = rref(span)
            blocks[v] = [(R.rows[i][::-1], len(xs) * dn - 1 - piv[i])
                         for i in reversed(range(len(piv)))]
        start = off * dn
        for r, k in blocks[v]:
            rows.append((0,) * start + r + (0,) * (total - start - len(r)))
            pivots.append(start + k)
        off += len(xs)
    return rows, pivots


def hom_space(m, n):
    """Deterministic basis of Hom_A(m, n) as a list of ModuleMaps: the kernel
    of rho_m(g) F = F rho_n(g) over the generators g, or out of a
    `projective_module` the same basis read off by Yoneda, Hom(e_v A, n) = n e_v."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom_space needs one algebra")
    f = m.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    if m.summand_tags is not None:
        vecs, _ = _yoneda_basis(m, lambda x: linear_combination(x, n.action, f, dn, dn), dn)
    else:
        pairs = [(linear_combination(g, m.action, f, dm, dm),
                  linear_combination(g, n.action, f, dn, dn).transpose())
                 for g in m.algebra.generators()]
        vecs = kernel_basis(Matrix(f, sylvester_rows(pairs), ncols=dm * dn)).transpose().rows
    return [ModuleMap(m, n, Matrix._of(f, tuple(v[i * dn:(i + 1) * dn] for i in range(dm)), dn),
                      _validate=False) for v in vecs]


def hom_vec_basis(maps, dm, dn, field):
    """The hom basis flattened to rows (for coordinate computations)."""
    return Matrix(field, [[x for row in mp.matrix.rows for x in row] for mp in maps],
                  ncols=dm * dn)


def hom_coords(basis, mats):
    """Coordinates of the matrices `mats` in a hom basis flattened by
    hom_vec_basis, solved as one batch: a len(mats) x basis.nrows Matrix."""
    f = basis.field
    if not mats:
        return Matrix(f, [], ncols=basis.nrows)
    vecs = Matrix(f, [[x for row in mat.rows for x in row] for mat in mats],
                  ncols=basis.ncols)
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


def tensor_over(m, n, _validate=True):
    """Tensor product over the middle algebra: (C-B-bim) (x)_B (B-A-bim) -> C-A-bim.

    Computed as the vector-space tensor product modulo the balancing relations
    (x.b (x) y - x (x) b.y), with the induced outer actions.  When m wraps a
    `projective_module`, the relations are read off by Yoneda instead of
    solved for (`_yoneda_basis`); the result is the same.
    """
    m = as_bimodule(m)
    n = as_bimodule(n)
    if m.right_algebra != n.left_algebra:
        raise AlgebraMismatch("tensor_over: middle algebra mismatch")
    f = m.field
    B = m.right_algebra
    dm, dn = m.dim, n.dim
    N = dm * dn
    if N == 0:
        bim = Bimodule(m.left_algebra, n.right_algebra, 0,
                       tuple(Matrix(f, [], ncols=0) for _ in range(m.left_algebra.dim)),
                       tuple(Matrix(f, [], ncols=0) for _ in range(n.right_algebra.dim)),
                       _validate=False)
        return TensorProduct(bim, Matrix(f, [[] for _ in range(N)], ncols=0), ())
    if m._right is not None and m._right.summand_tags is not None:
        # e_v B (x)_B n = e_v n: the relations are the kernel of x (x) y |-> x y
        vecs, free = _yoneda_basis(m._right, lambda x: linear_combination(
            x, n.left_action_matrices, f, dn, dn).transpose(), dn)
        projection = Matrix._of(f, tuple(vecs), N).transpose()
    else:
        pairs = [(linear_combination(g, m.right_action_matrices, f, dm, dm),
                  linear_combination(g, n.left_action_matrices, f, dn, dn))
                 for g in B.generators()]
        projection, free = quotient_map(Matrix(f, sylvester_rows(pairs), ncols=N))
    sections = tuple(free)
    lam = tuple(tensor_map(sections, dn, projection, left=mat)
                for mat in m.left_action_matrices)
    rho = tuple(tensor_map(sections, dn, projection, right=mat)
                for mat in n.right_action_matrices)
    bim = Bimodule(m.left_algebra, n.right_algebra, len(free), lam, rho, _validate=_validate)
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
    return Matrix(projection.field, rows, ncols=projection.ncols)


def hom_module(u, m):
    """Hom_A(U, M) as a module: U a B-A-bimodule, M an A-module or C-A-bimodule.

    Right B-action (f.b)(x) = f(b.x); left C-action (c.f)(x) = c.f(x) when M
    is a bimodule.  Returns a Bimodule over (C, B), with C trivial when M is a
    plain right module.
    """
    u = u if isinstance(u, Bimodule) else as_bimodule(u)
    mbim = m if isinstance(m, Bimodule) else as_bimodule(m)
    if u.right_algebra != mbim.right_algebra:
        raise AlgebraMismatch("hom_module: right algebras differ")
    maps = hom_space(u.restrict_right(), mbim.restrict_right())
    h = len(maps)
    f = u.field
    du, dm = u.dim, mbim.dim
    basis = hom_vec_basis(maps, du, dm, f)
    lam = tuple(hom_coords(basis, [mp.matrix.mul(lc) for mp in maps])
                for lc in mbim.left_action_matrices)
    rho = tuple(hom_coords(basis, [lb.mul(mp.matrix) for mp in maps])
                for lb in u.left_action_matrices)
    return Bimodule(mbim.left_algebra, u.left_algebra, h, lam, rho)


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
    """The submodule spanned by the given rows, with induced action.

    Its basis is the RREF of the rows, so a vector in their span has its
    coordinates at the pivot columns; each image is checked to be that
    combination of the basis.  That check is the whole proof that the
    induced action is a module structure (m's action restricted to an
    invariant subspace), so it is not validated again.
    """
    R, pivots = rref(rows_matrix)
    basis = R.take_rows(range(len(pivots)))
    acts = []
    for act in m.action:
        img = basis.mul(act)
        coords = img.submatrix(range(img.nrows), pivots)
        if coords.mul(basis) != img:
            raise ValueError("rows do not span a submodule")
        acts.append(coords)
    sub = RightModule(m.algebra, basis.nrows, acts, _validate=False)
    incl = ModuleMap(sub, m, basis, _validate=False)
    return sub, incl


def quotient_by_rows(m, rows_matrix):
    """The quotient of m by the submodule spanned by the rows."""
    proj, free = quotient_map(rows_matrix)
    q = len(free)
    acts = [Matrix(m.field, [combine_rows(proj, enumerate(act.rows[t])) for t in free],
                   ncols=q)
            for act in m.action]
    quot = RightModule(m.algebra, q, acts)
    pm = ModuleMap(m, quot, proj, _validate=False)
    return quot, pm


def kernel_cokernel(fmap):
    """Kernel and cokernel of a module map, with inclusion and projection."""
    m, n = fmap.source, fmap.target
    ker_cols = kernel_basis(fmap.matrix.transpose())
    ker_rows = ker_cols.transpose()
    kernel, incl = submodule_from_rows(m, ker_rows) if ker_rows.nrows else (
        zero_module(m.algebra), ModuleMap(zero_module(m.algebra), m,
                                          Matrix(m.field, [], ncols=m.dim), _validate=False))
    image_rows = fmap.matrix
    coker, proj = quotient_by_rows(n, image_rows)
    return KernelCokernel(kernel, coker, incl, proj)


def top_of(m):
    """(projection M -> M / M rad, free coordinate indices lifting the top)."""
    rows = []
    for r in radical(m.algebra).rows:
        rows.extend(linear_combination(r, m.action, m.field, m.dim, m.dim).rows)
    return quotient_map(Matrix(m.field, rows, ncols=m.dim))


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
        return FreeCover(z, ModuleMap(z, m, Matrix(m.field, [], ncols=m.dim),
                                      _validate=False), 0)
    reg = regular_module(a)
    blocks = [reg] * r
    F = direct_sum(blocks)
    rows = []
    for t in range(r):
        g = free_idx[t]
        for i in range(a.dim):
            # basis element b_i of copy t maps to (lift of top basis vector t) * b_i
            rows.append([m.action[i].entry(g, j) for j in range(m.dim)])
    mat = Matrix(m.field, rows, ncols=m.dim)
    if rank(mat) != m.dim:
        raise ValueError("free cover failed to surject")
    surj = ModuleMap(F, m, mat, _validate=False)
    return FreeCover(F, surj, r)


def direct_sum(mods):
    """Block-diagonal direct sum of right modules over one algebra."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra")
    a = mods[0].algebra
    f = mods[0].field
    for m in mods:
        if m.algebra != a:
            raise AlgebraMismatch("direct sum across algebras")
    total = sum(m.dim for m in mods)
    acts = []
    for i in range(a.dim):
        rows = []
        off = 0
        for m in mods:
            for rr in range(m.dim):
                row = [0] * total
                src = m.action[i].row(rr)
                for j, v in enumerate(src):
                    row[off + j] = v
                rows.append(row)
            off += m.dim
        acts.append(Matrix(f, rows, ncols=total))
    return RightModule(a, total, acts, _validate=False)


def vertex_projective(a, v_index):
    """e_v A as a right module, with its subspace basis inside A (kept on the
    algebra instance, whose basic structure names the idempotents): the RREF
    of e_v A.  For A = B (x) C from `tensor`, e_v A = e_i B (x) e_j C with
    v = i n_C + j, and the Kronecker products of the factors' RREF bases and
    actions are that RREF and its actions."""
    if v_index not in a._modules:
        if a._factors is not None:
            b, c = a._factors
            i, j = divmod(v_index, len(c.basic.idempotent_coords))
            (mb, ib), (mc, ic) = vertex_projective(b, i), vertex_projective(c, j)
            mod = RightModule(a, mb.dim * mc.dim, [kron(x, y) for x in mb.action
                                                   for y in mc.action], _validate=False)
            basis = kron(ib, ic)
        else:
            regular = RightModule(a, a.dim, a.basis_right_mats(), _validate=False)
            mod, incl = submodule_from_rows(
                regular, a.left_mult_matrix(a.basic.idempotent_coords[v_index]))
            basis = incl.matrix
        mod._validate()    # neither the regular action nor the products were checked
        a._modules[v_index] = (mod, basis)
    return a._modules[v_index]


def projective_module(a, tags):
    """The direct sum of the vertex projectives e_v A for v in `tags`, in
    order, with `summand_tags` recording them (the zero module for no tags).
    Only this constructor sets the tags, which let `hom_space` and
    `tensor_over` read maps out of the module by Yoneda."""
    if not tags:
        return zero_module(a)
    p = direct_sum([vertex_projective(a, v)[0] for v in tags])
    p.summand_tags = tuple(tags)
    return p


@dataclass
class ProjectiveCover:
    module: RightModule          # the cover P = (+) e_v A
    surjection: ModuleMap        # P -> m
    summands: tuple              # vertex index per summand
    offsets: tuple               # starting coordinate of each summand inside P


def projective_cover(m):
    """Minimal projective cover built from the primitive idempotent decomposition."""
    from .errors import UnsupportedField
    a = m.algebra
    if a.basic is None:
        raise UnsupportedField("projective covers need the basic structure "
                               "(quiver presentation or discovery over Q)")
    f = m.field
    proj, free = top_of(m)
    rtop = len(free)
    if rtop == 0:
        z = zero_module(a)
        return ProjectiveCover(z, ModuleMap(z, m, Matrix(f, [], ncols=m.dim),
                                            _validate=False), (), ())
    # the lifts y_t * e_v in scan order; the greedy choice of those that raise
    # the rank of their images in the top M / M rad is the pivot set
    cands = []
    for v_idx, ev in enumerate(a.basic.idempotent_coords):
        act = linear_combination(ev, m.action, f, m.dim, m.dim)
        cands.extend((act.row(t), v_idx) for t in free)
    tops = Matrix.from_cols(f, [combine_rows(proj, enumerate(c)) for c, _ in cands],
                            nrows=rtop)
    pivots = rref(tops)[1]
    if len(pivots) != rtop:
        raise ValueError("top not covered by idempotent weight spaces")
    chosen = [(tuple(cands[j][0]), cands[j][1]) for j in pivots]
    summands = tuple(v_idx for _, v_idx in chosen)
    P = projective_module(a, summands)
    rows = []
    offsets = []
    for gen, v_idx in chosen:
        offsets.append(len(rows))
        for w in vertex_projective(a, v_idx)[1].rows:    # an element e_v x of A
            act = linear_combination(w, m.action, f, m.dim, m.dim)
            rows.append(combine_rows(act, enumerate(gen)))
    surj = ModuleMap(P, m, Matrix(f, rows, ncols=m.dim), _validate=False)
    if rank(surj.matrix) != m.dim:
        raise ValueError("projective cover failed to surject")
    return ProjectiveCover(P, surj, summands, tuple(offsets))


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
    if m._tops is None:
        proj = top_of(m)[0]
        m._tops = [rank(linear_combination(e, m.action, m.field, m.dim, m.dim).mul(proj))
                   for e in m.algebra.basic.idempotent_coords]
    return m._tops


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
    if d == 0:
        return IsoResult(True, Matrix(m.field, [], ncols=0))
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
    corner_embedding: Matrix
    quotient_algebra: Algebra
    quotient_projection: Matrix
    regular: Bimodule            # A as A-A-bimodule
    ae: Bimodule                 # Ae as A-(eAe)-bimodule
    ea: Bimodule                 # eA as (eAe)-A-bimodule
    aea: Bimodule                # AeA as A-A-bimodule
    quotient: Bimodule           # A/AeA as A-A-bimodule
    ae_rows: Matrix              # basis of Ae inside A
    ea_rows: Matrix
    aea_rows: Matrix
    inclusion: Matrix            # AeA -> A on the chosen bases
    projection: Matrix           # A -> A/AeA on the chosen bases
    section_cols: tuple          # A-basis indices representing quotient classes
    ideal_is_whole: bool


def canonical_bimodules(a, e):
    """A, Ae, eA, AeA and A/AeA with their natural bimodule structures."""
    f = a.field
    ec = e.coords
    iq = ideal_and_quotient(a, e)
    cd = corner(a, e, with_embedding=True)
    eAe, emb = cd.algebra, cd.embedding
    if eAe.basic is None and f == QQ and eAe.dim:
        from .algebra import discover_basic
        eAe = discover_basic(eAe)
    L = a.basis_left_mats()
    R = a.basis_right_mats()
    regular = Bimodule(a, a, a.dim, L, R, _validate=False)

    def sub_bimodule(rows, left_alg, right_alg, left_elems, right_elems):
        lam = []
        for x in left_elems:
            img = rows.mul(a.left_mult_matrix(x))
            lam.append(express_in_row_basis(rows, img))
        rho = []
        for x in right_elems:
            img = rows.mul(a.right_mult_matrix(x))
            rho.append(express_in_row_basis(rows, img))
        return Bimodule(left_alg, right_alg, rows.nrows, tuple(lam), tuple(rho))

    basis_elems = [unit_vector(a.dim, i) for i in range(a.dim)]
    corner_elems = [emb.rows[i] for i in range(emb.nrows)]

    ae_rows = row_space_basis(a.right_mult_matrix(ec))
    ea_rows = row_space_basis(a.left_mult_matrix(ec))
    ae = sub_bimodule(ae_rows, a, eAe, basis_elems, corner_elems)
    ea = sub_bimodule(ea_rows, eAe, a, corner_elems, basis_elems)
    aea = sub_bimodule(iq.ideal_rows, a, a, basis_elems, basis_elems)

    quot_alg = iq.quotient
    nq = quot_alg.dim
    proj = iq.projection
    if nq:
        # row t of L[i] is b_i b_t and of R[i] is b_t b_i: act on the class
        # represented by b_t, then project
        sec = iq.section_cols
        lam_q = tuple(Matrix(f, [combine_rows(proj, enumerate(mat.rows[t])) for t in sec],
                             ncols=nq) for mat in L)
        rho_q = tuple(Matrix(f, [combine_rows(proj, enumerate(mat.rows[t])) for t in sec],
                             ncols=nq) for mat in R)
        quotient = Bimodule(a, a, nq, lam_q, rho_q, _validate=False)
    else:
        quotient = Bimodule(a, a, 0,
                            tuple(Matrix(f, [], ncols=0) for _ in range(a.dim)),
                            tuple(Matrix(f, [], ncols=0) for _ in range(a.dim)),
                            _validate=False)
    return CanonicalBimodules(
        algebra=a, idempotent=e,
        corner_algebra=eAe, corner_embedding=emb,
        quotient_algebra=quot_alg, quotient_projection=proj,
        regular=regular, ae=ae, ea=ea, aea=aea, quotient=quotient,
        ae_rows=ae_rows, ea_rows=ea_rows, aea_rows=iq.ideal_rows,
        inclusion=iq.ideal_rows, projection=proj,
        section_cols=iq.section_cols,
        ideal_is_whole=iq.ideal_is_whole,
    )


def simple_modules(a):
    """The simple right modules, one per primitive idempotent (split basic case)."""
    if a.basic is None:
        from .errors import UnsupportedField
        raise UnsupportedField("simples need the basic structure "
                               "(quiver presentation or discovery over Q)")
    f = a.field
    rad = radical(a)
    out = []
    for ev in a.basic.idempotent_coords:
        stack = Matrix(f, [list(ev)] + [list(r) for r in rad.rows], ncols=a.dim)
        # b acts on the simple at ev by the coefficient of ev in e b e mod rad
        ebe = Matrix(f, [a.multiply(a.multiply(ev, unit_vector(a.dim, i)), ev)
                         for i in range(a.dim)], ncols=a.dim)
        coords = express_in_row_basis(stack, ebe)
        if coords is None:
            raise ValueError("simple action not defined")
        out.append(RightModule(a, 1, [Matrix(f, [[c[0]]], ncols=1) for c in coords.rows]))
    return out
