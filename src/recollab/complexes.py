"""Bounded complexes, minimal projective resolutions, Hom complexes.

Cohomological (upper) indexing throughout: a resolution P_N -> ... -> P_0 of
M sits in degrees -N..0 when viewed as a complex.  Resolutions are minimal
(covers through the top), so stabilisation at depth d certifies projective
dimension exactly d; a resolution cut off at depth n_max without stabilising
says only "pd >= n_max + 1".  Syzygy repetition (up to isomorphism, checked
for small syzygies) certifies infinite projective dimension and is recorded
as a periodicity witness, which is always computed, never read from a cache.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

from .algebra import opposite
from .errors import (
    AlgebraMismatch,
    DepthMismatch,
    DimensionMismatch,
    Inconclusive,
    InputNotExact,
    NotDegreewiseProjective,
    RecollabError,
)
from .exactfield import (
    Matrix,
    express_in_row_basis,
    kernel_basis,
    linear_combination,
    rank,
    rref,
    row_space_basis,
    unit_vector,
)
from .modules import (
    ModuleMap,
    RightModule,
    _once,
    _rep,
    as_bimodule,
    direct_sum,
    hom_coords,
    hom_space,
    hom_vec_basis,
    hom_module,
    is_projective,
    iso_test,
    projective_cover,
    projective_module,
    quotient_by_rows,
    regular_bimodule,
    submodule_from_rows,
    top_of,
    zero_module,
)

_PERIODICITY_DIM_CAP = 24


# --------------------------------------------------------------------------
# Vector-space complexes (the common target of every homological computation).
# --------------------------------------------------------------------------


class VectorSpaceComplex:
    """Cochain complex of vector spaces: dims per degree, differentials
    d^n: C^n -> C^{n+1} acting on row vectors (v |-> v @ d)."""

    def __init__(self, field, dims, diffs):
        self.field = field
        self.dims = dict(dims)
        self.diffs = {}
        for n, m in diffs.items():
            if m.nrows != self.dims.get(n, 0) or m.ncols != self.dims.get(n + 1, 0):
                raise DimensionMismatch(f"differential shape at degree {n}")
            self.diffs[n] = m
        for n in sorted(self.dims):
            if n in self.diffs and (n + 1) in self.diffs:
                if not self.diffs[n].mul(self.diffs[n + 1]).is_zero():
                    raise ValueError(f"d o d != 0 at degree {n}")
        self._h_cache = {}

    def dim(self, n):
        return self.dims.get(n, 0)

    def diff(self, n):
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zeros(self.field, self.dim(n), self.dim(n + 1))

    def degrees(self):
        return sorted(self.dims)

    def cohomology_dim(self, n):
        return self.cohomology(n)[2]

    def cohomology(self, n):
        """(cycle rows, boundary rows, dim H^n, homology representative rows).

        Representatives are genuine cycles chosen deterministically: the
        canonical cycle basis is filtered greedily against the boundary span,
        so reps extend the boundary basis to a basis of the cycles."""
        if n in self._h_cache:
            return self._h_cache[n]
        if not self.dim(n):
            # a zero term has no cohomology; Tor and Ext ask for every degree
            # up to n_max, most of them past the end of a resolution
            empty = Matrix._of(self.field, (), 0)
            self._h_cache[n] = (empty, empty, 0, empty)
            return self._h_cache[n]
        cycles = kernel_basis(self.diff(n).transpose()).transpose()
        bound = row_space_basis(self.diff(n - 1))
        # the kept cycles are the pivot columns past the (independent) boundary
        # rows in one RREF of [bound; cycles]^T
        pivots = rref(bound.vstack(cycles).transpose())[1]
        reps = cycles.take_rows([j - bound.nrows for j in pivots if j >= bound.nrows])
        res = (cycles, bound, reps.nrows, reps)
        self._h_cache[n] = res
        return res

    def coords_on_cohomology(self, n, rows):
        """Coordinates of cycle rows in the canonical homology basis at degree n."""
        cycles, bound, h, reps = self.cohomology(n)
        f = self.field
        full = bound.vstack(reps)
        coords = express_in_row_basis(full, rows)
        if coords is None:
            raise ValueError("vector is not a cycle at this degree")
        return coords.submatrix(range(coords.nrows), range(bound.nrows, bound.nrows + h))

    def map_on_cohomology(self, other, mats, n):
        """Matrix H^n(self) -> H^n(other) induced by a chain map (mats[n])."""
        _, _, h, reps = self.cohomology(n)
        if h == 0:
            return Matrix.zeros(self.field, 0, other.cohomology(n)[2])
        mat = mats.get(n)
        if mat is None:
            mat = Matrix.zeros(self.field, self.dim(n), other.dim(n))
        mapped = reps.mul(mat)
        return other.coords_on_cohomology(n, mapped)


# --------------------------------------------------------------------------
# Bounded complexes of modules.
# --------------------------------------------------------------------------


class BoundedComplex:
    """Bounded complex of right modules with differentials d^n: X^n -> X^{n+1}."""

    def __init__(self, algebra, modules, diffs, _validate=True):
        self.algebra = algebra
        self.modules = dict(modules)
        for n, m in self.modules.items():
            if m.algebra != algebra:
                raise AlgebraMismatch("complex mixes algebras")
        self.diffs = dict(diffs)
        if self.modules:
            self.lo = min(self.modules)
            self.hi = max(self.modules)
        else:
            self.lo = self.hi = 0
        if _validate:
            for n, d in self.diffs.items():
                if d.source.dim != self.module(n).dim or d.target.dim != self.module(n + 1).dim:
                    raise DimensionMismatch(f"differential at {n}")
                nxt = self.diffs.get(n + 1)
                if nxt is not None and not d.matrix.mul(nxt.matrix).is_zero():
                    raise ValueError(f"d o d != 0 at degree {n}")

    def module(self, n):
        m = self.modules.get(n)
        if m is None:
            return zero_module(self.algebra)
        return m

    def diff_matrix(self, n):
        d = self.diffs.get(n)
        if d is not None:
            return d.matrix
        return Matrix.zeros(self.algebra.field, self.module(n).dim, self.module(n + 1).dim)

    def degrees(self):
        return sorted(self.modules)

    def shift(self, k):
        """X[k], with degrees lowered by k (X[k]^n = X^{n+k}) and every
        differential multiplied by (-1)^k."""
        mods = {n - k: m for n, m in self.modules.items()}
        sgn = -1 if k % 2 else 1
        diffs = {n - k: ModuleMap(d.source, d.target, d.matrix.scale(sgn), _validate=False)
                 for n, d in self.diffs.items()}
        return BoundedComplex(self.algebra, mods, diffs, _validate=False)

    @staticmethod
    def concentrated(m, degree=0):
        return BoundedComplex(m.algebra, {degree: m}, {})

    def cohomology_module(self, n):
        """H^n as a module (kernel of d^n modulo image of d^{n-1})."""
        ker_rows = kernel_basis(self.diff_matrix(n).transpose()).transpose()
        sub, incl = submodule_from_rows(self.module(n), ker_rows)
        img = row_space_basis(self.diff_matrix(n - 1))
        return quotient_by_rows(sub, express_in_row_basis(incl.matrix, img))[0]


# --------------------------------------------------------------------------
# Projective resolutions.
# --------------------------------------------------------------------------


@dataclass
class ProjectiveResolution:
    """Minimal-cover resolution P_N -> ... -> P_0 -> M with exactness witnesses."""

    module: RightModule
    modules: list                      # P_0..P_N
    diffs: list                        # d_n: P_n -> P_{n-1} (ModuleMap), index n-1
    augmentation: ModuleMap            # P_0 -> M
    stabilized: bool
    minimal: bool = True
    periodicity: tuple = None          # (i, j): syzygy_i ~ syzygy_j, i < j
    syzygy_dims: list = field(default_factory=list)
    picks: list = None                 # the covers' (v, t) generator picks per level

    @property
    def depth(self):
        return len(self.modules) - 1

    def projective_dimension(self):
        """Exact pd if stabilized (minimal resolutions only), else None."""
        if not self.stabilized or not self.minimal:
            return None
        d = self.depth
        while d >= 0 and self.modules[d].dim == 0:
            d -= 1
        return d if d >= 0 else 0

    def to_complex(self):
        mods = {-n: p for n, p in enumerate(self.modules)}
        diffs = {}
        for n in range(1, len(self.modules)):
            diffs[-n] = ModuleMap(self.modules[n], self.modules[n - 1],
                                  self.diffs[n - 1].matrix, _validate=False)
        return BoundedComplex(self.module.algebra, mods, diffs, _validate=False)


def projective_resolution(m, n_max):
    """Minimal projective resolution of m to depth n_max (or until it stops).

    The stabilized flag is True iff the (n_max+1)-st syzygy vanished, so the
    reported depth certifies the projective dimension exactly.  Small syzygies
    are compared against earlier ones; a repeat is recorded as a periodicity
    witness (certifying infinite projective dimension).  Each resolution is
    computed once per store (see `resolution_store`) and handed to every
    later request for the same content, rebound to the requesting module.
    """
    return _store.resolve(m, n_max)


class ResolutionStore:
    """Resolutions by content: an in-memory memo in front of an optional disk.

    The key covers everything a resolution is computed from: the algebra with
    its basic structure, the module's actions, and the depth.  `disk` is an
    object with get(key) -> dict or None and put(key, dict).  An entry stores
    only the choices `_resolve` made, {"version": 3, "levels": [[[v, t], ...],
    ...]}: the (vertex, row) generator picks of each level's cover.  It is
    untrusted, so a hit is replayed through `_resolve` itself, which checks
    the picks (in range, onto, minimal), the level count (depth and
    stabilisation) and exactness, and recomputes the periodicity witness.
    An entry that fails is counted in `rejected`, recomputed and rewritten.
    """

    def __init__(self, disk=None):
        self.disk = disk
        self.memo = {}
        self.rejected = 0

    def resolve(self, m, n_max):
        key = (m.algebra.structure_hash(), m.content_hash(), n_max)
        res = self.memo.get(key)
        if res is None:
            res = self._load(key, m, n_max)
            if res is None:
                res = _resolve(m, n_max)
                if self.disk is not None:
                    self.disk.put(key, {"version": 3, "levels": res.picks})
            self.memo[key] = res
        if res.module is not m:
            res = replace(res, module=m, augmentation=ModuleMap(
                res.modules[0], m, res.augmentation.matrix, _validate=False))
        return res

    def _load(self, key, m, n_max):
        data = self.disk.get(key) if self.disk is not None else None
        if data is None:
            return None
        try:
            if data["version"] != 3:
                raise ValueError("unknown resolution entry version")
            return _resolve(m, n_max, data["levels"])
        except (RecollabError, ArithmeticError, AttributeError, LookupError,
                TypeError, ValueError):
            # an entry is outside input: malformed or failing a check, it is
            # not used
            self.rejected += 1
            return None


_store = ResolutionStore()


@contextmanager
def resolution_store(disk=None):
    """Resolve in a fresh store, with `disk` as its disk cache, inside the
    block; library callers outside every block share one process-wide store."""
    global _store
    outer, _store = _store, ResolutionStore(disk)
    try:
        yield _store
    finally:
        _store = outer


def _step(m, picks=None):
    """One level of m's resolution: the minimal cover, its kernel rows, and
    the syzygy with its inclusion (None, None once the kernel is zero)."""
    cover = projective_cover(m, picks)
    ker = kernel_basis(cover.surjection.matrix.transpose()).transpose()
    return cover, ker, *(submodule_from_rows(cover.module, ker) if ker.nrows else (None, None))


def _resolve(m, n_max, stored=None):
    """The minimal resolution of m to depth n_max; with `stored`, the
    per-level picks of an earlier build are replayed instead of searched for,
    and the result must be a minimal resolution with as many levels.  A
    searched step is built once per representative (`_rep`), so repeating
    syzygies and deeper requests read it; a replay builds its own."""
    cur, aug, periodicity, stabilized = m, None, None, False
    modules, diffs, picks, syzygies = [], [], [], []
    for level in range(n_max + 1):
        if stored is not None and len(stored) <= level:
            raise ValueError("the entry has too few levels")
        cover, ker_rows, syz, incl = (_step(cur, stored[level]) if stored is not None
                                      else _once(_rep(cur)._memo, "step", lambda: _step(cur)))
        modules.append(cover.module)
        picks.append(cover.picks)
        if level == 0:
            # a memoised cover maps onto the module it was built for, equal to m
            aug = ModuleMap(cover.module, m, cover.surjection.matrix, _validate=False)
        else:
            # d_level: P_level -> P_{level-1} through the syzygy inclusion
            mat = cover.surjection.matrix.mul(syzygies[-1][1].matrix)
            diffs.append(ModuleMap(cover.module, modules[level - 1], mat, _validate=False))
        if stored is not None and ker_rows.nrows and \
                not ker_rows.mul(top_of(cover.module)[0]).is_zero():
            # searched picks are minimal by construction
            raise ValueError("stored picks give a cover that is not minimal")
        if syz is None:
            stabilized = True
            break
        if periodicity is None and syz.dim <= _PERIODICITY_DIM_CAP:
            with suppress(Inconclusive):  # no witness then: the verdict stays AtLeast
                for i, (old, _) in enumerate(syzygies):
                    if old.dim == syz.dim and old.dim > 0 and iso_test(old, syz):
                        periodicity = (i + 1, len(syzygies) + 1)
                        break
        syzygies.append((syz, incl))
        cur = syz
    if stored is not None and len(stored) > len(modules):
        raise ValueError("the entry has too many levels")
    res = ProjectiveResolution(
        module=m, modules=modules, diffs=diffs, augmentation=aug,
        stabilized=stabilized, minimal=True,
        periodicity=periodicity, syzygy_dims=[s.dim for s, _ in syzygies], picks=picks,
    )
    _assert_resolution_exact(res)
    return res


def _joints(dims, maps, closed_start, closed_end):
    """Exactness of a sequence with maps[i]: term i -> term i + 1 (matrices on
    row vectors), term by term: (composite_zero, rank_in, rank_out, exact,
    assessed), exact when the composite through the term is zero and
    rank in + rank out = dim.  At a closed end the sequence is bounded by
    zero, so the missing map is the zero map; the term at an open end (a
    window's cut) is not assessed."""
    out = []
    for i, dim in enumerate(dims):
        incoming = maps[i - 1] if i else None
        outgoing = maps[i] if i < len(maps) else None
        if (incoming is None and not closed_start) or (outgoing is None and not closed_end):
            out.append((True, 0, 0, True, False))
            continue
        ri = rank(incoming) if incoming is not None else 0
        ro = rank(outgoing) if outgoing is not None else 0
        cz = incoming is None or outgoing is None or incoming.mul(outgoing).is_zero()
        out.append((cz, ri, ro, cz and ri + ro == dim, True))
    return out


def _assert_resolution_exact(res):
    """P_N -> ... -> P_0 -> M -> 0 is exact at every term (`_joints`), at
    P_N too when the resolution stabilised: then d_N is injective."""
    if not res.modules:
        return
    n = res.depth
    dims = [p.dim for p in reversed(res.modules)] + [res.module.dim]
    maps = [d.matrix for d in reversed(res.diffs)] + [res.augmentation.matrix]
    for i, (*_, exact, _) in enumerate(_joints(dims, maps, res.stabilized, True)):
        if not exact:
            raise ValueError("augmentation not surjective" if i > n
                             else f"resolution not exact at level {n - i}")


# --------------------------------------------------------------------------
# Hom complexes and derived Hom groups of perfect complexes.
# --------------------------------------------------------------------------


@dataclass
class HomComplexData:
    """Total Hom complex of two bounded complexes, with its component grid."""

    complex: VectorSpaceComplex
    components: dict     # n -> list of (p, maps, offset, size); map: X^p -> Y^{p+n}
    source: BoundedComplex
    target: BoundedComplex
    bases: dict          # (n, p) -> the component's maps flattened to rows

    def cohomology_dim(self, n):
        return self.complex.cohomology_dim(n)

    def coords(self, n, p, mats):
        """Coordinates of maps X^p -> Y^{p+n} in the basis of the degree-n
        term, one row per map (zero outside the component at p)."""
        f = self.source.algebra.field
        comps = self.components.get(n, [])
        total = sum(size for _, _, _, size in comps)
        for q, _, off, size in comps:
            if q == p and mats:
                c = hom_coords(self.bases[(n, p)], mats)
                if size == total:
                    return c
                return Matrix._of(f, tuple((0,) * off + r + (0,) * (total - off - size)
                                           for r in c.rows), total)
        return Matrix.zeros(f, len(mats), total)


def hom_complex(x, y):
    """Total Hom complex; its n-th cohomology is Hom_{D(A)}(x, y[n]) when x is
    degreewise projective and both complexes are bounded.

    The differential is D f = (-1)^n f d_Y + d_X f on a degree-n map f, so
    Hom(P_*, T) out of a resolution into a module carries the unsigned maps
    g |-> d g, and each induced map between such complexes is a plain
    composition."""
    if isinstance(y, RightModule):
        y = BoundedComplex.concentrated(y)
    if x.algebra != y.algebra:
        raise AlgebraMismatch("hom_complex across algebras")
    f = x.algebra.field
    lo = y.lo - x.hi
    hi = y.hi - x.lo
    components = {}
    dims = {}
    bases = {}
    for n in range(lo, hi + 1):
        comps = []
        off = 0
        # X^p and Y^{p+n} are both terms of their complexes
        for p in range(max(x.lo, y.lo - n), min(x.hi, y.hi - n) + 1):
            xm = x.module(p)
            ym = y.module(p + n)
            maps = hom_space(xm, ym)
            if maps:
                comps.append((p, maps, off, len(maps)))
                bases[(n, p)] = hom_vec_basis(maps, xm.dim, ym.dim, f)
                off += len(maps)
        components[n] = comps
        dims[n] = off
    hc = HomComplexData(None, components, x, y, bases)
    diffs = {}
    for n in range(lo, hi):
        tgt = {p for p, _, _, _ in components.get(n + 1, [])}
        rows = []
        for p, maps, _, _ in components.get(n, []):
            block = Matrix.zeros(f, len(maps), dims.get(n + 1, 0))
            if p in tgt:
                dy = y.diff_matrix(p + n)
                part = hc.coords(n + 1, p, [mp.matrix.mul(dy) for mp in maps])
                block = block.add(part if n % 2 == 0 else part.neg())
            if p - 1 in tgt:
                dx = x.diff_matrix(p - 1)
                block = block.add(hc.coords(n + 1, p - 1, [dx.mul(mp.matrix) for mp in maps]))
            rows.extend(block.rows)
        diffs[n] = Matrix._of(f, tuple(rows), dims.get(n + 1, 0))
    hc.complex = VectorSpaceComplex(f, dims, diffs)
    return hc


def is_exceptional(x):
    """Hom_{D(A)}(x, x[n]) = 0 for all n != 0; complete, because both
    complexes are bounded and so is the amplitude of the Hom complex."""
    hc = hom_complex(x, x)
    for n in hc.complex.degrees():
        if n != 0 and hc.complex.cohomology_dim(n) != 0:
            return False
    return True


# --------------------------------------------------------------------------
# Comparison lifts and the horseshoe.
# --------------------------------------------------------------------------


@dataclass
class ChainMap:
    """Chain map between resolutions, lifting a module map."""

    source: ProjectiveResolution
    target: ProjectiveResolution
    base: ModuleMap
    levels: list     # ModuleMap P^s_n -> P^t_n


def lift_map(fmap, rm, rn):
    """Lift f: M -> N to a chain map between resolutions of matching depth.

    A stabilized resolution counts as extended by zeros, so only genuinely
    truncated resolutions of different depths are rejected.
    """
    if rm.depth != rn.depth:
        target = max(rm.depth, rn.depth)
        if rm.depth < target and rm.stabilized:
            rm = _padded_resolution(rm, target)
        if rn.depth < target and rn.stabilized:
            rn = _padded_resolution(rn, target)
        if rm.depth != rn.depth:
            raise DepthMismatch(f"{rm.depth} != {rn.depth}")
    levels = _lift(rm, rn, rm.augmentation.matrix.mul(fmap.matrix), 0, rm.depth)
    return ChainMap(rm, rn, fmap, levels)


def _lift(rm, rn, top, shift, depth):
    """Levels F_i: P^m_{shift+i} -> P^n_i, i = 0..depth, of a chain map over
    top: P^m_shift -> N (F_0 @ aug_n = top, F_i @ d^n_i = d^m_{shift+i} @ F_{i-1})."""
    levels = []
    for i in range(depth + 1):
        src, tgt = rm.modules[shift + i], rn.modules[i]
        if i == 0:
            post, rhs = rn.augmentation.matrix, top
        else:
            post = rn.diffs[i - 1].matrix
            rhs = rm.diffs[shift + i - 1].matrix.mul(levels[-1].matrix)
        levels.append(ModuleMap(src, tgt, _solve_through(src, tgt, [(post, rhs)]),
                                _validate=False))
    return levels


def _solve_through(src, tgt, constraints):
    """Deterministic F in Hom(src, tgt) with F @ post = rhs for every
    (post, rhs) in `constraints`, solved as one stacked system."""
    f = src.field
    maps = hom_space(src, tgt)
    if not maps:
        if all(rhs.is_zero() for _, rhs in constraints):
            return Matrix.zeros(f, src.dim, tgt.dim)
        raise ValueError("no module maps available for lift")
    # one row per basis map: its composites with each post, flattened in order
    sys_rows = Matrix(f, [[x for post, _ in constraints for row in mp.matrix.mul(post).rows
                           for x in row] for mp in maps])
    target = Matrix._of(f, (tuple(x for _, rhs in constraints for row in rhs.rows for x in row),),
                        sys_rows.ncols)
    coeffs = express_in_row_basis(sys_rows, target)
    if coeffs is None:
        raise ValueError("comparison lift system inconsistent")
    return linear_combination(coeffs.rows[0], [mp.matrix for mp in maps], f, src.dim, tgt.dim)


def _assert_short_exact(dims, inc, prj, where=""):
    """Raise InputNotExact unless 0 -> sub -> mid -> quot -> 0, of the
    dimensions `dims` with the maps inc and prj, is exact (`_joints`)."""
    fails = ("inclusion not injective", "not exact at the middle term",
             "projection not surjective")
    for fail, (*_, exact, _) in zip(fails, _joints(dims, (inc, prj), True, True)):
        if not exact:
            raise InputNotExact(fail + where)


@dataclass
class ShortExactSequence:
    sub: RightModule
    mid: RightModule
    quot: RightModule
    inclusion: ModuleMap
    projection: ModuleMap

    def validate(self):
        if self.inclusion.source != self.sub or self.inclusion.target != self.mid:
            raise InputNotExact("inclusion endpoints wrong")
        if self.projection.source != self.mid or self.projection.target != self.quot:
            raise InputNotExact("projection endpoints wrong")
        _assert_short_exact((self.sub.dim, self.mid.dim, self.quot.dim),
                            self.inclusion.matrix, self.projection.matrix)


@dataclass
class HorseshoeData:
    """Degreewise-split SES of resolutions with P_n = P'_n (+) P''_n."""

    ses: ShortExactSequence
    res_sub: ProjectiveResolution
    res_mid: ProjectiveResolution
    res_quot: ProjectiveResolution
    incl_mats: list    # block inclusions P'_n -> P_n
    proj_mats: list    # block projections P_n -> P''_n
    split_sections: list   # block sections P''_n -> P_n (splittings)
    split_retracts: list   # block retracts P_n -> P'_n


def horseshoe(ses, n_max):
    """Simultaneous resolution of a short exact sequence (degreewise split)."""
    ses.validate()
    f = ses.mid.field
    # both resolutions padded with zero levels up to n_max so blocks line up
    res_sub = _padded_resolution(projective_resolution(ses.sub, n_max), n_max)
    res_quot = _padded_resolution(projective_resolution(ses.quot, n_max), n_max)
    mid_mods = []
    mid_diffs = []
    incl_mats = []
    proj_mats = []
    sections = []
    retracts = []
    aug_mid = None
    prev_map = None
    # P_n = P'_n (+) P''_n, tagged when all three share one basic structure
    a = ses.mid.algebra
    tagged = all(r.module.algebra.structure_hash() == a.structure_hash()
                 for r in (res_sub, res_quot))
    for n in range(n_max + 1):
        Ps = res_sub.modules[n]
        Pq = res_quot.modules[n]
        P = (projective_module(a, (Ps.summand_tags or ()) + (Pq.summand_tags or ()))
             if tagged else direct_sum([Ps, Pq]))
        mid_mods.append(P)
        inc = _summand_rows(f, Ps.dim, Pq.dim, first=True)
        sec = _summand_rows(f, Ps.dim, Pq.dim, first=False)
        incl_mats.append(inc)
        proj_mats.append(sec.transpose())
        sections.append(sec)
        retracts.append(inc.transpose())
        if n == 0:
            top = res_sub.augmentation.matrix.mul(ses.inclusion.matrix)
            sigma = _solve_through(Pq, ses.mid, [(ses.projection.matrix,
                                                  res_quot.augmentation.matrix)])
            mat = top.vstack(sigma)
            aug_mid = ModuleMap(P, ses.mid, mat, _validate=False)
        else:
            top = res_sub.diffs[n - 1].matrix.mul(incl_mats[n - 1])
            # tau: P''_n -> P_{n-1} with tau @ proj = d_q and tau @ prev_map = 0
            zero = Matrix.zeros(f, Pq.dim, prev_map.ncols)
            tau = _solve_through(Pq, mid_mods[n - 1],
                                 [(proj_mats[n - 1], res_quot.diffs[n - 1].matrix),
                                  (prev_map, zero)])
            mat = top.vstack(tau)
            mid_diffs.append(ModuleMap(P, mid_mods[n - 1], mat, _validate=False))
        prev_map = mat
    res_mid = ProjectiveResolution(
        module=ses.mid, modules=mid_mods, diffs=mid_diffs, augmentation=aug_mid,
        stabilized=res_sub.stabilized and res_quot.stabilized,
        minimal=False,
    )
    _assert_resolution_exact(res_mid)
    return HorseshoeData(ses, res_sub, res_mid, res_quot,
                         incl_mats, proj_mats, sections, retracts)


def _padded_resolution(res, n_max):
    if res.depth >= n_max:
        return res
    a = res.module.algebra
    f = a.field
    mods = list(res.modules)
    diffs = list(res.diffs)
    while len(mods) - 1 < n_max:
        z = zero_module(a)
        prev = mods[-1]
        mods.append(z)
        diffs.append(ModuleMap(z, prev, Matrix._of(f, (), prev.dim), _validate=False))
    return ProjectiveResolution(
        module=res.module, modules=mods, diffs=diffs, augmentation=res.augmentation,
        stabilized=res.stabilized, minimal=res.minimal,
        periodicity=res.periodicity, syzygy_dims=res.syzygy_dims,
    )


def _summand_rows(f, ds, dq, first):
    """The rows [I 0] (first summand) or [0 I] of k^ds (+) k^dq: the block
    inclusion or section; their transposes are the retract and projection."""
    n, off = (ds, 0) if first else (dq, ds)
    return Matrix._of(f, tuple(unit_vector(ds + dq, off + i) for i in range(n)), ds + dq)


# --------------------------------------------------------------------------
# Duality for perfect complexes.
# --------------------------------------------------------------------------


def dualize_perfect(x):
    """Apply Hom_A(-, A) degreewise to a bounded complex of f.g. projectives.

    Returns a bounded complex over A^op in the negated degrees.  Exact on
    projectives, so the double dual has the same cohomology dimensions.
    """
    a = x.algebra
    for n in x.degrees():
        if not is_projective(x.module(n)):
            raise NotDegreewiseProjective(f"term in degree {n} is not projective")
    reg = regular_bimodule(a)
    aop = opposite(a)
    mods = {}
    bases = {}
    for n in x.degrees():
        xm = x.module(n)
        h = hom_module(as_bimodule(xm), reg)
        # h is a Bimodule(A, k); its left A-structure is a right A^op-module
        mods[-n] = h.left_as_op_module()
        maps = hom_space(xm, reg.restrict_right())
        bases[n] = hom_vec_basis(maps, xm.dim, a.dim, a.field)
    diffs = {}
    f = a.field
    for n in x.degrees():
        if (n + 1) not in x.modules:
            continue
        src_dual, tgt_dual = mods[-(n + 1)], mods[-n]
        d = x.diff_matrix(n)
        src_dim = x.module(n + 1).dim
        # precompose each basis map g: X^{n+1} -> A with d
        comps = [d.mul(_unvec(bases[n + 1].rows[t], src_dim, a.dim, f))
                 for t in range(src_dual.dim)]
        diffs[-(n + 1)] = ModuleMap(src_dual, tgt_dual, hom_coords(bases[n], comps),
                                    _validate=False)
    return BoundedComplex(aop, mods, diffs, _validate=False)


def _unvec(row, nr, nc, f):
    return Matrix._of(f, tuple(row[i * nc:(i + 1) * nc] for i in range(nr)), nc)
