"""Tor, Ext, Hochschild (co)homology, long exact sequences, Yoneda products.

Hochschild homology of A is Tor over A^op (x) A of (A, A); cohomology is Ext
over the same ring.  The truncated normalised bar complex provides an
independent oracle for both (it shares the exact linear algebra kernels but
none of the resolution machinery).  Long exact sequences are produced at the chain level
with explicit connecting homomorphisms via the horseshoe and a snake chase,
so exactness of every joint is a rank computation, not a trusted theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product

import numpy as np

from .algebra import enveloping
from .complexes import (
    BoundedComplex,
    HomComplexData,
    ProjectiveResolution,
    VectorSpaceComplex,
    _lift,
    _padded_resolution,
    hom_complex,
    horseshoe,
    projective_resolution,
)
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DepthInsufficient,
    InputNotExact,
)
from .exactfield import (
    Matrix,
    express_in_row_basis,
    integer_array,
    linear_combination,
    rank,
    sparse_rank,
)
from .modules import (
    Bimodule,
    ModuleMap,
    RightModule,
    as_bimodule,
    regular_bimodule,
    simple_modules,
    tensor_map,
    tensor_over,
    trivial_algebra,
    zero_module,
)


@dataclass
class GradedDims:
    """Dimensions per degree, optionally with representative bases."""

    entries: tuple                       # ((degree, dim), ...)
    bases: dict = field(default_factory=dict)

    def dim(self, n):
        for d, v in self.entries:
            if d == n:
                return v
        return 0

    def degrees(self):
        return [d for d, _ in self.entries]

    def as_dict(self):
        return {d: v for d, v in self.entries}

    def total(self):
        return sum(v for _, v in self.entries)

    def euler_characteristic(self):
        return sum(v if d % 2 == 0 else -v for d, v in self.entries)


@dataclass
class PdVerdict:
    """Projective-dimension verdict: Finite(d) or AtLeast(cutoff+1)."""

    kind: str                 # "finite" | "at_least"
    value: int
    periodic: tuple = None    # syzygy repetition witness (certifies infinity)

    @property
    def finite(self):
        return self.kind == "finite"

    def definitely_infinite(self):
        return self.kind == "at_least" and self.periodic is not None

    def label(self):
        if self.kind == "finite":
            return f"Finite({self.value})"
        tag = ", periodic" if self.periodic else ""
        return f"AtLeast({self.value}{tag})"


# --------------------------------------------------------------------------
# Tor and Ext.
# --------------------------------------------------------------------------


def regular_as_left_env_module(a, env=None):
    """A as a left module over A^op (x) A: (b^op (x) c) . x = c x b."""
    if env is None:
        env = enveloping(a)
    f = a.field
    L = a.basis_left_mats()
    R = a.basis_right_mats()
    lam = []
    for i in range(a.dim):
        for j in range(a.dim):
            lam.append(L[j].mul(R[i]))
    triv = trivial_algebra(f)
    ident = Matrix.identity(f, a.dim)
    return Bimodule(env, triv, a.dim, tuple(lam), (ident,))


def _tensor_complex(res, t, n_max):
    """P_* (x)_B T for a resolution of a right B-module and a left B-module t.

    Returns (VectorSpaceComplex in degrees -n, the TensorProduct per level).
    """
    dims = {}
    diffs = {}
    level_data = []
    for nlev in range(min(res.depth, n_max) + 1):
        tp = tensor_over(as_bimodule(res.modules[nlev]), t, _validate=False)
        level_data.append(tp)
        dims[-nlev] = tp.bimodule.dim
    for nlev in range(1, len(level_data)):
        diffs[-nlev] = tensor_map(level_data[nlev].section_indices, t.dim,
                                  level_data[nlev - 1].projection,
                                  left=res.diffs[nlev - 1].matrix)
    for n in range(len(level_data), n_max + 2):
        dims[-n] = 0
    return VectorSpaceComplex(t.field, dims, diffs), level_data


def tor(m, n, n_max, resolve="left", with_bases=False):
    """Tor_i^B(m, n) for i <= n_max; m a right B-module, n a left B-module.

    resolve="left" resolves m; resolve="right" resolves n over B^op.  Both
    give the same dimensions (balancedness), which the test suite asserts.
    """
    m_bim = as_bimodule(m)
    n_bim = n if isinstance(n, Bimodule) else as_bimodule(n)
    if m_bim.right_algebra != n_bim.left_algebra:
        raise AlgebraMismatch("tor: middle algebra mismatch")
    if resolve == "right":
        # Tor^B_i(M, N) = Tor^{B^op}_i(N, M) via the swapped bimodules
        return tor(n_bim.swap_sides(), m_bim.swap_sides(), n_max,
                   resolve="left", with_bases=with_bases)
    res = projective_resolution(m_bim.restrict_right(), n_max + 1)
    cx, _ = _tensor_complex(res, n_bim, n_max + 1)
    entries = []
    bases = {}
    for i in range(n_max + 1):
        entries.append((i, cx.cohomology_dim(-i)))
        if with_bases:
            bases[i] = cx.cohomology(-i)[3]
    return GradedDims(tuple(entries), bases)


@dataclass
class ExtData:
    """Ext groups with enough context to extract and multiply classes."""

    graded: GradedDims
    resolution: ProjectiveResolution
    target: RightModule
    hom: HomComplexData

    def cocycle_basis(self, nlev):
        """Representative cocycles of Ext^n as ModuleMaps P_n -> target."""
        comps = self.hom.components.get(nlev, [])
        reps = self.hom.complex.cohomology(nlev)[3]
        out = []
        for r in range(reps.nrows):
            out.append(ExtClass(nlev, self.resolution, self.target,
                                self._row_to_map(nlev, reps.rows[r])))
        return out

    def _row_to_map(self, nlev, row):
        comps = self.hom.components.get(nlev, [])
        f = self.target.field
        src = self.resolution.modules[nlev] if nlev <= self.resolution.depth else \
            zero_module(self.resolution.module.algebra)
        coeffs = [row[off + t] for _, maps, off, _ in comps for t in range(len(maps))]
        mats = [mp.matrix for _, maps, _, _ in comps for mp in maps]
        acc = linear_combination(coeffs, mats, f, src.dim, self.target.dim)
        return ModuleMap(src, self.target, acc, _validate=False)

    def class_coords(self, cls):
        """Coordinates of an ExtClass in the canonical cohomology basis."""
        nlev = cls.degree
        return self.hom.complex.coords_on_cohomology(
            nlev, self.hom.coords(nlev, -nlev, [cls.cocycle.matrix]))


@dataclass
class ExtClass:
    degree: int
    resolution: ProjectiveResolution
    target: RightModule
    cocycle: ModuleMap


def ext(m, n, n_max, with_bases=False):
    """Ext^i_B(m, n) for i <= n_max, via a minimal resolution of m."""
    m_mod = m.restrict_right() if isinstance(m, Bimodule) else m
    n_mod = n.restrict_right() if isinstance(n, Bimodule) else n
    if m_mod.algebra != n_mod.algebra:
        raise AlgebraMismatch("ext: algebra mismatch")
    res = projective_resolution(m_mod, n_max + 1)
    hc = hom_complex(res.to_complex(), BoundedComplex.concentrated(n_mod))
    entries = []
    bases = {}
    for i in range(n_max + 1):
        entries.append((i, hc.complex.cohomology_dim(i)))
        if with_bases:
            bases[i] = hc.complex.cohomology(i)[3]
    return ExtData(GradedDims(tuple(entries), bases), res, n_mod, hc)


def yoneda_product(x, y):
    """Composition product Ext^p(M, N) x Ext^q(N, L) -> Ext^{p+q}(M, L).

    x has target N and y lives over N: the product is "x followed by y".
    """
    if y.resolution.module != x.target:
        raise AlgebraMismatch("yoneda_product: x.target must be y's module")
    p, q = x.degree, y.degree
    res_m = x.resolution
    needed = p + q
    if res_m.depth < needed:
        if res_m.stabilized:
            res_m = _padded_resolution(res_m, needed)
        else:
            raise DepthInsufficient(f"resolution depth {res_m.depth} < {needed}")
    res_n = y.resolution
    if res_n.depth < q:
        raise DepthInsufficient(f"target resolution depth {res_n.depth} < {q}")
    # lift the cocycle of x to a chain map shifted by p
    levels = _lift(res_m, res_n, x.cocycle.matrix, p, q)
    comp = levels[q].matrix.mul(y.cocycle.matrix)
    src = levels[q].source
    return ExtClass(p + q, res_m, y.target,
                    ModuleMap(src, y.target, comp, _validate=False))


# --------------------------------------------------------------------------
# Hochschild (co)homology via resolutions.
# --------------------------------------------------------------------------


def hochschild_homology(a, n_max, with_bases=False):
    """HH_n(A) = Tor_n over A^op (x) A of (A, A)."""
    if a.is_zero_algebra:
        return GradedDims(tuple((i, 0) for i in range(n_max + 1)))
    env = enveloping(a)
    m = regular_bimodule(a).as_right_module_over(env)
    t = regular_as_left_env_module(a, env)
    return tor(m, t, n_max, with_bases=with_bases)


def hochschild_cohomology(a, n_max, with_bases=False):
    """HH^n(A) = Ext^n over A^op (x) A of (A, A)."""
    if a.is_zero_algebra:
        return GradedDims(tuple((i, 0) for i in range(n_max + 1)))
    env = enveloping(a)
    m = regular_bimodule(a).as_right_module_over(env)
    return ext(m, m, n_max, with_bases=with_bases).graded


def hochschild_dimension(a, cutoff):
    """pd of A over A^op (x) A: Finite(d) if the minimal resolution stabilises
    at depth d <= cutoff, else AtLeast(cutoff+1) (with a periodicity witness
    when a syzygy repeats, which certifies infinite dimension)."""
    if a.is_zero_algebra:
        return PdVerdict("finite", 0)
    env = enveloping(a)
    m = regular_bimodule(a).as_right_module_over(env)
    res = projective_resolution(m, cutoff)
    if res.stabilized:
        return PdVerdict("finite", res.projective_dimension())
    return PdVerdict("at_least", cutoff + 1, periodic=res.periodicity)


def global_dimension(a, cutoff):
    """Max over simple modules of their projective dimension, within cutoff."""
    if a.is_zero_algebra:
        return PdVerdict("finite", 0)
    if a.basic is None:
        from .algebra import discover_basic
        a = discover_basic(a)
    worst = 0
    periodic = None
    for s in simple_modules(a):
        res = projective_resolution(s, cutoff)
        if res.stabilized:
            worst = max(worst, res.projective_dimension())
        else:
            if res.periodicity is not None and periodic is None:
                periodic = res.periodicity
            return PdVerdict("at_least", cutoff + 1,
                             periodic=res.periodicity or periodic)
    return PdVerdict("finite", worst)


# --------------------------------------------------------------------------
# The truncated bar-complex oracle.
# --------------------------------------------------------------------------


def _bar_tables(a, n_max):
    """(d, e, p, left, right, pbar), read once per oracle call: with
    Abar = A / k.1 of dim e = d - 1, the products A (x) Abar -> A as arrays
    (i, r, k, value), Abar (x) A -> A as (r, j, k, value) and the projected
    Abar (x) Abar -> Abar as (x, y, m, value).  The values are integers
    (`integer_array`: over Q scaled by one common denominator, which leaves
    each rank unchanged), at most n_max + 2 of them summed per entry of a
    differential; p is the characteristic, None over Q."""
    d, f, u = a.dim, a.field, a.unit
    tab = a._sparse_table()
    # Abar's r-th basis vector is the class of b_rep[r]; x projects to
    # x - (x_j0 / u_j0) u
    j0 = next(j for j, x in enumerate(u) if x)
    rep = [j for j in range(d) if j != j0]
    s = f.inv(u[j0])
    mu = [(i, j, k, c) for (i, j), ent in tab.items() for k, c in ent]
    pmu = []
    for x, y in product(range(d - 1), repeat=2):
        coef = dict(tab.get((rep[x], rep[y]), ()))
        lam = coef.get(j0, 0) * s
        for m, j in enumerate(rep):
            c = f.coerce(coef.get(j, 0) - lam * u[j])
            if c:
                pmu.append((x, y, m, c))
    vals = integer_array(f, [t[3] for t in mu + pmu], lambda m: (n_max + 2) * m)[0]
    (i, j, k), pbar = (np.array([t[:3] for t in ts], dtype=np.int64).reshape(-1, 3).T
                       for ts in (mu, pmu))
    bar = np.full(d, -1)
    bar[rep] = np.arange(d - 1)
    v = vals[:len(mu)]
    left, right = bar[j] >= 0, bar[i] >= 0
    return (d, d - 1, getattr(f, "p", None),
            (i[left], bar[j[left]], k[left], v[left]),
            (bar[i[right]], j[right], k[right], v[right]),
            (*pbar, vals[len(mu):]))


def _bar_term(cols, rows, vals, free):
    """One term I (x) T (x) I of a differential as (col, row, value) arrays:
    the table's entries, at column codes `cols` and row codes `rows`,
    broadcast over each free index (size, column stride, row stride)."""
    for size, cs, rs in free:
        idx = np.arange(size)
        cols = (cols[:, None] + idx * cs).ravel()
        rows = (rows[:, None] + idx * rs).ravel()
        vals = np.repeat(vals, size)
    return cols, rows, vals


def _bar_columns(terms, ncols, nrows, p):
    """The sum of `terms` as sparse columns {row: int}, in column order,
    reduced mod p when p is given and without zero entries."""
    cols, rows, vals = (np.concatenate(part) for part in zip(*terms))
    key = cols * nrows + rows
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    key, vals = key[start], np.add.reduceat(vals, start)
    if p is not None:
        vals = vals % p
    keep = vals != 0
    cols, rows = np.divmod(key[keep], nrows)
    entries = zip(rows.tolist(), vals[keep].tolist())
    return [dict(islice(entries, size)) for size in np.bincount(cols, minlength=ncols).tolist()]


def _bar_chain_columns(tables, n):
    """Columns of b_n: C_n -> C_{n-1}, n >= 1.  The basis vector
    a_0 (x) .. (x) a_n of C_n = A (x) Abar^{(x)n} has code
    a_0 e^n + a_1 e^(n-1) + .. + a_n."""
    d, e, p, (li, lr, lk, lv), (rr, rj, rk, rv), (px, py, pm, pv) = tables
    w = e ** (n - 1)
    # a_0 a_1 lands in A
    terms = [_bar_term((li * e + lr) * w, lk * w, lv, [(w, 1, 1)])]
    # a_t a_{t+1} in Abar, after a prefix of t digits and before n - t - 1
    for t in range(1, n):
        w = e ** (n - t - 1)
        terms.append(_bar_term((px * e + py) * w, pm * w, (-1) ** t * pv,
                               [(d * e ** (t - 1), e ** (n - t + 1), e ** (n - t)), (w, 1, 1)]))
    # a_n a_0 (x) a_1 .. a_{n-1}: the middle digits keep their order
    w = e ** (n - 1)
    terms.append(_bar_term(rj * e ** n + rr, rk * w, (-1) ** n * rv, [(w, e, 1)]))
    return _bar_columns(terms, d * e ** n, d * w, p)


def _bar_cochain_columns(tables, n):
    """Columns of delta^n: C^n -> C^{n+1}, n >= 0.  The basis vector of
    C^n = Hom_k(Abar^{(x)n}, A) sending a_1 (x) .. (x) a_n to b_k has code
    (a_1 e^(n-1) + .. + a_n) d + k."""
    d, e, p, (li, lr, lk, lv), (rr, rj, rk, rv), (px, py, pm, pv) = tables
    w = e ** n
    # a_1 . f(a_2, .., a_{n+1})
    terms = [_bar_term(rj, rr * w * d + rk, rv, [(w, d, d)])]
    # f(.., a_t a_{t+1}, ..): t - 1 digits before, n - t digits and k after
    for t in range(1, n + 1):
        w = e ** (n - t) * d
        terms.append(_bar_term(pm * w, (px * e + py) * w, (-1) ** t * pv,
                               [(e ** (t - 1), e * w, e * e * w), (w, 1, 1)]))
    # f(a_1, .., a_n) . a_{n+1}
    terms.append(_bar_term(li, lr * d + lk, (-1) ** (n + 1) * lv, [(e ** n, d, e * d)]))
    return _bar_columns(terms, e ** n * d, e ** (n + 1) * d, p)


def bar_oracle(a, n_max, budget=20000):
    """HH_* and HH^* from the truncated normalised bar complex, independent
    of the resolution machinery.

    With Abar = A / k.1, chains C_n = A (x) Abar^{(x)n} carry the cyclic
    Hochschild boundary and cochains C^n = Hom_k(Abar^{(x)n}, A) the
    Hochschild codifferential (Loday, Cyclic Homology, 1.1.14-1.1.15).  The
    budget bounds the unnormalised term: BudgetExceeded if d^(n+1) > budget
    for some n <= n_max + 1, d = dim A.
    """
    d = a.dim
    f = a.field
    if d == 0:
        z = tuple((i, 0) for i in range(n_max + 1))
        return GradedDims(z), GradedDims(z)
    for n in range(n_max + 2):
        if d ** (n + 1) > budget:
            raise BudgetExceeded(
                f"bar term dimension {d ** (n + 1)} exceeds budget {budget}")
    tables = _bar_tables(a, n_max)
    e = d - 1
    ch = {n: sparse_rank(_bar_chain_columns(tables, n), f) for n in range(1, n_max + 2)}
    co = {n: sparse_rank(_bar_cochain_columns(tables, n), f) for n in range(n_max + 1)}
    # C_n = A (x) Abar^{(x)n} and C^n = Hom_k(Abar^{(x)n}, A) both have dim d e^n
    hh = tuple((n, d * e ** n - ch.get(n, 0) - ch[n + 1]) for n in range(n_max + 1))
    hhc = tuple((n, d * e ** n - co[n] - co.get(n - 1, 0)) for n in range(n_max + 1))
    return GradedDims(hh), GradedDims(hhc)


# --------------------------------------------------------------------------
# Long exact sequences with explicit connecting maps.
# --------------------------------------------------------------------------


@dataclass
class LesTerm:
    label: str
    degree: int
    dim: int


@dataclass
class LesJoint:
    index: int               # joint at terms[index]
    composite_zero: bool
    rank_in: int
    rank_out: int
    exact: bool
    assessed: bool


@dataclass
class LesReport:
    terms: list
    maps: list               # maps[i]: terms[i] -> terms[i+1]
    joints: list
    exact: bool


def _snake_les(sub_cx, mid_cx, quot_cx, incs, prjs, degrees, labels,
               sections=None):
    """LES of cohomology of a degreewise-exact SES of vector-space complexes.

    incs/prjs: dicts degree -> matrices of the chain maps.  The connecting map
    lifts a quotient cycle through the (provided or solved) section, applies
    the middle differential, and pulls back along the inclusion.
    """
    f = mid_cx.field
    terms = []
    maps = []
    for pos, n in enumerate(degrees):
        hs = sub_cx.cohomology(n)
        hm = mid_cx.cohomology(n)
        hq = quot_cx.cohomology(n)
        terms.append(LesTerm(labels[0], n, hs[2]))
        terms.append(LesTerm(labels[1], n, hm[2]))
        terms.append(LesTerm(labels[2], n, hq[2]))
        maps.append(sub_cx.map_on_cohomology(mid_cx, incs, n))
        maps.append(mid_cx.map_on_cohomology(quot_cx, prjs, n))
        nxt = degrees[pos + 1] if pos + 1 < len(degrees) else None
        if nxt is not None:
            maps.append(_connecting(sub_cx, mid_cx, quot_cx, incs, prjs,
                                    n, nxt, sections))
    return terms, maps


def _connecting(sub_cx, mid_cx, quot_cx, incs, prjs, n, n_next, sections):
    """delta: H^n(quot) -> H^{n_next}(sub) by the snake chase."""
    f = mid_cx.field
    _, _, hq, reps = quot_cx.cohomology(n)
    h_next = sub_cx.cohomology(n_next)[2]
    if hq == 0:
        return Matrix.zeros(f, 0, h_next)
    if sections is not None and sections.get(n) is not None:
        lifts = reps.mul(sections[n])
    else:
        lifts = express_in_row_basis(prjs.get(n), reps)
        if lifts is None:
            raise ValueError("snake: projection not surjective on a cycle")
    pulled = express_in_row_basis(incs.get(n_next), lifts.mul(mid_cx.diff(n)))
    if pulled is None:
        raise ValueError("snake: boundary not in the subcomplex")
    return sub_cx.coords_on_cohomology(n_next, pulled)


def _assemble_report(terms, maps, closed_start=False, closed_end=False):
    """Per-joint exactness: composite zero and rank(in) + rank(out) = dim.

    closed_start/closed_end declare that the sequence is genuinely bounded by
    zero there (so the missing map is the zero map, and the joint is still
    assessable); otherwise the boundary joint is marked unassessed (window
    truncation)."""
    joints = []
    all_ok = True
    for i, t in enumerate(terms):
        incoming = maps[i - 1] if i >= 1 else None
        outgoing = maps[i] if i < len(maps) else None
        if incoming is None and not closed_start:
            joints.append(LesJoint(i, True, 0, 0, True, False))
            continue
        if outgoing is None and not closed_end:
            joints.append(LesJoint(i, True, 0, 0, True, False))
            continue
        ri = rank(incoming) if incoming is not None else 0
        ro = rank(outgoing) if outgoing is not None else 0
        cz = True
        if incoming is not None and outgoing is not None:
            cz = incoming.mul(outgoing).is_zero()
        ex = cz and (ri + ro == t.dim)
        joints.append(LesJoint(i, cz, ri, ro, ex, True))
        if not ex:
            all_ok = False
    return LesReport(terms, maps, joints, all_ok)


def _verify_ses_of_complexes(sub_cx, mid_cx, quot_cx, incs, prjs, degrees):
    for n in degrees:
        inc = incs.get(n)
        prj = prjs.get(n)
        if inc is None or prj is None:
            if sub_cx.dim(n) or mid_cx.dim(n) or quot_cx.dim(n):
                raise InputNotExact(f"missing chain maps at degree {n}")
            continue
        if rank(inc) != sub_cx.dim(n):
            raise InputNotExact(f"inclusion not injective at degree {n}")
        if rank(prj) != quot_cx.dim(n):
            raise InputNotExact(f"projection not surjective at degree {n}")
        if not inc.mul(prj).is_zero():
            raise InputNotExact(f"composite nonzero at degree {n}")
        if sub_cx.dim(n) + quot_cx.dim(n) != mid_cx.dim(n):
            raise InputNotExact(f"dimensions do not add at degree {n}")


def les_from_ses(ses, t, variance, n_max, labels=None):
    """Long exact sequence of a short exact sequence under a fixed module.

    variance: "tensor" (- (x) T, homological), "hom_covariant" (Hom(T, -)),
    or "hom_contravariant" (Hom(-, T)); connecting maps are computed by an
    explicit snake chase and exactness is verified joint by joint.
    """
    ses.validate()
    if variance == "tensor":
        return _les_tensor(ses, t, n_max, labels)
    if variance == "hom_covariant":
        return _les_cov(ses, t, n_max, labels)
    if variance == "hom_contravariant":
        return _les_contra(ses, t, n_max, labels)
    raise ValueError(f"unknown variance {variance!r}")


def _les_tensor(ses, t, n_max, labels):
    labels = labels or ("Tor(sub)", "Tor(mid)", "Tor(quot)")
    hs = horseshoe(ses, n_max + 1)
    t_bim = t if isinstance(t, Bimodule) else as_bimodule(t)
    (sub_cx, sub_tp), (mid_cx, mid_tp), (quot_cx, quot_tp) = (
        _tensor_complex(r, t_bim, n_max + 1) for r in (hs.res_sub, hs.res_mid, hs.res_quot))

    def induced(src, tgt, block_mats):
        """The level maps P^src_n -> P^tgt_n on the tensored quotients."""
        return {-n: tensor_map(src[n].section_indices, t_bim.dim, tgt[n].projection,
                               left=block_mats[n]) for n in range(n_max + 2)}

    incs = induced(sub_tp, mid_tp, hs.incl_mats)
    prjs = induced(mid_tp, quot_tp, hs.proj_mats)
    secs = induced(quot_tp, mid_tp, hs.split_sections)
    degrees = [-n for n in range(n_max + 2)]
    _verify_ses_of_complexes(sub_cx, mid_cx, quot_cx, incs, prjs, degrees)
    # report Tor_{n_max} first, down to Tor_0; connecting maps go from
    # Tor_n(quot) to Tor_{n-1}(sub), i.e. from degree -n to -(n-1)
    degrees_desc = [-n for n in range(n_max, -1, -1)]
    terms, maps = _snake_les(sub_cx, mid_cx, quot_cx, incs, prjs,
                             degrees_desc, labels, sections=secs)
    return _assemble_report(terms, maps, closed_start=False, closed_end=True)


class HomGrid:
    """Hom complexes Hom(P_u, V) out of named resolutions into named modules,
    each built once, and the maps between them induced by composition."""

    def __init__(self, resolutions, modules, n_max):
        self.res = resolutions
        self.mods = modules
        self.n_max = n_max
        self._hom = {}

    def hom(self, u, v):
        """Hom(P_u, V) as a HomComplexData; its degree n is Hom(P_n, V)."""
        key = (u, v)
        if key not in self._hom:
            self._hom[key] = hom_complex(self.res[u].to_complex(), self.mods[v])
        return self._hom[key]

    def cx(self, u, v):
        """Hom(P_u, V) as a VectorSpaceComplex."""
        return self.hom(u, v).complex

    def induced(self, src, tgt, pre=None, post=None):
        """Hom(P_u, V) -> Hom(P_u', V') in degrees 0..n_max+1, for src = (u, V)
        and tgt = (u', V'): g |-> pre[n] g post, with pre[n]: P_u',n -> P_u,n
        the levels of a chain map and post: V -> V' a module map (either
        omitted when it is the identity)."""
        a, b = self.hom(*src), self.hom(*tgt)
        out = {}
        for n in range(self.n_max + 2):
            images = [g.matrix for _, maps, _, _ in a.components.get(n, []) for g in maps]
            if pre is not None:
                images = [pre[n].mul(g) for g in images]
            if post is not None:
                images = [g.mul(post) for g in images]
            out[n] = b.coords(n, -n, images)
        return out


def _les_contra(ses, t, n_max, labels):
    labels = labels or ("Ext(quot,T)", "Ext(mid,T)", "Ext(sub,T)")
    t_mod = t.restrict_right() if isinstance(t, Bimodule) else t
    hs = horseshoe(ses, n_max + 1)
    grid = HomGrid({"sub": hs.res_sub, "mid": hs.res_mid, "quot": hs.res_quot},
                   {"T": t_mod}, n_max)
    # contravariant: Hom(P'', T) -> Hom(P, T) -> Hom(P', T) via precomposition
    incs = grid.induced(("quot", "T"), ("mid", "T"), pre=hs.proj_mats)
    prjs = grid.induced(("mid", "T"), ("sub", "T"), pre=hs.incl_mats)
    secs = grid.induced(("sub", "T"), ("mid", "T"), pre=hs.split_retracts)
    quot_cx, mid_cx, sub_cx = (grid.cx(u, "T") for u in ("quot", "mid", "sub"))
    _verify_ses_of_complexes(quot_cx, mid_cx, sub_cx, incs, prjs, list(range(n_max + 2)))
    terms, maps = _snake_les(quot_cx, mid_cx, sub_cx, incs, prjs,
                             list(range(n_max + 1)), labels, sections=secs)
    return _assemble_report(terms, maps, closed_start=True, closed_end=False)


def _les_cov(ses, t, n_max, labels):
    labels = labels or ("Ext(T,sub)", "Ext(T,mid)", "Ext(T,quot)")
    t_mod = t.restrict_right() if isinstance(t, Bimodule) else t
    grid = HomGrid({"T": projective_resolution(t_mod, n_max + 1)},
                   {"sub": ses.sub, "mid": ses.mid, "quot": ses.quot}, n_max)
    incs = grid.induced(("T", "sub"), ("T", "mid"), post=ses.inclusion.matrix)
    prjs = grid.induced(("T", "mid"), ("T", "quot"), post=ses.projection.matrix)
    sub_cx, mid_cx, quot_cx = (grid.cx("T", v) for v in ("sub", "mid", "quot"))
    _verify_ses_of_complexes(sub_cx, mid_cx, quot_cx, incs, prjs, list(range(n_max + 2)))
    terms, maps = _snake_les(sub_cx, mid_cx, quot_cx, incs, prjs,
                             list(range(n_max + 1)), labels, sections=None)
    return _assemble_report(terms, maps, closed_start=True, closed_end=False)
