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
from itertools import islice

import numpy as np

from .algebra import discover_basic, enveloping
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
        return dict(self.entries).get(n, 0)

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


def regular_as_left_env_module(a):
    """A as a left module over A^op (x) A: (b^op (x) c) . x = c x b.  Built
    and checked once per algebra instance."""
    if "left_env" not in a._modules:
        L, R = a.basis_left_mats(), a.basis_right_mats()
        lam = tuple(L[j].mul(R[i]) for i in range(a.dim) for j in range(a.dim))
        a._modules["left_env"] = Bimodule(enveloping(a), trivial_algebra(a.field), a.dim, lam,
                                          (Matrix.identity(a.field, a.dim),))
    return a._modules["left_env"]


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
    entries = tuple((i, cx.cohomology_dim(-i)) for i in range(n_max + 1))
    bases = {i: cx.cohomology(-i)[3] for i in range(n_max + 1)} if with_bases else {}
    return GradedDims(entries, bases)


@dataclass
class ExtData:
    """Ext groups with enough context to extract and multiply classes."""

    graded: GradedDims
    resolution: ProjectiveResolution
    target: RightModule
    hom: HomComplexData

    def cocycle_basis(self, nlev):
        """Representative cocycles of Ext^n as ModuleMaps P_n -> target."""
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
    entries = tuple((i, hc.complex.cohomology_dim(i)) for i in range(n_max + 1))
    bases = {i: hc.complex.cohomology(i)[3] for i in range(n_max + 1)} if with_bases else {}
    return ExtData(GradedDims(entries, bases), res, n_mod, hc)


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
    return tor(m, regular_as_left_env_module(a), n_max, with_bases=with_bases)


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
        a = discover_basic(a)
    worst = 0
    for s in simple_modules(a):
        res = projective_resolution(s, cutoff)
        if not res.stabilized:
            return PdVerdict("at_least", cutoff + 1, periodic=res.periodicity)
        worst = max(worst, res.projective_dimension())
    return PdVerdict("finite", worst)


# --------------------------------------------------------------------------
# The truncated bar-complex oracle.
# --------------------------------------------------------------------------


def _bar_blocks(a):
    """(E, left, right): E = kQ0 as (pivot, idempotent) pairs when the vertex
    idempotents are basis vectors, e_u b_k e_v = b_k for exactly one vertex
    pair (u, v) = (left[k], right[k]) and every product respects these
    blocks; otherwise E = k.1 as [(j0, unit)], j0 the unit's first nonzero
    coordinate, and one block."""
    d, tab = a.dim, a._sparse_table()
    idem = a.basic.idempotent_coords if a.basic is not None else ()
    piv = [v.index(1) for v in idem if sum(map(bool, v)) == 1 and 1 in v]
    left = [[u for u, i in enumerate(piv) if tab.get((i, k)) == ((k, 1),)] for k in range(d)]
    right = [[u for u, i in enumerate(piv) if tab.get((k, i)) == ((k, 1),)] for k in range(d)]
    if piv and len(piv) == len(idem) and all(len(s) == 1 for s in left + right):
        (left,), (right,) = zip(*left), zip(*right)
        if all(right[i] == left[j] and (left[k], right[k]) == (left[i], right[j])
               for (i, j), ent in tab.items() for k, _ in ent):
            return list(zip(piv, idem)), left, right
    return [(next(j for j, x in enumerate(a.unit) if x), a.unit)], (0,) * d, (0,) * d


def _expand(keys, start):
    """(i, j): each position i of `keys` with each entry j of a table sorted
    by key, start[q] <= j < start[q + 1] for the entries of key q."""
    lo = start[keys]
    cnt = start[keys + 1] - lo
    i = np.arange(len(keys)).repeat(cnt)
    return i, np.arange(len(i)) - (cnt.cumsum() - cnt - lo).repeat(cnt)


class _BarComplex:
    """The normalised bar complex relative to E (`_bar_blocks`) in degrees up
    to n_max + 1, Abar = A / E spanned by the basis vectors off E's pivots.
    C_n has the basis a_0 (x) .. (x) a_n of composable tuples closed
    cyclically; C^n the maps a_1 (x) .. (x) a_n |-> a_{n+1}, a_{n+1} in the
    block from the left vertex of a_1 to the right vertex of a_n (C^0 is the
    sum of the e_u A e_u).  A tuple's code has its basis indices as digits in
    base d = dim A; `chains[n]`, `cochains[n]` hold the sorted codes."""

    def __init__(self, a, n_max):
        d, f, tab = a.dim, a.field, a._sparse_table()
        E, left, right = _bar_blocks(a)
        self.d, self.p, piv = d, getattr(f, "p", None), dict(E)
        # the products in A, and in Abar: minus, for each (pivot, vector) of E,
        # the pivot coordinate over the vector's times the vector
        mu = [(i, j, k, c) for (i, j), ent in tab.items() for k, c in ent]
        pmu = []
        for (i, j), ent in tab.items():
            if i not in piv and j not in piv:
                coef = dict(ent)
                for pv, vec in E:
                    lam = coef.get(pv, 0) * f.inv(vec[pv])
                    coef = {m: coef.get(m, 0) - lam * vec[m] for m in range(d)} if lam else coef
                pmu += [(i, j, m, f.coerce(c)) for m, c in sorted(coef.items())
                        if m not in piv and f.coerce(c)]
        vals = integer_array(f, [t[3] for t in mu + pmu], lambda m: (n_max + 2) * m)[0]
        # entries (key, p, q, value index), sorted: chain faces read a_t a_{t+1} at
        # a_t d + a_{t+1} in A (t = 0, n) or at d^2 + a_t d + a_{t+1} in Abar; cochain
        # faces read a_1 a_{n+1} at a_{n+1}, a_t's factors at d + a_t and
        # a_{n+1} a_{n+2} at 2d + a_{n+1}
        chain, cochain = [], []
        for s, (i, j, k, _) in enumerate(mu):
            chain.append((i * d + j, k, 0, s))
            cochain += [(j, i, k, s)] * (i not in piv) + [(2 * d + i, j, k, s)] * (j not in piv)
        for s, (i, j, m, _) in enumerate(pmu, len(mu)):
            chain.append((d * d + i * d + j, m, 0, s))
            cochain.append((d + m, i, j, s))
        self.tables = []
        for entries in (chain, cochain):
            key, p, q, s = np.array(sorted(entries), np.int64).reshape(-1, 4).T
            self.tables.append((p, q, vals[s], np.searchsorted(key, np.arange(3 * d * d + 1))))
        # composable tuples of Abar vectors level by level (code, left vertex of
        # the first, right vertex of the last)
        lv, rv = np.array(left), np.array(right)
        rep, diag = np.array([j for j in range(d) if j not in piv], np.int64), (lv == rv).nonzero()[0]
        code, first, last, self.chains, self.cochains = rep, lv[rep], rv[rep], [diag], [diag]
        for n in range(1, n_max + 2):
            if n > 1:    # extend the tuples by one vector
                t, x = (last[:, None] == lv[rep]).nonzero()
                code, first, last = code[t] * d + rep[x], first[t], rv[rep[x]]
            a0, t = ((lv[:, None] == last) & (rv[:, None] == first)).nonzero()
            self.chains.append(a0 * d ** n + code[t])
            t, k = ((first[:, None] == lv) & (last[:, None] == rv)).nonzero()
            self.cochains.append(code[t] * d + k)

    def columns(self, n, cochain=False):
        """Columns of b_n: C_n -> C_{n-1} (n >= 1) or of delta^n: C^n -> C^{n+1}
        as {row: int}, reduced mod p over F_p and without zeros.  Face t, of
        sign (-1)^t, reads the entries at key kw . digits + off, digits those
        of a column's code, and puts (p, q, value) at rw . digits + g p + h q."""
        d = self.d
        if cochain:
            cols, rows, (p, q, vals, start) = self.cochains[n], self.cochains[n + 1], self.tables[1]
            w, last = [d ** (n + 1 - s) for s in range(n + 2)], [0] * n + [1]
            faces = [(last, w[1:n + 1] + [0], 0, w[0], w[n + 1])]
            faces += [([0] * (t - 1) + [1] + [0] * (n + 1 - t), w[:t - 1] + [0] + w[t + 1:],
                       d, w[t - 1], w[t]) for t in range(1, n + 1)]
            faces.append((last, w[:n] + [0], 2 * d, w[n], w[n + 1]))
        else:
            cols, rows, (p, q, vals, start) = self.chains[n], self.chains[n - 1], self.tables[0]
            w = [d ** (n - 1 - s) for s in range(n)]
            faces = [([0] * t + [d, 1] + [0] * (n - 1 - t), w[:t] + [0, 0] + w[t + 1:],
                      d * d if t else 0, w[t], 0) for t in range(n)]
            faces.append(([1] + [0] * (n - 1) + [d], [0] + w[1:] + [0], 0, w[0], 0))
        if not len(cols) or not len(rows):
            return [{} for _ in cols]
        m = np.array([kw + rw + [off, g, h, (-1) ** t]
                      for t, (kw, rw, off, g, h) in enumerate(faces)], np.int64)
        # key and row weights of face t in columns 2t and 2t + 1
        kr = (cols[:, None] // d ** np.arange(n, -1, -1) % d) @ m[:, :2 * n + 2].reshape(-1, n + 1).T
        off, g, h, sign = m[:, 2 * n + 2:].T
        c, j = _expand((kr[:, ::2] + off).ravel(), start)
        c, t = np.divmod(c, len(faces))
        key = c * len(rows) + np.searchsorted(rows, kr[:, 1::2][c, t] + p[j] * g[t] + q[j] * h[t])
        # sum the entries of each (column, row) by one sort
        order = np.argsort(key, kind="stable")
        key, vals = key[order], (sign[t] * vals[j])[order]
        runs = np.concatenate((key[:1] >= 0, key[1:] != key[:-1])).nonzero()[0]
        key, vals = key[runs], np.add.reduceat(vals, runs)
        vals = vals % self.p if self.p is not None else vals
        c, r = np.divmod(key[vals != 0], len(rows))
        entries = zip(r.tolist(), vals[vals != 0].tolist())
        return [dict(islice(entries, size)) for size in np.bincount(c, minlength=len(cols)).tolist()]


def bar_oracle(a, n_max, budget=20000):
    """HH_* and HH^* from the truncated normalised bar complex relative to
    E = kQ0, independent of the resolution machinery.

    E, spanned by the vertex idempotents, is separable, so with Abar = A / E
    C_n = A (x)_{E^e} Abar^{(x)_E n} with the cyclic Hochschild boundary and
    C^n = Hom_{E^e}(Abar^{(x)_E n}, A) with the Hochschild codifferential
    compute HH (Gerstenhaber-Schack, J. Pure Appl. Algebra 43 (1986); Cibils,
    Tensor Hochschild homology and cohomology (2000)); in a Peirce basis only
    composable tuples survive.  Without one, E = k.1 (Loday, Cyclic Homology,
    1.1.14-1.1.15).  The budget bounds the unnormalised term: BudgetExceeded
    if d^(n+1) > budget, or >= 2^62, for some n <= n_max + 1, d = dim A.
    """
    d, f = a.dim, a.field
    if d == 0:
        z = tuple((i, 0) for i in range(n_max + 1))
        return GradedDims(z), GradedDims(z)
    limit = min(budget, 2 ** 62 - 1)   # so that every tuple code is an int64
    for n in range(n_max + 2):
        if d ** (n + 1) > limit:
            raise BudgetExceeded(f"bar term dimension {d ** (n + 1)} exceeds budget {limit}")
    bar = _BarComplex(a, n_max)
    ch = {n: sparse_rank(bar.columns(n), f) for n in range(1, n_max + 2)}
    co = {n: sparse_rank(bar.columns(n, cochain=True), f) for n in range(n_max + 1)}
    hh = tuple((n, len(bar.chains[n]) - ch.get(n, 0) - ch[n + 1]) for n in range(n_max + 1))
    hhc = tuple((n, len(bar.cochains[n]) - co[n] - co.get(n - 1, 0)) for n in range(n_max + 1))
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
