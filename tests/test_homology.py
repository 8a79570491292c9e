import json
import random
from fractions import Fraction
from itertools import islice, product
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from recollab.algebra import Algebra, enveloping
from recollab.cli import algebra_from_doc
from recollab.complexes import ShortExactSequence, projective_resolution
from recollab.errors import BudgetExceeded, DepthInsufficient
from recollab.exactfield import (
    GF, QQ, Matrix, express_in_row_basis, integer_array, rank, sparse_rank,
)
from recollab.fixtures import (
    a2_path_algebra,
    dual_numbers,
    ground_field,
    kronecker_algebra,
    non_stratifying_algebra,
    one_point_extension_of_dual_numbers,
    vertex_idempotent,
)
from recollab import homology
from recollab.homology import (
    _BarComplex,
    _bar_blocks,
    bar_oracle,
    ext,
    global_dimension,
    hochschild_cohomology,
    hochschild_dimension,
    hochschild_homology,
    les_from_ses,
    regular_as_left_env_module,
    tor,
    yoneda_product,
)
from recollab.modules import (
    Bimodule,
    ModuleMap,
    as_bimodule,
    canonical_bimodules,
    direct_sum,
    hom_space,
    regular_bimodule,
    regular_module,
    simple_modules,
    tensor_over,
    trivial_algebra,
)

F5 = GF(5)


def left_module_from_simple(alg, s):
    """A one-dimensional right module as a left module (commutative actions)."""
    ident = Matrix.identity(alg.field, s.dim)
    return Bimodule(alg, trivial_algebra(alg.field), s.dim, s.action, (ident,))


# -- tor -----------------------------------------------------------------------


def test_tor_over_ground_field_concentrated():
    k = ground_field()
    m = regular_module(k)
    t = left_module_from_simple(k, m)
    g = tor(m, t, 3)
    assert g.as_dict() == {0: 1, 1: 0, 2: 0, 3: 0}


def test_tor_corner_vanishing_a2():
    # Tor^{eAe}(Ae, eA) vanishes in degrees >= 1 for the A2 sink idempotent
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    g = tor(cb.ae, cb.ea, 4)
    assert g.dim(0) == cb.aea.dim == 2
    for n in range(1, 5):
        assert g.dim(n) == 0


def test_tor_dual_numbers_periodic():
    d = dual_numbers()
    s = simple_modules(d)[0]
    t = left_module_from_simple(d, s)
    g = tor(s, t, 5)
    assert g.as_dict() == {n: 1 for n in range(6)}


def test_tor_balanced_both_sides():
    d = dual_numbers()
    s = simple_modules(d)[0]
    t = left_module_from_simple(d, s)
    left = tor(s, t, 4, resolve="left")
    right = tor(as_bimodule(s), t, 4, resolve="right")
    assert left.entries == right.entries
    # corner instance over the A2 path algebra
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    assert tor(cb.ae, cb.ea, 3, resolve="left").entries == \
        tor(cb.ae, cb.ea, 3, resolve="right").entries
    # hochschild instance: both sides of Tor over the enveloping algebra
    env = enveloping(a)
    m = regular_bimodule(a).as_right_module_over(env)
    t_env = regular_as_left_env_module(a)
    assert tor(m, t_env, 3, resolve="left").entries == \
        tor(m, t_env, 3, resolve="right").entries


def test_ext_balanced_via_linear_duality():
    # Ext_B(M, N) ~ Ext_{B^op}(DN, DM): the second-argument route goes through
    # the k-linear dual, avoiding injective resolutions
    from recollab.modules import dual_module
    d = dual_numbers()
    s = simple_modules(d)[0]
    lhs = ext(s, s, 4).graded
    rhs = ext(dual_module(s), dual_module(s), 4).graded
    assert lhs.entries == rhs.entries
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    for m, n in ((s1, s2), (s2, s1), (regular_module(a), s2)):
        lhs = ext(m, n, 3).graded
        rhs = ext(dual_module(n), dual_module(m), 3).graded
        assert lhs.entries == rhs.entries


def test_tor0_matches_tensor_dim():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    g = tor(cb.ae, cb.ea, 2)
    tp = tensor_over(cb.ae, cb.ea)
    assert g.dim(0) == tp.bimodule.dim


# -- ext -----------------------------------------------------------------------


def test_ext_over_ground_field():
    k = ground_field()
    m = regular_module(k)
    g = ext(m, m, 3).graded
    assert g.as_dict() == {0: 1, 1: 0, 2: 0, 3: 0}


def test_ext_dual_numbers_all_degrees():
    d = dual_numbers()
    s = simple_modules(d)[0]
    g = ext(s, s, 5).graded
    assert g.as_dict() == {n: 1 for n in range(6)}


def test_ext0_is_hom_dim():
    a = kronecker_algebra()
    for m in simple_modules(a) + [regular_module(a)]:
        for n in simple_modules(a):
            g = ext(m, n, 1).graded
            assert g.dim(0) == len(hom_space(m, n))


# -- hochschild ------------------------------------------------------------------


def test_hh_of_ground_field():
    k = ground_field()
    assert hochschild_homology(k, 4).as_dict() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    assert hochschild_cohomology(k, 4).as_dict() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}


def test_hh_dual_numbers():
    d = dual_numbers()
    assert hochschild_homology(d, 4).as_dict() == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}
    assert hochschild_cohomology(d, 4).as_dict() == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_hh_a2_path_algebra():
    a = a2_path_algebra()
    # HH_0 = A/[A,A] has dimension 2 (= HH_0(k) + HH_0(k), Keller additivity);
    # the commutator subspace is spanned by the arrow
    assert hochschild_homology(a, 4).as_dict() == {0: 2, 1: 0, 2: 0, 3: 0, 4: 0}
    assert hochschild_cohomology(a, 4).as_dict() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}


def test_hh_kronecker():
    k = kronecker_algebra()
    assert hochschild_homology(k, 3).as_dict() == {0: 2, 1: 0, 2: 0, 3: 0}
    assert hochschild_cohomology(k, 3).as_dict() == {0: 1, 1: 3, 2: 0, 3: 0}


def test_hh0_equals_dim_minus_commutator():
    from recollab.exactfield import row_space_basis
    for alg in (a2_path_algebra(), kronecker_algebra(), dual_numbers()):
        f = alg.field
        rows = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                bi = tuple(1 if t == i else 0 for t in range(alg.dim))
                bj = tuple(1 if t == j else 0 for t in range(alg.dim))
                ij = alg.multiply(bi, bj)
                ji = alg.multiply(bj, bi)
                rows.append([x - y for x, y in zip(ij, ji)])
        comm = row_space_basis(Matrix(f, rows, ncols=alg.dim))
        hh0 = hochschild_homology(alg, 0).dim(0)
        assert hh0 == alg.dim - comm.nrows


def test_hh0_cohomology_equals_center():
    from recollab.algebra import center
    for alg in (a2_path_algebra(), kronecker_algebra(), dual_numbers(),
                one_point_extension_of_dual_numbers()[0]):
        assert hochschild_cohomology(alg, 0).dim(0) == center(alg).nrows


# -- bar oracle -------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F5])
def test_bar_oracle_agrees_ground_field(field):
    k = ground_field(field)
    hh, hhc = bar_oracle(k, 4)
    assert hh.entries == hochschild_homology(k, 4).entries
    assert hhc.entries == hochschild_cohomology(k, 4).entries


@pytest.mark.parametrize("field", [QQ, F5])
def test_bar_oracle_agrees_dual_numbers(field):
    d = dual_numbers(field)
    hh, hhc = bar_oracle(d, 4)
    assert hh.entries == hochschild_homology(d, 4).entries
    assert hhc.entries == hochschild_cohomology(d, 4).entries


def test_bar_oracle_agrees_a2():
    a = a2_path_algebra()
    hh, hhc = bar_oracle(a, 4)
    assert hh.entries == hochschild_homology(a, 4).entries
    assert hhc.entries == hochschild_cohomology(a, 4).entries


def test_bar_oracle_budget():
    k = kronecker_algebra()
    with pytest.raises(BudgetExceeded):
        bar_oracle(k, 4, budget=100)
    # the gate is the unnormalised d^(n+1) for n <= n_max + 1, not d (d-1)^n
    for n in (1, 2):
        bar_oracle(k, n, budget=k.dim ** (n + 2))
        with pytest.raises(BudgetExceeded):
            bar_oracle(k, n, budget=k.dim ** (n + 2) - 1)


def _int_columns(cols, f):
    """Clear denominators columnwise (rank is unchanged by column scaling)."""
    if f != QQ:
        return cols
    out = []
    for col in cols:
        if {*map(type, col.values())} <= {int}:
            out.append(col)
            continue
        den = lcm(*(v.denominator for v in col.values()))
        out.append({r: v.numerator * (den // v.denominator) for r, v in col.items()})
    return out


def _unnormalised_bar_dims(a, n_max):
    """HH_* and HH^* entries from the unnormalised complexes C_n = A^{(x)(n+1)}
    and C^n = Hom_k(A^{(x)n}, A): the reference the normalised oracle must
    reproduce."""
    d, f = a.dim, a.field
    tab = a._sparse_table()
    factors = {}
    for (u, v), ent in sorted(tab.items()):
        for mkey, c in ent:
            factors.setdefault(mkey, []).append((u, v, c))

    def encode(tup):
        rcode = 0
        for v in tup:
            rcode = rcode * d + v
        return rcode

    def decode(code, n):
        idx = []
        for _ in range(n):
            code, v = divmod(code, d)
            idx.append(v)
        return idx[::-1]

    def chain_diff_columns(n):
        cols = []
        for code in range(d ** (n + 1)):
            idx = decode(code, n + 1)
            col = {}
            for t in range(n):
                sign = 1 if t % 2 == 0 else -1
                for k, c in tab.get((idx[t], idx[t + 1]), ()):
                    r = encode(idx[:t] + [k] + idx[t + 2:])
                    col[r] = col.get(r, 0) + sign * c
            sign = 1 if n % 2 == 0 else -1
            for k, c in tab.get((idx[n], idx[0]), ()):
                r = encode([k] + idx[1:n])
                col[r] = col.get(r, 0) + sign * c
            cols.append({r: v for r, v in col.items() if v})
        return cols

    def cochain_diff_columns(n):
        cols = []
        for code in range(d ** n * d):
            jcode, k = divmod(code, d)
            J = decode(jcode, n)
            col = {}

            def add(tup, out, coeff):
                r = encode(tup) * d + out
                col[r] = col.get(r, 0) + coeff

            for i in range(d):
                for mkey, c in tab.get((i, k), ()):
                    add([i] + J, mkey, c)
            for t in range(1, n + 1):
                sign = -1 if t % 2 == 1 else 1
                for u, v, c in factors.get(J[t - 1], ()):
                    add(J[:t - 1] + [u, v] + J[t:], k, sign * c)
            sign = -1 if (n + 1) % 2 == 1 else 1
            for w in range(d):
                for mkey, c in tab.get((k, w), ()):
                    add(J + [w], mkey, sign * c)
            cols.append({r: v for r, v in col.items() if v})
        return cols

    def rk(cols):
        return sparse_rank(_int_columns(cols, f), f)

    ch = {n: rk(chain_diff_columns(n)) for n in range(1, n_max + 2)}
    co = {n: rk(cochain_diff_columns(n)) for n in range(n_max + 1)}
    hh = tuple((n, d ** (n + 1) - ch.get(n, 0) - ch[n + 1]) for n in range(n_max + 1))
    hhc = tuple((n, d ** (n + 1) - co[n] - co.get(n - 1, 0)) for n in range(n_max + 1))
    return hh, hhc


def _base_change(a, rng):
    """`a` in the basis given by the rows of a random invertible P (a scaled
    diagonal plus dim - 1 off-diagonal entries, so the table stays sparse);
    over Q, P is redrawn until the unit is no basis vector, its first nonzero
    coordinate is fractional and some constant is not integral."""
    f, d = a.field, a.dim
    while True:
        rows = [[rng.choice((1, 2, -3)) if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(d - 1):
            i, j = rng.sample(range(d), 2)
            rows[i][j] = rng.choice((1, -1, 2))
        p = Matrix(f, rows)
        if rank(p) < d:
            continue
        prods = Matrix(f, [a.multiply(p.rows[i], p.rows[j]) for i in range(d) for j in range(d)])
        struct = express_in_row_basis(p, prods).rows
        unit = express_in_row_basis(p, Matrix(f, [a.unit])).rows[0]
        b = Algebra(f, [[struct[i * d + j] for j in range(d)] for i in range(d)], unit)
        if f != QQ:
            return b
        lead = next(x for x in b.unit if x)
        if (sum(map(bool, b.unit)) > 1 and not isinstance(lead, int)
                and any(not isinstance(x, int) for r in b.struct for c in r for x in c)):
            return b


DOCS = sorted((Path(__file__).resolve().parents[1] / "demos" / "docs").glob("*.json"))


@pytest.mark.parametrize("path", DOCS, ids=[p.stem for p in DOCS])
def test_bar_oracle_normalised_matches_unnormalised_docs(path):
    a = algebra_from_doc(json.loads(path.read_text(encoding="utf-8")))
    hh, hhc = bar_oracle(a, 3)
    assert (hh.entries, hhc.entries) == _unnormalised_bar_dims(a, 3)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("make", [kronecker_algebra, a2_path_algebra, non_stratifying_algebra,
                                  lambda f: one_point_extension_of_dual_numbers(f)[0]],
                         ids=["kronecker", "a2", "non_stratifying", "t2"])
def test_bar_oracle_normalised_matches_unnormalised_base_changes(make, field):
    b = _base_change(make(field), random.Random(7))
    hh, hhc = bar_oracle(b, 3)
    assert (hh.entries, hhc.entries) == _unnormalised_bar_dims(b, 3)


def _reference_bar_columns(a):
    """(chain, cochain): n -> the columns of b_n and delta^n built one
    column at a time, the reference for the numpy builder."""
    d, f = a.dim, a.field
    tab = a._sparse_table()
    u = a.unit
    j0 = next(j for j, x in enumerate(u) if x)
    rep = [j for j in range(d) if j != j0]
    e, s = d - 1, f.inv(u[j0])
    ptab, factors = {}, {}
    for x, y in product(range(e), repeat=2):
        coef = dict(tab.get((rep[x], rep[y]), ()))
        lam = coef.get(j0, 0) * s
        proj = [(m, f.coerce(coef.get(j, 0) - lam * u[j])) for m, j in enumerate(rep)]
        ptab[x, y] = [(m, c) for m, c in proj if c]
        for m, c in ptab[x, y]:
            factors.setdefault(m, []).append((x, y, c))
    pw = [e ** i for i in range(8)]

    def codes(digits):
        pre, suf = [0], [0]
        for v in digits:
            pre.append(pre[-1] * e + v)
        for i, v in enumerate(reversed(digits)):
            suf.append(v * pw[i] + suf[-1])
        return pre, suf[::-1]

    def chain_diff_columns(n):
        cols = []
        for idx in product(range(d), *[range(e)] * n):
            pre, suf = codes(idx)
            col = {}
            for t in range(n):
                ent = tab.get((idx[0], rep[idx[1]])) if t == 0 else ptab.get((idx[t], idx[t + 1]))
                if ent:
                    sign = 1 if t % 2 == 0 else -1
                    base = pre[t] * pw[n - t] + suf[t + 2]
                    for k, c in ent:
                        rcode = base + k * pw[n - 1 - t]
                        col[rcode] = col.get(rcode, 0) + sign * c
            ent = tab.get((rep[idx[n]], idx[0]))
            if ent:
                sign = 1 if n % 2 == 0 else -1
                base = pre[n] - idx[0] * pw[n - 1]
                for k, c in ent:
                    rcode = base + k * pw[n - 1]
                    col[rcode] = col.get(rcode, 0) + sign * c
            cols.append({r: v for r, v in col.items() if v})
        return cols

    def cochain_diff_columns(n):
        cols = []
        for *J, k in product(*[range(e)] * n, range(d)):
            pre, suf = codes(J)
            col = {}

            def add(code, out, coeff):
                rcode = code * d + out
                col[rcode] = col.get(rcode, 0) + coeff

            for i in range(e):
                for mkey, c in tab.get((rep[i], k), ()):
                    add(i * pw[n] + pre[n], mkey, c)
            for t in range(1, n + 1):
                sign = -1 if t % 2 == 1 else 1
                base = pre[t - 1] * pw[n - t + 2] + suf[t]
                for x, y, c in factors.get(J[t - 1], ()):
                    add(base + x * pw[n - t + 1] + y * pw[n - t], k, sign * c)
            sign = -1 if (n + 1) % 2 == 1 else 1
            for w in range(e):
                for mkey, c in tab.get((k, rep[w]), ()):
                    add(pre[n] * e + w, mkey, sign * c)
            cols.append({r: v for r, v in col.items() if v})
        return cols

    return chain_diff_columns, cochain_diff_columns


def _doc_over(doc, tag):
    """The same algebra document with every field tag replaced by `tag`."""
    out = dict(doc)
    if "field" in out:
        out["field"] = tag
    if "args" in out:
        out["args"] = [_doc_over(sub, tag) for sub in out["args"]]
    return out


def _cyclic_doc(n, length, field="Q"):
    """kZ_n / J^length: the cyclic quiver 1 -> 2 -> .. -> n -> 1 modulo every
    path of that length, as a quiver document."""
    vs = [str(i + 1) for i in range(n)]
    arrows = [{"label": f"a{i + 1}", "source": vs[i], "target": vs[(i + 1) % n]}
              for i in range(n)]
    rels = [[{"coeff": 1, "path": [f"a{(s + t) % n + 1}" for t in range(length)]}]
            for s in range(n)]
    return {"kind": "quiver", "field": field, "vertices": vs, "arrows": arrows,
            "relations": rels}


def _linear_doc(n, field="Q"):
    """The path algebra of the linear quiver 1 -> 2 -> .. -> n."""
    vs = [str(i + 1) for i in range(n)]
    return {"kind": "quiver", "field": field, "vertices": vs,
            "arrows": [{"label": f"a{i + 1}", "source": vs[i], "target": vs[i + 1]}
                       for i in range(n - 1)]}


# Q(i) = Q[x]/(x^2 + 1) by structure constants: not split, so it has no
# basic structure.
QI_DOC = {"kind": "structure_constants", "field": "Q", "dim": 2,
          "table": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], "unit": [1, 0]}


def _absolute_bar_tables(a, n_max):
    """(d, e, p, left, right, pbar) of the reference numpy builder over k.1: with
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


def _absolute_bar_term(cols, rows, vals, free):
    """One term I (x) T (x) I of a differential as (col, row, value) arrays:
    the table's entries, at column codes `cols` and row codes `rows`,
    broadcast over each free index (size, column stride, row stride)."""
    for size, cs, rs in free:
        idx = np.arange(size)
        cols = (cols[:, None] + idx * cs).ravel()
        rows = (rows[:, None] + idx * rs).ravel()
        vals = np.repeat(vals, size)
    return cols, rows, vals


def _absolute_bar_columns(terms, ncols, nrows, p):
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


def _absolute_chain_columns(tables, n):
    """Columns of b_n: C_n -> C_{n-1}, n >= 1.  The basis vector
    a_0 (x) .. (x) a_n of C_n = A (x) Abar^{(x)n} has code
    a_0 e^n + a_1 e^(n-1) + .. + a_n."""
    d, e, p, (li, lr, lk, lv), (rr, rj, rk, rv), (px, py, pm, pv) = tables
    w = e ** (n - 1)
    # a_0 a_1 lands in A
    terms = [_absolute_bar_term((li * e + lr) * w, lk * w, lv, [(w, 1, 1)])]
    # a_t a_{t+1} in Abar, after a prefix of t digits and before n - t - 1
    for t in range(1, n):
        w = e ** (n - t - 1)
        terms.append(_absolute_bar_term((px * e + py) * w, pm * w, (-1) ** t * pv,
                                        [(d * e ** (t - 1), e ** (n - t + 1), e ** (n - t)),
                                         (w, 1, 1)]))
    # a_n a_0 (x) a_1 .. a_{n-1}: the middle digits keep their order
    w = e ** (n - 1)
    terms.append(_absolute_bar_term(rj * e ** n + rr, rk * w, (-1) ** n * rv, [(w, e, 1)]))
    return _absolute_bar_columns(terms, d * e ** n, d * w, p)


def _absolute_cochain_columns(tables, n):
    """Columns of delta^n: C^n -> C^{n+1}, n >= 0.  The basis vector of
    C^n = Hom_k(Abar^{(x)n}, A) sending a_1 (x) .. (x) a_n to b_k has code
    (a_1 e^(n-1) + .. + a_n) d + k."""
    d, e, p, (li, lr, lk, lv), (rr, rj, rk, rv), (px, py, pm, pv) = tables
    w = e ** n
    # a_1 . f(a_2, .., a_{n+1})
    terms = [_absolute_bar_term(rj, rr * w * d + rk, rv, [(w, d, d)])]
    # f(.., a_t a_{t+1}, ..): t - 1 digits before, n - t digits and k after
    for t in range(1, n + 1):
        w = e ** (n - t) * d
        terms.append(_absolute_bar_term(pm * w, (px * e + py) * w, (-1) ** t * pv,
                                        [(e ** (t - 1), e * w, e * e * w), (w, 1, 1)]))
    # f(a_1, .., a_n) . a_{n+1}
    terms.append(_absolute_bar_term(li, lr * d + lk, (-1) ** (n + 1) * lv, [(e ** n, d, e * d)]))
    return _absolute_bar_columns(terms, e ** n * d, e ** (n + 1) * d, p)


def _absolute_bar_dims(a, n_max):
    """HH_* and HH^* entries from the reference numpy builder's complexes
    A (x) Abar^{(x)n} and Hom_k(Abar^{(x)n}, A), Abar = A / k.1."""
    d, f = a.dim, a.field
    tables = _absolute_bar_tables(a, n_max)
    ch = {n: sparse_rank(_absolute_chain_columns(tables, n), f) for n in range(1, n_max + 2)}
    co = {n: sparse_rank(_absolute_cochain_columns(tables, n), f) for n in range(n_max + 1)}
    e = d - 1
    hh = tuple((n, d * e ** n - ch.get(n, 0) - ch[n + 1]) for n in range(n_max + 1))
    hhc = tuple((n, d * e ** n - co[n] - co.get(n - 1, 0)) for n in range(n_max + 1))
    return hh, hhc


def _builder_cases():
    """(make, vertices): vertices is True when the oracle must run over
    E = kQ0 spanned by the basic structure's idempotents, False when it must
    fall back to E = k.1."""
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(lambda doc=doc: algebra_from_doc(doc), True, id=path.stem))
        if doc.get("field", "Q") == "Q":
            cases.append(pytest.param(lambda doc=doc: algebra_from_doc(_doc_over(doc, "Fp:5")),
                                      True, id=path.stem + "@F5"))
    cases += [pytest.param(ground_field, True, id="ground_field"),
              pytest.param(dual_numbers, True, id="dual_numbers"),
              pytest.param(lambda: algebra_from_doc(QI_DOC), False, id="Q(i)")]
    makes = {"kronecker": kronecker_algebra, "a2": a2_path_algebra,
             "non_stratifying": non_stratifying_algebra,
             "t2": lambda f: one_point_extension_of_dual_numbers(f)[0]}
    for (name, make), (tag, field) in product(makes.items(), (("Q", QQ), ("F5", F5))):
        cases.append(pytest.param(
            lambda make=make, field=field: _base_change(make(field), random.Random(7)),
            False, id=f"{name}~{tag}"))
    return cases


def _assert_builder_matches_reference(a, n_max=4):
    """With one block (E = k.1), the columns of b_n (1 <= n <= n_max + 1) and
    delta^n (0 <= n <= n_max) are exactly the reference numpy builder's, and
    the column-at-a-time reference's reduced mod p over F_p and over Q all
    scaled by one positive integer (1 when the table is integral).  With
    more blocks, the dimensions are the reference's."""
    f = a.field
    if len(_bar_blocks(a)[0]) > 1:
        hh, hhc = bar_oracle(a, n_max, budget=10 ** 9)
        assert (hh.entries, hhc.entries) == _absolute_bar_dims(a, n_max)
        return
    bar = _BarComplex(a, n_max)
    chain, cochain = _reference_bar_columns(a)
    tables = _absolute_bar_tables(a, n_max)
    triples = [(bar.columns(n), _absolute_chain_columns(tables, n), chain(n))
               for n in range(1, n_max + 2)]
    triples += [(bar.columns(n, cochain=True), _absolute_cochain_columns(tables, n), cochain(n))
                for n in range(n_max + 1)]
    scale = None
    for new, numpy_ref, ref in triples:
        assert new == numpy_ref
        if f == QQ:
            scale = scale or next((Fraction(v) / col[r] for got, col in zip(new, ref)
                                   for r, v in got.items() if r in col), None)
            assert scale is None or (scale.denominator == 1 and scale > 0)
            ref = [{r: v * (scale or 1) for r, v in col.items()} for col in ref]
        else:
            ref = [{r: v % f.p for r, v in col.items() if v % f.p} for col in ref]
        assert new == ref
        assert all(type(v) is int for col in new for v in col.values())
    if all(type(x) is int for r in a.struct for c in r for x in c):
        assert scale in (None, 1)


@pytest.mark.parametrize("make,vertices", _builder_cases())
def test_bar_builder_matches_column_reference(make, vertices):
    a = make()
    E = [vec for _, vec in _bar_blocks(a)[0]]
    assert E == (list(a.basic.idempotent_coords) if vertices else [a.unit])
    assert vertices or a.basic is None
    _assert_builder_matches_reference(a)


def test_bar_builder_is_exact_past_the_int64_bound(monkeypatch):
    # k[y]/(y^3) in the basis 1, y, y^2 / 2^60: sums of the constant 2^60
    # over n_max + 2 terms need Python ints
    big = 2 ** 60
    struct = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        struct[0][i][i] = struct[i][0][i] = 1
    struct[1][1][2] = big
    a = Algebra(QQ, struct, (1, 0, 0))
    seen = []

    def spy(*args):
        arr, den = real(*args)
        seen.append(arr.dtype)
        return arr, den
    real = homology.integer_array
    monkeypatch.setattr(homology, "integer_array", spy)
    _assert_builder_matches_reference(a)
    assert seen == [object]
    hh, hhc = bar_oracle(a, 3)
    assert (hh.entries, hhc.entries) == _unnormalised_bar_dims(a, 3)


def _relative_cases():
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(doc, 3, id=path.stem))
        if doc.get("field", "Q") == "Q":
            cases.append(pytest.param(_doc_over(doc, "Fp:5"), 3, id=path.stem + "@F5"))
    return cases + [pytest.param(_cyclic_doc(2, 3), 3, id="cyc2_3"),
                    pytest.param(_cyclic_doc(2, 2), 4, id="kZ2/J2")]


@pytest.mark.parametrize("doc,n_max", _relative_cases())
def test_bar_oracle_over_vertices_matches_references(doc, n_max):
    """E = kQ0 gives the dimensions of both complexes over k.1."""
    a = algebra_from_doc(doc)
    assert [vec for _, vec in _bar_blocks(a)[0]] == list(a.basic.idempotent_coords)
    hh, hhc = bar_oracle(a, n_max, budget=10 ** 9)
    assert (hh.entries, hhc.entries) == _absolute_bar_dims(a, n_max)
    assert (hh.entries, hhc.entries) == _unnormalised_bar_dims(a, n_max)


@pytest.mark.parametrize("field", ["Q", "Fp:5"])
@pytest.mark.parametrize("n", [5, 8])
def test_bar_oracle_linear_quiver_happel(n, field):
    # Happel: for a tree quiver HH^0 = 1 and HH^{>=1} = 0; HH_0 = |Q_0|, HH_{>=1} = 0
    a = algebra_from_doc(_linear_doc(n, field))
    hh, hhc = bar_oracle(a, 4, budget=10 ** 12)
    assert hh.entries == ((0, n),) + tuple((i, 0) for i in range(1, 5))
    assert hhc.entries == ((0, 1),) + tuple((i, 0) for i in range(1, 5))


def test_hochschild_linear_quiver_happel_resolution_path():
    # Happel: the path algebra of a tree quiver has HH^0 = 1 and HH^{>=1} = 0;
    # on linear A_4 the resolutions run over the 100-dim A^e, whose vertex
    # projectives are Kronecker products of A's
    a = algebra_from_doc(_linear_doc(4))
    assert hochschild_cohomology(a, 3).entries == ((0, 1), (1, 0), (2, 0), (3, 0))
    assert hochschild_homology(a, 3).entries == ((0, 4), (1, 0), (2, 0), (3, 0))


def test_regular_left_env_module_is_built_and_checked_once(monkeypatch):
    checked = []
    real = Bimodule._validate
    monkeypatch.setattr(Bimodule, "_validate", lambda self: checked.append(self) or real(self))
    a = kronecker_algebra()
    t = regular_as_left_env_module(a)
    hochschild_homology(a, 2)
    assert regular_as_left_env_module(a) is t
    assert t.left_algebra is enveloping(a)
    assert sum(b is t for b in checked) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bar_oracle_radical_square_zero_cycles(n):
    # kZ_n/J^2 to degree 2n + 1: the oracle agrees with the resolution path;
    # over Q, HH^i is 1 when i is 0 or 1 modulo n (n even) or 2n (n odd), and
    # 0 otherwise (Cibils 1998)
    a = algebra_from_doc(_cyclic_doc(n, 2))
    top = 2 * n + 1
    hh, hhc = bar_oracle(a, top, budget=10 ** 12)
    assert hh.entries == hochschild_homology(a, top).entries
    assert hhc.entries == hochschild_cohomology(a, top).entries
    period = n if n % 2 == 0 else 2 * n
    assert hhc.entries == tuple((i, int(i % period < 2)) for i in range(top + 1))


# -- dimensions ---------------------------------------------------------------------


def test_hochschild_dimension_values():
    assert hochschild_dimension(ground_field(), 4).label() == "Finite(0)"
    assert hochschild_dimension(a2_path_algebra(), 4).label() == "Finite(1)"
    assert hochschild_dimension(kronecker_algebra(), 4).label() == "Finite(1)"
    v = hochschild_dimension(dual_numbers(), 4)
    assert v.kind == "at_least" and v.value == 5
    assert v.definitely_infinite()


def test_global_dimension_values():
    assert global_dimension(ground_field(), 4).label() == "Finite(0)"
    assert global_dimension(a2_path_algebra(), 4).label() == "Finite(1)"
    v = global_dimension(dual_numbers(), 4)
    assert v.kind == "at_least"
    assert v.definitely_infinite()


def test_smooth_implies_cohomology_vanishing():
    # hochschild_dimension Finite(0) => HH^n = 0 for n >= 1
    k = ground_field()
    assert hochschild_dimension(k, 3).label() == "Finite(0)"
    g = hochschild_cohomology(k, 3)
    assert all(g.dim(n) == 0 for n in range(1, 4))


# -- les_from_ses ------------------------------------------------------------------


def _canonical_env_ses(a, e):
    env = enveloping(a)
    cb = canonical_bimodules(a, e)
    aea = cb.aea.as_right_module_over(env)
    reg = cb.regular.as_right_module_over(env)
    quo = cb.quotient.as_right_module_over(env)
    return ShortExactSequence(aea, reg, quo,
                              ModuleMap(aea, reg, cb.inclusion),
                              ModuleMap(reg, quo, cb.projection)), env, cb


def test_les_split_ses_zero_connecting():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    both = direct_sum([s1, s2])
    f = a.field
    inc = ModuleMap(s1, both, Matrix(f, [[1, 0]]), _validate=False)
    prj = ModuleMap(both, s2, Matrix(f, [[0], [1]]), _validate=False)
    ses = ShortExactSequence(s1, both, s2, inc, prj)
    rep = les_from_ses(ses, regular_module(a), "hom_contravariant", 3)
    assert rep.exact
    # connecting maps (every third map) vanish on a split sequence
    for i in range(2, len(rep.maps), 3):
        assert rep.maps[i].is_zero()


def test_les_contravariant_canonical_a2():
    a = a2_path_algebra()
    ses, env, cb = _canonical_env_ses(a, vertex_idempotent(a, "2"))
    rep = les_from_ses(ses, cb.regular.as_right_module_over(env),
                       "hom_contravariant", 4)
    assert rep.exact


def test_les_tensor_recovers_keller_instance():
    a = a2_path_algebra()
    ses, env, cb = _canonical_env_ses(a, vertex_idempotent(a, "2"))
    t = regular_as_left_env_module(a)
    rep = les_from_ses(ses, t, "tensor", 4)
    assert rep.exact
    # the middle column computes HH_n(A)
    hh = hochschild_homology(a, 4)
    mids = [t_ for t_ in rep.terms if t_.label == "Tor(mid)"]
    for term in mids:
        assert term.dim == hh.dim(-term.degree)


def test_les_covariant_canonical_a2():
    a = a2_path_algebra()
    ses, env, cb = _canonical_env_ses(a, vertex_idempotent(a, "2"))
    rep = les_from_ses(ses, cb.regular.as_right_module_over(env),
                       "hom_covariant", 4)
    assert rep.exact


# -- yoneda ----------------------------------------------------------------------


def test_yoneda_identity_acts_trivially():
    d = dual_numbers()
    s = simple_modules(d)[0]
    data = ext(s, s, 4)
    one = data.cocycle_basis(0)[0]
    xi = data.cocycle_basis(1)[0]
    prod = yoneda_product(xi, one)   # xi then identity
    assert prod.degree == 1
    coords = data.class_coords(prod)
    base = data.class_coords(xi)
    assert not coords.is_zero()
    assert coords == base or coords == base.neg()


def test_yoneda_generator_squares_nonzero_over_dual_numbers():
    d = dual_numbers()
    s = simple_modules(d)[0]
    data = ext(s, s, 4)
    xi = data.cocycle_basis(1)[0]
    sq = yoneda_product(xi, xi)
    assert sq.degree == 2
    assert not data.class_coords(sq).is_zero()
    cube = yoneda_product(sq, xi)
    assert not data.class_coords(cube).is_zero()


def test_yoneda_degree_additive_and_associative():
    d = dual_numbers()
    s = simple_modules(d)[0]
    data = ext(s, s, 6)
    xi = data.cocycle_basis(1)[0]
    sq = yoneda_product(xi, xi)
    a1 = yoneda_product(yoneda_product(xi, xi), xi)
    a2 = yoneda_product(xi, yoneda_product(xi, xi))
    assert a1.degree == a2.degree == 3
    assert data.class_coords(a1) == data.class_coords(a2)


def test_yoneda_zero_composite():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    # Ext^0(s1, s1) x Ext^0(s1, s1): compose the zero map
    data = ext(s1, s1, 2)
    one = data.cocycle_basis(0)[0]
    zero_cls = yoneda_product(one, one)
    # identity o identity = identity (sanity), then scale to zero
    from recollab.homology import ExtClass
    zc = ExtClass(0, data.resolution, s1,
                  ModuleMap(data.resolution.modules[0], s1,
                            Matrix.zeros(a.field, data.resolution.modules[0].dim, 1),
                            _validate=False))
    prod = yoneda_product(zc, one)
    assert data.class_coords(prod).is_zero()


def test_yoneda_depth_insufficient():
    d = dual_numbers()
    s = simple_modules(d)[0]
    data = ext(s, s, 2)
    xi = data.cocycle_basis(1)[0]
    sq = yoneda_product(xi, xi)
    with pytest.raises(DepthInsufficient):
        yoneda_product(yoneda_product(sq, sq), sq)
