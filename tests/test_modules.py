import gc
import itertools
import json
import random
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

from recollab import exactfield, modules
from recollab.algebra import (
    Algebra,
    BasicStructure,
    Idempotent,
    corner,
    discover_basic,
    enveloping,
    ideal_and_quotient,
    opposite,
    radical,
    tensor,
)
from recollab.cli import algebra_from_doc, main
from recollab.complexes import projective_resolution
from recollab.errors import AlgebraMismatch, Inconclusive, NotInHomSpace, UnsupportedField
from recollab.exactfield import (
    QQ,
    GF,
    Matrix,
    express_in_row_basis,
    kernel_basis,
    kron,
    linear_combination,
    quotient_map,
    rank,
    rref,
    solve_matrix,
    unit_vector,
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
from recollab.homology import regular_as_left_env_module
from recollab.recollement import opposite_transfer, tensor_transfer
from test_homology import DOCS, _base_change, _basis_mats, _doc_over
from recollab.modules import (
    Bimodule,
    ModuleMap,
    RightModule,
    as_bimodule,
    canonical_bimodules,
    direct_sum,
    free_cover,
    hom_coords,
    hom_module,
    hom_space,
    hom_vec_basis,
    is_projective,
    iso_test,
    kernel_cokernel,
    projective_cover,
    projective_module,
    regular_bimodule,
    regular_module,
    simple_modules,
    tensor_over,
    vertex_projective,
    zero_module,
)

F5 = GF(5)


def test_regular_module_validates():
    for alg in (ground_field(), dual_numbers(), a2_path_algebra(), kronecker_algebra()):
        m = regular_module(alg)
        assert m.dim == alg.dim


def test_regular_bimodule_actions_commute():
    b = regular_bimodule(a2_path_algebra())
    assert b.dim == 3


def test_bimodule_env_module_dims():
    a = a2_path_algebra()
    env = enveloping(a)
    m = regular_bimodule(a).as_right_module_over(env)
    assert m.dim == 3 and m.algebra == env


def test_hom_regular_to_module_is_module_dim():
    # Hom(A_A, M) ~ M for every M (Yoneda)
    for alg in (dual_numbers(), a2_path_algebra(), kronecker_algebra()):
        reg = regular_module(alg)
        for m in simple_modules(alg) + [reg]:
            assert len(hom_space(reg, m)) == m.dim


def test_hom_between_distinct_simples_is_zero():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    assert hom_space(s1, s2) == []
    assert hom_space(s2, s1) == []


def test_end_of_regular_module_dim():
    a = a2_path_algebra()
    reg = regular_module(a)
    assert len(hom_space(reg, reg)) == 3  # = dim A, basis-free fact


def test_hom_space_mismatch():
    with pytest.raises(AlgebraMismatch):
        hom_space(regular_module(a2_path_algebra()), regular_module(dual_numbers()))


# -- tensor ------------------------------------------------------------------


def test_tensor_unit_law_right():
    for alg in (a2_path_algebra(), dual_numbers()):
        reg = regular_bimodule(alg)
        for m in simple_modules(alg):
            t = tensor_over(as_bimodule(m), reg)
            assert t.bimodule.dim == m.dim
            assert iso_test(t.bimodule.restrict_right(), m)


def test_tensor_unit_law_left():
    alg = a2_path_algebra()
    reg = regular_bimodule(alg)
    m = regular_module(alg)
    t = tensor_over(as_bimodule(m), reg)
    assert iso_test(t.bimodule.restrict_right(), m)


def test_tensor_k_over_k():
    k = ground_field()
    t = tensor_over(as_bimodule(regular_module(k)), regular_bimodule(k))
    assert t.bimodule.dim == 1


def test_canonical_bimodules_a2_sink():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    # dims by path count under the function-composition convention:
    # Ae = span{e2}, eA = span{e2, a}, AeA = span{e2, a}, A/AeA = span{e1}
    assert cb.ae.dim == 1
    assert cb.ea.dim == 2
    assert cb.aea.dim == 2
    assert cb.quotient.dim == 1
    assert cb.corner_algebra.dim == 1
    assert cb.quotient_algebra.dim == 1


def test_canonical_bimodules_unit():
    a = a2_path_algebra()
    e = Idempotent(a, a.unit)
    cb = canonical_bimodules(a, e)
    assert cb.ae.dim == a.dim
    assert cb.ea.dim == a.dim
    assert cb.aea.dim == a.dim
    assert cb.quotient.dim == 0
    assert cb.ideal_is_whole


def test_canonical_bimodules_kronecker():
    k = kronecker_algebra()
    e = vertex_idempotent(k, "2")
    cb = canonical_bimodules(k, e)
    assert (cb.ae.dim, cb.ea.dim, cb.aea.dim, cb.quotient.dim) == (1, 3, 3, 1)


def test_multiplication_map_a2_is_iso():
    # Ae (x)_{eAe} eA ~ AeA for the A2 path algebra at the sink vertex
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    t = tensor_over(cb.ae, cb.ea)
    assert t.bimodule.dim == 2 == cb.aea.dim
    env = enveloping(a)
    assert iso_test(t.bimodule.as_right_module_over(env),
                    cb.aea.as_right_module_over(env))


def test_ses_exactness_canonical():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    # 0 -> AeA -> A -> A/AeA -> 0 at the level of the underlying spaces
    inc = cb.inclusion          # AeA rows in A coords
    proj = cb.projection        # A -> quotient coords
    assert rank(inc) == cb.aea.dim
    assert inc.mul(proj).is_zero()
    assert rank(proj) == cb.quotient.dim


# -- kernels / cokernels ------------------------------------------------------


def test_kernel_cokernel_identity_and_zero():
    a = dual_numbers()
    m = regular_module(a)
    ident = ModuleMap(m, m, Matrix.identity(a.field, m.dim))
    kc = kernel_cokernel(ident)
    assert kc.kernel.dim == 0 and kc.cokernel.dim == 0
    zero = ModuleMap(m, m, Matrix.zeros(a.field, m.dim, m.dim))
    kc = kernel_cokernel(zero)
    assert kc.kernel.dim == m.dim and kc.cokernel.dim == m.dim


def test_kernel_cokernel_euler():
    a = a2_path_algebra()
    m = regular_module(a)
    for mp in hom_space(m, m):
        kc = kernel_cokernel(mp)
        assert kc.kernel.dim - kc.cokernel.dim == 0  # square map


# -- covers and projectivity --------------------------------------------------


def test_free_cover_of_regular_is_rank_one():
    a = a2_path_algebra()
    fc = free_cover(regular_module(a))
    assert fc.generator_count * a.dim == fc.free.dim
    # A is generated by 1 as a module over itself... via two vertex tops
    assert fc.generator_count == 2


def test_free_cover_of_simple_over_quiver_algebra():
    a = a2_path_algebra()
    s2 = simple_modules(a)[1]
    fc = free_cover(s2)
    assert fc.free.dim == a.dim
    kc = kernel_cokernel(fc.surjection)
    assert kc.kernel.dim == a.dim - 1
    assert kc.cokernel.dim == 0


def test_free_cover_of_zero():
    fc = free_cover(zero_module(a2_path_algebra()))
    assert fc.free.dim == 0


def test_free_cover_output_is_projective():
    for alg in (a2_path_algebra(), dual_numbers()):
        for m in simple_modules(alg) + [regular_module(alg)]:
            fc = free_cover(m)
            if fc.free.dim:
                assert is_projective(fc.free)


def test_projective_cover_smaller_than_free():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    pc2 = projective_cover(s2)
    assert pc2.module.dim == 2          # e_2 A = span{e2, a}
    pc1 = projective_cover(s1)
    assert pc1.module.dim == 1          # e_1 A is simple projective


def test_is_projective_cases():
    a = a2_path_algebra()
    assert is_projective(regular_module(a))
    d = dual_numbers()
    simple_d = simple_modules(d)[0]
    assert not is_projective(simple_d)
    assert is_projective(zero_module(a))


def test_ae_projective_over_corner_in_stratifying_case():
    # Ae as a right eAe-module for the A2 path algebra at the sink: eAe = k
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    ae_right = cb.ae.restrict_right()
    from recollab.algebra import discover_basic
    corner = discover_basic(cb.corner_algebra)
    ae_right = RightModule(corner, ae_right.dim, [ae_right.action_of(g) for g in corner.generators()])
    assert is_projective(ae_right)


# -- iso_test -----------------------------------------------------------------


def test_iso_test_reflexive():
    a = kronecker_algebra()
    m = regular_module(a)
    res = iso_test(m, m)
    assert res
    assert res.witness is not None
    assert rank(res.witness) == m.dim


def test_iso_test_distinct_simples_false():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    assert not iso_test(s1, s2)


def test_iso_test_dim_mismatch():
    a = a2_path_algebra()
    assert not iso_test(simple_modules(a)[0], regular_module(a))


def test_iso_test_separates_tops_without_the_grid():
    # e_vA (dim 3, top S_v) and S_v + S_w + S_w have one dimension and a
    # nonzero Hom space but different tops: "not isomorphic" without
    # evaluating a single grid point (cap 0)
    a = kronecker_algebra()
    proj = max((vertex_projective(a, v)[0] for v in range(2)), key=lambda m: m.dim)
    top = next(s for s in simple_modules(a) if hom_space(proj, s))
    other = next(s for s in simple_modules(a) if s is not top)
    semi = direct_sum([top, other, other])
    assert proj.dim == semi.dim == 3 and hom_space(proj, semi)
    for m, n in ((proj, semi), (semi, proj)):
        assert not iso_test(m, n, cap=0)
    # an isomorphic module in another basis needs the grid
    g, g_inv = (Matrix(QQ, [[1, t, 0], [0, 1, 0], [0, 0, 1]]) for t in (1, -1))
    moved = RightModule(a, 3, [g.mul(x).mul(g_inv) for x in proj.gens])
    assert moved != proj
    with pytest.raises(Inconclusive):
        iso_test(proj, moved, cap=0)


def test_iso_test_over_f5():
    a = a2_path_algebra(F5)
    m = regular_module(a)
    assert iso_test(m, m)


def test_hom_module_gives_me_as_module():
    # Hom_A(eA, A) ~ Ae: right-module homs out of the corner projective
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    h = hom_module(cb.ea, regular_module(a))
    assert h.dim == cb.ae.dim == 1
    # and it carries a right eAe-module structure
    assert h.right_algebra == cb.corner_algebra


def test_simples_count_and_dims():
    for alg, n in ((a2_path_algebra(), 2), (kronecker_algebra(), 2), (dual_numbers(), 1)):
        sims = simple_modules(alg)
        assert len(sims) == n
        assert all(s.dim == 1 for s in sims)


def test_direct_sum_dims():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    d = direct_sum([s1, s2, regular_module(a)])
    assert d.dim == 5


@pytest.mark.parametrize("field", [QQ, F5])
def test_bimodule_rejects_actions_that_do_not_commute(field):
    a = dual_numbers(field)        # basis 1, x
    ident = Matrix.identity(field, 2)
    n = Matrix(field, [[0, 3], [0, 0]])
    # x acting by the square-zero n on either side is a bimodule ...
    Bimodule(a, a, 2, (ident, n), (ident, n))
    # ... and each action alone stays a module with n^T on the left, but n and
    # n^T do not commute; the check names the generators that fail
    with pytest.raises(ValueError, match=r"do not commute at generators \(0, 1\), \(0, 1\)"):
        Bimodule(a, a, 2, (ident, n.transpose()), (ident, n))


@pytest.mark.parametrize("field", [QQ, F5])
def test_hom_coords_solves_a_batch_and_names_a_map_outside_the_span(field):
    a = kronecker_algebra(field)
    m = regular_module(a)
    maps = hom_space(m, m)
    basis = hom_vec_basis(maps, m.dim, m.dim, field)
    two = field.coerce(2)
    mats = [mp.matrix for mp in reversed(maps)] + [maps[0].matrix.scale(two)]
    coords = hom_coords(basis, mats)
    h = len(maps)
    expected = [[1 if j == h - 1 - i else 0 for j in range(h)]
                for i in range(h)] + [[two] + [0] * (h - 1)]
    assert coords == Matrix(field, expected, ncols=h)
    assert hom_coords(basis, []) == Matrix(field, [], ncols=h)
    # the identity on k^dim A is a module map; a matrix unit that is not one
    outside = Matrix(field, [[1 if (i, j) == (0, 1) else 0
                              for j in range(m.dim)] for i in range(m.dim)])
    with pytest.raises(NotInHomSpace):
        hom_coords(basis, [Matrix.identity(field, m.dim), outside])


# -- construction checks against the Python-loop transcription -----------------


def _ref_stack(alg, d, gens):
    """Each basis element's action from the generator matrices `gens`: the
    sum over its words (`Algebra.words`) of their products in word order."""
    f, stack = alg.field, []
    for words in alg.words():
        acc = Matrix.zeros(f, d, d)
        for c, w in words:
            prod = Matrix.identity(f, d)
            for t in w:
                prod = prod.mul(gens[t])
            acc = acc.add(prod.scale(c))
        stack.append(acc)
    return stack


def _ref_module(alg, d, gens):
    """The message of the Python-loop RightModule check on the generator
    matrices `gens`, or None: the reference the integer check must
    reproduce."""
    f = alg.field
    if d == 0:
        return None
    action = _ref_stack(alg, d, gens)
    if linear_combination(alg.unit, action, f, d, d) != Matrix.identity(f, d):
        return "rho(1) != id"
    if any(linear_combination(g, action, f, d, d) != x for g, x in zip(alg.generators(), gens)):
        return "the generators act unlike their words"
    for g, rho_g in zip(alg.generators(), gens):
        for j, gb in enumerate(alg.left_mult_matrix(g).rows):
            if rho_g.mul(action[j]) != linear_combination(gb, action, f, d, d):
                return f"action incompatibility at generator {g}, basis {j}"
    return None


def _ref_map(src, tgt, mat):
    f = src.field
    for g in src.algebra.generators():
        lhs = linear_combination(g, src._stack(), f, src.dim, src.dim).mul(mat)
        rhs = mat.mul(linear_combination(g, tgt._stack(), f, tgt.dim, tgt.dim))
        if lhs != rhs:
            return "matrix does not intertwine the actions"
    return None


def _ref_bimodule(left, right, d, lam, rho):
    if d == 0:
        return None
    msg = _ref_module(right, d, rho) or _ref_module(opposite(left), d, lam)
    if msg:
        return msg
    for g, lm in zip(left.generators(), lam):
        for h, rm in zip(right.generators(), rho):
            if lm.mul(rm) != rm.mul(lm):
                return f"left and right actions do not commute at generators {g}, {h}"
    return None


def _message(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


P31 = GF(2**31 - 1)
CHECK_CASES = [(QQ, "small"), (QQ, "big"), (F5, "small"), (P31, "small")]


def _conjugator(f, d, rng, kind):
    """(P, P^-1) for a random invertible d x d P; "big" entries pass 2^31,
    so over Q the conjugated actions need the checks' object path."""
    while True:
        top = 2**40 if kind == "big" else 3
        p = Matrix(f, [[rng.randint(-top, top) if rng.random() < 0.6 or i == j else 0
                        for j in range(d)] for i in range(d)])
        inv = solve_matrix(p, Matrix.identity(f, d))
        if inv is not None:
            return p, inv


def _perturbed(mats, f, rng):
    """A copy of the matrices with one entry moved by a nonzero amount."""
    mats = list(mats)
    i = rng.randrange(len(mats))
    x, y = rng.randrange(mats[i].nrows), rng.randrange(mats[i].ncols)
    rows = [list(r) for r in mats[i].rows]
    rows[x][y] += rng.choice((1, -1, 2, Fraction(1, 3) if f == QQ else 3))
    mats[i] = Matrix(f, rows)
    return mats


def _check_algebras(f, rng):
    algs = [kronecker_algebra(f), a2_path_algebra(f), non_stratifying_algebra(f),
            one_point_extension_of_dual_numbers(f)[0], dual_numbers(f)]
    # a base change has no basic structure (every basis vector generates) and,
    # over Q, a fractional unit and table
    return algs + [_base_change(kronecker_algebra(f), rng)]


@pytest.fixture
def dtypes(monkeypatch):
    """The dtypes of the integer arrays the module checks build (through
    `exactfield._blocks`)."""
    seen = set()

    def spy(*args):
        arr, den = real(*args)
        seen.add(arr.dtype)
        return arr, den
    real = exactfield.integer_array
    monkeypatch.setattr(exactfield, "integer_array", spy)
    return seen


@pytest.mark.parametrize("field,kind", CHECK_CASES, ids=["Q", "Qbig", "F5", "F31bit"])
def test_module_and_map_checks_match_reference(field, kind, dtypes):
    rng = random.Random(11)
    cases = 0
    for alg in _check_algebras(field, rng):
        reg = modules.RightModule(alg, alg.dim, [alg.right_mult_matrix(g) for g in alg.generators()])
        mods = [reg, modules.direct_sum([reg, reg])]
        if alg.basic is not None:
            mods += modules.simple_modules(alg)
        for m in mods:
            p, pinv = _conjugator(field, m.dim, rng, kind)
            acts = [p.mul(a).mul(pinv) for a in m.gens]
            assert _ref_module(alg, m.dim, acts) is None
            conj = modules.RightModule(alg, m.dim, acts)
            for _ in range(6):
                bad = _perturbed(acts, field, rng)
                want = _ref_module(alg, m.dim, bad)
                assert _message(lambda: modules.RightModule(alg, m.dim, bad)) == want
                cases += want is not None
            # maps: a random combination of Hom(M, M') and perturbations of it
            maps = modules.hom_space(m, conj)
            coeffs = [rng.randint(-2, 2) for _ in maps]
            mat = linear_combination(coeffs, [mp.matrix for mp in maps], field,
                                     m.dim, m.dim)
            for mat2 in [mat] + [_perturbed([mat], field, rng)[0] for _ in range(3)]:
                want = _ref_map(m, conj, mat2)
                assert _message(lambda: modules.ModuleMap(m, conj, mat2)) == want
                cases += want is not None
            # a zero-dimensional source or target: every matrix is a module map
            zero = modules.zero_module(alg)
            for src, tgt in [(zero, conj), (m, zero), (zero, zero)]:
                mat0 = Matrix.zeros(field, src.dim, tgt.dim)
                assert _ref_map(src, tgt, mat0) is None
                assert _message(lambda: modules.ModuleMap(src, tgt, mat0)) is None
    # the zero action is multiplicative; only the unit law rejects it
    a = kronecker_algebra(field)
    zero = [Matrix.zeros(field, 2, 2)] * len(a.generators())
    assert _message(lambda: modules.RightModule(a, 2, zero)) == "rho(1) != id"
    assert cases > 40
    want = {np.dtype(object)} if kind == "big" or field == P31 else {np.dtype(np.int64)}
    assert want <= dtypes


@pytest.mark.parametrize("field,kind", CHECK_CASES, ids=["Q", "Qbig", "F5", "F31bit"])
def test_bimodule_check_matches_reference(field, kind):
    rng = random.Random(12)
    cases = 0
    for alg in _check_algebras(field, rng):
        bims = [modules.regular_bimodule(alg)]
        if alg.basic is not None and len(alg.basic.idempotent_coords) > 1:
            cb = modules.canonical_bimodules(alg, Idempotent(alg, alg.basic.idempotent_coords[0]))
            bims += [b for b in (cb.ae, cb.ea) if b.dim]
        for b in bims:
            left, right, d = b.left_algebra, b.right_algebra, b.dim
            p, pinv = _conjugator(field, d, rng, kind)
            q, qinv = _conjugator(field, d, rng, kind)
            lam = [p.mul(x).mul(pinv) for x in b.left_gens]
            rho = [p.mul(x).mul(pinv) for x in b.right_gens]
            # each action alone is a module; conjugated apart they rarely commute
            rho_q = [q.mul(x).mul(qinv) for x in b.right_gens]
            trials = [(lam, rho), (lam, rho_q)]
            trials += [(_perturbed(lam, field, rng), rho) for _ in range(3)]
            trials += [(lam, _perturbed(rho, field, rng)) for _ in range(3)]
            for lam2, rho2 in trials:
                want = _ref_bimodule(left, right, d, lam2, rho2)
                got = _message(lambda: modules.Bimodule(left, right, d, lam2, rho2))
                assert got == want
                cases += want is not None
    assert cases > 20


# with one generator per slice, every check takes its multi-slice path and
# names a failure by the slice's offset
@pytest.mark.parametrize("field,kind", CHECK_CASES, ids=["Q", "Qbig", "F5", "F31bit"])
def test_module_and_map_checks_match_reference_one_generator_per_slice(
        field, kind, dtypes, monkeypatch):
    monkeypatch.setattr(modules, "_CHUNK", 1)
    test_module_and_map_checks_match_reference(field, kind, dtypes)


@pytest.mark.parametrize("field,kind", CHECK_CASES, ids=["Q", "Qbig", "F5", "F31bit"])
def test_bimodule_check_matches_reference_one_generator_per_slice(
        field, kind, monkeypatch):
    monkeypatch.setattr(modules, "_CHUNK", 1)
    test_bimodule_check_matches_reference(field, kind)


def test_bimodule_restrictions_are_built_once_and_checked_on_first_use():
    a = kronecker_algebra()
    b = modules.regular_bimodule(a)
    assert b is modules.regular_bimodule(a)
    assert enveloping(a) is enveloping(a)
    assert b.restrict_right() is b.restrict_right()
    assert b.left_as_op_module() is b.left_as_op_module()
    broken = list(b.right_gens)
    broken[0] = Matrix.zeros(QQ, a.dim, a.dim)
    unchecked = modules.Bimodule._of(a, a, a.dim, b.left_gens, broken)
    with pytest.raises(ValueError, match="rho"):
        unchecked.restrict_right()


# -- Hom and (x) out of a projective_module: Yoneda against Sylvester -----------


def _yoneda_cases():
    from test_homology import DOCS
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(lambda doc=doc: algebra_from_doc(doc), id=path.stem))
        if doc.get("field", "Q") == "Q" and "f5" not in path.stem:
            cases.append(pytest.param(lambda doc=doc: algebra_from_doc(_doc_over(doc, "Fp:5")),
                                      id=path.stem + "@F5"))
    for make, seed in ((kronecker_algebra, 7), (non_stratifying_algebra, 8)):
        cases.append(pytest.param(
            lambda make=make, seed=seed: discover_basic(_base_change(make(), random.Random(seed))),
            id=f"{make.__name__}~{seed}"))
    return cases


def _vertex_split(a):
    """Per vertex v, the indices i with e_v b_i = b_i, when every e_v b_i is
    b_i or 0 (A's basis splits by vertices); otherwise None."""
    mats = [a.left_mult_matrix(e).rows for e in a.basic.idempotent_coords]
    if all(m[i] in (unit_vector(a.dim, i), (0,) * a.dim) for m in mats for i in range(a.dim)):
        return [(v, tuple(i for i in range(a.dim) if m[i][i])) for v, m in enumerate(mats)]
    return None


def test_hom_out_of_a_split_module_is_read_by_yoneda_whatever_its_representative(monkeypatch):
    # an equal untagged module that became the representative first has no
    # layout to read, so Hom out of A_A is still taken on A_A itself
    a = kronecker_algebra()
    plain = RightModule._of(a, a.dim, [a.right_mult_matrix(g) for g in a.generators()])
    assert modules._rep(plain) is plain
    reg = regular_module(a)
    assert reg == plain and modules._rep(reg) is plain
    targets = simple_modules(a) + [reg]
    with monkeypatch.context() as patch:
        patch.setattr(modules, "sylvester_rows", None)
        fast = [hom_space(reg, n) for n in targets]
    for maps, n in zip(fast, targets):
        assert [x.matrix for x in maps] == [x.matrix for x in hom_space(plain, n)]


@pytest.mark.parametrize("make", _yoneda_cases())
def test_hom_and_tensor_out_of_projectives_match_sylvester(make, monkeypatch, request):
    """Every level of the resolutions of the simples, of A and (over A^e) of
    A as a bimodule is a tagged projective_module, and A_A is the sum of its
    vertex projectives when A's basis splits by vertices; Hom and (x) out of
    either must equal, bit for bit and in order, those out of an untagged
    copy of the same module, which go through the Sylvester systems.  The
    builders `_hom_basis` and `_tensor` memoise nothing, so calling them on
    the module shows that every one of these Hom spaces and (x) goes through
    `_yoneda_basis` exactly once, and on the copy that Sylvester does not;
    the memoised answers out of the module and the copy must be the same.
    A basis from `discover_basic` does not split, and A_A then makes no
    `_yoneda_basis` call."""
    yoneda = []
    real = modules._yoneda_basis
    monkeypatch.setattr(modules, "_yoneda_basis",
                        lambda *args: yoneda.append(1) or real(*args))
    a = make()
    env = enveloping(a)
    simples, reg = simple_modules(a), regular_module(a)
    a_env = regular_bimodule(a).as_right_module_over(env)
    split = _vertex_split(a)
    assert (split is None) == ("~" in request.node.callspec.id)
    assert modules._summands(reg) == split

    def compare(p, targets, left, tagged):
        plain = RightModule._of(p.algebra, p.dim, p.gens)
        assert plain == p and plain.summand_tags is None
        for n in targets:
            before = len(yoneda)
            fast = modules._hom_basis(p, n)
            assert len(yoneda) == before + (tagged and n.dim > 0)
            slow = modules._hom_basis(plain, n)
            assert len(yoneda) == before + (tagged and n.dim > 0)
            for other in (slow, hom_space(plain, n), hom_space(p, n)):
                assert [x.matrix for x in fast] == [x.matrix for x in other]
        before = len(yoneda)
        fast = modules._tensor(as_bimodule(p), left)
        assert len(yoneda) == before + tagged
        slow = modules._tensor(as_bimodule(plain), left)
        assert len(yoneda) == before + tagged
        for other in (slow, tensor_over(as_bimodule(plain), left),
                      tensor_over(as_bimodule(p), left)):
            assert fast.projection == other.projection
            assert fast.section_indices == other.section_indices
            assert fast.bimodule.left_gens == other.bimodule.left_gens
            assert fast.bimodule.right_gens == other.bimodule.right_gens

    plan = [(s, simples + [reg], regular_bimodule(a), 3) for s in simples]
    plan += [(reg, simples, regular_bimodule(a), 1),
             (a_env, [a_env], regular_as_left_env_module(a), 2)]
    compared = 0
    for m, targets, left, depth in plan:
        res = projective_resolution(m, depth)
        for p in res.modules:
            if p.dim == 0:
                continue
            assert p.summand_tags is not None
            compare(p, targets + [m] + res.modules, left, True)
            compared += 1
        if m is reg:
            compare(reg, simples + [reg] + res.modules, left, split is not None)
    assert compared >= 4


@pytest.mark.parametrize("field", [QQ, F5])
def test_projective_module_is_the_tagged_sum_of_vertex_projectives(field):
    for a in (kronecker_algebra(field), non_stratifying_algebra(field)):
        vertices = range(len(a.basic.idempotent_coords))
        for tags in [(v,) for v in vertices] + [tuple(vertices), (1, 0, 1, 1)]:
            p = projective_module(a, tags)
            plain = direct_sum([vertex_projective(a, v)[0] for v in tags])
            assert p == plain and p.summand_tags == tags
            assert plain.summand_tags is None
            assert as_bimodule(p).restrict_right() is p
        assert projective_module(a, ()) == zero_module(a)
        assert projective_cover(simple_modules(a)[0]).module.summand_tags == (0,)


# -- vertex projectives of tensor products: Kronecker against the cut ---------------


def _cut_vertex_projective(a, v):
    """e_v A cut out of the regular module by its RREF (`submodule_from_rows`),
    as `vertex_projective` builds it for an algebra that is not a tensor
    product, and built it for every algebra before; and its per-basis
    actions the way they were built then, every basis element's right
    multiplication restricted (`_restrict`)."""
    regular = RightModule._of(a, a.dim, [a.right_mult_matrix(g) for g in a.generators()])
    rows = a.left_mult_matrix(a.basic.idempotent_coords[v])
    mod, incl = modules.submodule_from_rows(regular, rows)
    mod._validate()
    return mod, incl.matrix, exactfield._restrict(rows, _basis_mats(a)[1])[2]


def _kron_cases():
    from test_homology import DOCS
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(lambda doc=doc: algebra_from_doc(doc), id=path.stem))
        if doc.get("field", "Q") == "Q" and "f5" not in path.stem:
            cases.append(pytest.param(lambda doc=doc: algebra_from_doc(_doc_over(doc, "Fp:5")),
                                      id=path.stem + "@F5"))
    makes = (kronecker_algebra, a2_path_algebra, non_stratifying_algebra,
             lambda: one_point_extension_of_dual_numbers()[0])
    for k, make in enumerate(makes):
        cases.append(pytest.param(
            lambda make=make, k=k: discover_basic(_base_change(make(), random.Random(7 + k))),
            id=f"base_change_{k}"))
    cases.append(pytest.param(dual_numbers, id="dual_numbers"))
    return cases


def _same_entries(x, y):
    return x == y and all(type(s) is type(t) for r, w in zip(x.rows, y.rows)
                          for s, t in zip(r, w))


@pytest.mark.parametrize("make", _kron_cases())
def test_tensor_vertex_projectives_are_kronecker_products_of_the_cut(make, monkeypatch):
    """A^e, A (x) kA_2 (the B (x) A of the tensor transfers) and kA_2 (x) A:
    every vertex projective equals, entry for entry and with the same scalar
    types, the one cut out of the regular module; its generators act by
    kron(X_g, I) and kron(I, Y_g), and the action it derives for each basis
    element is the cut's per-basis matrix and the pairwise Kronecker product
    of the factors' per-basis matrices, built as they were before modules
    stored their generators; none of them is cut or checked over the tensor
    product, the factors' vertex projectives that certify it are certified
    by their algebras and never checked directly, and the full checks of
    both pass."""
    a = make()
    a2 = a2_path_algebra(a.field)
    cut, checked = [], []
    real_cut, real_check = modules.submodule_from_rows, RightModule._validate
    monkeypatch.setattr(modules, "submodule_from_rows",
                        lambda m, rows: cut.append(m.algebra) or real_cut(m, rows))
    monkeypatch.setattr(RightModule, "_validate",
                        lambda self: checked.append(self) or real_check(self))
    for t in (enveloping(a), tensor(a, a2), tensor(a2, a)):
        vertices = range(len(t.basic.idempotent_coords))
        built = [vertex_projective(t, v) for v in vertices]
        assert not any(alg is t for alg in cut)
        assert not any(m.algebra is t for m in checked)
        b, c = t._factors
        for v, (mod, basis) in zip(vertices, built):
            assert vertex_projective(t, v)[0] is mod
            i, j = divmod(v, len(c.basic.idempotent_coords))
            factors = (vertex_projective(b, i)[0], vertex_projective(c, j)[0])
            assert not any(m is modules._rep(x) for x in factors for m in checked)
            ref_mod, ref_basis, ref_acts = _cut_vertex_projective(t, v)
            assert _same_entries(basis, ref_basis)
            assert mod == ref_mod
            ib, ic = (Matrix.identity(t.field, x.dim) for x in factors)
            assert mod.gens == tuple(kron(x, ic) for x in factors[0].gens) + tuple(
                kron(ib, y) for y in factors[1].gens)
            assert all(_same_entries(x, y) for x, y in zip(mod._stack(), ref_acts))
            pairwise = [kron(x, y) for x in _cut_vertex_projective(b, i)[2]
                        for y in _cut_vertex_projective(c, j)[2]]
            assert len(pairwise) == t.dim
            assert all(_same_entries(x, y) for x, y in zip(mod._stack(), pairwise))
            for x in (mod, *factors):
                real_check(x)


def _reference_cases():
    from test_homology import _linear_doc
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(doc, id=path.stem))
        if doc.get("field", "Q") == "Q" and "f5" not in path.stem:
            cases.append(pytest.param(_doc_over(doc, "Fp:7"), id=path.stem + "@F7"))
    return cases + [pytest.param(_linear_doc(4, tag), id=f"linear_a4@{tag}") for tag in ("Q", "Fp:5")]


def _block_diagonal(stacks, f):
    """Per basis element, the block-diagonal matrix of the stacks' matrices."""
    out = []
    for mats in zip(*stacks):
        total, rows = sum(m.nrows for m in mats), []
        for m in mats:
            rows += [(0,) * len(rows) + r + (0,) * (total - len(rows) - m.nrows) for r in m.rows]
        out.append(Matrix(f, rows, ncols=total))
    return out


def _vertex_reference(a, v):
    """e_v A's per-basis actions as they were built before modules stored
    their generators: every right multiplication restricted, or over a
    tensor product the pairwise Kronecker products of the factors'."""
    if a._factors is not None:
        b, c = a._factors
        i, j = divmod(v, len(c.basic.idempotent_coords))
        return [kron(x, y) for x in _vertex_reference(b, i) for y in _vertex_reference(c, j)]
    rows = a.left_mult_matrix(a.basic.idempotent_coords[v])
    return exactfield._restrict(rows, _basis_mats(a)[1])[2]


@pytest.mark.parametrize("doc", _reference_cases())
def test_derived_actions_match_the_per_basis_reference(doc):
    """Every module the engine makes derives, for each basis element, the
    matrix the per-basis construction built, entry for entry and with the
    same scalar types: regular modules, simples, vertex projectives (of A^e
    too), projective_modules, syzygies and quotients down the resolutions of
    the simples, of A and of A over A^e, and A as a left A^e-module.  The
    references are built the old way: right multiplications restricted,
    Kronecker products of the factors' and lam(b) rho(c) over both sides."""
    a = algebra_from_doc(doc)
    f, n, env = a.field, a.dim, enveloping(a)
    L, R = _basis_mats(a)
    compared = []

    def same(m, ref, left=False):
        got = m._stack(left)
        assert len(got) == len(ref) and all(_same_entries(x, y) for x, y in zip(got, ref))
        compared.append(m)

    rad = radical(a)
    for ev, s in zip(a.basic.idempotent_coords, simple_modules(a)):
        stack = Matrix(f, [list(ev)] + [list(r) for r in rad.rows], ncols=n)
        ebe = Matrix(f, [a.multiply(a.multiply(ev, unit_vector(n, i)), ev) for i in range(n)],
                     ncols=n)
        same(s, [Matrix(f, [[c[0]]], ncols=1) for c in express_in_row_basis(stack, ebe).rows])
    a_env = regular_bimodule(a).as_right_module_over(env)
    same(regular_module(a), list(R))
    same(a_env, [x.mul(y) for x in L for y in R])
    same(regular_as_left_env_module(a), [L[j].mul(R[i]) for i in range(n) for j in range(n)],
         left=True)
    for m in simple_modules(a) + [regular_module(a), a_env]:
        for _ in range(2):
            cover = projective_cover(m)
            p_ref = _block_diagonal([_vertex_reference(m.algebra, v) for v, _ in cover.picks], f)
            same(cover.module, p_ref)
            for v, _ in cover.picks:
                same(vertex_projective(m.algebra, v)[0], _vertex_reference(m.algebra, v))
            ker = kernel_basis(cover.surjection.matrix.transpose()).transpose()
            if ker.nrows == 0:
                break
            same(modules.quotient_by_rows(cover.module, ker)[0],
                 exactfield._descend(ker, p_ref)[2])
            m = modules.submodule_from_rows(cover.module, ker)[0]
            same(m, exactfield._restrict(ker, p_ref)[2])
    assert any(m.algebra is env for m in compared) and len(compared) > 10


@pytest.mark.parametrize("make", _kron_cases())
def test_env_modules_are_certified_by_the_bimodules_they_read(make, monkeypatch):
    """The regular and canonical bimodules as right A^e-modules, and A as a
    left A^e-module: no check runs over A^e or its opposite, the bimodule
    that certifies each is itself certified by A's check and never checked,
    and the full checks of each module and bimodule pass."""
    a = make()
    mods, bims = [], []
    real_mod, real_bim = RightModule._validate, Bimodule._validate
    monkeypatch.setattr(RightModule, "_validate", lambda self: mods.append(self) or real_mod(self))
    monkeypatch.setattr(Bimodule, "_validate", lambda self: bims.append(self) or real_bim(self))
    env = enveloping(a)
    cb = canonical_bimodules(a, Idempotent(a, a.basic.idempotent_coords[0]))
    certified = [(bim.as_right_module_over(env), bim) for bim in (cb.regular, cb.aea, cb.quotient)]
    certified.append((regular_as_left_env_module(a), regular_bimodule(a)))
    assert env._opposite is None and not any(m.algebra is env for m in mods)
    assert not any(b.left_algebra is env for b in bims)
    assert a.associativity_checked
    for mod, bim in certified:
        assert not any(b is modules._rep(bim) for b in bims)
    assert all(bim.as_right_module_over(env) is mod for mod, bim in certified[:3])
    for mod, bim in certified:
        mod._validate()
        bim._validate()


@pytest.mark.parametrize("field", [QQ, F5])
def test_env_module_certificates_are_complete(field, monkeypatch):
    """A bimodule whose actions do not commute, or whose right action is not
    a module, fails as a module over A^e on every call.  A second
    tensor(opposite(a), a) of the same instances gets its own module, on the
    same generator matrices and certified by the bimodule, with no check."""
    a = dual_numbers(field)        # basis 1, x with x^2 = 0
    ident, zero = Matrix.identity(field, 2), Matrix.zeros(field, 2, 2)
    n = Matrix(field, [[0, 1], [0, 0]])
    for left, right, message in (((ident, n.transpose()), (ident, n), "do not commute"),
                                 ((ident, zero), (ident, ident), "incompatibility")):
        bad = Bimodule._of(a, a, 2, left, right)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                bad.as_right_module_over(enveloping(a))
    reg = regular_bimodule(a)
    env_module = reg.as_right_module_over(enveloping(a))
    checked = []
    real = RightModule._validate
    monkeypatch.setattr(RightModule, "_validate", lambda self: checked.append(self) or real(self))
    same = tensor(opposite(a), a)
    assert same is not enveloping(a)
    assert same._factors[0] is opposite(a) and same._factors[1] is a
    mod = reg.as_right_module_over(same)
    assert reg.as_right_module_over(same) is mod and mod is not env_module
    assert mod.algebra is same and mod.gens == env_module.gens == reg.left_gens + reg.right_gens
    assert not checked and "checked" in modules._rep(mod)._memo


@pytest.mark.parametrize("field", [QQ, F5])
def test_as_right_module_over_refuses_other_envs(field):
    """Only tensor(opposite(B), A) of the bimodule's own instances with a
    basic structure is an env it acts over: a tensor product of a second,
    equal instance, or of the factors in another order, raises
    AlgebraMismatch, and an algebra without a basic structure, whose
    generators are its basis, raises UnsupportedField."""
    a, twin = dual_numbers(field), dual_numbers(field)
    reg = regular_bimodule(a)
    for env in (tensor(opposite(twin), twin), tensor(opposite(a), twin),
                tensor(opposite(twin), a), tensor(a, opposite(a)), tensor(a, a)):
        for _ in range(2):
            with pytest.raises(AlgebraMismatch):
                reg.as_right_module_over(env)
    b = _base_change(kronecker_algebra(field), random.Random(5))
    assert b.basic is None
    for _ in range(2):
        with pytest.raises(UnsupportedField):
            regular_bimodule(b).as_right_module_over(enveloping(b))


def _broken_algebra(field, law):
    """Basis e1, e2, x, y: k[x]/x^3 at vertex 1 (x x = y) beside a second
    vertex, built unchecked.  With law "associativity" also y x = y, so
    (x x) x != x (x x); with law "unit" the unit is e1, which does not fix
    e2.  Either way e1 stays idempotent."""
    struct = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, k in ((0, 0, 0), (1, 1, 1), (0, 2, 2), (2, 0, 2), (0, 3, 3), (3, 0, 3),
                    (2, 2, 3)) + (((3, 2, 3),) if law == "associativity" else ()):
        struct[i][j][k] = 1
    unit = (1, 0, 0, 0) if law == "unit" else (1, 1, 0, 0)
    basic = BasicStructure(((1, 0, 0, 0), (0, 1, 0, 0)), ("1", "2"),
                           Matrix(field, [(0, 0, 1, 0), (0, 0, 0, 1)]), ())
    return Algebra(field, struct, unit, labels=("e1", "e2", "x", "y"), basic=basic,
                   _validate=False)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("law,message", [("associativity", "associativity fails"),
                                         ("unit", "unit law fails")])
def test_certificates_by_the_algebra_are_complete(field, law, message):
    """Everything certified by A's unit and associativity check fails on
    every call over an algebra whose table breaks one of them: the regular
    module and bimodule, both vertex projectives, and the canonical
    bimodules, the corner and the quotient cut at a vertex idempotent."""
    a = _broken_algebra(field, law)
    e = Idempotent(a, (1, 0, 0, 0))
    for build in (regular_module, regular_bimodule, lambda a: vertex_projective(a, 0),
                  lambda a: vertex_projective(a, 1), lambda a: canonical_bimodules(a, e),
                  lambda a: corner(a, e), lambda a: ideal_and_quotient(a, e)):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                build(a)
    assert not a.associativity_checked and not a._modules


@pytest.mark.parametrize("field", [QQ, F5])
def test_restriction_and_descent_check_that_the_span_is_invariant(field):
    """In A_2 (arrow a from 1 to 2) the span of e2 is not a submodule of A_A
    (e2 a = a): restricting to it and descending by it fail on every call.
    The span of e2 and a, e2 A, is one; the quotient by it is certified by
    A_A and its own full check passes."""
    a = a2_path_algebra(field)
    m, e2 = regular_module(a), vertex_idempotent(a, "2").coords
    not_closed = Matrix(field, [e2], ncols=a.dim)
    for cut in (modules.submodule_from_rows, modules.quotient_by_rows):
        for _ in range(2):
            with pytest.raises(ValueError, match="invariant subspace"):
                cut(m, not_closed)
    rows = a.left_mult_matrix(e2)
    sub, incl = modules.submodule_from_rows(m, rows)
    quot, proj = modules.quotient_by_rows(m, rows)
    assert (sub.dim, quot.dim) == (2, 1) and incl.matrix.mul(proj.matrix).is_zero()
    assert "checked" in modules._rep(quot)._memo
    sub._validate()
    quot._validate()
    # the same in A_A + A_A on the twisted diagonal {(2x, 3x)}, whose RREF
    # bases are not integral over Q
    m2 = modules.direct_sum([m, m])

    def twisted(span):
        return Matrix(field, [[2 * x for x in r] + [3 * x for x in r] for r in span.rows],
                      ncols=2 * a.dim)
    assert (Fraction(3, 2) in rref(twisted(rows))[0].rows[0]) == (field == QQ)
    for cut in (modules.submodule_from_rows, modules.quotient_by_rows):
        for _ in range(2):
            with pytest.raises(ValueError, match="invariant subspace"):
                cut(m2, twisted(not_closed))
    sub, incl = modules.submodule_from_rows(m2, twisted(rows))
    quot, proj = modules.quotient_by_rows(m2, twisted(rows))
    assert (sub.dim, quot.dim) == (2, 4) and incl.matrix.mul(proj.matrix).is_zero()
    sub._validate()
    quot._validate()


def _top_from_the_radical_basis(m):
    """M / M rad from the rows M r, r in the RREF basis of rad A."""
    rows = [row for r in radical(m.algebra).rows
            for row in m.action_of(r).rows]
    proj, free = quotient_map(Matrix(m.field, rows, ncols=m.dim))
    return proj, tuple(free)


_TOP_CASES = [(p, how) for p in DOCS for how in ("own", "discovered")
              if how == "own" or "f5" not in p.stem]


@pytest.mark.parametrize("path, how", _TOP_CASES,
                         ids=[f"{p.stem}-{how}" for p, how in _TOP_CASES])
def test_top_from_the_radical_generators_is_the_one_from_the_radical_basis(
        path, how, monkeypatch):
    """top_of reads M r over the radical generators r only; on regular
    modules, simples, A as an A^e-module and every syzygy of its resolution
    it equals the top from the radical's basis (with a discovered basic
    structure over Q, in a random basis, too)."""
    from recollab.complexes import _resolve
    a = algebra_from_doc(json.loads(path.read_text(encoding="utf-8")))
    if how == "discovered":
        a = discover_basic(_base_change(a, random.Random(3)))
    covered, real = [], modules.top_of
    monkeypatch.setattr(modules, "top_of", lambda m: covered.append(m) or real(m))
    env_module = regular_bimodule(a).as_right_module_over(enveloping(a))
    _resolve(env_module, 3)
    assert covered[0] is env_module and len(covered) > 1
    for m in [regular_module(a), *simple_modules(a)] + covered:
        assert real(m) == _top_from_the_radical_basis(m)


def test_iso_test_computes_each_top_once(monkeypatch):
    a = kronecker_algebra()
    calls = []
    real = modules.top_of
    monkeypatch.setattr(modules, "top_of", lambda m: calls.append(m) or real(m))
    p, q = sorted((vertex_projective(a, v)[0] for v in range(2)), key=lambda m: -m.dim)
    simples = simple_modules(a)
    top = next(x for x in simples if hom_space(p, x))
    other = next(x for x in simples if x is not top)
    s = direct_sum([top, other, other])
    pairs = [(p, p), (p, s), (s, p), (p, s)]
    verdicts = [bool(iso_test(m, n)) for m, n in pairs]
    assert verdicts == [True, False, False, False]
    assert sorted(map(id, calls)) == sorted({id(p), id(s)})
    # a content-equal copy needs no top; a copy over a second instance of
    # the algebra has its own top, computed once
    assert iso_test(q, RightModule(a, q.dim, q.gens)) and len(calls) == 2
    copy = RightModule(kronecker_algebra(), q.dim, q.gens)
    assert iso_test(q, copy) and iso_test(copy, q) and len(calls) == 4


# -- things built once, and Hom and (x) memoised on their arguments -------------


def test_interned_constructors_return_the_same_object():
    a = kronecker_algebra()
    assert regular_module(a) is regular_module(a)
    assert regular_bimodule(a) is regular_bimodule(a)
    assert all(x is y for x, y in zip(simple_modules(a), simple_modules(a)))
    for tags in [(0,), (1, 0, 1), ()]:
        assert projective_module(a, tags) is projective_module(a, list(tags))
    assert zero_module(a) is zero_module(a) is projective_module(a, ())
    assert projective_module(a, (0, 1)) is not projective_module(a, (1, 0))
    s = simple_modules(a)[0]
    assert as_bimodule(s) is as_bimodule(s) and as_bimodule(s).restrict_right() is s
    cb = canonical_bimodules(a, Idempotent(a, a.basic.idempotent_coords[0]))
    assert cb.regular is regular_bimodule(a)
    p = projective_module(a, (0, 1))
    assert tensor_over(p, regular_bimodule(a)) is tensor_over(as_bimodule(p), regular_bimodule(a))
    maps = hom_space(p, s)
    assert maps and all(x is y for x, y in zip(maps, hom_space(p, s)))
    # a second algebra instance with the same content builds its own
    b = kronecker_algebra()
    assert regular_module(b) == regular_module(a) and regular_module(b) is not regular_module(a)


def test_memoised_lists_are_new_on_every_call():
    a = kronecker_algebra()
    simples = simple_modules(a)
    want = list(simples)
    simples.clear()
    assert simple_modules(a) == want and len(want) == 2
    p = projective_module(a, (0, 1))
    maps = hom_space(p, want[0])
    got = [mp.matrix for mp in maps]
    maps.append(maps[0])
    maps.reverse()
    assert [mp.matrix for mp in hom_space(p, want[0])] == got


@pytest.mark.parametrize("field", [QQ, F5])
def test_tensor_memo_checks_a_product_first_built_unchecked(field, monkeypatch):
    a = dual_numbers(field)        # basis 1, x
    ident = Matrix.identity(field, 2)
    n = Matrix(field, [[0, 3], [0, 0]])
    # each action alone is a module, but n and n^T do not commute, and
    # M (x)_A A = M keeps both actions
    bad = Bimodule._of(a, a, 2, (ident, n.transpose()), (ident, n))
    reg = regular_bimodule(a)
    unchecked = tensor_over(bad, reg, _validate=False)
    assert unchecked.bimodule.dim == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="do not commute"):
            tensor_over(bad, reg)
    assert tensor_over(bad, reg, _validate=False) is unchecked
    # a sound product is certified by its factors' checks on the first call
    # that asks, and never checked itself
    checked = []
    real = Bimodule._validate
    monkeypatch.setattr(Bimodule, "_validate", lambda self: checked.append(self) or real(self))
    good = Bimodule(a, a, 2, (ident, n), (ident, n))
    zero = Matrix.zeros(field, 2, 2)
    flat = Bimodule(a, a, 2, (ident, zero), (ident, zero))    # k^2, x acting by 0
    tp = tensor_over(flat, flat, _validate=False)             # k^4, equal to no other
    assert checked == [good, flat] and tp.bimodule.dim == 4
    assert "checked" not in modules._rep(tp.bimodule)._memo
    assert tensor_over(flat, flat) is tp
    assert "checked" in modules._rep(tp.bimodule)._memo
    assert tensor_over(flat, flat) is tp
    assert checked == [good, flat]
    # M (x)_A A equals M, which was checked when it was built
    assert tensor_over(good, reg).bimodule == good
    assert checked == [good, flat]


def _law_spy(monkeypatch):
    """Spies: every tensor product (`_tensor`) and Hom module (the Bimodule
    `hom_module` makes) built goes to `built`, every law check to `checks`
    as (object, the check it runs inside or None)."""
    built, checks, running = [], [], []
    real_tensor, real_of = modules._tensor, Bimodule._of.__func__

    def tensor(m, n):
        tp = real_tensor(m, n)
        built.append(tp.bimodule)
        return tp

    def of(cls, *args):
        x = real_of(cls, *args)
        if sys._getframe(1).f_code.co_name == "hom_module":
            built.append(x)
        return x
    monkeypatch.setattr(modules, "_tensor", tensor)
    monkeypatch.setattr(Bimodule, "_of", classmethod(of))
    for cls in (RightModule, Bimodule):
        def spy(self, real=cls._validate):
            checks.append((self, running[-1] if running else None))
            running.append(self)
            try:
                return real(self)
            finally:
                running.pop()
        monkeypatch.setattr(cls, "_validate", spy)
    return built, checks


def _transfers():
    """Criterion 6: the perfect registry, and its tensor transfers (B = k,
    dual numbers, A_2) and opposite transfers."""
    from test_acceptance import _perfect_fixture_registry
    for r in _perfect_fixture_registry().values():
        for b in (ground_field(), dual_numbers(), a2_path_algebra()):
            tensor_transfer(b, r, 4)
        opposite_transfer(r, 4)


def _verify_all(tmp_path, capsys, paths):
    """`verify --suite all` on each document, and on its F_7 copy if it is
    over Q (and not a copy of an F_5 one)."""
    from test_golden_reports import IDEMPOTENTS
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        docs = [path]
        if doc.get("field", "Q") == "Q" and "f5" not in path.stem:
            docs.append(tmp_path / f"{path.stem}_F7.json")
            docs[-1].write_text(json.dumps(_doc_over(doc, "Fp:7")), encoding="utf-8")
        for p in docs:
            assert main(["verify", str(p), "--idempotent", IDEMPOTENTS[path.stem], "--suite",
                         "all", "--max-degree", "3", "--cutoff", "6"]) in (0, 2)
            capsys.readouterr()


def test_tensor_and_hom_module_certificates_are_sound(tmp_path, capsys, monkeypatch):
    """Every tensor product and Hom module built by criterion 6's transfers
    and by `verify --suite all` on every shipped document and its F_7 copy,
    certified by its arguments' checks or built unchecked, passes the full
    law check (`_validate`: both sides checked afresh as modules, and their
    commuting)."""
    built, _ = _law_spy(monkeypatch)
    certified, real = [], modules._certified

    def certify(x, *by):
        if sys._getframe(1).f_code.co_name in ("tensor_over", "hom_module"):
            certified.append(x)
        return real(x, *by)
    monkeypatch.setattr(modules, "_certified", certify)
    _transfers()
    _verify_all(tmp_path, capsys, DOCS)
    assert {id(x) for x in certified} <= {id(x) for x in built}
    assert any(x.left_algebra.dim > 1 and x.dim for x in certified)
    for bim in built:
        bim._validate()


def test_no_tensor_or_hom_module_result_runs_its_own_law_check(tmp_path, capsys, monkeypatch):
    """Criterion 6's transfers and `verify --suite all` on kronecker.json
    build tensor products and Hom modules and run no law check on any of
    them; a wrapper (`as_bimodule`) is checked as its module, on that
    module's record, so no module check runs inside a wrapper's once the
    module was checked when it was built."""
    built, checks = _law_spy(monkeypatch)
    _transfers()
    _verify_all(tmp_path, capsys, [p for p in DOCS if p.stem == "kronecker"])
    results = {id(x) for x in built}
    assert len(results) > 100
    assert not [x for x, _ in checks if id(x) in results]
    assert not [x for x, inside in checks if inside is not None
                and inside.left_algebra is modules.trivial_algebra(inside.field)]
    # a new algebra instance: its simples are checked, then each wrapper
    a = kronecker_algebra()
    mods = simple_modules(a)
    del checks[:]
    for m in mods:
        assert modules._checked(as_bimodule(m)) is as_bimodule(m)
    assert [x for x, _ in checks] == [as_bimodule(m) for m in mods]
    bad = as_bimodule(RightModule._of(a, 1, (Matrix.identity(a.field, 1),) * len(a.generators())))
    with pytest.raises(ValueError, match="rho\\(1\\)"):
        modules._checked(bad)
    assert checks[-1][1] is bad


@pytest.mark.parametrize("field", [QQ, F5])
def test_a_lawless_argument_fails_tensor_and_hom_module_on_every_call(field):
    """A bimodule whose actions do not commute, or a module whose action is
    no action, makes `tensor_over` and `hom_module` raise its own law error
    on every call, before anything is built out of it; nothing is recorded
    as checked on it."""
    a = dual_numbers(field)        # basis 1, x with x^2 = 0
    ident = Matrix.identity(field, 2)
    n = Matrix(field, [[0, 1], [0, 0]])
    bad = Bimodule._of(a, a, 2, (ident, n.transpose()), (ident, n))
    lawless = RightModule._of(a, 2, (ident, ident))        # rho(x)^2 != 0
    wrapped = Bimodule._of(modules.trivial_algebra(field), a, 2, (Matrix.zeros(field, 2, 2),),
                           (ident, n))                  # lam(1) = 0
    reg = regular_bimodule(a)
    calls = [(lambda: tensor_over(bad, reg), "do not commute"),
             (lambda: tensor_over(reg, bad), "do not commute"),
             (lambda: tensor_over(lawless, reg), "incompatibility"),
             (lambda: tensor_over(wrapped, reg), "rho\\(1\\)"),
             (lambda: hom_module(bad, regular_module(a)), "do not commute"),
             (lambda: hom_module(reg, bad), "do not commute"),
             (lambda: hom_module(reg, lawless), "incompatibility")]
    for call, message in calls:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                call()
    for x in (bad, lawless, as_bimodule(lawless), wrapped):
        memo = modules._rep(x)._memo
        assert "checked" not in memo
        assert not [k for k in memo if isinstance(k, tuple) and k[0] in ("tensor", "hom")]


def test_module_content_hash_is_formatted_once_with_the_same_bytes(monkeypatch):
    # digests of the version that formatted the hash on every call
    want = {(None, "p01"): "b06dc2f79ca8e37e394aba6b5d85006f7124e1fa424bf1eef56333bbb3398ee4",
            (None, "s1"): "308e34b8fbcfa12e6bc245ce4b7d9802840f756ab405aa5e2e1823f68decab0a",
            (5, "p01"): "4f147504267312f92733003ee1e4a41391eb5ecc6fe396c03884a096a906f396",
            (5, "s1"): "1f99b59351ca519101e3ca7618cc78a29ea491ad9cef16b6916536ce44c66c09"}
    formatted = []
    real = Matrix.content_hash
    monkeypatch.setattr(Matrix, "content_hash", lambda self: formatted.append(1) or real(self))
    for p in (None, 5):
        a = kronecker_algebra() if p is None else kronecker_algebra(GF(p))
        for name, m in (("p01", projective_module(a, (0, 1))), ("s1", simple_modules(a)[1])):
            before = len(formatted)
            assert m.content_hash() == want[(p, name)] == m.content_hash()
            assert len(formatted) - before == a.dim


@pytest.mark.parametrize("make", _yoneda_cases())
def test_memo_hits_equal_fresh_computations_on_copies(make):
    """Hom and (x) answered from the memo equal, entry for entry, those
    computed afresh on content-equal copies over a second instance of the
    algebra, which share no memo with the originals."""
    a, b = make(), make()
    mods = simple_modules(a) + [regular_module(a)]
    mods += [p for m in list(mods) for p in projective_resolution(m, 2).modules if p.dim]
    mods = list({id(m): m for m in mods}.values())

    def copy(m):
        out = RightModule._of(b, m.dim, m.gens)
        out.summand_tags = m.summand_tags
        return out

    for m in mods:
        for n in mods:
            first = hom_space(m, n)
            hit = hom_space(m, n)
            assert hit is not first and all(x is y for x, y in zip(hit, first))
            fresh = hom_space(copy(m), copy(n))
            assert len(hit) == len(fresh)
            assert all(_same_entries(x.matrix, y.matrix) for x, y in zip(hit, fresh))
        first = tensor_over(m, regular_bimodule(a))
        hit = tensor_over(m, regular_bimodule(a))
        fresh = tensor_over(copy(m), regular_bimodule(b))
        assert hit is first
        assert _same_entries(hit.projection, fresh.projection)
        assert hit.section_indices == fresh.section_indices
        x, y = hit.bimodule, fresh.bimodule
        assert all(_same_entries(u, v) for u, v in zip(
            x.left_gens + x.right_gens, y.left_gens + y.right_gens))


# -- Hom, (x) and law checks once per content -----------------------------------


@pytest.mark.parametrize("field", [QQ, F5])
def test_content_equal_copies_share_hom_tensor_and_check(field, monkeypatch):
    """Copies with equal actions over one algebra instance, sharing their
    matrices or not, cost one Hom basis and one tensor product between them;
    copies over a second instance of the algebra cost their own.  The public
    constructor checks the laws once per representative, so the copies share
    one check."""
    hom, tens, checks = [], [], []
    real_hom, real_tensor, real_check = modules._hom_basis, modules._tensor, RightModule._validate
    monkeypatch.setattr(modules, "_hom_basis", lambda m, n: hom.append(1) or real_hom(m, n))
    monkeypatch.setattr(modules, "_tensor", lambda m, n: tens.append(1) or real_tensor(m, n))
    monkeypatch.setattr(RightModule, "_validate",
                        lambda self: checks.append(self) or real_check(self))
    for a in (kronecker_algebra(field), kronecker_algebra(field)):
        acts = direct_sum(simple_modules(a)).gens
        reg = regular_bimodule(a)
        before = len(checks)
        mods = [RightModule(a, 2, acts), RightModule(a, 2, acts), RightModule(
            a, 2, [Matrix(field, [list(r) for r in m.rows]) for m in acts])]
        assert checks[before:] == mods[:1]
        assert mods[2].gens[1].rows[0] is not acts[1].rows[0]
        before = len(hom)
        bases = [(x, y, hom_space(x, y)) for x, y in itertools.product(mods, mods)]
        assert len(hom) == before + 1
        want = [mp.matrix for mp in bases[0][2]]
        assert len(want) == 2
        for x, y, maps in bases:
            assert [mp.matrix for mp in maps] == want
            assert all(mp.source is x and mp.target is y for mp in maps)
        before = len(tens)
        prods = [tensor_over(x, reg) for x in mods]
        assert len(tens) == before + 1 and all(tp is prods[0] for tp in prods)


@pytest.mark.parametrize("field", [QQ, F5])
def test_a_module_that_fails_its_check_raises_on_every_construction(field):
    """A failed check stores nothing on the representative, here an unchecked
    copy kept alive, so every checked copy raises again."""
    a = dual_numbers(field)        # basis 1, x with x^2 = 0
    ident = Matrix.identity(field, 2)
    kept = RightModule._of(a, 2, (ident, ident))    # rho(x)^2 != 0
    assert hom_space(kept, kept)
    for _ in range(3):
        with pytest.raises(ValueError, match="incompatibility"):
            RightModule(a, 2, (ident, ident))
    n = Matrix(field, [[0, 1], [0, 0]])
    bad = Bimodule._of(a, a, 2, (ident, n.transpose()), (ident, n))
    tensor_over(bad, regular_bimodule(a), _validate=False)
    for _ in range(3):
        with pytest.raises(ValueError, match="do not commute"):
            Bimodule(a, a, 2, (ident, n.transpose()), (ident, n))


def test_a_request_leaves_nothing_in_the_representative_tables(tmp_path, capsys, monkeypatch):
    """The tables are weak: after a command and a collection, no module or
    bimodule of the request is alive, also none that was kept in a table of
    the process-wide ground-field algebra."""
    from recollab.cli import main
    from test_cli import _doc, _write

    def is_global(alg):
        return any(alg is t or alg is t._opposite for t in modules._TRIVIAL_CACHE.values())

    def algebras(x):
        return ((x.left_algebra, x.right_algebra) if isinstance(x, Bimodule)
                else (x.algebra,))

    seen, in_global_table = [], []
    real = modules._rep

    def spy(x):
        seen.append(weakref.ref(x))
        if is_global(algebras(x)[-1]) and not all(map(is_global, algebras(x))):
            in_global_table.append(1)
        return real(x)
    def foreign_in_global_tables():
        return sum(not all(map(is_global, algebras(x)))
                   for t in list(modules._TRIVIAL_CACHE.values()) for alg in (t, t._opposite)
                   if alg is not None for x in alg._modules.get("reps", {}).values())

    monkeypatch.setattr(modules, "_rep", spy)
    gc.collect()
    before = foreign_in_global_tables()
    path = _write(tmp_path, _doc("a2"))
    assert main(["verify", path, "--idempotent", "e:2", "--max-degree", "3",
                 "--cutoff", "4"]) == 0
    capsys.readouterr()
    assert in_global_table and len(seen) > 100
    gc.collect()
    alive = [x for x in (r() for r in seen) if x is not None]
    assert all(all(map(is_global, algebras(x))) for x in alive)
    assert foreign_in_global_tables() <= before
    # a module keeps its representative, never itself: no reference cycle
    s = simple_modules(kronecker_algebra())[0]
    gc.disable()
    try:
        for algebra in (s.algebra, kronecker_algebra()):
            m = RightModule(algebra, s.dim, s.gens)
            assert (modules._rep(m) is s) == (algebra is s.algebra)
            ref = weakref.ref(m)
            del m
            assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("field", [QQ, F5])
def test_iso_test_identity_witness_has_full_rank(field):
    """Content-equal modules over one instance are isomorphic by the
    identity, found before the tops and the grid (cap 0)."""
    a = kronecker_algebra(field)
    for m in simple_modules(a) + [regular_module(a), zero_module(a)]:
        copy = RightModule(a, m.dim, m.gens)
        res = iso_test(m, copy, cap=0)
        assert res and res.witness == Matrix.identity(field, m.dim)
        assert rank(res.witness) == m.dim
        ModuleMap(m, copy, res.witness)
