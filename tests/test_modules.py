import json
import random
from fractions import Fraction

import numpy as np
import pytest

from recollab import modules
from recollab.algebra import Idempotent, discover_basic, enveloping, opposite, tensor
from recollab.cli import algebra_from_doc
from recollab.complexes import projective_resolution
from recollab.errors import AlgebraMismatch, Inconclusive, NotInHomSpace
from recollab.exactfield import (
    QQ,
    GF,
    Matrix,
    linear_combination,
    rank,
    solve_matrix,
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
from test_homology import _base_change, _doc_over
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
    ae_right = RightModule(discover_basic(cb.corner_algebra), ae_right.dim, ae_right.action)
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
    with pytest.raises(Inconclusive):
        iso_test(proj, proj, cap=0)


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


def _ref_module(alg, d, action):
    """The message of the Python-loop RightModule check, or None: the
    reference the integer check must reproduce."""
    f = alg.field
    if d == 0:
        return None
    if linear_combination(alg.unit, action, f, d, d) != Matrix.identity(f, d):
        return "rho(1) != id"
    for g in alg.generators():
        rho_g = linear_combination(g, action, f, d, d)
        for j, gb in enumerate(alg.left_mult_matrix(g).rows):
            if rho_g.mul(action[j]) != linear_combination(gb, action, f, d, d):
                return f"action incompatibility at generator {g}, basis {j}"
    return None


def _ref_map(src, tgt, mat):
    f = src.field
    for g in src.algebra.generators():
        lhs = linear_combination(g, src.action, f, src.dim, src.dim).mul(mat)
        rhs = mat.mul(linear_combination(g, tgt.action, f, tgt.dim, tgt.dim))
        if lhs != rhs:
            return "matrix does not intertwine the actions"
    return None


def _ref_bimodule(left, right, d, lam, rho):
    if d == 0:
        return None
    msg = _ref_module(right, d, rho) or _ref_module(opposite(left), d, lam)
    if msg:
        return msg
    f = left.field
    rights = [(h, linear_combination(h, rho, f, d, d)) for h in right.generators()]
    for g in left.generators():
        lm = linear_combination(g, lam, f, d, d)
        for h, rm in rights:
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
    """The dtypes of the integer arrays the module checks build."""
    seen = set()

    def spy(*args):
        arr, den = real(*args)
        seen.add(arr.dtype)
        return arr, den
    real = modules.integer_array
    monkeypatch.setattr(modules, "integer_array", spy)
    return seen


@pytest.mark.parametrize("field,kind", CHECK_CASES, ids=["Q", "Qbig", "F5", "F31bit"])
def test_module_and_map_checks_match_reference(field, kind, dtypes):
    rng = random.Random(11)
    cases = 0
    for alg in _check_algebras(field, rng):
        reg = modules.RightModule(alg, alg.dim, alg.basis_right_mats())
        mods = [reg, modules.direct_sum([reg, reg])]
        if alg.basic is not None:
            mods += modules.simple_modules(alg)
        for m in mods:
            p, pinv = _conjugator(field, m.dim, rng, kind)
            acts = [p.mul(a).mul(pinv) for a in m.action]
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
    # the zero action is multiplicative; only the unit law rejects it
    a = kronecker_algebra(field)
    zero = [Matrix.zeros(field, 2, 2)] * a.dim
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
            lam = [p.mul(x).mul(pinv) for x in b.left_action_matrices]
            rho = [p.mul(x).mul(pinv) for x in b.right_action_matrices]
            # each action alone is a module; conjugated apart they rarely commute
            rho_q = [q.mul(x).mul(qinv) for x in b.right_action_matrices]
            trials = [(lam, rho), (lam, rho_q)]
            trials += [(_perturbed(lam, field, rng), rho) for _ in range(3)]
            trials += [(lam, _perturbed(rho, field, rng)) for _ in range(3)]
            for lam2, rho2 in trials:
                want = _ref_bimodule(left, right, d, lam2, rho2)
                got = _message(lambda: modules.Bimodule(left, right, d, lam2, rho2))
                assert got == want
                cases += want is not None
    assert cases > 20


def test_bimodule_restrictions_are_built_once_and_checked_on_first_use():
    a = kronecker_algebra()
    b = modules.regular_bimodule(a)
    assert b is modules.regular_bimodule(a)
    assert enveloping(a) is enveloping(a)
    assert b.restrict_right() is b.restrict_right()
    assert b.left_as_op_module() is b.left_as_op_module()
    broken = list(b.right_action_matrices)
    broken[0] = Matrix.zeros(QQ, a.dim, a.dim)
    unchecked = modules.Bimodule(a, a, a.dim, b.left_action_matrices, broken,
                                 _validate=False)
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


@pytest.mark.parametrize("make", _yoneda_cases())
def test_hom_and_tensor_out_of_projectives_match_sylvester(make, monkeypatch):
    """Every level of the resolutions of the simples, of A and (over A^e) of
    A as a bimodule is a tagged projective_module; Hom and (x) out of it
    must equal, bit for bit and in order, those out of an untagged copy of
    the same module, which go through the Sylvester systems."""
    yoneda = []
    real = modules._yoneda_basis
    monkeypatch.setattr(modules, "_yoneda_basis",
                        lambda *args: yoneda.append(1) or real(*args))
    a = make()
    env = enveloping(a)
    simples, reg = simple_modules(a), regular_module(a)
    a_env = regular_bimodule(a).as_right_module_over(env)
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
            plain = RightModule(p.algebra, p.dim, p.action, _validate=False)
            assert plain == p and plain.summand_tags is None
            for n in targets + [m] + res.modules:
                fast, slow = hom_space(p, n), hom_space(plain, n)
                assert [x.matrix for x in fast] == [x.matrix for x in slow]
            fast, slow = tensor_over(as_bimodule(p), left), tensor_over(as_bimodule(plain), left)
            assert fast.projection == slow.projection
            assert fast.section_indices == slow.section_indices
            assert fast.bimodule.left_action_matrices == slow.bimodule.left_action_matrices
            assert fast.bimodule.right_action_matrices == slow.bimodule.right_action_matrices
            compared += 1
    assert compared >= 4 and len(yoneda) >= compared


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
    product, and built it for every algebra before."""
    regular = RightModule(a, a.dim, a.basis_right_mats(), _validate=False)
    mod, incl = modules.submodule_from_rows(
        regular, a.left_mult_matrix(a.basic.idempotent_coords[v]))
    mod._validate()
    return mod, incl.matrix


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
    types, the one cut out of the regular module; none of them is cut, and
    each is checked once."""
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
        for v, (mod, basis) in zip(vertices, built):
            assert vertex_projective(t, v)[0] is mod
            assert sum(m is mod for m in checked) == 1
            ref_mod, ref_basis = _cut_vertex_projective(t, v)
            assert _same_entries(basis, ref_basis)
            assert mod == ref_mod
            assert all(_same_entries(x, y) for x, y in zip(mod.action, ref_mod.action))


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
    # a copy of a module has its own top, computed once
    assert iso_test(q, RightModule(a, q.dim, q.action)) and len(calls) == 4
