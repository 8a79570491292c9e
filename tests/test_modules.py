from fractions import Fraction

import pytest

from recollab.algebra import Idempotent, enveloping
from recollab.errors import AlgebraMismatch, NotInHomSpace
from recollab.exactfield import QQ, GF, Matrix, rank
from recollab.fixtures import (
    a2_path_algebra,
    dual_numbers,
    ground_field,
    kronecker_algebra,
    one_point_extension_of_dual_numbers,
    vertex_idempotent,
)
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
    regular_bimodule,
    regular_module,
    simple_modules,
    tensor_over,
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
