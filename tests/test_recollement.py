import json
from pathlib import Path

import pytest

from recollab.algebra import Algebra, Idempotent, opposite
from recollab.cli import algebra_from_doc, parse_idempotent
from recollab.errors import NotPerfect, NotStratifying, TransferFailed
from recollab.exactfield import GF, QQ
from recollab.fixtures import (
    a2_path_algebra,
    dual_numbers,
    ground_field,
    kronecker_algebra,
    non_stratifying_algebra,
    one_point_extension_of_dual_numbers,
    product_of_fields,
    triangular_a2,
    vertex_idempotent,
)
from recollab.homology import hochschild_homology
from recollab.modules import (
    Bimodule,
    RightModule,
    _rep,
    regular_bimodule,
    regular_module,
    simple_modules,
)
from recollab.recollement import (
    check_stratifying,
    eval_functor,
    from_idempotent,
    from_triangular,
    opposite_transfer,
    tensor_transfer,
)
from test_homology import _linear_doc


def test_unit_idempotent_trivially_stratifying():
    a = a2_path_algebra()
    rep, _ = check_stratifying(a, Idempotent(a, a.unit), 4)
    assert rep.stratifying
    assert rep.mult_iso
    assert all(rep.tor_vanishing.values())


def test_triangular_fixture_stratifying_with_projective_ideal():
    alg, e1, e2 = triangular_a2()
    rep, cb = check_stratifying(alg, e2, 4)
    assert rep.stratifying
    from recollab.modules import is_projective
    assert is_projective(cb.aea.restrict_right())
    assert rep.perfect_ideal.status == "verified"


def test_non_stratifying_fixture_rejected_with_tor_degree():
    a = non_stratifying_algebra()
    # the designed instance: the surviving loop sits at vertex 2
    e = vertex_idempotent(a, "2")
    rep, _ = check_stratifying(a, e, 4)
    assert not rep.stratifying
    assert 1 in rep.failing_tor_degrees
    with pytest.raises(NotStratifying) as exc:
        from_idempotent(a, e, 4)
    assert exc.value.report is rep or exc.value.report.failing_tor_degrees


def test_dual_numbers_unit_only_idempotent():
    d = dual_numbers()
    rep, _ = check_stratifying(d, Idempotent(d, d.unit), 3)
    assert rep.stratifying  # trivially: quotient is zero


def test_from_idempotent_a2_perfect():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    assert r.perfect.status == "verified"
    assert r.a1.dim == 1 and r.a2.dim == 1
    assert r.certificate.ok


def test_from_idempotent_kronecker_perfect():
    k = kronecker_algebra()
    r = from_idempotent(k, vertex_idempotent(k, "2"), 4)
    assert r.perfect.status == "verified"
    assert r.a1.dim == 1 and r.a2.dim == 1


def test_from_triangular_fixtures_verified():
    r1 = from_triangular(ground_field(), ground_field(), _kbim(1), 4)
    assert r1.flavor == "triangular"
    assert r1.perfect.status == "verified"
    r2 = from_triangular(ground_field(), ground_field(), _kbim(2), 4)
    assert r2.a.dim == 4
    assert r2.perfect.status == "verified"
    d = dual_numbers()
    from recollab.fixtures import augmentation_bimodule
    r3 = from_triangular(d, ground_field(), augmentation_bimodule(ground_field(), d), 4)
    assert r3.perfect.status == "verified"
    assert r3.a.dim == 4
    assert r3.a1.dim == d.dim


def _kbim(n):
    from recollab.fixtures import field_bimodule, ground_field
    return field_bimodule(ground_field(), ground_field(), n)


def test_certification_reads_hom_and_tensor_out_of_a_a_by_yoneda(monkeypatch):
    """A_A heads every certification battery, and its basis splits by
    vertices on the registry entries (k-k-k, k-k-k2, D-k-k) and their
    transfers: every Hom and (x) out of `regular_module(a)` is built on its
    representative and read by Yoneda, so `sylvester_rows` builds no system
    whose left factor is that representative, while other systems still go
    through Sylvester."""
    from recollab import modules
    from recollab.fixtures import augmentation_bimodule
    left, sylvester, regular = [], [], []

    def is_regular(m):
        reg = m.right_algebra._modules.get("regular_module")
        return reg is not None and "rep" in reg._memo and modules._rep(reg) is m

    def spy(real):
        def builder(m, n):
            left.append(m)
            regular.append(is_regular(m))
            try:
                return real(m, n)
            finally:
                left.pop()
        return builder
    monkeypatch.setattr(modules, "_hom_basis", spy(modules._hom_basis))
    monkeypatch.setattr(modules, "_tensor", spy(modules._tensor))
    monkeypatch.setattr(modules, "sylvester_rows", lambda pairs, real=modules.sylvester_rows:
                        sylvester.append(left[-1]) or real(pairs))
    k, d = ground_field(), dual_numbers()
    built = [from_triangular(k, k, _kbim(1), 6), from_triangular(k, k, _kbim(2), 6),
             from_triangular(d, k, augmentation_bimodule(k, d), 6)]
    built.append(tensor_transfer(a2_path_algebra(), built[0], 4))
    for r in built:
        for alg in (r.a, r.a1, r.a2):
            assert modules._summands(modules._rep(regular_module(alg))) is not None
    assert sum(regular) >= 4 * len(built) and sylvester
    assert not any(is_regular(m) for m in sylvester)


def test_degenerate_unit_recollement():
    a = a2_path_algebra()
    r = from_idempotent(a, Idempotent(a, a.unit), 3)
    assert r.a1.dim == 0
    assert r.a2.dim == a.dim
    assert r.is_degenerate_quotient


# -- eval_functor -------------------------------------------------------------


def test_r3_instance_all_degrees():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    for n1 in simple_modules(r.a1) + [regular_module(r.a1)]:
        from recollab.recollement import i_lower_module
        restricted = i_lower_module(r, n1)
        g = eval_functor(r, "j^!", restricted, 4)
        assert all(d == 0 for _, d in g.entries)


def test_i_star_of_regular_concentrated():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    g = eval_functor(r, "i^*", regular_module(a), 4)
    assert g.dim(0) == r.a1.dim
    for n in range(1, 5):
        assert g.dim(-n) == 0


def test_unit_counit_dim_check():
    # dim H^0(j^! j_! N) = dim N for N = A2 (full embedding shadow)
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    n2 = regular_module(r.a2)
    # j_! N at the module level: N (x)_{eAe} eA
    from recollab.modules import tensor_over
    jl = tensor_over(n2, r.y2).bimodule.restrict_right()
    g = eval_functor(r, "j^!", jl, 4)
    assert g.dim(0) == n2.dim
    for n in range(1, 5):
        assert g.dim(-n) == 0


def test_eval_functor_wrong_algebra():
    from recollab.errors import AlgebraMismatch
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 3)
    with pytest.raises(AlgebraMismatch):
        eval_functor(r, "j_!", regular_module(a), 3)  # j_! wants an A2-module


# -- transfers -----------------------------------------------------------------


def test_tensor_transfer_identity():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    k = ground_field()
    out = tensor_transfer(k, r, 4)
    assert out.a.dim == a.dim
    assert out.perfect.status == "verified"


def test_tensor_transfer_dual_numbers():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    d = dual_numbers()
    out = tensor_transfer(d, r, 4)
    assert out.a.dim == 6
    assert out.a1.dim == 2 and out.a2.dim == 2
    assert out.stratifying_report.stratifying


def test_tensor_transfer_a2_on_kronecker():
    k = kronecker_algebra()
    r = from_idempotent(k, vertex_idempotent(k, "2"), 4)
    b = a2_path_algebra()
    out = tensor_transfer(b, r, 4)
    assert out.a.dim == 12
    assert out.perfect.status == "verified"


def test_opposite_transfer_triangular_swaps_sides():
    d = dual_numbers()
    from recollab.fixtures import augmentation_bimodule
    r = from_triangular(d, ground_field(), augmentation_bimodule(ground_field(), d), 4)
    out = opposite_transfer(r, 4)
    assert out.a1.dim == r.a2.dim
    assert out.a2.dim == r.a1.dim
    assert out.perfect.status == "verified"


def test_opposite_transfer_a2():
    r = from_triangular(ground_field(), ground_field(), _kbim(1), 4)
    out = opposite_transfer(r, 4)
    assert out.a.dim == 3
    assert out.perfect.status == "verified"


def test_opposite_transfer_kronecker():
    r = from_triangular(ground_field(), ground_field(), _kbim(2), 4)
    out = opposite_transfer(r, 4)
    assert out.a.dim == 4
    assert out.perfect.status == "verified"


def test_opposite_transfer_commutative_product():
    # k x k with e = e_1: A^op = A and the sides swap
    a = product_of_fields()
    e1 = vertex_idempotent(a, "1")
    r = from_idempotent(a, e1, 3)
    assert r.perfect.status == "verified"
    out = opposite_transfer(r, 3)
    assert out.a1.dim == r.a2.dim and out.a2.dim == r.a1.dim


@pytest.mark.parametrize("make,dim", [(a2_path_algebra, 3), (dual_numbers, 2),
                                      (kronecker_algebra, 4)])
def test_opposite_transfer_of_the_unit_idempotent(make, dim):
    # e = 1 has the sides (0, A); the swap is A^op cut at its zero idempotent,
    # with the sides (A^op, 0), and every functor and verifier runs on it
    from recollab.verify import cohomology_les, keller_homology
    a = make()
    o = opposite_transfer(from_idempotent(a, Idempotent(a, a.unit), 3), 3)
    assert (o.a1.dim, o.a.dim, o.a2.dim) == (dim, dim, 0)
    assert not any(o.e.coords)
    assert o.stratifying_report.as_dict() == {
        "mult_tensor_dim": 0, "ideal_dim": 0, "mult_rank": 0, "mult_iso": True,
        "tor_dims": {str(n): 0 for n in range(1, 4)},
        "tor_vanishing": {str(n): True for n in range(1, 4)},
        "stratifying": True, "perfect_ideal": {"status": "verified", "pd": "Finite(0)"},
        "checked_to_degree": 3, "failing_tor_degrees": []}
    tensor_side = {n: 0 for n in range(-3, 1)}
    hom_side = {n: 0 for n in range(4)}
    want = {"i^*": (o.a, {**tensor_side, 0: dim}), "i_*": (o.a1, {**tensor_side, 0: dim}),
            "i^!": (o.a, {**hom_side, 0: dim}), "j_!": (o.a2, tensor_side),
            "j^!": (o.a, tensor_side), "j_*": (o.a2, hom_side)}
    for name, (alg, dims) in want.items():
        assert eval_functor(o, name, regular_module(alg), 3).as_dict() == dims, name
    assert cohomology_les(o, 3).ok
    keller = keller_homology(o, 3)
    assert keller.ok and keller.les.terms
    assert [row["tor_dim"] for row in keller.side2_identification] == [0] * 4
    with pytest.raises(TransferFailed):
        tensor_transfer(ground_field(), o, 3)


def test_opposite_transfer_requires_perfect():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 3)
    r.perfect.status = "inconclusive"
    with pytest.raises(NotPerfect):
        opposite_transfer(r, 3)


def test_two_realizations_of_i_shriek_agree():
    # Hom_{A1}(Y, A1) with Y = A/AeA as an A-A1-bimodule is again A/AeA with
    # the sides swapped (Y is free of rank one over A1), so both realizations
    # of the right-adjoint Hom functor resolve the same right A-module.
    from recollab.algebra import opposite, tensor
    from recollab.modules import hom_module, iso_test, regular_bimodule
    for r in (_r_fix(a2_path_algebra, "2"), _r_fix(kronecker_algebra, "2")):
        dual = hom_module(r.y, regular_bimodule(r.a1))
        assert dual.dim == r.y_left.dim
        env = tensor(opposite(r.a1), r.a)
        assert iso_test(dual.as_right_module_over(env),
                        r.y_left.as_right_module_over(env))


def _r_fix(builder, label):
    alg = builder()
    return from_idempotent(alg, vertex_idempotent(alg, label), 4)


def test_euler_characteristic_battery_present():
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, "2"), 4)
    assert any(c.get("euler_zero") for c in r.certificate.r4_euler_checks)
    assert all(c["all_zero"] for c in r.certificate.r3_checks)
    assert all(c["equal"] for c in r.certificate.adjunction_checks)


@pytest.mark.parametrize("builder, field", [
    (a2_path_algebra, QQ), (kronecker_algebra, QQ), (kronecker_algebra, GF(5))])
def test_certified_at_max_degree_0(builder, field):
    # R4 calls a module bounded only when Tor_0..Tor_{n_max} cover its whole
    # resolution, so the Euler sum and the flat-SES test see every Tor group
    alg = builder(field)
    r = from_idempotent(alg, vertex_idempotent(alg, "2"), 0)
    assert r.certificate.ok
    for entry in r.certificate.r4_euler_checks:
        assert entry.get("euler_zero", True), entry
    assert all(c["exact"] for c in r.certificate.flat_ses_checks)


# each shipped document at the idempotent the benchmark cuts it at
DOC_IDEMPOTENTS = {"a2": "e:2", "dual_numbers": "e:1", "dual_numbers_f5": "e:1",
                   "kronecker": "e:2", "kronecker_f5": "e:2", "non_stratifying": "e:2",
                   "t2_one_point_extension": "e:R:1"}
DOCS = Path(__file__).resolve().parents[1] / "demos" / "docs"


def _spy(monkeypatch, cls):
    """The objects whose `_validate` runs from now on."""
    seen, real = [], cls._validate
    monkeypatch.setattr(cls, "_validate", lambda self: seen.append(self) or real(self))
    return seen


@pytest.mark.parametrize("doc,spec", [
    *(pytest.param(json.loads((DOCS / f"{name}.json").read_text(encoding="utf-8")), spec,
                   id=name) for name, spec in DOC_IDEMPOTENTS.items()),
    pytest.param(_linear_doc(5), "e:1", id="linear_a5")])
def test_recollement_runs_no_second_law_check(doc, spec, monkeypatch):
    """`from_idempotent` (`check_stratifying` where e is not stratifying) runs
    no bimodule check on the regular, canonical or quotient-sided bimodules
    and no algebra check on the corner or the quotient algebra: A's check
    certifies them all.  Afterwards each one's own full check passes."""
    a = algebra_from_doc(doc)
    e = parse_idempotent(a, spec)
    bims, algs = _spy(monkeypatch, Bimodule), _spy(monkeypatch, Algebra)
    try:
        r = from_idempotent(a, e, 3)
        cb, sided = r.canon, [r.y, r.y_left]
    except NotStratifying:
        cb, sided = check_stratifying(a, e, 3)[1], []
    assert cb.regular is regular_bimodule(a)
    certified = [cb.regular, cb.ae, cb.ea, cb.aea, cb.quotient] + sided
    assert not any(b is x or b is _rep(x) for b in bims for x in certified)
    assert not any(x is cb.corner_algebra or x is cb.quotient_algebra for x in algs)
    monkeypatch.undo()
    for x in certified + [cb.corner_algebra, cb.quotient_algebra]:
        x._validate()


@pytest.mark.scale
def test_check_stratifying_linear_a12_runs_no_check_on_the_regular_bimodule(monkeypatch):
    """One `check_stratifying` of linear A_12 (dim 78) at e:1 checks neither
    the regular bimodule nor its one-sided modules: A's check certifies
    them.  Defining A_12 still spends seconds in the dense associativity
    check."""
    a = algebra_from_doc(_linear_doc(12))
    bims, mods = _spy(monkeypatch, Bimodule), _spy(monkeypatch, RightModule)
    report, cb = check_stratifying(a, parse_idempotent(a, "e:1"), 2)
    assert report.stratifying
    reg = regular_bimodule(a)
    assert cb.regular is reg and not any(b is reg or b is _rep(reg) for b in bims)
    sides = (reg.restrict_right(), reg.left_as_op_module(), regular_module(a))
    assert not any(m is x or m is _rep(x) for m in mods for x in sides)
