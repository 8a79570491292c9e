import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from recollab.algebra import Algebra, Idempotent
from recollab.cli import main
from recollab.complexes import BoundedComplex, dualize_perfect, projective_resolution
from recollab.errors import CertificationFailed
from recollab.exactfield import Matrix
from recollab.fixtures import (
    a2_path_algebra,
    augmentation_bimodule,
    dual_numbers,
    field_bimodule,
    ground_field,
    kronecker_algebra,
    one_point_extension_of_dual_numbers,
    vertex_idempotent,
)
from recollab.modules import ModuleMap, canonical_bimodules, regular_module, simple_modules
from recollab.recollement import from_idempotent, from_triangular
from recollab.verify import (
    _canonical_env_ses,
    cohomology_les,
    duality_roundtrip,
    gldim_equivalence,
    keller_homology,
    smoothness_equivalence,
)
from test_golden_reports import DOCS, IDEMPOTENTS
from test_homology import _linear_doc


def _r_a2():
    a = a2_path_algebra()
    return from_idempotent(a, vertex_idempotent(a, "2"), 4)


def _r_kron():
    k = kronecker_algebra()
    return from_idempotent(k, vertex_idempotent(k, "2"), 4)


def _r_t2():
    d = dual_numbers()
    k = ground_field()
    return from_triangular(d, k, augmentation_bimodule(k, d), 4)


def test_keller_a2_additivity():
    rep = keller_homology(_r_a2(), 4)
    assert rep.exact
    assert rep.ok
    # HH_0(A) = 2 = 1 + 1, zero in higher degrees
    assert rep.additivity[0] == {"degree": 0, "hh_mid": 2, "hh_sum": 2, "match": True}
    for row in rep.additivity[1:]:
        assert row["hh_mid"] == 0 and row["match"]


def test_keller_kronecker():
    rep = keller_homology(_r_kron(), 4)
    assert rep.ok


def test_keller_t2_nontrivial_high_degrees():
    rep = keller_homology(_r_t2(), 5)
    assert rep.ok
    # HH_n(T2) = HH_n(Dual) + HH_n(k): (3, 1, 1, 1, 1, 1)
    dims = {row["degree"]: row["hh_mid"] for row in rep.additivity}
    assert dims == {0: 3, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_keller_degenerate_unit():
    a = a2_path_algebra()
    r = from_idempotent(a, Idempotent(a, a.unit), 3)
    rep = keller_homology(r, 3)
    assert rep.ok
    # HH_n(A) = HH_n(eAe) degreewise (the quotient side is zero)
    for row in rep.side2_identification:
        assert row["match"]


def test_cohomology_les_a2():
    rep = cohomology_les(_r_a2(), 4)
    assert rep.seq_covariant.exact
    assert rep.seq_contravariant.exact
    assert rep.seq_mixed.exact
    assert rep.ok
    assert all(row["zero"] for row in rep.orthogonality)


def test_cohomology_les_kronecker():
    rep = cohomology_les(_r_kron(), 4)
    assert rep.ok
    # HH^1(Kronecker) = 3 shows up in the middle column
    mid_dims = {t.degree: t.dim for t in rep.seq_covariant.terms
                if t.label == "HH(A)"}
    assert mid_dims[1] == 3


def test_cohomology_les_t2():
    rep = cohomology_les(_r_t2(), 4)
    assert rep.ok
    # dual-numbers corner: nonvanishing high-degree cohomology on the A1 side
    quot_dims = {t.degree: t.dim for t in rep.seq_covariant.terms
                 if t.label == "HH(A/AeA)"}
    assert quot_dims[3] == 1 and quot_dims[4] == 1


def test_cohomology_les_maps_are_matrices():
    rep = cohomology_les(_r_a2(), 3)
    for n, m in rep.phi.items():
        assert hasattr(m, "nrows")
    for n, m in rep.phibar.items():
        assert hasattr(m, "ncols")


def test_smoothness_triangular_k_k_k_all_finite():
    r = from_triangular(ground_field(), ground_field(),
                        field_bimodule(ground_field(), ground_field(), 1), 4)
    rep = smoothness_equivalence(r, cutoff=8)
    assert rep.verdict == "Consistent"
    assert rep.mid.startswith("Finite")
    assert rep.side1 == "Finite(0)" and rep.side2 == "Finite(0)"


def test_smoothness_kronecker_all_finite():
    r = from_triangular(ground_field(), ground_field(),
                        field_bimodule(ground_field(), ground_field(), 2), 4)
    rep = smoothness_equivalence(r, cutoff=8)
    assert rep.verdict == "Consistent"


def test_smoothness_dual_block_at_least_on_matching_sides():
    rep = smoothness_equivalence(_r_t2(), cutoff=8)
    assert rep.verdict == "Consistent"
    assert rep.mid.startswith("AtLeast")
    assert rep.side1.startswith("AtLeast")    # the dual-numbers side
    assert rep.side2 == "Finite(0)"
    assert "periodic" in rep.mid and "periodic" in rep.side1


def test_gldim_equivalence_cases():
    rep = gldim_equivalence(_r_a2(), cutoff=8)
    assert rep.verdict == "Consistent"
    rep2 = gldim_equivalence(_r_t2(), cutoff=8)
    assert rep2.verdict == "Consistent"
    assert rep2.mid.startswith("AtLeast")


def test_gldim_degenerate_unit():
    a = a2_path_algebra()
    r = from_idempotent(a, Idempotent(a, a.unit), 3)
    rep = gldim_equivalence(r, cutoff=6)
    assert rep.verdict == "Consistent"
    assert rep.mid == rep.side2  # gl.dim A = gl.dim eAe in the degenerate case


def test_equivalence_verdict_table():
    from recollab.homology import PdVerdict
    from recollab.verify import _equivalence_verdict
    fin = PdVerdict("finite", 1)
    unk = PdVerdict("at_least", 9)
    inf = PdVerdict("at_least", 9, periodic=(1, 2))
    assert _equivalence_verdict(fin, fin, fin)[0] == "Consistent"
    assert _equivalence_verdict(inf, inf, fin)[0] == "Consistent"
    assert _equivalence_verdict(unk, unk, fin)[0] == "Consistent"
    # a definite mismatch is FALSIFIED in both directions
    assert _equivalence_verdict(fin, inf, fin)[0] == "FALSIFIED"
    assert _equivalence_verdict(inf, fin, fin)[0] == "FALSIFIED"
    # inconclusive is never upgraded to a definite verdict
    assert _equivalence_verdict(unk, fin, fin)[0] == "ConsistentVacuous"
    assert _equivalence_verdict(fin, unk, fin)[0] == "ConsistentVacuous"


def test_duality_roundtrip_regular():
    a = a2_path_algebra()
    rep = duality_roundtrip(BoundedComplex.concentrated(regular_module(a)))
    assert rep.ok


def test_duality_roundtrip_two_term():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    res = projective_resolution(cb.quotient.restrict_right(), 3)
    rep = duality_roundtrip(res.to_complex())
    assert rep.ok


@pytest.mark.parametrize("alg, dual_h1", [(a2_path_algebra, 1), (kronecker_algebra, 5)])
def test_duality_roundtrip_through_a_differential(alg, dual_h1):
    # the simple at vertex 2 has a two-term resolution P_1 -> P_0, so the
    # dual has one differential, Hom(d, A); its H^1 is Ext^1(S_2, A)
    res = projective_resolution(simple_modules(alg())[1], 2)
    assert res.projective_dimension() == 1
    x = res.to_complex()
    dx = dualize_perfect(x)
    assert sorted(dx.diffs) == [0] and dx.cohomology_module(1).dim == dual_h1
    assert duality_roundtrip(x).ok


def test_duality_roundtrip_shifted():
    a = a2_path_algebra()
    x = BoundedComplex.concentrated(regular_module(a)).shift(2)
    rep = duality_roundtrip(x)
    assert rep.ok


@pytest.mark.parametrize("call, message", [
    (0, "transport Ext^0(Z,Z) -> Ext^0(Y,Z) is not invertible"),
    (4, "transport Ext^0(X,X) -> Ext^0(X,Y) is not invertible"),
])
def test_cohomology_les_singular_transport_is_falsified(monkeypatch, call, message):
    # at n_max = 3 sequence (1) inverts T_0..T_3 first, then sequence (2)
    # its own; the call-th one is made singular (its H^0 is one-dimensional)
    import recollab.verify as verify_mod
    real, calls = verify_mod._invert, []

    def invert(mat):
        calls.append(mat)
        if len(calls) == call + 1:
            assert mat.nrows == mat.ncols == 1
            mat = Matrix.zeros(mat.field, 1, 1)
        return real(mat)

    monkeypatch.setattr(verify_mod, "_invert", invert)
    with pytest.raises(CertificationFailed) as exc:
        cohomology_les(_r_a2(), 3)
    assert str(exc.value) == message
    assert len(calls) == call + 1


def test_verify_builds_no_integer_tables_of_an_enveloping_algebra(tmp_path, capsys, monkeypatch):
    """`verify --suite all` checks the canonical sequence's maps over A and
    A^op only: on every shipped document and on linear A_5, no enveloping
    algebra builds the integer tables a check over it reads."""
    built, real = [], Algebra._int_tables
    monkeypatch.setattr(Algebra, "_int_tables", lambda self: built.append(self) or real(self))
    a5 = tmp_path / "a5.json"
    a5.write_text(json.dumps(_linear_doc(5)), encoding="utf-8")
    runs = [(DOCS / f"{name}.json", idem) for name, idem in IDEMPOTENTS.items()] + [(a5, "e:3")]
    for path, idem in runs:
        assert main(["verify", str(path), "--idempotent", idem, "--suite", "all",
                     "--max-degree", "3", "--cutoff", "6"]) in (0, 2)
        capsys.readouterr()
    # the spy sees the checks over A and A^op
    assert built and not [x for x in built if x._factors and x._factors[1]._enveloping is x]


def _other_vertex(a, v):
    return vertex_idempotent(a, "2" if v == "1" else "1").coords


@pytest.mark.parametrize("v, side", [("1", "left"), ("2", "right")])
def test_canonical_env_ses_refuses_an_inclusion_linear_over_one_side_only(v, side):
    """The inclusion of Ae_vA followed by x -> e_w x (w the other vertex)
    intertwines the right A-actions, followed by x -> x e_w the left ones;
    neither is a bimodule map here, and the check over the other side
    refuses it."""
    a = a2_path_algebra()
    r = from_idempotent(a, vertex_idempotent(a, v), 3)
    cb, w = r.canon, _other_vertex(a, v)
    bad = cb.inclusion.mul(a.left_mult_matrix(w) if side == "left" else a.right_mult_matrix(w))
    one_side = (lambda b: b.restrict_right()) if side == "left" else \
        (lambda b: b.left_as_op_module())
    ModuleMap(one_side(cb.aea), one_side(cb.regular), bad)
    with pytest.raises(ValueError, match="does not intertwine"):
        _canonical_env_ses(SimpleNamespace(a=a, canon=replace(cb, inclusion=bad)))


@pytest.mark.parametrize("v", ["1", "2"])
def test_canonical_env_ses_refuses_a_corrupted_projection(v):
    """A projection sending e_v, which lies in Ae_vA, to a nonzero class is
    no map of bimodules, and is refused."""
    a = a2_path_algebra()
    e = vertex_idempotent(a, v)
    r = from_idempotent(a, e, 3)
    cb, i = r.canon, e.coords.index(1)
    bad = Matrix(a.field, [(1,) * cb.projection.ncols if t == i else row
                           for t, row in enumerate(cb.projection.rows)])
    with pytest.raises(ValueError, match="does not intertwine"):
        _canonical_env_ses(SimpleNamespace(a=a, canon=replace(cb, projection=bad)))
