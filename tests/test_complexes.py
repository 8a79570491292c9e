import json
from dataclasses import replace

import pytest

from recollab import complexes
from recollab.algebra import Algebra, discover_basic, enveloping
from recollab.complexes import (
    BoundedComplex,
    ShortExactSequence,
    VectorSpaceComplex,
    dualize_perfect,
    hom_complex,
    horseshoe,
    is_exceptional,
    lift_map,
    projective_resolution,
    resolution_store,
)
from recollab.errors import DepthMismatch, Inconclusive, InputNotExact, NotDegreewiseProjective
from recollab.exactfield import QQ, Matrix, rank
from recollab.fixtures import (
    a2_path_algebra,
    dual_numbers,
    ground_field,
    kronecker_algebra,
    non_stratifying_algebra,
    vertex_idempotent,
)
from recollab.cli import algebra_from_doc
from recollab.modules import (
    ModuleMap,
    canonical_bimodules,
    direct_sum,
    iso_test,
    regular_bimodule,
    regular_module,
    simple_modules,
    zero_module,
)
from test_homology import DOCS, _dense, _doc_over


def test_resolution_of_projective_stabilizes_at_zero():
    a = a2_path_algebra()
    res = projective_resolution(regular_module(a), 5)
    assert res.stabilized
    assert res.projective_dimension() == 0


def test_resolution_of_simple_over_dual_numbers_never_stabilizes():
    d = dual_numbers()
    s = simple_modules(d)[0]
    res = projective_resolution(s, 6)
    assert not res.stabilized
    assert res.syzygy_dims == [1] * 7
    assert res.periodicity is not None


def test_inconclusive_periodicity_search_leaves_no_witness(monkeypatch):
    def inconclusive(m, n):
        raise Inconclusive("grid cap reached")
    monkeypatch.setattr(complexes, "iso_test", inconclusive)
    with resolution_store():
        res = projective_resolution(simple_modules(dual_numbers())[0], 6)
    assert not res.stabilized and res.syzygy_dims == [1] * 7
    assert res.periodicity is None


def test_resolution_simple_at_source_of_a2_depth_1():
    a = a2_path_algebra()
    # the simple at the sink vertex has projective cover e_2 A of dim 2
    s2 = simple_modules(a)[1]
    res = projective_resolution(s2, 5)
    assert res.stabilized
    assert res.projective_dimension() == 1


def test_resolution_exactness_assertions_run():
    d = dual_numbers()
    res = projective_resolution(regular_module(d), 4)
    assert res.stabilized and res.depth == 0


def test_a_stabilised_resolution_with_a_non_injective_top_is_refused(monkeypatch):
    # the simple S over k[x]/(x^2) has the resolution ... -> D -> D -> S, each
    # d_n of rank 1 on P_n = D of dim 2: marked stabilised, d_3 must be injective
    from recollab.modules import kernel_cokernel, projective_cover
    s = simple_modules(dual_numbers())[0]
    res = projective_resolution(s, 3)
    complexes._assert_resolution_exact(res)
    with pytest.raises(ValueError, match="resolution not exact at level 3"):
        complexes._assert_resolution_exact(replace(res, stabilized=True))
    # the horseshoe of 0 -> S -> D -> S -> 0 is stabilised when both sides
    # are; marked so, its middle P_3 = D (+) D maps onto a syzygy of dim 2
    pc = projective_cover(s)
    kc = kernel_cokernel(pc.surjection)
    ses = ShortExactSequence(kc.kernel, pc.module, s, kc.inclusion, pc.surjection)
    assert not horseshoe(ses, 3).res_mid.stabilized
    real = complexes.projective_resolution
    monkeypatch.setattr(complexes, "projective_resolution",
                        lambda m, n: replace(real(m, n), stabilized=True))
    with pytest.raises(ValueError, match="resolution not exact at level 3"):
        horseshoe(ses, 3)


def test_hereditary_resolutions_stabilize_at_depth_le_1():
    for alg in (a2_path_algebra(), kronecker_algebra()):
        for s in simple_modules(alg):
            res = projective_resolution(s, 4)
            assert res.stabilized
            assert res.projective_dimension() <= 1


# -- hom_complex ---------------------------------------------------------------


def test_hom_complex_regular_concentrated():
    a = a2_path_algebra()
    reg = regular_module(a)
    x = BoundedComplex.concentrated(reg)
    hc = hom_complex(x, x)
    assert hc.cohomology_dim(0) == a.dim
    for n in hc.complex.degrees():
        if n != 0:
            assert hc.cohomology_dim(n) == 0


def test_hom_complex_ext_of_simple_over_dual_numbers():
    d = dual_numbers()
    s = simple_modules(d)[0]
    res = projective_resolution(s, 4)
    x = res.to_complex()
    hc = hom_complex(x, BoundedComplex.concentrated(s))
    # Ext^n(k, k) over k[x]/x^2 has dimension 1 in each degree (periodic resolution)
    for n in range(0, 4):
        assert hc.cohomology_dim(n) == 1


def test_hom_complex_projective_source_vanishing():
    a = kronecker_algebra()
    reg = regular_module(a)
    x = BoundedComplex.concentrated(reg)
    for m in simple_modules(a):
        hc = hom_complex(x, BoundedComplex.concentrated(m))
        for n in hc.complex.degrees():
            if n != 0:
                assert hc.cohomology_dim(n) == 0


def test_is_exceptional_cases():
    a = a2_path_algebra()
    reg = regular_module(a)
    x = BoundedComplex.concentrated(reg)
    assert is_exceptional(x)
    # X + X[1] is never exceptional for nonzero projective X
    y = BoundedComplex(a, {0: reg, -1: reg}, {})
    assert not is_exceptional(y)


def test_exceptional_two_term_complex_resolving_quotient():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    res = projective_resolution(cb.quotient.restrict_right(), 3)
    x = res.to_complex()
    assert is_exceptional(x)


# -- lift_map ------------------------------------------------------------------


def test_lift_identity_induces_identity_on_h0():
    d = dual_numbers()
    s = simple_modules(d)[0]
    r1 = projective_resolution(s, 3)
    r2 = projective_resolution(s, 3)
    ident = ModuleMap(s, s, Matrix.identity(d.field, 1))
    ch = lift_map(ident, r1, r2)
    # level-0 lift composed with augmentation equals augmentation
    assert ch.levels[0].matrix.mul(r2.augmentation.matrix) == r1.augmentation.matrix


def test_lift_zero_map():
    d = dual_numbers()
    s = simple_modules(d)[0]
    r1 = projective_resolution(s, 3)
    zero = ModuleMap(s, s, Matrix.zeros(d.field, 1, 1))
    ch = lift_map(zero, r1, r1)
    assert ch.levels[0].matrix.mul(r1.augmentation.matrix).is_zero()


def test_lift_depth_mismatch():
    d = dual_numbers()
    s = simple_modules(d)[0]
    r1 = projective_resolution(s, 3)
    r2 = projective_resolution(s, 2)
    ident = ModuleMap(s, s, Matrix.identity(d.field, 1))
    with pytest.raises(DepthMismatch):
        lift_map(ident, r1, r2)


def test_lift_squares_commute():
    a = a2_path_algebra()
    env = enveloping(a)
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    aea = cb.aea.as_right_module_over(env)
    reg = cb.regular.as_right_module_over(env)
    r_aea = projective_resolution(aea, 3)
    r_reg = projective_resolution(reg, 3)
    incl = ModuleMap(aea, reg, cb.inclusion)
    ch = lift_map(incl, r_aea, r_reg)
    for n in range(1, ch.source.depth + 1):
        lhs = ch.source.diffs[n - 1].matrix.mul(ch.levels[n - 1].matrix)
        rhs = ch.levels[n].matrix.mul(ch.target.diffs[n - 1].matrix)
        assert lhs == rhs


# -- horseshoe -----------------------------------------------------------------


def _simple_ses(a):
    """0 -> rad -> P -> S -> 0 for the sink projective of the A2 algebra."""
    from recollab.modules import projective_cover, kernel_cokernel
    s2 = simple_modules(a)[1]
    pc = projective_cover(s2)
    kc = kernel_cokernel(pc.surjection)
    return ShortExactSequence(kc.kernel, pc.module, s2, kc.inclusion, pc.surjection)


def test_horseshoe_trivial_sub():
    # 0 -> 0 -> S -> S -> 0 and 0 -> S -> S -> 0 -> 0: the middle resolution
    # is the other side's, and the zero side is padded with zero levels
    a = a2_path_algebra()
    f = a.field
    s1 = simple_modules(a)[0]
    z = zero_module(a)
    ident = ModuleMap(s1, s1, Matrix.identity(f, 1))
    zero_sub = ShortExactSequence(z, s1, s1, ModuleMap(z, s1, Matrix(f, [], ncols=1)), ident)
    zero_quot = ShortExactSequence(s1, s1, z, ident, ModuleMap(s1, z, Matrix(f, [[]], ncols=0)))
    for ses in (zero_sub, zero_quot):
        hs = horseshoe(ses, 3)
        zero_res, other = (hs.res_sub, hs.res_quot) if ses is zero_sub else \
            (hs.res_quot, hs.res_sub)
        assert [p.dim for p in zero_res.modules] == [0] * 4
        assert [p.dim for p in hs.res_mid.modules] == \
            [p.dim for p in other.modules] + [0] * (4 - len(other.modules))
        assert [d.matrix for d in hs.res_mid.diffs[:other.depth]] == \
            [d.matrix for d in other.diffs]
        assert hs.res_mid.augmentation.matrix == other.augmentation.matrix


def test_cohomology_module_with_zero_terms():
    # 0 -> S -> 0 with zero terms on both sides, and the resolution of S
    a = a2_path_algebra()
    f = a.field
    s, z = simple_modules(a)[0], zero_module(a)
    x = BoundedComplex(a, {-1: z, 0: s, 1: z},
                       {-1: ModuleMap(z, s, Matrix(f, [], ncols=1)),
                        0: ModuleMap(s, z, Matrix(f, [[]], ncols=0))})
    assert [x.cohomology_module(n).dim for n in range(-2, 3)] == [0, 0, 1, 0, 0]
    y = projective_resolution(s, 3).to_complex()
    assert [y.cohomology_module(n).dim for n in range(-3, 2)] == [0, 0, 0, 1, 0]
    assert iso_test(y.cohomology_module(0), s)


def test_horseshoe_middle_is_resolution():
    a = a2_path_algebra()
    ses = _simple_ses(a)
    hs = horseshoe(ses, 4)
    assert hs.res_mid.modules[0].dim == \
        hs.res_sub.modules[0].dim + hs.res_quot.modules[0].dim
    depth = min(len(hs.res_mid.diffs), len(hs.res_sub.diffs), len(hs.res_quot.diffs))
    for n in range(1, depth + 1):
        d_mid = hs.res_mid.diffs[n - 1].matrix
        # inclusion is a chain map: the sub block of d_mid is d_sub . inc_{n-1}
        lhs = hs.res_sub.diffs[n - 1].matrix.mul(hs.incl_mats[n - 1])
        # rows of d_mid corresponding to the sub block
        sub_rows = d_mid.take_rows(range(hs.res_sub.modules[n].dim))
        assert sub_rows == lhs
        # projection is a chain map: d_mid . proj_{n-1} = proj_n . d_quot
        assert d_mid.mul(hs.proj_mats[n - 1]) == hs.proj_mats[n].mul(
            hs.res_quot.diffs[n - 1].matrix)


def test_horseshoe_middle_levels_are_tagged_only_over_one_basic_structure():
    """P_n is the direct sum of P'_n and P''_n.  It is a tagged
    projective_module when sub, mid and quot share one basic structure; a sub
    over the same table with its idempotents listed in the other order (an
    equal algebra) keeps the plain direct sum, whose blocks the tags of the
    middle term's algebra would not describe."""
    from recollab.algebra import BasicStructure
    from recollab.modules import RightModule
    a = a2_path_algebra()
    ses = _simple_ses(a)
    b = a.basic
    flipped = Algebra(a.field, _dense(a), a.unit, labels=a.basis_labels, basic=BasicStructure(
        b.idempotent_coords[::-1], b.idempotent_labels[::-1], b.radical_generators,
        b.generator_coords))
    sub = RightModule(flipped, ses.sub.dim, ses.sub.gens)
    other = ShortExactSequence(sub, ses.mid, ses.quot, ModuleMap(
        sub, ses.mid, ses.inclusion.matrix), ses.projection)
    for s, tagged in ((ses, True), (other, False)):
        hs = horseshoe(s, 3)
        for n, p in enumerate(hs.res_mid.modules):
            assert p == direct_sum([hs.res_sub.modules[n], hs.res_quot.modules[n]])
            if p.dim:
                assert (p.summand_tags is not None) == tagged


def test_horseshoe_rejects_non_exact():
    a = a2_path_algebra()
    s1, s2 = simple_modules(a)
    bad = ShortExactSequence(s1, direct_sum([s1, s2]), s1,
                             ModuleMap._of(s1, direct_sum([s1, s2]), Matrix(a.field, [[1, 0]])),
                             ModuleMap._of(direct_sum([s1, s2]), s1, Matrix(a.field, [[1], [0]])))
    with pytest.raises(InputNotExact):
        horseshoe(bad, 2)


def test_horseshoe_ses_of_canonical_bimodules():
    a = a2_path_algebra()
    env = enveloping(a)
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    aea = cb.aea.as_right_module_over(env)
    reg = cb.regular.as_right_module_over(env)
    quo = cb.quotient.as_right_module_over(env)
    ses = ShortExactSequence(aea, reg, quo,
                             ModuleMap(aea, reg, cb.inclusion),
                             ModuleMap(reg, quo, cb.projection))
    hs = horseshoe(ses, 4)
    # degreewise split: dims add
    for n in range(5):
        ps = hs.res_sub.modules[n].dim if n <= hs.res_sub.depth else 0
        pq = hs.res_quot.modules[n].dim if n <= hs.res_quot.depth else 0
        assert hs.res_mid.modules[n].dim == ps + pq


# -- dualize -------------------------------------------------------------------


def test_dualize_regular():
    a = a2_path_algebra()
    x = BoundedComplex.concentrated(regular_module(a))
    dx = dualize_perfect(x)
    assert dx.module(0).dim == a.dim


def test_dualize_rejects_non_projective():
    d = dual_numbers()
    s = simple_modules(d)[0]
    with pytest.raises(NotDegreewiseProjective):
        dualize_perfect(BoundedComplex.concentrated(s))


def test_double_dual_preserves_cohomology_dims():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    res = projective_resolution(cb.quotient.restrict_right(), 3)
    x = res.to_complex()
    dd = dualize_perfect(dualize_perfect(x))
    for n in range(x.lo, x.hi + 1):
        assert x.cohomology_module(n).dim == dd.cohomology_module(n).dim


def test_dual_of_corner_projective_swaps_sides():
    # dual of Ae (projective over A... here: dual of e_2 A) has the dimension of A e_2
    a = a2_path_algebra()
    from recollab.modules import vertex_projective
    p2, _ = vertex_projective(a, 1)   # e_2 A, dim 2
    dx = dualize_perfect(BoundedComplex.concentrated(p2))
    assert dx.module(0).dim == 1      # A e_2 = span{e_2} has dim 1


def test_vector_space_complex_cohomology():
    # 0 -> Q^2 --[[1,0],[0,0]]--> Q^2 -> 0 concentrated in degrees 0, 1
    m = Matrix(QQ, [[1, 0], [0, 0]])
    c = VectorSpaceComplex(QQ, {0: 2, 1: 2}, {0: m})
    assert c.cohomology_dim(0) == 1
    assert c.cohomology_dim(1) == 1


def test_shift_preserves_cohomology():
    a = a2_path_algebra()
    e = vertex_idempotent(a, "2")
    cb = canonical_bimodules(a, e)
    res = projective_resolution(cb.quotient.restrict_right(), 3)
    x = res.to_complex()
    y = x.shift(1)
    assert y.cohomology_module(-1).dim == x.cohomology_module(0).dim


# --------------------------------------------------------------------------
# The resolution store.
# --------------------------------------------------------------------------


class _DictDisk:
    """A disk cache kept in a dict, holding entries as JSON text."""

    def __init__(self):
        self.entries = {}

    def get(self, key):
        text = self.entries.get(key)
        return None if text is None else json.loads(text)

    def put(self, key, data):
        self.entries[key] = json.dumps(data)


def _same_resolution(r, s):
    return (r.modules == s.modules
            and [p.summand_tags for p in r.modules] == [p.summand_tags for p in s.modules]
            and [d.matrix for d in r.diffs] == [d.matrix for d in s.diffs]
            and r.augmentation.matrix == s.augmentation.matrix
            and (r.stabilized, r.periodicity, r.syzygy_dims)
            == (s.stabilized, s.periodicity, s.syzygy_dims))


def test_memo_hit_is_rebound_to_the_callers_module():
    a = a2_path_algebra()
    m1, m2 = simple_modules(a)[0], simple_modules(a)[0]
    with resolution_store() as store:
        r1 = projective_resolution(m1, 3)
        r2 = projective_resolution(m2, 3)
    assert len(store.memo) == 1
    assert r1.module is m1 and r1.augmentation.target is m1
    assert r2.module is m2 and r2.augmentation.target is m2
    assert _same_resolution(r1, r2)


def _battery(doc):
    """The simples, the regular module and A over A^e of a document's algebra,
    each with a resolution depth."""
    a = algebra_from_doc(doc)
    env = regular_bimodule(a).as_right_module_over(enveloping(a))
    return [(s, 4) for s in simple_modules(a)] + [(regular_module(a), 4), (env, 2)]


@pytest.mark.parametrize("tag", [None, "Fp:7"], ids=["doc", "F7"])
@pytest.mark.parametrize("path", DOCS, ids=[p.stem for p in DOCS])
def test_searched_steps_match_a_replay(path, tag):
    # searched resolutions read each step from the module's representative,
    # shallower requests first so that the deeper ones walk their steps; a
    # replay of the picks on a fresh instance of the algebra reads and writes
    # no step, so it is an independent reference (the dual numbers' syzygies
    # all repeat)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc = doc if tag is None else _doc_over(doc, tag)
    searched = [[(n, complexes._resolve(m, n)) for n in (depth, depth + 2)]
                for m, depth in _battery(doc)]
    for requests, (m, _) in zip(searched, _battery(doc)):
        for n, res in requests:
            replay = complexes._resolve(m, n, stored=res.picks)
            assert replay.picks == res.picks and _same_resolution(res, replay)


def test_store_scope_is_restored_after_the_block():
    outer = complexes._store
    with resolution_store() as inner:
        assert complexes._store is inner and inner is not outer
    assert complexes._store is outer


@pytest.mark.parametrize("first", [0, 1])
def test_one_table_with_two_idempotent_orders(first):
    # equal algebras (Algebra.__eq__ reads the table) whose basic structures
    # list the vertices in opposite orders: covers of one must never use the
    # vertex projectives of the other
    a = a2_path_algebra()
    b = discover_basic(Algebra(a.field, _dense(a), a.unit))
    assert a == b and a.basic.idempotent_coords != b.basic.idempotent_coords
    assert a.structure_hash() != b.structure_hash()
    order = (a, b) if first == 0 else (b, a)
    with resolution_store() as store:
        for alg in order:
            res = projective_resolution(regular_module(alg), 3)
            assert res.stabilized and res.projective_dimension() == 0
    assert len(store.memo) == 2


def _refuse_search(monkeypatch):
    """Let `_resolve` build covers only from stored picks."""
    cover = complexes.projective_cover

    def replay_only(m, picks=None):
        if picks is None:
            raise AssertionError("a valid disk entry was searched again")
        return cover(m, picks)

    monkeypatch.setattr(complexes, "projective_cover", replay_only)


def test_disk_entry_is_rebuilt_and_used(monkeypatch):
    s = simple_modules(dual_numbers())[0]
    disk = _DictDisk()
    with resolution_store(disk):
        cold = projective_resolution(s, 4)
    assert len(disk.entries) == 1 and cold.periodicity is not None
    assert json.loads(*disk.entries.values()) == {
        "version": 3, "levels": [[[0, 0]]] * 5}
    _refuse_search(monkeypatch)
    with resolution_store(disk) as store:
        warm = projective_resolution(s, 4)
    assert store.rejected == 0
    assert warm.module is s and _same_resolution(cold, warm)


def test_entry_without_a_witness_cannot_drop_one(monkeypatch):
    # a version-2 entry stored the witness, and one with "periodicity": null
    # was decoded as a resolution with no witness, so the smoothness and gldim
    # verdicts lost their "periodic"; a version-3 entry stores no witness, and
    # a replay finds it again
    s = simple_modules(dual_numbers())[0]
    disk = _DictDisk()
    with resolution_store(disk):
        cold = projective_resolution(s, 6)
    assert cold.periodicity == (1, 2)
    (key, text), = disk.entries.items()
    disk.entries[key] = json.dumps({
        "version": 2, "tags": [[v for v, _ in level] for level in cold.picks],
        "augmentation": cold.augmentation.matrix.to_str_rows(),
        "diffs": [d.matrix.to_str_rows() for d in cold.diffs], "periodicity": None})
    with resolution_store(disk) as store:
        warm = projective_resolution(s, 6)
    assert store.rejected == 1 and disk.entries[key] == text
    assert _same_resolution(cold, warm)
    _refuse_search(monkeypatch)
    with resolution_store(disk) as store:
        warm = projective_resolution(s, 6)
    assert store.rejected == 0 and _same_resolution(cold, warm)


# Each tamper of an entry for `_ns_simple`, whose levels are the picks
# [[0, 0]], [[1, 0]], [[0, 0]], passes every check of a replay but one, and
# returns that check's message (None for garbage).


def _negative_vertex(d):
    d["levels"][0][0][0] = -1
    return "pick out of range"


def _bool_vertex(d):
    # True would index vertex 1
    d["levels"][0][0][0] = True
    return "pick out of range"


def _row_past_end(d):
    # the simple module has one row
    d["levels"][0][0][1] = 1
    return "pick out of range"


def _swap_first_tag(d):
    # e_1 kills the simple at vertex 0: the generator is zero
    d["levels"][0][0][0] = 1
    return "failed to surject"


def _drop_pick(d):
    d["levels"][1].pop()
    return "failed to surject"


def _duplicate_pick(d):
    # e_0 A twice onto the simple: onto, with (e_0, -e_0) in the kernel
    d["levels"][0].append(d["levels"][0][0])
    return "not minimal"


def _drop_last_level(d):
    d["levels"].pop()
    return "too few levels"


def _extra_level(d):
    d["levels"].append(d["levels"][-1])
    return "too many levels"


def _garbage(d):
    d["levels"] = "not a list of picks"


def _ns_simple():
    # a resolution of depth 2, tags [(0,), (1,), (0,)], syzygies of dims 1, 2
    return simple_modules(non_stratifying_algebra())[0], 2


@pytest.mark.parametrize("tamper, case", [(tamper, _ns_simple) for tamper in (
    _negative_vertex, _bool_vertex, _row_past_end, _swap_first_tag, _drop_pick,
    _duplicate_pick, _drop_last_level, _extra_level, _garbage)])
def test_tampered_disk_entry_is_rejected_and_rewritten(tamper, case):
    m, n_max = case()
    disk = _DictDisk()
    with resolution_store(disk):
        cold = projective_resolution(m, n_max)
    (key, text), = disk.entries.items()
    data = json.loads(text)
    check = tamper(data)
    if check is not None:
        with pytest.raises(ValueError, match=check):
            complexes._resolve(m, n_max, data["levels"])
    disk.entries[key] = json.dumps(data)
    with resolution_store(disk) as store:
        warm = projective_resolution(m, n_max)
    assert store.rejected == 1
    assert _same_resolution(cold, warm)
    assert disk.entries[key] == text
