import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recollab.algebra import (
    Algebra,
    BasicStructure,
    Idempotent,
    QuiverPresentation,
    center,
    corner,
    discover_basic,
    enveloping,
    from_quiver,
    ideal_and_quotient,
    opposite,
    radical,
    tensor,
    triangular,
)
from recollab.errors import (
    FieldMismatch,
    InvalidRelation,
    NotFiniteDimensional,
    UnsupportedField,
)
from recollab.cli import algebra_from_doc
from recollab.modules import regular_bimodule
from recollab.exactfield import (
    GF,
    QQ,
    Matrix,
    express_in_row_basis,
    integer_array,
    kernel_basis,
    rank,
    row_space_basis,
    unit_vector,
)
from recollab.fixtures import (
    augmentation_bimodule,
    field_bimodule,
    one_point_extension_of_dual_numbers,
    triangular_a2,
)
from test_homology import DOCS, _base_change, _basis_mats, _dense, _doc_over, _linear_doc

F5 = GF(5)


def ground_field_algebra(field=QQ):
    return from_quiver(QuiverPresentation(("1",), ()), field)


def dual_numbers(field=QQ):
    q = QuiverPresentation(("1",), (("1", "1", "x"),), relations=((( 1, ("x", "x")),),))
    return from_quiver(q, field)


def a2_path(field=QQ):
    return from_quiver(QuiverPresentation(("1", "2"), (("1", "2", "a"),)), field)


def kronecker(field=QQ):
    return from_quiver(QuiverPresentation(("1", "2"), (("1", "2", "a"), ("1", "2", "b"))), field)


# -- from_quiver -----------------------------------------------------------


def test_single_vertex_is_ground_field():
    k = ground_field_algebra()
    assert k.dim == 1
    assert k.unit == (Fraction(1),)
    assert k.table == {(0, 0): ((0, 1),)}


def test_a2_quiver_dim_3():
    a = a2_path()
    assert a.dim == 3
    assert set(a.basis_labels) == {"e_1", "e_2", "a"}


def test_dual_numbers_dim_2():
    d = dual_numbers()
    assert d.dim == 2
    x = (Fraction(0), Fraction(1))
    assert d.multiply(x, x) == (Fraction(0), Fraction(0))


def test_from_quiver_associativity_flag():
    assert a2_path().associativity_checked
    assert kronecker(F5).associativity_checked


def test_invalid_relation_length_one():
    with pytest.raises(InvalidRelation):
        QuiverPresentation(("1",), (("1", "1", "x"),), relations=(((1, ("x",)),),))


def test_loop_without_relation_not_finite_dimensional():
    q = QuiverPresentation(("1",), (("1", "1", "x"),))
    with pytest.raises(NotFiniteDimensional):
        from_quiver(q, QQ, degree_bound=12)


def test_five_dim_two_cycle_with_relation():
    # 1 <-> 2, kill the 1 -> 1 composite; the 2 -> 2 composite survives
    q = QuiverPresentation(("1", "2"), (("1", "2", "a"), ("2", "1", "b")),
                           relations=(((1, ("a", "b")),),))
    a = from_quiver(q, QQ)
    assert a.dim == 5


# -- opposite / tensor / enveloping ---------------------------------------


def test_opposite_commutative_is_identity():
    d = dual_numbers()
    assert opposite(d).table == d.table


def test_opposite_involution():
    a = a2_path()
    assert opposite(opposite(a)) == a


def test_opposite_transposes_table():
    a = a2_path()
    aop = opposite(a)
    for i in range(3):
        for j in range(3):
            assert aop.table.get((i, j)) == a.table.get((j, i))


def test_tensor_with_ground_field():
    a = a2_path()
    k = ground_field_algebra()
    t = tensor(a, k)
    assert t.dim == a.dim
    assert t.table == a.table


def test_tensor_dims():
    d = dual_numbers()
    assert tensor(d, d).dim == 4
    assert enveloping(a2_path()).dim == 9


def test_tensor_field_mismatch():
    with pytest.raises(FieldMismatch):
        tensor(a2_path(QQ), a2_path(F5))


def test_enveloping_of_ground_field():
    k = ground_field_algebra()
    assert enveloping(k).dim == 1


def test_tensor_associative_up_to_relabeling():
    a, b, c = a2_path_algebra_small(), dual_numbers(), ground_field_algebra()
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    # lexicographic flattening makes the structure constants literally equal
    assert left.table == right.table
    assert left.unit == right.unit


def test_tensor_structure_hash_is_derived_from_the_factors():
    # the key of B (x) C is the sha256 of its factors' keys, so it follows the
    # order in which a factor lists its idempotents; the content hash formats
    # the table, as for an algebra built from that table directly
    a, c = a2_path(), dual_numbers()
    b = discover_basic(Algebra(a.field, _dense(a), a.unit))
    assert a == b and a.basic.idempotent_coords != b.basic.idempotent_coords
    for make in (lambda x: tensor(x, c), lambda x: tensor(c, x), enveloping):
        ta, tb = make(a), make(b)
        assert ta.content_hash() == tb.content_hash()
        assert ta.structure_hash() != tb.structure_hash()
        direct = Algebra(ta.field, _dense(ta), ta.unit, basic=ta.basic, _validate=False)
        assert ta.content_hash() == direct.content_hash()
    key = f"tensor|{a.structure_hash()}|{c.structure_hash()}"
    assert tensor(a, c).structure_hash() == hashlib.sha256(key.encode()).hexdigest()
    assert tensor(a2_path(), dual_numbers()).structure_hash() == tensor(a, c).structure_hash()


def a2_path_algebra_small():
    return a2_path()


def test_corner_at_unit_same_structure_constants():
    a = a2_path()
    c = corner(a, Idempotent(a, a.unit))
    assert c.table == a.table


def test_enveloping_dual_numbers_commutative():
    de = enveloping(dual_numbers())
    assert de.dim == 4
    # multiplication-table check: commutative
    assert de.is_commutative()


# -- triangular ------------------------------------------------------------


def _bimodule_over_fields(field, dim):
    # proper Bimodule comes from modules.py; triangular only needs the shape
    from recollab.modules import Bimodule
    k = ground_field_algebra(field)
    ident = Matrix.identity(field, dim)
    return Bimodule(k, k, dim, (ident,), (ident,))


def test_triangular_k_k_k_is_a2():
    a, e1, e2 = triangular(ground_field_algebra(), ground_field_algebra(),
                           _bimodule_over_fields(QQ, 1))
    assert a.dim == 3
    one = tuple(a.unit)
    s = tuple(x + y for x, y in zip(e1.coords, e2.coords))
    assert s == one
    assert a.multiply(e1.coords, e2.coords) == (0,) * 3


def test_triangular_kronecker_dim_4():
    a, e1, e2 = triangular(ground_field_algebra(), ground_field_algebra(),
                           _bimodule_over_fields(QQ, 2))
    assert a.dim == 4


# -- the sparse table against the dense builders it replaced -----------------


def _assert_table_is(a, want):
    """`a.table` is in canonical form (a key only for a nonzero product,
    coordinates ascending, each scalar nonzero) and, expanded, equals the
    dense table `want` entry for entry, types included."""
    assert all(ent and all(c for _, c in ent) and [k for k, _ in ent] == sorted({k for k, _ in ent})
               for ent in a.table.values())
    got = _dense(a)
    assert got == want
    assert [type(x) for r in got for e in r for x in e] == \
        [type(x) for r in want for e in r for x in e]


def _dense_opposite(a):
    """The reference opposite: the dense table transposed."""
    s = _dense(a)
    return tuple(tuple(s[j][i] for j in range(a.dim)) for i in range(a.dim))


def _dense_tensor(f, sa, sb):
    """The reference tensor product of two dense tables, one product per
    quadruple of basis elements, each entry coerced."""
    da, db = len(sa), len(sb)
    n = da * db
    out = [[None] * n for _ in range(n)]
    for i, j, k, l in product(range(da), range(db), range(da), range(db)):
        row = [0] * n
        for m, cm in enumerate(sa[i][k]):
            for r, cr in enumerate(sb[j][l]):
                row[m * db + r] = cm * cr
        out[i * db + j][k * db + l] = tuple(map(f.coerce, row))
    return tuple(map(tuple, out))


def _dense_triangular(a1, a2, m):
    """The reference table of [[A1, 0], [M, A2]], padded block by block."""
    f, (d1, dm, d2) = a1.field, (a1.dim, m.dim, a2.dim)
    n, s1, s2 = d1 + dm + d2, _dense(a1), _dense(a2)

    def pad(off, vec):
        return tuple(map(f.coerce, (0,) * off + tuple(vec) + (0,) * (n - off - len(vec))))

    rows = [[(0,) * n] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        if i < d1 and j < d1:
            rows[i][j] = pad(0, s1[i][j])
        elif d1 <= i < d1 + dm and j < d1:
            rows[i][j] = pad(d1, m.basis_action(j).row(i - d1))
        elif i >= d1 + dm and d1 <= j < d1 + dm:
            rows[i][j] = pad(d1, m.basis_action(i - d1 - dm, left=True).row(j - d1))
        elif i >= d1 + dm and j >= d1 + dm:
            rows[i][j] = pad(d1 + dm, s2[i - d1 - dm][j - d1 - dm])
    return tuple(map(tuple, rows))


def _table_cases():
    # the shipped documents and their F_5 copies, and base changes whose
    # constants multiply to integral Fractions over Q and past p over F_5
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(lambda doc=doc: algebra_from_doc(doc), id=path.stem))
        if doc.get("field", "Q") == "Q":
            cases.append(pytest.param(lambda doc=doc: algebra_from_doc(_doc_over(doc, "Fp:5")),
                                      id=path.stem + "@F5"))
    for f in (QQ, F5):
        cases.append(pytest.param(lambda f=f: _base_change(kronecker(f), random.Random(7)),
                                  id=f"kronecker~{f}"))
    return cases


@pytest.mark.parametrize("make", _table_cases())
def test_opposite_tensor_and_enveloping_tables_match_the_dense_builders(make):
    a = make()
    f, s, sop = a.field, _dense(a), _dense_opposite(a)
    _assert_table_is(a, s)
    _assert_table_is(opposite(a), sop)
    _assert_table_is(enveloping(a), _dense_tensor(f, sop, s))
    _assert_table_is(tensor(a, kronecker(f)), _dense_tensor(f, s, _dense(kronecker(f))))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_triangular_tables_match_the_dense_builder(field):
    k, d = ground_field_algebra(field), dual_numbers(field)
    for a1, a2, m in ((k, k, field_bimodule(k, k, 1)), (k, k, field_bimodule(k, k, 2)),
                      (d, k, augmentation_bimodule(k, d))):
        alg, _, _ = triangular(a1, a2, m)
        _assert_table_is(alg, _dense_triangular(a1, a2, m))
        assert alg.associativity_checked


# -- corner / ideal+quotient -----------------------------------------------


def test_corner_at_unit_is_whole_algebra():
    a = a2_path()
    e = Idempotent(a, a.unit)
    c = corner(a, e)
    assert c.dim == a.dim


def test_corner_a2_sink():
    a = a2_path()
    e2 = dict(zip(a.basic.idempotent_labels, a.basic.idempotent_coords))["2"]
    c = corner(a, Idempotent(a, e2))
    assert c.dim == 1


def test_corner_kronecker_source():
    k = kronecker()
    e1 = dict(zip(k.basic.idempotent_labels, k.basic.idempotent_coords))["1"]
    c = corner(k, Idempotent(k, e1))
    assert c.dim == 1


def test_ideal_full_for_unit():
    a = a2_path()
    iq = ideal_and_quotient(a, Idempotent(a, a.unit))
    assert iq.ideal_is_whole
    assert iq.quotient.dim == 0


def test_ideal_quotient_a2_sink():
    a = a2_path()
    e2 = dict(zip(a.basic.idempotent_labels, a.basic.idempotent_coords))["2"]
    iq = ideal_and_quotient(a, Idempotent(a, e2))
    assert iq.ideal_rows.nrows == 2          # span{e2, a}
    assert iq.quotient.dim == 1
    assert not iq.ideal_is_whole


def test_ideal_plus_quotient_dims():
    for alg in (a2_path(), kronecker(), dual_numbers()):
        for ev in alg.basic.idempotent_coords:
            iq = ideal_and_quotient(alg, Idempotent(alg, ev))
            assert iq.ideal_rows.nrows + iq.quotient.dim == alg.dim


def test_dual_numbers_only_idempotent_is_unit():
    d = dual_numbers()
    iq = ideal_and_quotient(d, Idempotent(d, d.unit))
    assert iq.quotient.dim == 0


# -- center / radical --------------------------------------------------------


def test_center_commutative_is_everything():
    d = dual_numbers()
    assert center(d).nrows == 2


def test_center_a2_dim_1():
    # oracle: solved the commutation equations by hand; the centre is spanned by 1
    z = center(a2_path())
    assert z.nrows == 1


def test_center_kronecker_dim_1():
    assert center(kronecker()).nrows == 1


@pytest.mark.parametrize("path", DOCS, ids=[p.stem for p in DOCS])
def test_center_over_the_generators_is_the_commutant_of_every_basis_element(path):
    """The centre, computed over the generators, is the kernel of every
    R_i - L_i, for each shipped document, its product with A_2, its opposite,
    and its corner and quotient at the first vertex."""
    a = algebra_from_doc(json.loads(path.read_text(encoding="utf-8")))
    e = Idempotent(a, a.basic.idempotent_coords[0])
    iq = ideal_and_quotient(a, e)
    for b in (a, tensor(a, a2_path(a.field)), opposite(a), corner(a, e)) + (
            () if iq.ideal_is_whole else (iq.quotient,)):
        cols = [col for L, R in zip(*_basis_mats(b))
                for col in zip(*R.sub(L).rows)]
        assert center(b) == kernel_basis(Matrix(b.field, cols, ncols=b.dim)).transpose()


def _center_from_dense_matrices(a):
    """The centre from the dense multiplication matrices: the kernel of the
    columns of every R_g - L_g, g a generator."""
    cols = [col for g in a.generators()
            for col in zip(*a.right_mult_matrix(g).sub(a.left_mult_matrix(g)).rows) if any(col)]
    return kernel_basis(Matrix(a.field, cols, ncols=a.dim)).transpose()


def _center_docs():
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        yield pytest.param(doc, id=path.stem)
        if doc.get("field", "Q") == "Q" and "f5" not in path.stem:
            yield pytest.param(_doc_over(doc, "Fp:7"), id=path.stem + "@F7")
    for n in (3, 6, 9):
        yield pytest.param(_linear_doc(n), id=f"linear_a{n}")


@pytest.mark.parametrize("doc", _center_docs())
def test_center_from_the_table_matches_the_dense_construction(doc):
    """The centre read off the table's nonzeros is the same echelon basis as
    the one from dense R_g - L_g, on each algebra and on a random integer
    base change of it (every basis element a generator, dense tables with
    fractions over Q)."""
    a = algebra_from_doc(doc)
    for b in (a, _base_change(a, random.Random(5))):
        assert center(b) == _center_from_dense_matrices(b)


def test_radical_semisimple_zero():
    assert radical(ground_field_algebra()).nrows == 0


def test_radical_dual_numbers():
    d = dual_numbers()
    r = radical(d)
    assert r.nrows == 1


def test_radical_a2_is_arrow_ideal():
    a = a2_path()
    r = radical(a)
    assert r.nrows == 1
    lbl = a.basis_labels.index("a")
    assert r.rows[0][lbl] == Fraction(1)


def test_radical_trace_form_agrees_with_arrow_ideal():
    from recollab.exactfield import subspace_equal
    a = a2_path()
    bare = Algebra(a.field, _dense(a), a.unit, labels=a.basis_labels)  # no basic tag
    tr = radical(bare)
    assert subspace_equal(tr.transpose(), radical(a).transpose())


def test_radical_unsupported_over_fp_without_quiver():
    a = a2_path(F5)
    bare = Algebra(a.field, _dense(a), a.unit, labels=a.basis_labels)
    with pytest.raises(UnsupportedField):
        radical(bare)


def test_quotient_by_radical_is_semisimple_over_q():
    # the trace form of A/rad is nondegenerate (its own radical vanishes)
    from recollab.algebra import _quotient_by_ideal, _radical_trace
    for alg in (a2_path(), kronecker(), dual_numbers()):
        quot = _quotient_by_ideal(alg, radical(alg)).quotient
        assert _radical_trace(quot).nrows == 0


def test_radical_of_enveloping_algebra_formula():
    # rad(A^op (x) A) = rad (x) A + A (x) rad for split basic algebras:
    # dimension r*d + d*r - r*r, propagated through the tensor construction
    for alg in (a2_path(), kronecker(), dual_numbers(), a2_path(F5)):
        env = enveloping(alg)
        r = radical(alg).nrows
        d = alg.dim
        assert radical(env).nrows == 2 * r * d - r * r


def _tensor_coords(f, x, y):
    """The coordinates of x (x) y in the lexicographic basis."""
    return tuple(f.coerce(s * t) for s in x for t in y)


def _reference_tensor_basic(a, b):
    """The basic structure of A (x) B from spanning rows: the idempotents
    e (x) e', the radical as the RREF of the rows r (x) b_j and b_i (x) r'
    (r, r' rows of the factors' radical bases) and the generators g (x) 1
    and 1 (x) g'."""
    f, ba, bb = a.field, a.basic, b.basic
    rad = [_tensor_coords(f, r, unit_vector(b.dim, j))
           for r in radical(a).rows for j in range(b.dim)]
    rad += [_tensor_coords(f, unit_vector(a.dim, i), r)
            for i in range(a.dim) for r in radical(b).rows]
    return BasicStructure(
        tuple(_tensor_coords(f, x, y) for x in ba.idempotent_coords for y in bb.idempotent_coords),
        tuple(f"{x}⊗{y}" for x in ba.idempotent_labels for y in bb.idempotent_labels),
        row_space_basis(Matrix(f, rad, ncols=a.dim * b.dim)),
        tuple(_tensor_coords(f, g, b.unit) for g in a.generators())
        + tuple(_tensor_coords(f, a.unit, g) for g in b.generators()))


def _rebased(a, rng):
    """`a` in the basis of the rows of a random invertible P, its basic
    structure carried along (coordinates x become x P^-1), so its radical
    rows are neither unit vectors nor reduced."""
    f, d = a.field, a.dim
    p = Matrix(f, [[0] * d])
    while rank(p) < d:
        p = Matrix(f, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])

    def coords(rows):
        return express_in_row_basis(p, Matrix(f, rows, ncols=d)).rows
    prods, b = coords([a.multiply(x, y) for x in p.rows for y in p.rows]), a.basic
    basic = BasicStructure(coords(b.idempotent_coords), b.idempotent_labels,
                           Matrix(f, coords(b.radical_generators.rows), ncols=d),
                           coords(b.generator_coords))
    return Algebra(f, [prods[i * d:(i + 1) * d] for i in range(d)], coords([a.unit])[0],
                   basic=basic)


@st.composite
def _tensor_factors(draw):
    """Two shipped documents' algebras over Q or F_5, each in its own basis,
    in a random one with its basic structure carried along (`_rebased`) or,
    over Q, in a random one with its basic structure discovered there."""
    tag = draw(st.sampled_from(["Q", "Fp:5"]))
    hows = ["own", "carried"] + ["discovered"] * (tag == "Q")

    def factor():
        path = draw(st.sampled_from([p for p in DOCS if "f5" not in p.stem]))
        how, seed = draw(st.sampled_from(hows)), draw(st.integers(0, 3))
        if how == "discovered":
            return discover_basic(_shipped(path, tag, seed))
        a = _shipped(path, tag, None)
        return a if how == "own" else _rebased(a, random.Random(seed))
    return factor(), factor()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_tensor_factors())
def test_tensor_basic_structure_is_the_one_from_spanning_rows(factors):
    a, b = factors
    t = tensor(a, b)
    assert replace(t.basic, radical_generators=radical(t)) == _reference_tensor_basic(a, b)


@pytest.mark.scale
def test_enveloping_basic_structure_of_linear_a8_is_the_one_from_spanning_rows():
    a = algebra_from_doc(_linear_doc(8))
    env = enveloping(a)
    assert replace(env.basic, radical_generators=radical(env)) == \
        _reference_tensor_basic(opposite(a), a)


def _radical_spans(a):
    """The RREFs of sum A r and of sum r A over the stored radical
    generators r, from products alone."""
    n, gens = a.dim, a.basic.radical_generators.rows
    basis = [unit_vector(n, i) for i in range(n)]
    return tuple(row_space_basis(Matrix(a.field, [prod(b, r) for r in gens for b in basis],
                                        ncols=n))
                 for prod in (a.multiply, lambda b, r: a.multiply(r, b)))


def _assert_radical(a):
    """radical(a) is both spans of the generators and is rad A, read without
    the basic structure: over Q the RREF of the trace form's kernel; over
    F_p, where the trace form fails, the span is checked to be a nilpotent
    two-sided ideal of codimension the number of orthogonal idempotents,
    hence inside rad A and at least as large."""
    rad, f = radical(a), a.field
    assert _radical_spans(a) == (rad, rad)
    if f == QQ:
        assert rad == row_space_basis(radical(Algebra._of(f, a.dim, a.table, a.unit)))
        return
    assert rad.nrows == a.dim - len(a.basic.idempotent_coords)
    power = rad
    for _ in range(a.dim):
        power = row_space_basis(Matrix(f, [a.multiply(x, r) for x in power.rows
                                           for r in rad.rows], ncols=a.dim))
    assert power.nrows == 0


def _with_cuts(a):
    """a, its opposite, its enveloping algebra and, at each vertex e, the
    corner eAe and the quotient A/AeA."""
    cuts = [f(a, Idempotent(a, e)) for e in a.basic.idempotent_coords
            for f in (corner, lambda a, e: ideal_and_quotient(a, e).quotient)]
    return [a, opposite(a), enveloping(a)] + cuts


def _radical_cases():
    cases = []
    for path in DOCS:
        for tag in (None, "Fp:7"):
            cases.append((f"{path.stem}@{tag or 'own'}",
                          lambda path=path, tag=tag: _with_cuts(_shipped(path, tag, None))))
        cases.append((f"{path.stem}@rebased", lambda path=path: _with_cuts(
            _rebased(_shipped(path, None, None), random.Random(1)))))
        if "f5" not in path.stem:
            cases.append((f"{path.stem}@discovered", lambda path=path: _with_cuts(
                discover_basic(_shipped(path, "Q", 2)))))
    doc = {p.stem: p for p in DOCS}
    for tag in ("Q", "Fp:7"):
        pairs = [("a2", "kronecker"), ("dual_numbers", "t2_one_point_extension")]
        cases += [(f"{x}x{y}@{tag}", lambda x=x, y=y, tag=tag: [
            tensor(_shipped(doc[x], tag, None), _shipped(doc[y], tag, None))]) for x, y in pairs]
    for field in (QQ, GF(7)):
        k, d = ground_field_algebra(field), dual_numbers(field)
        cases.append((f"triangular@{field}", lambda k=k, d=d, field=field: [
            triangular(k, k, field_bimodule(k, k, 2))[0], triangular_a2(field)[0],
            one_point_extension_of_dual_numbers(field)[0],
            triangular(d, d, regular_bimodule(d))[0]]))
    return cases


_RADICAL_CASES = _radical_cases()


@pytest.mark.parametrize("build", [b for _, b in _RADICAL_CASES],
                         ids=[name for name, _ in _RADICAL_CASES])
def test_radical_is_derived_from_the_stored_generators(build):
    for a in build():
        _assert_radical(a)


def test_radical_is_derived_once_per_instance(monkeypatch):
    import recollab.algebra as alg
    calls, real = [], alg.row_space_basis
    monkeypatch.setattr(alg, "row_space_basis", lambda m: calls.append(m) or real(m))
    a = algebra_from_doc(_doc_over(_linear_doc(3), "Fp:5"))
    assert radical(a) is radical(a) and len(calls) == 1
    assert a.basic.radical_generators.nrows == 2 and radical(a).nrows == 3


def test_radical_is_nilpotent_ideal():
    for alg in (a2_path(), dual_numbers(), kronecker()):
        r = radical(alg)
        # (rad)^n = 0 for some n <= dim
        rows = [list(v) for v in r.rows]
        power = rows
        for _ in range(alg.dim):
            nxt = []
            for u in power:
                for v in rows:
                    nxt.append(list(alg.multiply(tuple(u), tuple(v))))
            power = nxt
            if not any(map(any, power)):
                break
        assert not any(map(any, power))


# -- discovery over Q --------------------------------------------------------


def test_discover_basic_on_bare_a2():
    a = a2_path()
    bare = Algebra(a.field, _dense(a), a.unit, labels=a.basis_labels)
    full = discover_basic(bare)
    assert len(full.basic.idempotent_coords) == 2
    s = full.basic.idempotent_coords
    tot = tuple(x + y for x, y in zip(s[0], s[1]))
    assert tot == a.unit
    for ev in s:
        assert full.multiply(ev, ev) == ev
    assert full.basic.radical_generators.nrows == 1


def test_discover_basic_on_product_field():
    # k x k given by structure constants only
    a = Algebra(QQ, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1), labels=("u", "v"))
    full = discover_basic(a)
    assert len(full.basic.idempotent_coords) == 2
    assert full.basic.radical_generators.nrows == 0


def test_unit_validation():
    with pytest.raises(ValueError):
        Algebra(QQ, [[(0,)]], (1,))  # 1*1 = 0 breaks the unit law


def _table(n, products):
    """Structure constants with unit b0 and b_i b_j = c b_k for (i, j, k, c)
    in `products`; every other product of non-unit basis vectors is 0."""
    struct = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        struct[0][i][i] = struct[i][0][i] = 1
    for i, j, k, c in products:
        struct[i][j][k] = c
    return struct


def test_associativity_is_checked_past_the_int64_bound_over_q():
    # dim 13 with a constant of 2^31: max|c|^2 * dim overflows int64
    unit = (1,) + (0,) * 12
    # (b1 b1) b1 = 2^31 b2 b1 = 0 but b1 (b1 b1) = 2^31 b1 b2 = 2^31 b3
    with pytest.raises(ValueError, match="associativity fails"):
        Algebra(QQ, _table(13, [(1, 1, 2, 2**31), (1, 2, 3, 1)]), unit)
    # without b1 b2 = b3 the table is associative, and checked
    assert Algebra(QQ, _table(13, [(1, 1, 2, 2**31)]), unit).associativity_checked


def test_associativity_is_checked_at_every_dimension():
    # dim 49: (b1 b1) b1 = b2 b1 = b3 but b1 (b1 b1) = b1 b2 = 0
    unit = (1,) + (0,) * 48
    with pytest.raises(ValueError, match="associativity fails"):
        Algebra(QQ, _table(49, [(1, 1, 2, 1), (2, 1, 3, 1)]), unit)


def test_associativity_is_exact_over_a_large_prime():
    # k[x]/(x^3 - 1) in the basis 1, 5x, 9x^2: entries near p = 2^32 - 5, whose
    # squares overflow int64
    f = GF(4294967291)
    struct = _table(3, [(1, 1, 2, f.coerce("25/9")), (1, 2, 0, 45), (2, 1, 0, 45),
                        (2, 2, 1, f.coerce("81/5"))])
    a = Algebra(f, struct, (1, 0, 0))
    assert a.associativity_checked
    assert a.multiply((0, 1, 0), a.multiply((0, 1, 0), (0, 1, 0))) == (125, 0, 0)


def test_associativity_failure_only_the_right_hand_side_reaches():
    # b1 b2 = 0, b2 b3 = b4 and b1 b4 = b5: (b1 b2) b3 = 0 but b1 (b2 b3) = b5,
    # a product no b1 b_j with b1 b_j != 0 leads to
    table = _table(6, [(2, 3, 4, 1), (1, 4, 5, 1)])
    assert not _reference_associative(Algebra(QQ, table, (1,) + (0,) * 5, _validate=False))
    with pytest.raises(ValueError, match="associativity fails"):
        Algebra(QQ, table, (1,) + (0,) * 5)


def _reference_associative(a):
    """The dense check: the table as a (dim, dim, dim) integer array C, and
    for every i both sides in full, C[i] @ C.reshape(dim, dim^2) against
    C.reshape(dim^2, dim) @ C[i], compared mod p over F_p."""
    f, n = a.field, a.dim
    at = [((i * n + j) * n + k, c) for (i, j), ent in a.table.items() for k, c in ent]
    vals = integer_array(f, (c for _, c in at), lambda m: m * m * n)[0]
    C = np.zeros((n, n, n), vals.dtype)
    C.flat[[t for t, _ in at]] = vals
    left, right = C.reshape(n, n * n), C.reshape(n * n, n)
    for i in range(n):
        lhs, rhs = C[i] @ left, (right @ C[i]).reshape(n, n * n)
        if f != QQ:
            lhs, rhs = lhs % f.p, rhs % f.p
        if not np.array_equal(lhs, rhs):
            return False
    return True


@st.composite
def _random_tables(draw):
    """A table of dim <= 6 with up to 2 dim entries in -2..2, with b0 a unit
    first or not: sparse enough to be associative often."""
    field, n = draw(st.sampled_from([QQ, GF(7)])), draw(st.integers(1, 6))
    struct = _table(n, []) if draw(st.booleans()) else [[[0] * n for _ in range(n)]
                                                         for _ in range(n)]
    index = st.integers(0, n - 1)
    for i, j, k, c in draw(st.lists(st.tuples(index, index, index, st.integers(-2, 2)),
                                    max_size=2 * n)):
        struct[i][j][k] = c
    return Algebra(field, struct, (1,) + (0,) * (n - 1), _validate=False)


@lru_cache(maxsize=None)
def _shipped(path, tag, seed):
    """A shipped document's algebra, over the field `tag` (None: its own),
    in a random basis (`_base_change`) unless `seed` is None."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    a = algebra_from_doc(_doc_over(doc, tag) if tag else doc)
    return a if seed is None else _base_change(a, random.Random(seed))


@st.composite
def _perturbed_tables(draw):
    """A shipped document's table, over Q, F_5 or its own field and in its
    own basis or a random one, with one structure constant moved by -2..2."""
    path = draw(st.sampled_from(DOCS))
    tag = None if "f5" in path.stem else draw(st.sampled_from([None, "Fp:5"]))
    a = _shipped(path, tag, draw(st.sampled_from([None, 0, 1])))
    struct = [[list(row) for row in rows] for rows in _dense(a)]
    index = st.integers(0, a.dim - 1)
    i, j, k = draw(index), draw(index), draw(index)
    struct[i][j][k] += draw(st.integers(-2, 2))
    return Algebra(a.field, struct, a.unit, _validate=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_random_tables(), _perturbed_tables()))
def test_associativity_check_raises_exactly_when_the_dense_check_fails(a):
    try:
        a._check_associative()
    except ValueError as exc:
        assert str(exc) == "associativity fails"
        assert not _reference_associative(a)
    else:
        assert _reference_associative(a)


def test_idempotent_validation():
    a = a2_path()
    with pytest.raises(ValueError):
        Idempotent(a, (0, 0, 1))  # the arrow is not idempotent
    with pytest.raises(ValueError):
        Idempotent(a, (0, 0, 0))
    assert Idempotent.zero(a).coords == (0, 0, 0)


@pytest.mark.parametrize("field", [QQ, F5, GF(2**31 - 1)])
def test_structure_constants_are_stored_as_coerce_would_store_them(field):
    # tables (not checked as algebras) of ints in and out of 0..p-1, of
    # Fractions, bools and strings: the table, unit and both hashes are
    # those of coercing each constant one at a time
    kinds = [
        ([[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0)),
        ([[(6, -5), (0, 2**40)], [(0, -11), (0, 0)]], (6, -5)),
        ([[(Fraction(2, 2), 0), (0, Fraction(3, 7))], [(0, Fraction(3)), (0, 0)]], (True, 0)),
        ([[("1", 0), (0, "-2/3")], [(0, "-2"), (0, 0)]], ("1", False)),
    ]
    for struct, unit in kinds:
        a = Algebra(field, struct, unit, _validate=False)
        want = tuple(tuple(tuple(map(field.coerce, c)) for c in row) for row in struct)
        _assert_table_is(a, want)
        assert a.unit == tuple(map(field.coerce, unit))
        ref = Algebra(field, want, tuple(map(field.coerce, unit)), _validate=False)
        assert a.content_hash() == ref.content_hash()
        assert a.structure_hash() == ref.structure_hash()


def _mult_cases():
    cases = []
    for path in DOCS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(lambda doc=doc: algebra_from_doc(doc), id=path.stem))
        if doc.get("field", "Q") == "Q":
            cases.append(pytest.param(lambda doc=doc: algebra_from_doc(_doc_over(doc, "Fp:5")),
                                      id=path.stem + "@F5"))
    cases.append(pytest.param(lambda: enveloping(kronecker()), id="kronecker^e"))
    cases.append(pytest.param(lambda: _base_change(kronecker(), random.Random(7)),
                              id="kronecker~Q"))
    return cases


@pytest.mark.parametrize("make", _mult_cases())
def test_mult_matrices_are_the_products_with_basis_vectors(make):
    a = make()
    f, n = a.field, a.dim
    rng = random.Random(3)
    basis = [unit_vector(n, i) for i in range(n)]
    xs = basis + [a.unit, tuple(0 for _ in range(n))]
    xs += [tuple(f.coerce(rng.choice((0, 1, -2, Fraction(3, 4)) if f == QQ else (0, 1, 3)))
                 for _ in range(n)) for _ in range(3)]
    for x in xs:
        left, right = a.left_mult_matrix(x), a.right_mult_matrix(x)
        want_left = tuple(a.multiply(x, b) for b in basis)
        want_right = tuple(a.multiply(b, x) for b in basis)
        assert (left.rows, left.ncols) == (want_left, n)
        assert (right.rows, right.ncols) == (want_right, n)
        assert all(type(u) is type(v) for got, want in ((left, want_left), (right, want_right))
                   for r, w in zip(got.rows, want) for u, v in zip(r, w))
