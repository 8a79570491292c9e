import hashlib
import json
import random
from fractions import Fraction

import pytest

from recollab.algebra import (
    Algebra,
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
from recollab.exactfield import GF, QQ, Matrix, rank, unit_vector
from test_homology import DOCS, _base_change, _doc_over

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
    assert k.struct[0][0] == (Fraction(1),)


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
    assert opposite(d).struct == d.struct


def test_opposite_involution():
    a = a2_path()
    assert opposite(opposite(a)) == a


def test_opposite_transposes_table():
    a = a2_path()
    aop = opposite(a)
    for i in range(3):
        for j in range(3):
            assert aop.struct[i][j] == a.struct[j][i]


def test_tensor_with_ground_field():
    a = a2_path()
    k = ground_field_algebra()
    t = tensor(a, k)
    assert t.dim == a.dim
    assert t.struct == a.struct


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
    assert left.struct == right.struct
    assert left.unit == right.unit


def test_tensor_structure_hash_is_derived_from_the_factors():
    # the key of B (x) C is the sha256 of its factors' keys, so it follows the
    # order in which a factor lists its idempotents; the content hash formats
    # the table, as for an algebra built from that table directly
    a, c = a2_path(), dual_numbers()
    b = discover_basic(Algebra(a.field, a.struct, a.unit))
    assert a == b and a.basic.idempotent_coords != b.basic.idempotent_coords
    for make in (lambda x: tensor(x, c), lambda x: tensor(c, x), enveloping):
        ta, tb = make(a), make(b)
        assert ta.content_hash() == tb.content_hash()
        assert ta.structure_hash() != tb.structure_hash()
        direct = Algebra(ta.field, ta.struct, ta.unit, basic=ta.basic, _validate=False)
        assert ta.content_hash() == direct.content_hash()
    key = f"tensor|{a.structure_hash()}|{c.structure_hash()}"
    assert tensor(a, c).structure_hash() == hashlib.sha256(key.encode()).hexdigest()
    assert tensor(a2_path(), dual_numbers()).structure_hash() == tensor(a, c).structure_hash()


def a2_path_algebra_small():
    return a2_path()


def test_corner_at_unit_same_structure_constants():
    a = a2_path()
    c = corner(a, Idempotent(a, a.unit))
    assert c.struct == a.struct


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
    bare = Algebra(a.field, a.struct, a.unit, labels=a.basis_labels)  # no basic tag
    tr = radical(bare)
    assert subspace_equal(tr.transpose(), radical(a).transpose())


def test_radical_unsupported_over_fp_without_quiver():
    a = a2_path(F5)
    bare = Algebra(a.field, a.struct, a.unit, labels=a.basis_labels)
    with pytest.raises(UnsupportedField):
        radical(bare)


def test_quotient_by_radical_is_semisimple_over_q():
    # the trace form of A/rad is nondegenerate (its own radical vanishes)
    from recollab.algebra import _quotient_by_ideal, _radical_trace
    for alg in (a2_path(), kronecker(), dual_numbers()):
        quot, _, _ = _quotient_by_ideal(alg, radical(alg))
        assert _radical_trace(quot).nrows == 0


def test_radical_of_enveloping_algebra_formula():
    # rad(A^op (x) A) = rad (x) A + A (x) rad for split basic algebras:
    # dimension r*d + d*r - r*r, propagated through the tensor construction
    for alg in (a2_path(), kronecker(), dual_numbers(), a2_path(F5)):
        env = enveloping(alg)
        r = radical(alg).nrows
        d = alg.dim
        assert radical(env).nrows == 2 * r * d - r * r


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
    bare = Algebra(a.field, a.struct, a.unit, labels=a.basis_labels)
    full = discover_basic(bare)
    assert len(full.basic.idempotent_coords) == 2
    s = full.basic.idempotent_coords
    tot = tuple(x + y for x, y in zip(s[0], s[1]))
    assert tot == a.unit
    for ev in s:
        assert full.multiply(ev, ev) == ev
    assert full.basic.radical_rows.nrows == 1


def test_discover_basic_on_product_field():
    # k x k given by structure constants only
    a = Algebra(QQ, [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], (1, 1), labels=("u", "v"))
    full = discover_basic(a)
    assert len(full.basic.idempotent_coords) == 2
    assert full.basic.radical_rows.nrows == 0


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


def test_idempotent_validation():
    a = a2_path()
    with pytest.raises(ValueError):
        Idempotent(a, (0, 0, 1))  # the arrow is not idempotent
    with pytest.raises(ValueError):
        Idempotent(a, (0, 0, 0))


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
        assert a.struct == want and a.unit == tuple(map(field.coerce, unit))
        assert all(type(x) is type(y) for r, w in zip(a.struct, want)
                   for c, d in zip(r, w) for x, y in zip(c, d))
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
