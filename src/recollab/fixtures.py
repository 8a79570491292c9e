"""Standard fixture algebras used throughout the test and demo suites.

All of them are tiny, exactly computable, and cover the qualitatively
different behaviours: semisimple (ground field), self-injective of infinite
homological dimension (dual numbers), hereditary (A2 path algebra and the
Kronecker algebra), a mixed triangular algebra with a dual-numbers corner,
and a designed instance whose idempotent ideal is NOT stratifying.
"""

from __future__ import annotations

from .algebra import Idempotent, QuiverPresentation, from_quiver, triangular
from .exactfield import QQ, Matrix
from .modules import Bimodule, simple_modules


def ground_field(field=QQ):
    """k as a one-vertex quiver algebra (carries the basic structure)."""
    return from_quiver(QuiverPresentation(("1",), ()), field)


def dual_numbers(field=QQ):
    """k[x]/(x^2): one vertex, one loop, relation x*x."""
    q = QuiverPresentation(("1",), (("1", "1", "x"),), relations=(((1, ("x", "x")),),))
    return from_quiver(q, field)


def a2_path_algebra(field=QQ):
    """Path algebra of 1 -> 2 (dimension 3)."""
    return from_quiver(QuiverPresentation(("1", "2"), (("1", "2", "a"),)), field)


def kronecker_algebra(field=QQ):
    """Path algebra of the two-arrow quiver 1 => 2 (dimension 4)."""
    q = QuiverPresentation(("1", "2"), (("1", "2", "a"), ("1", "2", "b")))
    return from_quiver(q, field)


def non_stratifying_algebra(field=QQ):
    """kQ/(b*a) for Q: 1 <=> 2; at the vertex carrying the surviving loop the
    corner is the dual numbers and Tor_1 over it does not vanish (recorded
    negative instance, dimension 5)."""
    q = QuiverPresentation(("1", "2"), (("1", "2", "a"), ("2", "1", "b")),
                           relations=(((1, ("a", "b")),),))
    return from_quiver(q, field)


def vertex_idempotent(a, label):
    """The primitive idempotent attached to a vertex label."""
    table = dict(zip(a.basic.idempotent_labels, a.basic.idempotent_coords))
    return Idempotent(a, table[label], label=f"e:{label}")


def field_bimodule(a2, a1, dim):
    """k^dim as an A2-A1-bimodule when both diagonal algebras are the ground
    field (the Kronecker-shape input [[k,0],[V,k]])."""
    if a2.dim != 1 or a1.dim != 1:
        raise ValueError("field_bimodule needs one-dimensional diagonal algebras")
    f = a2.field
    ident = Matrix.identity(f, dim)
    return Bimodule(a2, a1, dim, (ident,), (ident,))


def augmentation_bimodule(a2, a1):
    """k as an A2-A1-bimodule through the split quotients to k.

    Both algebras must be basic with a chosen surviving vertex: the left
    algebra acts through its first primitive idempotent character, the right
    algebra likewise (arrows act by zero).
    """
    s2, s1 = simple_modules(a2)[0], simple_modules(a1)[0]
    return Bimodule(a2, a1, 1, s2.gens, s1.gens)


def triangular_a2(field=QQ):
    """triangular(k, k, k): isomorphic to the A2 path algebra."""
    k1, k2 = ground_field(field), ground_field(field)
    return triangular(k1, k2, field_bimodule(k2, k1, 1))


def one_point_extension_of_dual_numbers(field=QQ):
    """triangular(D, k, k): dimension 4, dual-numbers corner on the diagonal."""
    d = dual_numbers(field)
    k = ground_field(field)
    return triangular(d, k, augmentation_bimodule(k, d))


def product_of_fields(field=QQ):
    """k x k as the quiver with two vertices and no arrows (commutative)."""
    return from_quiver(QuiverPresentation(("1", "2"), ()), field)
