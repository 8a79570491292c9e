"""Theorem-instance verifiers producing machine-checkable reports.

Every verifier recomputes both sides of the claimed identity from scratch and
reports per-degree verdicts.  A FALSIFIED outcome is a first-class result even
though the theorems say it cannot occur: it is the bug detector, and the CLI
turns it into a loud, distinct exit code.  No verifier ever upgrades an
inconclusive cutoff verdict to a definite one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import enveloping
from .complexes import ShortExactSequence, dualize_perfect, horseshoe
from .errors import CertificationFailed
from .exactfield import Matrix, solve_matrix
from .homology import (
    LesReport,
    LesTerm,
    _assemble_report,
    HomGrid,
    _connecting,
    _snake_les,
    hochschild_cohomology,
    hochschild_dimension,
    hochschild_homology,
    global_dimension,
    les_from_ses,
    regular_as_left_env_module,
)
from .modules import ModuleMap, iso_test


def _canonical_env_ses(r):
    """AeA -> A -> A/AeA as modules over A^e, each map checked there: on the
    generators g (x) 1 and 1 (x) g, whose matrices the modules store."""
    env, cb = enveloping(r.a), r.canon
    maps = [ModuleMap(src.as_right_module_over(env), tgt.as_right_module_over(env), mat)
            for src, tgt, mat in ((cb.aea, cb.regular, cb.inclusion),
                                  (cb.regular, cb.quotient, cb.projection))]
    return ShortExactSequence(maps[0].source, maps[0].target, maps[1].target, *maps)


# --------------------------------------------------------------------------
# Keller's homology triangle and the direct-sum refinement.
# --------------------------------------------------------------------------


@dataclass
class KellerReport:
    les: LesReport
    side2_identification: list     # per degree: Tor(AeA, A) vs HH(eAe)
    side1_identification: list     # per degree: Tor(A/AeA, A) vs HH(A/AeA)
    additivity: list               # per degree, when perfect
    perfect_status: str
    exact: bool
    ok: bool

    def as_dict(self, with_matrices=False):
        return {
            "les": self.les.as_dict(with_matrices),
            "identification_eAe": self.side2_identification,
            "identification_quotient": self.side1_identification,
            "additivity": self.additivity,
            "perfect_status": self.perfect_status,
            "ok": self.ok,
        }


def _identify(dim, hh, n_max, key):
    """Per degree n <= n_max: dim(n), reported under key, against HH_n or
    HH^n of a side."""
    return [{"degree": n, key: dim(n), "hh_dim": hh.dim(n), "match": dim(n) == hh.dim(n)}
            for n in range(n_max + 1)]


def keller_homology(r, n_max=6):
    """The homology long exact sequence of the canonical bimodule sequence,
    with endpoint identifications against HH of the two sides, and degreewise
    Hochschild-homology additivity when the recollement is perfect."""
    les = les_from_ses(_canonical_env_ses(r), regular_as_left_env_module(r.a), "tensor", n_max,
                       labels=("Tor(AeA,A)", "HH(A)", "Tor(A/AeA,A)"))
    hh_a2 = hochschild_homology(r.a2, n_max)
    hh_a1 = hochschild_homology(r.a1, n_max)
    col = {(term.label, -term.degree): term.dim for term in les.terms}
    id2 = _identify(lambda n: col["Tor(AeA,A)", n], hh_a2, n_max, "tor_dim")
    id1 = _identify(lambda n: col["Tor(A/AeA,A)", n], hh_a1, n_max, "tor_dim")
    additivity = []
    if r.perfect.status == "verified":
        for n in range(n_max + 1):
            lhs = col["HH(A)", n]
            rhs = hh_a1.dim(n) + hh_a2.dim(n)
            additivity.append({"degree": n, "hh_mid": lhs, "hh_sum": rhs,
                               "match": lhs == rhs})
    ok = les.exact and all(row["match"] for row in id2 + id1 + additivity)
    return KellerReport(les, id2, id1, additivity, r.perfect.status, les.exact, ok)


# --------------------------------------------------------------------------
# The three cohomology long exact sequences.
# --------------------------------------------------------------------------


@dataclass
class CohomologyLesReport:
    seq_covariant: LesReport       # Ext(A, AeA) -> HH(A) --phi--> HH(A/AeA)
    seq_contravariant: LesReport   # Ext(A/AeA, A) -> HH(A) --psi--> HH(eAe)
    seq_mixed: LesReport           # Ext(A/AeA, AeA) -> HH(A) --phibar--> (+)
    phi: dict                      # degree -> Matrix
    psi: dict
    phibar: dict
    orthogonality: list            # Ext^n(AeA, A/AeA) = 0 checks
    identification_quotient: list  # Ext(Z,Z) vs HH(A/AeA) dims
    identification_corner: list    # Ext(X,X) vs HH(eAe) dims
    ok: bool

    def as_dict(self, with_matrices=False):
        return {
            "covariant": self.seq_covariant.as_dict(with_matrices),
            "contravariant": self.seq_contravariant.as_dict(with_matrices),
            "mixed": self.seq_mixed.as_dict(with_matrices),
            "orthogonality": self.orthogonality,
            "identification_quotient": self.identification_quotient,
            "identification_corner": self.identification_corner,
            "ok": self.ok,
        }


def _invert(mat):
    """Inverse of a square invertible matrix (None if singular)."""
    if mat.nrows != mat.ncols:
        return None
    ident = Matrix.identity(mat.field, mat.nrows)
    return solve_matrix(mat, ident)


def _transport(src_cx, tgt_cx, induced, degrees, what):
    """{n: (T_n, T_n^-1)}, T_n: H^n(src) -> H^n(tgt) the map on cohomology of
    the chain map `induced`; what = (src, tgt) names the two Ext groups."""
    out = {}
    for n in degrees:
        t = src_cx.map_on_cohomology(tgt_cx, induced, n)
        t_inv = _invert(t)
        if t_inv is None:
            raise CertificationFailed(
                f"transport Ext^{n}({what[0]}) -> Ext^{n}({what[1]}) is not invertible")
        out[n] = (t, t_inv)
    return out


def cohomology_les(r, n_max=4):
    """The three long exact sequences on Hochschild cohomologies.

    All three are realized from the bimodule sequence 0 -> AeA -> A -> A/AeA
    -> 0 over A^e, with X = AeA, Y = A and Z = A/AeA, as snakes of Hom
    complexes between their resolutions and themselves.  The orthogonality
    Ext(X, Z) = 0 makes Ext(Z, Z) -> Ext(Y, Z) and Ext(X, X) -> Ext(X, Y)
    invertible; the covariant snake of Hom(Y, -) and the contravariant snake
    of Hom(-, Y) report their third columns moved through these inverses, as
    HH(A/AeA) and HH(eAe).  The mixed sequence pairs the two: its map phibar
    is (psi, phi) and its connecting map stacks the connecting maps of the
    snakes of Hom(-, X) and Hom(Z, -).  phi_n, psi_n and phibar_n are
    returned as explicit matrices, and exactness of every joint is a rank
    identity."""
    ses = _canonical_env_ses(r)
    hs = horseshoe(ses, n_max + 1)
    grid = HomGrid({"X": hs.res_sub, "Y": hs.res_mid, "Z": hs.res_quot},
                   {"X": ses.sub, "Y": ses.mid, "Z": ses.quot}, n_max)
    incl_mat = r.canon.inclusion
    proj_mat = r.canon.projection
    degrees = list(range(n_max + 1))

    # orthogonality: Ext^n(X, Z) = 0 (the hypothesis of the three-triangle lemma)
    xz_cx = grid.cx("X", "Z")
    orth = []
    for n in degrees:
        d = xz_cx.cohomology_dim(n)
        orth.append({"degree": n, "dim": d, "zero": d == 0})
    if not all(row["zero"] for row in orth):
        raise CertificationFailed(
            "Ext(AeA, A/AeA) does not vanish; the stratifying hypothesis failed")
    yx_cx, yy_cx, yz_cx, zz_cx, xx_cx, xy_cx, zx_cx, zy_cx = (
        grid.cx(u, v) for u, v in ("YX", "YY", "YZ", "ZZ", "XX", "XY", "ZX", "ZY"))

    # ---- sequence (1): covariant Hom(Y, -) with third column moved to Ext(Z,Z)
    post_u_yx_yy = grid.induced(("Y", "X"), ("Y", "Y"), post=incl_mat)
    post_v_yy_yz = grid.induced(("Y", "Y"), ("Y", "Z"), post=proj_mat)
    vstar = grid.induced(("Z", "Z"), ("Y", "Z"), pre=hs.proj_mats)
    seq1 = _snake_les((yx_cx, yy_cx, yz_cx), post_u_yx_yy, post_v_yy_yz, degrees,
                      ("Ext(A,AeA)", "HH(A)", "HH(A/AeA)"),
                      moved=_transport(zz_cx, yz_cx, vstar, degrees, ("Z,Z", "Y,Z")))
    phi = dict(zip(degrees, seq1.maps[1::3]))

    # ---- sequence (2): contravariant Hom(-, Y) with third column moved to Ext(X,X)
    pre_pi_zy_yy = grid.induced(("Z", "Y"), ("Y", "Y"), pre=hs.proj_mats)
    pre_u_yy_xy = grid.induced(("Y", "Y"), ("X", "Y"), pre=hs.incl_mats)
    ustar = grid.induced(("X", "X"), ("X", "Y"), post=incl_mat)
    seq2 = _snake_les((zy_cx, yy_cx, xy_cx), pre_pi_zy_yy, pre_u_yy_xy, degrees,
                      ("Ext(A/AeA,A)", "HH(A)", "HH(eAe)"),
                      moved=_transport(xx_cx, xy_cx, ustar, degrees, ("X,X", "X,Y")))
    psi = dict(zip(degrees, seq2.maps[1::3]))

    # ---- sequence (3): mixed, with the pair map and a two-component connecting
    # Ext^n(Z, X) -> Ext^n(Y, Y): precompose the projection chain map and
    # postcompose the inclusion of bimodules
    lam = grid.induced(("Z", "X"), ("Y", "Y"), pre=hs.proj_mats, post=incl_mat)
    post_u_zx_zy = grid.induced(("Z", "X"), ("Z", "Y"), post=incl_mat)
    post_v_zy_zz = grid.induced(("Z", "Y"), ("Z", "Z"), post=proj_mat)
    pre_pi_zx_yx = grid.induced(("Z", "X"), ("Y", "X"), pre=hs.proj_mats)
    pre_u_yx_xx = grid.induced(("Y", "X"), ("X", "X"), pre=hs.incl_mats)

    # The two-component connecting map is (delta_contra, +delta_cov) under the
    # sign conventions of this engine's snake chase (pinned on instances whose
    # exactness determines it; a failure here is a genuine falsifier):
    # delta_contra is the snake of Hom(-, X), Ext^n(X,X) -> Ext^{n+1}(Z,X), and
    # delta_cov that of Hom(Z, -), Ext^n(Z,Z) -> Ext^{n+1}(Z,X).
    terms3 = []
    maps3 = []
    phibar = {}
    for n in degrees:
        hx = xx_cx.cohomology_dim(n)
        hz = zz_cx.cohomology_dim(n)
        terms3.append(LesTerm("Ext(A/AeA,AeA)", n, zx_cx.cohomology_dim(n)))
        terms3.append(LesTerm("HH(A)", n, yy_cx.cohomology_dim(n)))
        terms3.append(LesTerm("HH(eAe)+HH(A/AeA)", n, hx + hz))
        maps3.append(zx_cx.map_on_cohomology(yy_cx, lam, n))
        pb = psi[n].hstack(phi[n])
        phibar[n] = pb
        maps3.append(pb)
        if n + 1 in degrees:
            delta_c = _connecting((zx_cx, yx_cx, xx_cx), pre_pi_zx_yx, pre_u_yx_xx,
                                  n, n + 1, None)
            delta_d = _connecting((zx_cx, zy_cx, zz_cx), post_u_zx_zy, post_v_zy_zz,
                                  n, n + 1, None)
            maps3.append(delta_c.vstack(delta_d))
    seq3 = _assemble_report(terms3, maps3)

    # endpoint identifications by dimension, computed over the sides' own
    # enveloping algebras
    id_q = _identify(zz_cx.cohomology_dim, hochschild_cohomology(r.a1, n_max), n_max, "ext_dim")
    id_c = _identify(xx_cx.cohomology_dim, hochschild_cohomology(r.a2, n_max), n_max, "ext_dim")
    ok = (seq1.exact and seq2.exact and seq3.exact
          and all(row["match"] for row in id_q + id_c))
    return CohomologyLesReport(seq1, seq2, seq3, phi, psi, phibar, orth, id_q, id_c, ok)


# --------------------------------------------------------------------------
# Smoothness and global-dimension equivalences.
# --------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    invariant: str
    mid: str
    side1: str
    side2: str
    verdict: str        # Consistent | ConsistentVacuous | FALSIFIED
    detail: str = ""

    @property
    def ok(self):
        return self.verdict != "FALSIFIED"

    def as_dict(self, with_matrices=False):
        """The report as JSON data (with_matrices is accepted for the common
        signature of the suite reports; there are no matrices)."""
        return {"invariant": self.invariant, "A": self.mid, "A1": self.side1,
                "A2": self.side2, "verdict": self.verdict, "detail": self.detail}


def _state(v):
    if v.finite:
        return "FIN"
    if v.definitely_infinite():
        return "INF"
    return "UNK"


def _equivalence_verdict(va, v1, v2):
    s_a, s_1, s_2 = _state(va), _state(v1), _state(v2)
    if s_a == "FIN" and ("INF" in (s_1, s_2)):
        return "FALSIFIED", "middle finite but a side definitely infinite"
    if s_a == "INF" and s_1 == "FIN" and s_2 == "FIN":
        return "FALSIFIED", "middle definitely infinite but both sides finite"
    if s_a == "FIN" and s_1 == "FIN" and s_2 == "FIN":
        return "Consistent", "all sides finite"
    if s_a == "INF" and "INF" in (s_1, s_2):
        return "Consistent", "definite infinity matches a side"
    if s_a == "UNK" and (s_1 != "FIN" or s_2 != "FIN"):
        return "Consistent", "inconclusive exactly where a side is"
    return "ConsistentVacuous", "cutoff too small to decide the pattern"


def _equivalence(invariant, dimension, r, cutoff):
    """dimension(-, cutoff) of A, A1 and A2, with the verdict of the transfer
    theorem instance for that invariant."""
    va, v1, v2 = (dimension(x, cutoff) for x in (r.a, r.a1, r.a2))
    verdict, detail = _equivalence_verdict(va, v1, v2)
    return EquivalenceReport(invariant, va.label(), v1.label(), v2.label(), verdict, detail)


def smoothness_equivalence(r, cutoff=8):
    """Hochschild dimensions of A, A1, A2 within the cutoff, with the verdict
    of the smoothness-transfer theorem instance."""
    return _equivalence("hochschild_dimension", hochschild_dimension, r, cutoff)


def gldim_equivalence(r, cutoff=8):
    """Global dimensions of A, A1, A2 within the cutoff, with the verdict of
    the finite-global-dimension transfer theorem instance."""
    return _equivalence("global_dimension", global_dimension, r, cutoff)


# --------------------------------------------------------------------------
# Duality roundtrip.
# --------------------------------------------------------------------------


@dataclass
class DualityReport:
    dims_match: list
    h0_iso: bool
    ok: bool


def duality_roundtrip(x):
    """Dualize a perfect complex twice; cohomology dimensions must agree
    degreewise and H^0 must be isomorphic as a module."""
    dd = dualize_perfect(dualize_perfect(x))
    dims = []
    ok = True
    degs = sorted(set(x.degrees()) | set(dd.degrees()))
    for n in degs:
        da = x.cohomology_module(n).dim
        db = dd.cohomology_module(n).dim
        dims.append({"degree": n, "original": da, "double_dual": db,
                     "match": da == db})
        ok = ok and da == db
    h0a = x.cohomology_module(0)
    h0b = dd.cohomology_module(0)
    iso = bool(iso_test(h0a, h0b)) if h0a.dim == h0b.dim else False
    ok = ok and iso
    return DualityReport(dims, iso, ok)
