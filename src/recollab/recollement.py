"""Recollement data: stratifying checks, transfers, six-functor evaluation.

A stratifying idempotent e gives the recollement with sides A/AeA and eAe and
defining bimodules Y = A/AeA (an A-(A/AeA)-bimodule) and Y2 = eA (an
(eAe)-A-bimodule).  "Certified" means: the two stratifying conditions hold,
the flavor invariants hold, and a battery of numerical instance checks of the
recollement axioms passes (j^! i_* = 0 in every degree, Euler characteristics
of the first canonical triangle, module-level adjunction dimensions).  The
tensor and opposite transfers recompute all certificates from scratch; a
failure there would falsify a theorem instance and aborts loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    Idempotent,
    opposite,
    tensor,
    triangular,
)
from .complexes import _joints, projective_resolution
from .errors import (
    AlgebraMismatch,
    CertificationFailed,
    NotPerfect,
    NotStratifying,
    TransferFailed,
)
from .exactfield import Matrix, combine_rows, express_in_row_basis, kron, rank
from .homology import GradedDims, PdVerdict, ext, tor
from .modules import (
    Bimodule,
    CanonicalBimodules,
    RightModule,
    _certified,
    _shared,
    canonical_bimodules,
    hom_module,
    hom_space,
    is_projective,
    regular_bimodule,
    regular_module,
    simple_modules,
    tensor_map,
    tensor_over,
)


@dataclass
class Perfectness:
    """Verified | Refuted (periodicity witness) | Inconclusive (cutoff)."""

    status: str
    pd: PdVerdict

    @staticmethod
    def from_pd(pd):
        if pd.finite:
            return Perfectness("verified", pd)
        if pd.definitely_infinite():
            return Perfectness("refuted", pd)
        return Perfectness("inconclusive", pd)


@dataclass
class StratifyingReport:
    mult_tensor_dim: int
    ideal_dim: int
    mult_rank: int
    mult_iso: bool
    tor_dims: dict
    tor_vanishing: dict
    stratifying: bool
    perfect_ideal: Perfectness
    n_max: int
    failing_tor_degrees: tuple = ()

    def as_dict(self):
        return {
            "mult_tensor_dim": self.mult_tensor_dim,
            "ideal_dim": self.ideal_dim,
            "mult_rank": self.mult_rank,
            "mult_iso": self.mult_iso,
            "tor_dims": {str(k): v for k, v in sorted(self.tor_dims.items())},
            "tor_vanishing": {str(k): v for k, v in sorted(self.tor_vanishing.items())},
            "stratifying": self.stratifying,
            "perfect_ideal": {"status": self.perfect_ideal.status,
                              "pd": self.perfect_ideal.pd.label()},
            "checked_to_degree": self.n_max,
            "failing_tor_degrees": list(self.failing_tor_degrees),
        }


@dataclass
class CertificationReport:
    r3_checks: list
    r4_euler_checks: list
    flat_ses_checks: list
    adjunction_checks: list
    ok: bool

    def as_dict(self):
        return {
            "r3": self.r3_checks,
            "r4_euler": self.r4_euler_checks,
            "flat_ses": self.flat_ses_checks,
            "adjunctions": self.adjunction_checks,
            "ok": self.ok,
        }


@dataclass
class RecollementData:
    a1: Algebra
    a: Algebra
    a2: Algebra
    e: Idempotent
    y: Bimodule            # A-A1-bimodule (A/AeA in the idempotent flavor)
    y2: Bimodule           # A2-A-bimodule (eA)
    flavor: str            # "idempotent" | "triangular"
    perfect: Perfectness
    canon: CanonicalBimodules
    stratifying_report: StratifyingReport
    certificate: CertificationReport
    triangular_parts: tuple = None    # (a1, a2, bimodule) for the triangular flavor
    y_left: Bimodule = None           # A/AeA as an A1-A-bimodule (for i_* and i^!)

    @property
    def is_degenerate_quotient(self):
        return self.a1.is_zero_algebra


def _quotient_sided_bimodules(a, cb):
    """A/AeA as an A-A1-bimodule (y) and as an A1-A-bimodule (for i_* and
    i^!).  Both one-sided A-actions kill AeA, so they factor through the
    quotient algebra A1, an element acting as its lift along the recorded
    A-basis elements that represent the classes (a generator of A1, the class
    of one of A's, as that one's stored matrix): certified by the
    A-A-bimodule A/AeA."""
    a1, q = cb.quotient_algebra, cb.quotient

    def lifted(x, left=False):
        lift = [0] * a.dim
        for t, c in zip(cb.section_cols, x):
            lift[t] = c
        return q.action_of(lift, left)
    y = Bimodule._of(a, a1, a1.dim, q.left_gens, [lifted(g) for g in a1.generators()])
    y_left = Bimodule._of(a1, a, a1.dim, [lifted(g, True) for g in a1.generators()], q.right_gens)
    return _certified(y, q), _certified(y_left, q)


def check_stratifying(a, e, n_max):
    """Both stratifying conditions for AeA, plus the perfectness of the ideal.

    The multiplication isomorphism is decided exactly (finite check); the Tor
    vanishing is checked degree by degree to n_max and the report records the
    window.  perfect_ideal carries pd_A(A/AeA) within the same cutoff.
    """
    cb = canonical_bimodules(a, e)
    f = a.field
    # multiplication map Ae (x)_{eAe} eA -> AeA on the chosen quotient basis
    tp = tensor_over(cb.ae, cb.ea)
    dn = cb.ea.dim
    prods = [a.multiply(cb.ae_rows.rows[x], cb.ea_rows.rows[y])
             for x, y in (divmod(idx, dn) for idx in tp.section_indices)]
    mu = express_in_row_basis(cb.inclusion, Matrix(f, prods, ncols=a.dim))
    if mu is None:
        raise CertificationFailed("product of Ae and eA left the ideal AeA")
    mult_rank = rank(mu)
    mult_iso = (tp.bimodule.dim == cb.aea.dim) and (mult_rank == cb.aea.dim)
    tor_g = tor(cb.ae, cb.ea, n_max)
    tor_dims = {n: tor_g.dim(n) for n in range(1, n_max + 1)}
    tor_vanishing = {n: (d == 0) for n, d in tor_dims.items()}
    failing = tuple(sorted(n for n, ok in tor_vanishing.items() if not ok))
    res = projective_resolution(cb.quotient.restrict_right(), n_max)
    perfect = Perfectness.from_pd(PdVerdict.of(res, n_max))
    report = StratifyingReport(
        mult_tensor_dim=tp.bimodule.dim,
        ideal_dim=cb.aea.dim,
        mult_rank=mult_rank,
        mult_iso=mult_iso,
        tor_dims=tor_dims,
        tor_vanishing=tor_vanishing,
        stratifying=mult_iso and all(tor_vanishing.values()),
        perfect_ideal=perfect,
        n_max=n_max,
        failing_tor_degrees=failing,
    )
    return report, cb


def from_idempotent(a, e, n_max=6):
    """The recollement data attached to a stratifying idempotent, certified."""
    report, cb = check_stratifying(a, e, n_max)
    if not report.stratifying:
        bits = []
        if not report.mult_iso:
            bits.append("multiplication map is not an isomorphism")
        if report.failing_tor_degrees:
            bits.append(f"Tor nonzero in degrees {list(report.failing_tor_degrees)}")
        raise NotStratifying("; ".join(bits) or "not stratifying", report)
    y, y_left = _quotient_sided_bimodules(a, cb)
    r = RecollementData(
        a1=cb.quotient_algebra, a=a, a2=cb.corner_algebra, e=e,
        y=y, y2=cb.ea, flavor="idempotent",
        perfect=report.perfect_ideal, canon=cb,
        stratifying_report=report, certificate=None, y_left=y_left,
    )
    r.certificate = _certify(r, n_max)
    return r


def from_triangular(a1, a2, m, n_max=6):
    """Perfect recollement of the triangular matrix algebra [[A1,0],[M,A2]].

    Builds the algebra, runs from_idempotent at e = diag(0, 1_{A2}), verifies
    that the stratifying ideal is projective and that perfectness is Verified.
    """
    alg, e1, e2 = triangular(a1, a2, m)
    r = from_idempotent(alg, e2, n_max=n_max)
    if not is_projective(r.canon.aea.restrict_right()):
        raise CertificationFailed("triangular stratifying ideal is not projective")
    if r.perfect.status != "verified":
        raise CertificationFailed(
            f"triangular recollement not verified perfect: {r.perfect.status}")
    r.flavor = "triangular"
    r.triangular_parts = (a1, a2, m)
    return r


# --------------------------------------------------------------------------
# Functor evaluation.
# --------------------------------------------------------------------------

FUNCTOR_NAMES = ("i^*", "i_*", "i^!", "j_!", "j^!", "j_*")


def i_lower_module(r, m):
    """i_* of a module: restriction along the algebra map A -> A/AeA (each of
    A's generators acting as its image), concentrated in degree 0,
    certified by the module and `_shared`: a simple of A often equals it."""
    proj = r.canon.projection
    acts = [m.action_of(combine_rows(proj, enumerate(g))) for g in r.a.generators()]
    return _shared(_certified(RightModule._of(r.a, m.dim, acts), m))


def eval_functor(r, name, m, n_max=6):
    """Cohomology dimensions of the derived image of a module under one of the
    six recollement functors (upper indexing: tensor functors live in degrees
    <= 0, Hom functors in degrees >= 0)."""
    if name == "i^*":
        _expect(m, r.a)
        return _negate_degrees(tor(m, r.y, n_max))
    if name == "i_*":
        _expect(m, r.a1)
        return _negate_degrees(tor(m, r.y_left, n_max))
    if name == "i^!":
        _expect(m, r.a)
        return ext(r.y_left, m, n_max).graded
    if name == "j_!":
        _expect(m, r.a2)
        return _negate_degrees(tor(m, r.y2, n_max))
    if name == "j^!" or name == "j^*":
        _expect(m, r.a)
        return _negate_degrees(tor(m, r.canon.ae, n_max))
    if name == "j_*":
        _expect(m, r.a2)
        return ext(r.canon.ae, m, n_max).graded
    raise ValueError(f"unknown functor {name!r}; expected one of {FUNCTOR_NAMES}")


def _expect(m, alg):
    if m.algebra != alg:
        raise AlgebraMismatch("module is over the wrong algebra for this functor")


def _negate_degrees(g):
    return GradedDims(tuple(sorted((-n, d) for n, d in g.entries)))


# --------------------------------------------------------------------------
# Certification battery.
# --------------------------------------------------------------------------


def _battery_modules(alg):
    if alg.is_zero_algebra:
        return []
    mods = [("regular", regular_module(alg))]
    if alg.basic is not None:
        for t, s in enumerate(simple_modules(alg)):
            mods.append((f"simple[{alg.basic.idempotent_labels[t]}]", s))
    return mods


def _tensor_with_map(m, src_bim, tgt_bim, bim_map_rows):
    """Induced map M (x)_A U -> M (x)_A V from a bimodule map U -> V (rows)."""
    tp_src, tp_tgt = tensor_over(m, src_bim), tensor_over(m, tgt_bim)
    return tp_src, tp_tgt, tensor_map(tp_src.section_indices, src_bim.dim,
                                      tp_tgt.projection, right=bim_map_rows)


def _certify(r, n_max):
    a = r.a
    f = a.field
    cb = r.canon
    r3 = []
    r4 = []
    flat = []
    adj = []
    ok = True

    # R3 instances: j^! i_* = 0 in every degree, on the A1-side battery
    a1_batt = [(label, n1, i_lower_module(r, n1)) for label, n1 in _battery_modules(r.a1)]
    for label, _, restricted in a1_batt:
        g = tor(restricted, cb.ae, n_max)
        zero = all(d == 0 for _, d in g.entries)
        r3.append({"module": label, "all_zero": zero})
        ok = ok and zero

    # R4 row one at the Euler-characteristic level, plus the literal SES when
    # the relevant Tor groups vanish
    regular = regular_bimodule(a)
    for label, m in _battery_modules(a):
        g_ideal = tor(m, cb.aea, n_max)
        g_mid = tor(m, regular, n_max)
        g_quot = tor(m, cb.quotient, n_max)
        # the Tor groups stop at n_max, so M counts as bounded only when they
        # cover its whole resolution
        res_m = projective_resolution(m, n_max + 1)
        bounded = res_m.stabilized and res_m.projective_dimension() <= n_max
        entry = {"module": label, "bounded": bounded}
        if bounded:
            euler = g_ideal.euler_characteristic() - g_mid.euler_characteristic() \
                + g_quot.euler_characteristic()
            entry["euler_zero"] = (euler == 0)
            ok = ok and entry["euler_zero"]
        if g_mid.dim(0) != m.dim or any(g_mid.dim(n) for n in range(1, n_max + 1)):
            entry["unit_tensor_ok"] = False
            ok = False
        else:
            entry["unit_tensor_ok"] = True
        r4.append(entry)
        higher_vanish = all(g_ideal.dim(n) == 0 and g_quot.dim(n) == 0
                            for n in range(1, n_max + 1))
        if higher_vanish and bounded:
            tp_i, tp_m, incl_t = _tensor_with_map(m, cb.aea, cb.regular, cb.inclusion)
            _, tp_q, proj_t = _tensor_with_map(m, cb.regular, cb.quotient,
                                               cb.projection)
            dims = (tp_i.bimodule.dim, tp_m.bimodule.dim, tp_q.bimodule.dim)
            exact_mid = all(ok for *_, ok, _ in _joints(dims, (incl_t, proj_t), True, True))
            flat.append({"module": label, "exact": exact_mid})
            ok = ok and exact_mid

    # module-level adjunction dimension checks (R1 shadow), with each battery
    # module's functor images built once
    def adjoint(pair, modules, left, right):
        """dim Hom(*left) = dim Hom(*right) for the adjoint pair."""
        lhs, rhs = len(hom_space(*left)), len(hom_space(*right))
        adj.append({"pair": pair, "modules": modules, "lhs": lhs, "rhs": rhs,
                    "equal": lhs == rhs})

    a2_batt = [(lb, n2, tensor_over(n2, cb.ea).bimodule.restrict_right(),
                hom_module(cb.ae, n2).restrict_right())
               for lb, n2 in _battery_modules(r.a2)[:2]]
    for la, m in _battery_modules(a)[:2]:
        j_shriek_m = tensor_over(m, cb.ae).bimodule.restrict_right()
        for lb, n2, j_lower_n2, j_star_n2 in a2_batt:
            adjoint("(j_!, j^!)", (lb, la), (j_lower_n2, m), (n2, j_shriek_m))
            adjoint("(j^!, j_*)", (la, lb), (j_shriek_m, n2), (m, j_star_n2))
        i_upper_m = tensor_over(m, r.y).bimodule.restrict_right()
        i_shriek_m = hom_module(r.y_left, m).restrict_right()
        for lb, n1, i_low in a1_batt[:2]:
            adjoint("(i^*, i_*)", (la, lb), (i_upper_m, n1), (m, i_low))
            adjoint("(i_!, i^!)", (lb, la), (i_low, m), (n1, i_shriek_m))
    ok = ok and all(row["equal"] for row in adj)

    cert = CertificationReport(r3, r4, flat, adj, ok)
    if not ok:
        raise CertificationFailed(f"recollement battery failed: {cert.as_dict()}")
    return cert


# --------------------------------------------------------------------------
# Transfers.
# --------------------------------------------------------------------------


def tensor_transfer(b, r, n_max=6):
    """Recollement of B (x) A with idempotent 1_B (x) e, re-certified from
    scratch; the tensor theorem predicts success, the engine verifies it."""
    if not any(r.e.coords):
        raise TransferFailed("tensor transfer needs a nonzero idempotent")
    big = tensor(b, r.a)
    f = big.field
    ec = kron(Matrix(f, [b.unit], ncols=b.dim), Matrix(f, [r.e.coords], ncols=r.a.dim)).rows[0]
    try:
        new_e = Idempotent(big, ec, label=f"1⊗{r.e.label or 'e'}")
        out = from_idempotent(big, new_e, n_max=n_max)
    except (NotStratifying, CertificationFailed) as exc:
        raise TransferFailed(f"tensor transfer failed re-certification: {exc}",
                             certificate=getattr(exc, "report", None)) from exc
    if out.a1.dim != b.dim * r.a1.dim or out.a2.dim != b.dim * r.a2.dim:
        raise TransferFailed("tensor transfer produced sides of unexpected dimension")
    if r.perfect.status == "verified" and out.perfect.status != "verified":
        raise TransferFailed(
            f"perfectness did not transfer: {out.perfect.status}")
    return out


def opposite_transfer(r, n_max=6):
    """Perfect recollement of A^op with the sides swapped (A2^op, A1^op).

    For the triangular flavor the swap is realized exactly: the opposite of
    [[A1,0],[M,A2]] is the triangular algebra [[A2^op,0],[M',A1^op]], whose
    defining idempotent is the complementary diagonal idempotent.  For the
    idempotent flavor the complementary idempotent 1-e is attempted in A^op
    and the result re-certified (for e = 1 it is the zero idempotent, whose
    recollement has the sides (A^op, 0)); when the sides cannot be matched
    this way the swap is not realizable by module-shaped defining bimodules
    and the transfer reports failure explicitly.
    """
    if r.perfect.status != "verified":
        raise NotPerfect(f"opposite transfer needs Verified, got {r.perfect.status}")
    if r.flavor == "triangular":
        a1, a2, m = r.triangular_parts
        return from_triangular(opposite(a2), opposite(a1), m.swap_sides(),
                               n_max=n_max)
    aop = opposite(r.a)
    comp = tuple(aop.field.coerce(u - c) for u, c in zip(r.a.unit, r.e.coords))
    try:
        fid = Idempotent(aop, comp, label="1-e") if any(comp) else Idempotent.zero(aop, "1-e")
        out = from_idempotent(aop, fid, n_max=n_max)
    except (NotStratifying, CertificationFailed) as exc:
        raise TransferFailed(
            "opposite transfer via the complementary idempotent failed: "
            f"{exc} (the swapped recollement of this instance needs "
            "complex-shaped defining bimodules)",
            certificate=getattr(exc, "report", None)) from exc
    if out.a1.dim != r.a2.dim or out.a2.dim != r.a1.dim:
        raise TransferFailed(
            "opposite transfer did not produce the swapped sides "
            f"({out.a1.dim}, {out.a2.dim}) vs expected ({r.a2.dim}, {r.a1.dim})")
    if out.perfect.status != "verified":
        raise TransferFailed(f"opposite recollement not perfect: {out.perfect.status}")
    return out
