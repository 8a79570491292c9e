"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria are property-based at desk scale (exact arithmetic, so equality
checks carry no tolerance) and each carries the expected runtime budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import pytest

from recollab.algebra import center, enveloping
from recollab.errors import TransferFailed
from recollab.exactfield import GF, QQ, Matrix, row_space_basis
from recollab.fixtures import (
    a2_path_algebra,
    augmentation_bimodule,
    dual_numbers,
    field_bimodule,
    ground_field,
    kronecker_algebra,
    non_stratifying_algebra,
    one_point_extension_of_dual_numbers,
    vertex_idempotent,
)
from recollab.homology import (
    bar_oracle,
    hochschild_cohomology,
    hochschild_homology,
)
from recollab.modules import (
    as_bimodule,
    iso_test,
    regular_bimodule,
    regular_module,
    simple_modules,
    tensor_over,
)
from recollab.recollement import (
    from_idempotent,
    from_triangular,
    opposite_transfer,
    tensor_transfer,
)
from recollab.verify import (
    cohomology_les,
    keller_homology,
    smoothness_equivalence,
)

F5 = GF(5)

ORACLE_FIXTURES = [
    ("ground_field", ground_field),
    ("dual_numbers", dual_numbers),
    ("a2_path", a2_path_algebra),
    ("kronecker", kronecker_algebra),
]


def _perfect_fixture_registry(n_max=6):
    """The certified perfect fixtures used across the acceptance criteria."""
    k = ground_field()
    reg = {}
    reg["triangular(k,k,k)"] = from_triangular(
        ground_field(), ground_field(), field_bimodule(k, k, 1), n_max)
    reg["triangular(k,k,k^2)"] = from_triangular(
        ground_field(), ground_field(), field_bimodule(k, k, 2), n_max)
    d = dual_numbers()
    reg["triangular(D,k,k)"] = from_triangular(
        d, ground_field(), augmentation_bimodule(ground_field(), d), n_max)
    return reg


_REGISTRY = {}


def _registry():
    if not _REGISTRY:
        _REGISTRY.update(_perfect_fixture_registry())
    return _REGISTRY


def _line(num, ok, desc, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    ok = True
    for field in (QQ, F5):
        for name, builder in ORACLE_FIXTURES:
            alg = builder(field)
            hh = hochschild_homology(alg, 4)
            hhc = hochschild_cohomology(alg, 4)
            bar_h, bar_c = bar_oracle(alg, 4)
            for n in range(5):
                ok = ok and hh.dim(n) == bar_h.dim(n)
                ok = ok and hhc.dim(n) == bar_c.dim(n)
            assert ok, f"oracle disagreement on {name} over {field}"
    elapsed = time.time() - t0
    _line(1, ok and elapsed < 60,
          "HH/HH^ agree with the bar oracle, degrees <= 4, Q and F5, exact", t0)


def test_criterion_2_stratifying_certification():
    t0 = time.time()
    from recollab.errors import NotStratifying
    from recollab.modules import is_projective
    from recollab.recollement import check_stratifying
    ok = True
    for name, r in _registry().items():
        ok = ok and r.stratifying_report.stratifying
        ok = ok and r.perfect.status == "verified"
        ok = ok and is_projective(r.canon.aea.restrict_right())
        # e = diag(0, 1): the corner of the stored idempotent is the A2 block
        ok = ok and r.e.label == "diag(0,1)"
    neg = non_stratifying_algebra()
    e = vertex_idempotent(neg, "2")
    try:
        from_idempotent(neg, e, 4)
        ok = False
        recorded = ()
    except NotStratifying as exc:
        recorded = exc.report.failing_tor_degrees
    ok = ok and 1 in recorded
    elapsed = time.time() - t0
    _line(2, ok and elapsed < 30,
          "triangular fixtures certify perfect stratifying; negative instance "
          f"rejected with Tor degrees {list(recorded)}", t0)


def test_criterion_3_keller_instances():
    t0 = time.time()
    ok = True
    for name, r in _registry().items():
        # run one degree beyond the window so every joint through degree 6 is
        # assessed (the topmost joint needs the next connecting map)
        rep = keller_homology(r, 7)
        ok = ok and rep.les.exact
        for i, term in enumerate(rep.les.terms):
            if -term.degree <= 6:
                j = rep.les.joints[i]
                ok = ok and j.assessed and j.exact
        addrows = [row for row in rep.additivity if row["degree"] <= 6]
        ok = ok and all(row["match"] for row in addrows)
        ok = ok and all(row["match"] for row in rep.side1_identification
                        if row["degree"] <= 6)
        ok = ok and all(row["match"] for row in rep.side2_identification
                        if row["degree"] <= 6)
        assert ok, f"keller failed on {name}"
    elapsed = time.time() - t0
    _line(3, ok and elapsed < 300,
          "HH additivity degreewise to 6 and Tor-LES exact at every joint "
          "through degree 6 on every perfect fixture", t0)


def test_criterion_4_koenig_nagase_instances():
    t0 = time.time()
    ok = True
    count = 0
    for name, r in _registry().items():
        # run one degree beyond the window so every joint through degree 4 is
        # assessed
        rep = cohomology_les(r, 5)
        count += 1
        ok = ok and rep.seq_covariant.exact
        ok = ok and rep.seq_contravariant.exact
        ok = ok and rep.seq_mixed.exact
        ok = ok and all(row["match"] for row in rep.identification_quotient)
        ok = ok and all(row["match"] for row in rep.identification_corner)
        # connecting maps are explicit matrices with verified rank identities
        for seq in (rep.seq_covariant, rep.seq_contravariant, rep.seq_mixed):
            ok = ok and all(hasattr(m, "nrows") for m in seq.maps)
            for i, term in enumerate(seq.terms):
                if term.degree <= 4:
                    j = seq.joints[i]
                    ok = ok and j.assessed and j.exact
        assert ok, f"cohomology LES failed on {name}"
    ok = ok and count >= 3
    elapsed = time.time() - t0
    _line(4, ok and elapsed < 600,
          f"three cohomology LES exact at every joint through degree 4 on "
          f"{count} certified fixtures", t0)


def test_criterion_5_smoothness_equivalence():
    t0 = time.time()
    reg = _registry()
    ok = True
    rep = smoothness_equivalence(reg["triangular(k,k,k)"], cutoff=8)
    ok = ok and rep.verdict == "Consistent"
    ok = ok and rep.mid.startswith("Finite") and rep.side1.startswith("Finite") \
        and rep.side2.startswith("Finite")
    rep = smoothness_equivalence(reg["triangular(k,k,k^2)"], cutoff=8)
    ok = ok and rep.verdict == "Consistent" and rep.mid.startswith("Finite")
    rep = smoothness_equivalence(reg["triangular(D,k,k)"], cutoff=8)
    ok = ok and rep.verdict == "Consistent"
    ok = ok and rep.mid.startswith("AtLeast") and rep.side1.startswith("AtLeast")
    falsified = any(smoothness_equivalence(r, cutoff=8).verdict == "FALSIFIED"
                    for r in reg.values())
    ok = ok and not falsified
    elapsed = time.time() - t0
    _line(5, ok and elapsed < 300,
          "smoothness transfer: all-finite fixtures Finite, dual-numbers "
          "block AtLeast on matching sides, zero FALSIFIED at cutoff 8", t0)


def test_criterion_6_transfer_theorems():
    t0 = time.time()
    ok = True
    tensor_factors = [("k", ground_field()), ("dual_numbers", dual_numbers()),
                      ("a2_path", a2_path_algebra())]
    for rname, r in _registry().items():
        for bname, b in tensor_factors:
            try:
                out = tensor_transfer(b, r, 4)
            except TransferFailed as exc:
                raise AssertionError(
                    f"tensor transfer {bname} (x) {rname} failed: {exc}")
            ok = ok and out.stratifying_report.stratifying
            ok = ok and out.perfect.status == "verified"
        try:
            opp = opposite_transfer(r, 4)
        except TransferFailed as exc:
            raise AssertionError(f"opposite transfer of {rname} failed: {exc}")
        ok = ok and opp.perfect.status == "verified"
        ok = ok and opp.a1.dim == r.a2.dim and opp.a2.dim == r.a1.dim
    elapsed = time.time() - t0
    _line(6, ok and elapsed < 300,
          "tensor transfers (B in {k, dual numbers, A2}) and opposite "
          "transfers re-certify on every perfect fixture", t0)


def test_criterion_7_structural_invariants():
    t0 = time.time()
    ok = True
    fixtures = [b(QQ) for _, b in ORACLE_FIXTURES]
    fixtures.append(one_point_extension_of_dual_numbers()[0])
    for alg in fixtures:
        f = alg.field
        hh0 = hochschild_cohomology(alg, 0).dim(0)
        ok = ok and hh0 == center(alg).nrows
        rows = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                bi = tuple(1 if t == i else 0 for t in range(alg.dim))
                bj = tuple(1 if t == j else 0 for t in range(alg.dim))
                ij = alg.multiply(bi, bj)
                ji = alg.multiply(bj, bi)
                rows.append([x - y for x, y in zip(ij, ji)])
        comm = row_space_basis(Matrix(f, rows, ncols=alg.dim))
        ok = ok and hochschild_homology(alg, 0).dim(0) == alg.dim - comm.nrows
    # R3 instances on the standard battery come from the stored certificates
    for r in _registry().values():
        ok = ok and all(c["all_zero"] for c in r.certificate.r3_checks)
    # hom/tensor unit laws via iso_test
    for alg in (a2_path_algebra(), dual_numbers()):
        reg_bim = regular_bimodule(alg)
        for m in simple_modules(alg) + [regular_module(alg)]:
            tp = tensor_over(as_bimodule(m), reg_bim)
            ok = ok and bool(iso_test(tp.bimodule.restrict_right(), m))
    elapsed = time.time() - t0
    _line(7, ok and elapsed < 120,
          "HH^0 = centre, HH_0 = dim - [A,A], R3 vanishing on the battery, "
          "unit laws up to isomorphism", t0)


def test_criterion_8_determinism(tmp_path, capsys):
    t0 = time.time()
    from recollab.cli import main
    docs = {
        "a2": {
            "kind": "quiver", "field": "Q", "vertices": ["1", "2"],
            "arrows": [{"source": "1", "target": "2", "label": "a"}],
        },
        "kron": {
            "kind": "quiver", "field": "Q", "vertices": ["1", "2"],
            "arrows": [{"source": "1", "target": "2", "label": "a"},
                       {"source": "1", "target": "2", "label": "b"}],
        },
    }
    outputs = {}
    cache_dir = tmp_path / "cache"
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", str(path), "--idempotent", "e:2", "--max-degree", "3",
                "--cutoff", "5", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert main(argv[:-2]) == 0   # cache off
        plain = capsys.readouterr().out
        assert cold == warm == plain, f"determinism broke on {name}"
        outputs[name] = cold
        hh_argv = ["hochschild", str(path), "--max-degree", "3", "--oracle"]
        assert main(hh_argv) == 0
        first = capsys.readouterr().out
        assert main(hh_argv) == 0
        second = capsys.readouterr().out
        assert first == second
    ok = all(outputs.values())
    _line(8, ok, "byte-identical JSON reports across reruns, cache cold, "
          "warm and disabled", t0)
