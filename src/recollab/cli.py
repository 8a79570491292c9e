"""Command-line front end: algebra description files, verifier suites, reports.

Input files are JSON algebra documents (quiver presentation, raw structure
constants, or nested constructions); reports are JSON with all numbers exact
(rationals as "p/q" strings) and deterministic byte-for-byte for fixed inputs
and configuration.  Exit codes: 0 success, 1 usage/parse error, 2 failed
precondition (e.g. the idempotent is not stratifying), 3 a theorem instance
was falsified (loud, build-stopping), 4 resource/budget exceeded.

Each command computes a projective resolution once and reuses it for every
later request with the same content (an in-memory memo, always on).
--cache-dir, or the RECOLLAB_CACHE_DIR environment variable, also persists
the resolutions to a directory.  An entry stores only each level's generator
picks; a hit replays them through the builder that computes resolutions,
which checks them (indices in range, covers onto and minimal, the level
count, exactness) and recomputes the periodicity witness, and an entry that
fails is recomputed and rewritten.  An entry written by recollab reproduces
the cold report byte for byte; an edited one that replays changes no
dimension or verdict, only the bases `--with-matrices` prints.  The cache
directory is safe to delete wholesale.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import operator
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .algebra import (
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
from .complexes import resolution_store
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    DimensionMismatch,
    Inconclusive,
    InvalidRelation,
    NotFiniteDimensional,
    NotSplitBasic,
    NotStratifying,
    QuotientIsZero,
    RecollabError,
    UnsupportedField,
)
from .exactfield import Matrix, QQ, field_tag_str, linear_combination, parse_field
from .homology import bar_oracle, hochschild_cohomology, hochschild_homology
from .modules import Bimodule
from .recollement import check_stratifying, from_idempotent
from .verify import (
    cohomology_les,
    gldim_equivalence,
    keller_homology,
    smoothness_equivalence,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_FALSIFIED = 3
EXIT_BUDGET = 4


class ParseError(RecollabError):
    pass


@contextmanager
def _building(what):
    """Errors raised while building `what` from a document are parse errors:
    the document, not the engine, is at fault."""
    try:
        yield
    except (ArithmeticError, LookupError, TypeError, ValueError, DimensionMismatch) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _listed(x, n, what):
    """x, a document's vector, matrix or row, once it is a list of n entries
    (of any length for n None): a string is never read character by character."""
    if not isinstance(x, list) or n is not None and len(x) != n:
        raise ParseError(f"{what}: expected a list" + (f" of {n} entries" if n is not None else ""))
    return x


# --------------------------------------------------------------------------
# Algebra documents.
# --------------------------------------------------------------------------


def _schema_path(name):
    return Path(__file__).parent / "schemas" / name


def load_schema(name):
    with open(_schema_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_algebra_doc(doc):
    """Structural validation against the shipped algebra_doc schema."""
    if not isinstance(doc, dict):
        raise ParseError("algebra doc must be an object")
    kind = doc.get("kind")
    if kind not in ("quiver", "structure_constants", "construction"):
        raise ParseError(f"unknown kind {kind!r}")
    if kind != "construction":
        fieldtag = doc.get("field")
        if not isinstance(fieldtag, str):
            raise ParseError("missing field tag")
        with _building("field"):
            parse_field(fieldtag)
    if kind == "quiver":
        if not isinstance(doc.get("vertices"), list) or not doc["vertices"]:
            raise ParseError("quiver needs a nonempty vertex list")
        with _building("quiver"):
            for arr in _listed(doc.get("arrows", []), None, "arrows"):
                if not all(k in arr for k in ("source", "target", "label")):
                    raise ParseError("arrow needs source/target/label")
            for rel in _listed(doc.get("relations", []), None, "relations"):
                for term in _listed(rel, None, "relation"):
                    if len(_listed(term["path"], None, "relation path")) < 2:
                        raise ParseError("relation terms need paths of length >= 2")
            operator.index(doc.get("degree_bound", 32))
    elif kind == "structure_constants":
        for key in ("dim", "table", "unit"):
            if key not in doc:
                raise ParseError(f"structure_constants doc missing {key!r}")
    else:
        op = doc.get("op")
        if op not in ("tensor", "opposite", "enveloping", "triangular",
                      "corner", "quotient"):
            raise ParseError(f"unknown construction op {op!r}")
        args = doc.get("args")
        if not isinstance(args, list) or not args:
            raise ParseError("construction needs args")
        for sub in args:
            validate_algebra_doc(sub)
    return True


def algebra_from_doc(doc):
    """Build an Algebra from a validated document."""
    validate_algebra_doc(doc)
    kind = doc["kind"]
    if kind == "quiver":
        field = parse_field(doc["field"])
        with _building("quiver"):
            q = QuiverPresentation(
                tuple(doc["vertices"]),
                tuple((a["source"], a["target"], a["label"])
                      for a in doc.get("arrows", [])),
                tuple(tuple((field.coerce(term.get("coeff", 1)), tuple(term["path"]))
                            for term in rel)
                      for rel in doc.get("relations", [])),
            )
        return from_quiver(q, field, degree_bound=doc.get("degree_bound", 32))
    if kind == "structure_constants":
        field = parse_field(doc["field"])
        with _building("structure_constants"):
            dim = doc["dim"]
            struct = [[tuple(field.coerce(str(x)) for x in _listed(entry, dim, "table entry"))
                       for entry in _listed(row, dim, "table row")]
                      for row in _listed(doc["table"], dim, "table")]
            unit = tuple(field.coerce(str(x)) for x in _listed(doc["unit"], dim, "unit"))
            labels = doc.get("labels")
            alg = Algebra(field, struct, unit,
                          labels=labels and _listed(labels, dim, "labels"))
        if field == QQ:
            try:
                alg = discover_basic(alg)
            except RecollabError:
                pass
        return alg
    op = doc["op"]
    args = [algebra_from_doc(sub) for sub in doc["args"]]
    if any(x.field != args[0].field for x in args):
        raise ParseError(f"{op}: the arguments are over different fields")
    if op == "opposite":
        return opposite(args[0])
    if op == "tensor":
        out = args[0]
        for nxt in args[1:]:
            out = tensor(out, nxt)
        return out
    if op == "enveloping":
        return enveloping(args[0])
    if op == "triangular":
        if len(args) != 2:
            raise ParseError("triangular needs exactly two diagonal algebras")
        bim = _bimodule_from_doc(doc.get("bimodule"), args[1], args[0])
        alg, e1, e2 = triangular(args[0], args[1], bim)
        return alg
    if op == "corner":
        e = parse_idempotent(args[0], doc.get("idempotent"))
        return corner(args[0], e)
    if op == "quotient":
        e = parse_idempotent(args[0], doc.get("idempotent"))
        iq = ideal_and_quotient(args[0], e)
        if iq.ideal_is_whole:
            raise QuotientIsZero(
                "AeA = A: the quotient is the zero ring and cannot feed a "
                "construction that needs a unital algebra")
        return iq.quotient
    raise ParseError(f"unhandled op {op!r}")


def _bimodule_from_doc(spec, a2, a1):
    """A document's bimodule, given by one matrix per basis element of each
    algebra: reduced to the generators' matrices and checked, then refused
    unless each matrix given is the one its words derive (a unital,
    multiplicative action is)."""
    if spec is None:
        raise ParseError("triangular construction needs a bimodule spec")
    f = a2.field

    def mats(rows_list, count):
        return tuple(Matrix(f, [[f.coerce(str(x)) for x in _listed(row, dim, "action row")]
                                for row in _listed(mat, dim, "action matrix")], ncols=dim)
                     for mat in _listed(rows_list, count, "bimodule action"))

    with _building("bimodule"):
        dim = spec["dim"]
        sides = ((a2, mats(spec["left_action"], a2.dim)), (a1, mats(spec["right_action"], a1.dim)))
        bim = Bimodule(a2, a1, dim, *([linear_combination(g, stack, f, dim, dim)
                                       for g in a.generators()] for a, stack in sides))
        for left, (a, stack) in zip((True, False), sides):
            for label, x, y in zip(a.basis_labels, stack, bim._stack(left)):
                if x != y:
                    raise ValueError(f"basis element {label} of the {'left' if left else 'right'}"
                                     f" algebra acts unlike the product along its words")
        return bim


def parse_idempotent(alg, spec):
    """Idempotent grammar: "e:v", "e:v1+v3", or an explicit coordinate list."""
    if spec is None:
        raise ParseError("an idempotent spec is required")
    f = alg.field
    if isinstance(spec, list):
        with _building("idempotent"):
            coords = _listed(spec, alg.dim, "idempotent")
            return Idempotent(alg, tuple(f.coerce(str(x)) for x in coords), label="explicit")
    if isinstance(spec, str) and spec.startswith("e:"):
        if alg.basic is None:
            raise ParseError("vertex idempotents need a quiver-presented algebra")
        table = dict(zip(alg.basic.idempotent_labels, alg.basic.idempotent_coords))
        total = None
        for name in spec[2:].split("+"):
            name = name.strip()
            if name not in table:
                raise ParseError(f"unknown vertex {name!r}; have {sorted(table)}")
            v = table[name]
            total = v if total is None else tuple(x + y for x, y in zip(total, v))
        with _building("idempotent"):
            return Idempotent(alg, total, label=spec)
    if isinstance(spec, str):
        try:
            data = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad idempotent spec {spec!r}") from exc
        return parse_idempotent(alg, data)
    raise ParseError(f"bad idempotent spec {spec!r}")


# --------------------------------------------------------------------------
# Resolution cache.
# --------------------------------------------------------------------------


class ResolutionCache:
    """The disk side of the resolution store: one JSON file per resolution,
    named by its content key (safe to delete).  The store re-checks every
    entry it reads, so this class only reads and writes files."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _filename(key):
        alg_hash, mod_hash, depth = key
        h = hashlib.sha256(f"{alg_hash}:{mod_hash}:{depth}".encode()).hexdigest()
        return f"res_{h}.json"

    def get(self, key):
        """The stored entry, or None (a miss) when it is absent or undecodable."""
        path = self.root / self._filename(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (FileNotFoundError, ValueError):
            # a truncated or garbled entry is recomputed and rewritten by put
            return None
        return data

    def put(self, key, data):
        """Write the entry to a temporary file in the cache directory, then
        rename it into place, so no reader ever sees a partial entry."""
        path = self.root / self._filename(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()


# --------------------------------------------------------------------------
# Report helpers.
# --------------------------------------------------------------------------


def _report_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, payload):
    text = _report_json(payload)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _doc_hash(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")


# --------------------------------------------------------------------------
# Commands.
# --------------------------------------------------------------------------


def cmd_define(args):
    doc = _load_doc(args.file)
    alg = algebra_from_doc(doc)
    try:
        rad_dim = radical(alg).nrows
    except UnsupportedField:
        rad_dim = None
    idems = {}
    if alg.basic is not None:
        idems = {lbl: i for i, lbl in enumerate(alg.basic.idempotent_labels)}
    payload = {
        "schema": "recollab.define.v1",
        "input_sha256": _doc_hash(doc),
        "field": field_tag_str(alg.field),
        "dim": alg.dim,
        "content_hash": alg.content_hash(),
        "center_dim": center(alg).nrows,
        "radical_dim": rad_dim,
        "vertex_idempotents": sorted(idems),
        "basis_labels": list(alg.basis_labels),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_stratify(args):
    doc = _load_doc(args.file)
    alg = algebra_from_doc(doc)
    e = parse_idempotent(alg, args.idempotent)
    report, cb = check_stratifying(alg, e, args.max_degree)
    payload = {
        "schema": "recollab.stratify.v1",
        "input_sha256": _doc_hash(doc),
        "field": field_tag_str(alg.field),
        "algebra_hash": alg.content_hash(),
        "idempotent": str(args.idempotent),
        "report": report.as_dict(),
        "dims": {"A": alg.dim, "Ae": cb.ae.dim, "eA": cb.ea.dim,
                 "AeA": cb.aea.dim, "A/AeA": cb.quotient.dim},
    }
    _emit(args, payload)
    return EXIT_OK


SUITES = ("keller", "cohomology", "smoothness", "gldim")


def cmd_verify(args):
    doc = _load_doc(args.file)
    alg = algebra_from_doc(doc)
    e = parse_idempotent(alg, args.idempotent)
    wanted = SUITES if args.suite == "all" else (args.suite,)
    t0 = time.monotonic()
    try:
        r = from_idempotent(alg, e, n_max=args.max_degree)
    except NotStratifying as exc:
        payload = {
            "schema": "recollab.verify.v1",
            "input_sha256": _doc_hash(doc),
            "error": "not_stratifying",
            "detail": str(exc),
            "report": exc.report.as_dict() if exc.report else None,
        }
        _emit(args, payload)
        return EXIT_PRECONDITION
    run = {"keller": lambda: keller_homology(r, args.max_degree),
           "cohomology": lambda: cohomology_les(r, args.max_degree),
           "smoothness": lambda: smoothness_equivalence(r, cutoff=args.cutoff),
           "gldim": lambda: gldim_equivalence(r, cutoff=args.cutoff)}
    reports = {suite: run[suite]() for suite in SUITES if suite in wanted}
    falsified = not all(rep.ok for rep in reports.values())
    payload = {
        "schema": "recollab.verify.v1",
        "input_sha256": _doc_hash(doc),
        "field": field_tag_str(alg.field),
        "algebra_hash": alg.content_hash(),
        "idempotent": str(args.idempotent),
        "config": {"max_degree": args.max_degree, "cutoff": args.cutoff,
                   "suites": sorted(wanted)},
        "stratifying": r.stratifying_report.as_dict(),
        "perfect": {"status": r.perfect.status, "pd": r.perfect.pd.label()},
        "degenerate_quotient": r.is_degenerate_quotient,
        "certificate_ok": r.certificate.ok,
        "suites": {suite: rep.as_dict(args.with_matrices)
                   for suite, rep in reports.items()},
        "falsified": falsified,
    }
    if args.timings:
        payload["wall_time_seconds"] = round(time.monotonic() - t0, 3)
    _emit(args, payload)
    return EXIT_FALSIFIED if falsified else EXIT_OK


def cmd_hochschild(args):
    doc = _load_doc(args.file)
    alg = algebra_from_doc(doc)
    hh = hochschild_homology(alg, args.max_degree)
    hhc = hochschild_cohomology(alg, args.max_degree)
    payload = {
        "schema": "recollab.hochschild.v1",
        "input_sha256": _doc_hash(doc),
        "field": field_tag_str(alg.field),
        "algebra_hash": alg.content_hash(),
        "max_degree": args.max_degree,
        "hh": {str(n): hh.dim(n) for n in range(args.max_degree + 1)},
        "hh_cohomology": {str(n): hhc.dim(n) for n in range(args.max_degree + 1)},
    }
    if args.oracle:
        bar_h, bar_c = bar_oracle(alg, args.max_degree, budget=args.budget)
        agree = {str(n): (hh.dim(n) == bar_h.dim(n)
                          and hhc.dim(n) == bar_c.dim(n))
                 for n in range(args.max_degree + 1)}
        payload["oracle"] = {
            "hh": {str(n): bar_h.dim(n) for n in range(args.max_degree + 1)},
            "hh_cohomology": {str(n): bar_c.dim(n)
                              for n in range(args.max_degree + 1)},
            "agreement": agree,
        }
        if not all(agree.values()):
            _emit(args, payload)
            return EXIT_FALSIFIED
    _emit(args, payload)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


def _nonnegative(text):
    """A degree bound or budget from the command line: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


@functools.cache
def build_parser():
    # parse_args leaves the parser unchanged, so one serves every call
    p = argparse.ArgumentParser(
        prog="recollab",
        description="Exact verification of recollement and Hochschild "
                    "theory instances for finite-dimensional algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, idempotent=False, degrees=False):
        sp.add_argument("file", help="algebra description JSON file")
        sp.add_argument("--report", help="also write the JSON report to this path")
        sp.add_argument("--cache-dir", help="resolution cache directory "
                        "(or RECOLLAB_CACHE_DIR)")
        if idempotent:
            sp.add_argument("--idempotent", required=True,
                            help='e.g. "e:2", "e:1+3", or "[0,1,0]"')
        if degrees:
            sp.add_argument("--max-degree", type=_nonnegative, default=6)

    d = sub.add_parser("define", help="parse a file and summarize the algebra")
    common(d)
    d.set_defaults(func=cmd_define)

    s = sub.add_parser("stratify", help="check the stratifying conditions")
    common(s, idempotent=True, degrees=True)
    s.set_defaults(func=cmd_stratify)

    v = sub.add_parser("verify", help="run theorem-instance verifier suites")
    common(v, idempotent=True, degrees=True)
    v.add_argument("--suite", choices=SUITES + ("all",), default="all")
    v.add_argument("--cutoff", type=_nonnegative, default=8)
    v.add_argument("--with-matrices", action="store_true",
                   help="embed LES matrices in the report")
    v.add_argument("--timings", action="store_true",
                   help="include wall time (breaks byte-determinism)")
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("hochschild", help="Hochschild homology and cohomology")
    common(h, degrees=True)
    h.add_argument("--oracle", action="store_true",
                   help="cross-check against the normalised bar complex relative to "
                        "the vertex idempotents (Gerstenhaber-Schack, Cibils)")
    h.add_argument("--budget", type=_nonnegative, default=20000,
                   help="bar oracle budget, still on the unnormalised term dim A^(n+1)")
    h.set_defaults(func=cmd_hochschild)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    root = args.cache_dir or os.environ.get("RECOLLAB_CACHE_DIR")
    try:
        with resolution_store(ResolutionCache(root) if root else None):
            return args.func(args)
    except (ParseError, NotFiniteDimensional, InvalidRelation) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Inconclusive as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotStratifying, NotSplitBasic, UnsupportedField, QuotientIsZero) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationFailed as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except OSError as exc:
        # an unwritable --report, --cache-dir or RECOLLAB_CACHE_DIR
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
