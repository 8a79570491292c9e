import hashlib
import json
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from recollab.cli import (
    EXIT_BUDGET,
    EXIT_FALSIFIED,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    algebra_from_doc,
    load_schema,
    main,
    parse_idempotent,
    validate_algebra_doc,
)
from recollab.errors import CertificationFailed
from recollab.exactfield import Matrix
from recollab.fixtures import (
    a2_path_algebra,
    augmentation_bimodule,
    dual_numbers,
    field_bimodule,
    ground_field,
)
from recollab.modules import RightModule, vertex_projective
from recollab.recollement import from_triangular, opposite_transfer, tensor_transfer
from test_exactfield import _is_canonical
from test_homology import _dense, _doc_over, _linear_doc

DOCS = Path(__file__).resolve().parent.parent / "demos" / "docs"


def _doc(name):
    with open(DOCS / f"{name}.json") as fh:
        return json.load(fh)


def _write(tmp_path, doc, name="alg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_algebra_from_quiver_doc():
    alg = algebra_from_doc(_doc("a2"))
    assert alg.dim == 3


def test_algebra_from_construction_doc():
    alg = algebra_from_doc(_doc("t2_one_point_extension"))
    assert alg.dim == 4


def test_structure_constants_doc_roundtrip():
    doc = {
        "kind": "structure_constants",
        "field": "Q",
        "dim": 2,
        "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        "unit": ["1", "1"],
        "labels": ["u", "v"],
    }
    alg = algebra_from_doc(doc)
    assert alg.dim == 2
    assert alg.basic is not None  # discovered over Q


def test_validation_rejects_bad_docs():
    from recollab.cli import ParseError
    with pytest.raises(ParseError):
        validate_algebra_doc({"kind": "nope"})
    with pytest.raises(ParseError):
        validate_algebra_doc({"kind": "quiver", "field": "Q", "vertices": []})
    with pytest.raises(ParseError):
        validate_algebra_doc({
            "kind": "quiver", "field": "Q", "vertices": ["1"],
            "arrows": [{"source": "1", "target": "1", "label": "x"}],
            "relations": [[{"coeff": 1, "path": ["x"]}]],
        })


def test_parse_idempotent_grammar():
    alg = algebra_from_doc(_doc("a2"))
    e = parse_idempotent(alg, "e:2")
    assert sum(1 for c in e.coords if c) == 1
    e12 = parse_idempotent(alg, "e:1+2")
    assert e12.coords == alg.unit
    ev = parse_idempotent(alg, [0, 1, 0])
    assert ev.coords == e.coords or sum(1 for c in ev.coords if c) == 1


def test_cmd_define(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    code = main(["define", path])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 3
    assert out["center_dim"] == 1
    assert out["radical_dim"] == 1
    assert out["vertex_idempotents"] == ["1", "2"]


def test_cmd_define_dual(tmp_path, capsys):
    path = _write(tmp_path, _doc("dual_numbers"))
    assert main(["define", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 2


@pytest.mark.parametrize("op, args, idempotent, dims", [
    # (dim, centre, radical): A^op keeps all three; a2 (x) k[x]/(x^2) has
    # centre 1 * 2 and semisimple part k x k; (k[x]/(x^2))^e = k[x,y]/(x^2, y^2);
    # the corner e_2 A e_2 of the Kronecker algebra and a2 / A e_2 A are k
    ("opposite", ["a2"], None, (3, 1, 1)),
    ("tensor", ["a2", "dual_numbers"], None, (6, 2, 4)),
    ("enveloping", ["dual_numbers"], None, (4, 4, 3)),
    ("corner", ["kronecker"], "e:2", (1, 1, 0)),
    ("quotient", ["a2"], "e:2", (1, 1, 0)),
])
def test_cmd_define_constructions(op, args, idempotent, dims, tmp_path, capsys):
    doc = {"kind": "construction", "op": op, "args": [_doc(name) for name in args]}
    if idempotent:
        doc["idempotent"] = idempotent
    assert main(["define", _write(tmp_path, doc)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["dim"], out["center_dim"], out["radical_dim"]) == dims


def test_cmd_define_malformed_relation(tmp_path, capsys):
    doc = _doc("dual_numbers")
    doc["relations"] = [[{"coeff": 1, "path": ["x"]}]]
    path = _write(tmp_path, doc)
    assert main(["define", path]) == EXIT_USAGE


def test_cmd_stratify(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    code = main(["stratify", path, "--idempotent", "e:2", "--max-degree", "4"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["stratifying"] is True
    assert out["dims"]["AeA"] == 2


def test_cmd_stratify_negative_instance(tmp_path, capsys):
    path = _write(tmp_path, _doc("non_stratifying"))
    code = main(["stratify", path, "--idempotent", "e:2", "--max-degree", "4"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["stratifying"] is False
    assert 1 in out["report"]["failing_tor_degrees"]


def test_cmd_verify_all_suites(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    code = main(["verify", path, "--idempotent", "e:2",
                 "--max-degree", "4", "--cutoff", "6"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["falsified"] is False
    assert out["suites"]["keller"]["ok"] is True
    assert out["suites"]["cohomology"]["ok"] is True
    assert out["suites"]["smoothness"]["verdict"] == "Consistent"
    assert out["suites"]["gldim"]["verdict"] == "Consistent"


def test_cmd_verify_not_stratifying_exit_2(tmp_path, capsys):
    path = _write(tmp_path, _doc("non_stratifying"))
    code = main(["verify", path, "--idempotent", "e:2", "--max-degree", "3"])
    assert code == EXIT_PRECONDITION
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "not_stratifying"


def test_cmd_verify_degenerate_unit(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    code = main(["verify", path, "--idempotent", "e:1+2",
                 "--max-degree", "3", "--cutoff", "4"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["degenerate_quotient"] is True


def test_cmd_hochschild_with_oracle(tmp_path, capsys):
    path = _write(tmp_path, _doc("dual_numbers"))
    code = main(["hochschild", path, "--max-degree", "4", "--oracle"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["hh"] == {"0": 2, "1": 1, "2": 1, "3": 1, "4": 1}
    assert all(out["oracle"]["agreement"].values())


def test_cmd_hochschild_oracle_disagreement_exit_3(capsys, monkeypatch):
    # the report is still printed, with the disagreeing degree marked
    import recollab.cli as cli_mod
    from recollab.homology import GradedDims
    bar = cli_mod.bar_oracle

    def off_by_one(alg, n, budget):
        h, c = bar(alg, n, budget=budget)
        return GradedDims(tuple((d, v + (d == 2)) for d, v in h.entries)), c

    monkeypatch.setattr(cli_mod, "bar_oracle", off_by_one)
    code = main(["hochschild", str(DOCS / "dual_numbers.json"), "--max-degree", "3",
                 "--oracle"])
    assert code == EXIT_FALSIFIED
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"]["agreement"] == {"0": True, "1": True, "2": False, "3": True}


def test_cmd_hochschild_budget_exit_4(tmp_path, capsys):
    path = _write(tmp_path, _doc("kronecker"))
    code = main(["hochschild", path, "--max-degree", "4", "--oracle",
                 "--budget", "10"])
    assert code == EXIT_BUDGET


@pytest.mark.scale
def test_cmd_define_linear_a16(tmp_path, capsys):
    # linear A_16 (dim 136, 816 nonzero products): the associativity check is
    # sized to each basis element's nonzero products, so this takes about a
    # second; the centre is k and the radical is spanned by the 120 paths of
    # positive length
    assert main(["define", _write(tmp_path, _linear_doc(16))]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["dim"], out["center_dim"], out["radical_dim"]) == (136, 1, 120)


@pytest.mark.scale
def test_cmd_hochschild_linear_a5_resolution_path_and_oracle(tmp_path, capsys):
    # linear A_5 (dim 15, A^e of dim 225) to degree 3: Happel's HH^0 = 1,
    # HH_0 = |Q_0| and 0 above, and the bar oracle agrees in every degree at
    # the budget 15^5 that its gate measures for degree 4
    path = _write(tmp_path, _linear_doc(5))
    code = main(["hochschild", path, "--max-degree", "3", "--oracle", "--budget", "759375"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["hh"] == {"0": 5, "1": 0, "2": 0, "3": 0}
    assert out["hh_cohomology"] == {"0": 1, "1": 0, "2": 0, "3": 0}
    assert out["oracle"]["hh"] == out["hh"]
    assert out["oracle"]["hh_cohomology"] == out["hh_cohomology"]
    assert all(out["oracle"]["agreement"].values())


@pytest.mark.scale
def test_cmd_hochschild_linear_a6_happel(tmp_path, capsys):
    # linear A_6 (dim 21, A^e of dim 441) to degree 2: Happel's HH^0 = 1 and
    # HH^1 = HH^2 = 0 for a tree quiver, and HH_0 = |Q_0| with 0 above
    path = _write(tmp_path, _linear_doc(6))
    assert main(["hochschild", path, "--max-degree", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["hh_cohomology"] == {"0": 1, "1": 0, "2": 0}
    assert out["hh"] == {"0": 6, "1": 0, "2": 0}


@pytest.mark.scale
def test_cmd_hochschild_linear_a8_report_digest(tmp_path, capsys):
    # linear A_8 (dim 36, A^e of dim 1296) to degree 3, about 1 s: every
    # syzygy is restricted from its 30 generator matrices, and the report
    # bytes are those of the per-basis restriction from whole action stacks
    assert main(["hochschild", _write(tmp_path, _linear_doc(8)), "--max-degree", "3"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "40fd84a9b82c74d28ac29157aca094035df744c098e51fc36dd3d9cbc0312518"


@pytest.mark.scale
def test_cmd_verify_linear_a6_report_digest(tmp_path, capsys):
    # linear A_6 (dim 21) at e:3, every suite to degree 3, about 1 s: Hom and
    # (x) out of A_A are read by Yoneda, and the report bytes are those the
    # Sylvester systems gave
    argv = ["verify", _write(tmp_path, _linear_doc(6)), "--suite", "all", "--idempotent", "e:3",
            "--max-degree", "3", "--cutoff", "6"]
    assert main(argv) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3ca58f3037370fbe1bc1c61c4c7e766f045a4e80852c5aa43f593e3410552c93"


@pytest.mark.scale
def test_cmd_hochschild_linear_a10_happel(tmp_path, capsys):
    # linear A_10 (dim 55, A^e of dim 3,025 with 38 generators) to degree 3:
    # Happel's HH^0 = 1 and 0 above for a tree quiver, HH_0 = |Q_0| and 0 above
    assert main(["hochschild", _write(tmp_path, _linear_doc(10)), "--max-degree", "3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["hh"] == {"0": 10, "1": 0, "2": 0, "3": 0}
    assert out["hh_cohomology"] == {"0": 1, "1": 0, "2": 0, "3": 0}


@pytest.mark.parametrize("doc", [_linear_doc(5)] + sorted(DOCS.glob("*.json")),
                         ids=lambda d: d.stem if isinstance(d, Path) else "linear_a5")
def test_cmd_hochschild_reads_nothing_per_basis_over_a_e(doc, tmp_path, capsys, monkeypatch):
    """A `hochschild` request keeps its A^e-modules by A^e's generators: no
    stack longer than A^e's generator count reaches `_restrict`, `_descend`
    or `_blocks`, and no module over A^e derives the action of every one of
    its basis elements, only those its covers and Yoneda's Hom and (x) read."""
    from recollab import algebra, modules
    envs, stacks, derived = [], [], {}
    real_env, real_derive = algebra.enveloping, modules._Acted.basis_action

    def spy(a):
        envs.append(real_env(a))
        return envs[-1]
    for name, mod in list(sys.modules.items()):
        if name.startswith("recollab") and getattr(mod, "enveloping", None) is real_env:
            monkeypatch.setattr(mod, "enveloping", spy)

    def derive(self, i, left=False):
        if any(self._sides[left][0] is e for e in envs):
            derived.setdefault((id(self), left), (self, set()))[1].add(i)
        return real_derive(self, i, left)
    monkeypatch.setattr(modules._Acted, "basis_action", derive)
    for name in ("_restrict", "_descend"):
        monkeypatch.setattr(modules, name, lambda rows, mats, real=getattr(modules, name):
                            stacks.append(len(mats)) or real(rows, mats))
    monkeypatch.setattr(modules, "_blocks", lambda field, groups, bound, real=modules._blocks:
                        stacks.extend(len(g[2]) for g in groups) or real(field, groups, bound))
    path = _write(tmp_path, doc) if isinstance(doc, dict) else str(doc)
    assert main(["hochschild", path, "--max-degree", "3"]) == EXIT_OK
    capsys.readouterr()
    gens = {len(e.generators()) for e in envs}
    assert len(gens) == 1 and stacks and max(stacks) <= gens.pop()
    assert all(len(seen) < envs[0].dim for _, seen in derived.values())


@pytest.mark.scale
def test_cmd_hochschild_linear_a5_runs_no_check_over_a_e(tmp_path, capsys, monkeypatch):
    """The A^e-modules of a `hochschild` request are certified through the
    checks over A and A^op, and A's vertex projectives by A's check: no
    module or bimodule law check runs at all, over A^e (of dimension 225
    here), its opposite, which is never built, or A, and A^e's integer tables
    are not built."""
    import sys
    from recollab import algebra, modules
    envs, checked = [], []
    real_env = algebra.enveloping

    def spy(a):
        envs.append(real_env(a))
        return envs[-1]
    for name, mod in list(sys.modules.items()):
        if name.startswith("recollab") and getattr(mod, "enveloping", None) is real_env:
            monkeypatch.setattr(mod, "enveloping", spy)
    for cls in (modules.RightModule, modules.Bimodule):
        monkeypatch.setattr(cls, "_validate", lambda self, real=cls._validate:
                            checked.append(self) or real(self))
    path = _write(tmp_path, _linear_doc(5))
    assert main(["hochschild", path, "--max-degree", "3"]) == EXIT_OK
    assert envs and all(e.dim == 225 and e._opposite is None for e in envs)
    assert all(e._ints is None for e in envs)
    assert not checked
    # the spy sees a check that does run
    modules.regular_module(envs[0]._factors[1])._validate()
    assert len(checked) == 1


def _validate_against_schema(report):
    """Match the report against the published run_report schema by its
    schema-constant branch and check that branch's required keys."""
    schema = load_schema("run_report.schema.json")
    for branch in schema["oneOf"]:
        const = branch["properties"]["schema"].get("const")
        if const == report.get("schema"):
            for key in branch["required"]:
                assert key in report, f"missing required key {key!r}"
            return True
    raise AssertionError(f"no schema branch matches {report.get('schema')!r}")


def test_reports_reparse_under_schema(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    main(["define", path])
    _validate_against_schema(json.loads(capsys.readouterr().out))
    main(["stratify", path, "--idempotent", "e:2"])
    _validate_against_schema(json.loads(capsys.readouterr().out))
    main(["verify", path, "--idempotent", "e:2", "--suite", "gldim",
          "--max-degree", "3", "--cutoff", "4"])
    _validate_against_schema(json.loads(capsys.readouterr().out))
    main(["hochschild", path, "--max-degree", "2"])
    _validate_against_schema(json.loads(capsys.readouterr().out))
    # algebra documents validate against their schema too
    doc_schema = load_schema("algebra_doc.schema.json")
    assert "oneOf" in doc_schema
    for name in ("a2", "dual_numbers", "t2_one_point_extension"):
        validate_algebra_doc(_doc(name))


def test_report_written_to_file(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    report = tmp_path / "out.json"
    main(["verify", path, "--idempotent", "e:2", "--suite", "smoothness",
          "--max-degree", "3", "--cutoff", "4", "--report", str(report)])
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["suites"]["smoothness"]["verdict"] == "Consistent"


class _Lookups:
    """Counts the disk lookups of every command, hits and misses, and keeps
    each command's resolution store (whose `rejected` counts the entries
    that failed their replay)."""

    def __init__(self, monkeypatch):
        import recollab.cli as cli_mod
        self.hits = self.misses = 0
        self.stores = []
        get, store = cli_mod.ResolutionCache.get, cli_mod.resolution_store

        def counting_get(cache, key):
            data = get(cache, key)
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
            return data

        @contextmanager
        def keeping_store(disk=None):
            with store(disk) as st:
                self.stores.append(st)
                yield st

        monkeypatch.setattr(cli_mod.ResolutionCache, "get", counting_get)
        monkeypatch.setattr(cli_mod, "resolution_store", keeping_store)

    def reset(self):
        self.hits = self.misses = 0
        self.stores.clear()

    @property
    def rejected(self):
        return sum(st.rejected for st in self.stores)


def _cold_warm_plain(argv, cache_dir, lookups, capsys):
    """Runs argv with a cold and then a warm cache_dir, and with no cache;
    the three must print the same bytes with one exit code, and every warm
    lookup must be a hit that replays: a replay that always failed would
    still pass the byte checks, by recomputing.  Returns the exit code."""
    cache = ["--cache-dir", str(cache_dir)]
    runs = []
    for args in (argv + cache, argv + cache, argv):
        lookups.reset()
        code = main(args)
        runs.append((code, capsys.readouterr().out, lookups.hits, lookups.misses,
                     lookups.rejected))
    (code, cold, _, stored, _), (_, _, hits, misses, rejected), _ = runs
    assert runs[1][:2] == runs[2][:2] == (code, cold), argv
    assert (hits, misses, rejected) == (stored, 0, 0) and stored > 0, argv
    return code


# The idempotent each shipped document is cut at.
IDEMPOTENTS = {"a2": "e:2", "dual_numbers": "e:1", "dual_numbers_f5": "e:1",
               "kronecker": "e:2", "kronecker_f5": "e:2", "non_stratifying": "e:2",
               "t2_one_point_extension": "e:R:1"}


def test_determinism_and_cache(tmp_path, capsys, monkeypatch):
    lookups = _Lookups(monkeypatch)
    assert sorted(IDEMPOTENTS) == sorted(p.stem for p in DOCS.glob("*.json"))
    for name, idem in IDEMPOTENTS.items():
        path = str(DOCS / f"{name}.json")
        code = _cold_warm_plain(
            ["verify", path, "--idempotent", idem, "--max-degree", "3", "--cutoff", "4",
             "--with-matrices"], tmp_path / name / "verify", lookups, capsys)
        assert code == (EXIT_PRECONDITION if name == "non_stratifying" else EXIT_OK)
        code = _cold_warm_plain(["hochschild", path, "--max-degree", "3"],
                                tmp_path / name / "hochschild", lookups, capsys)
        assert code == EXIT_OK


def test_truncated_cache_entry_is_a_miss(tmp_path, capsys):
    path = _write(tmp_path, _doc("dual_numbers"))
    cache_dir = tmp_path / "cache"
    argv = ["hochschild", path, "--max-degree", "3", "--cache-dir", str(cache_dir)]
    assert main(argv) == EXIT_OK
    cold = capsys.readouterr().out
    entries = sorted(cache_dir.glob("res_*.json"))
    assert entries
    for entry in entries:
        data = entry.read_bytes()
        entry.write_bytes(data[:len(data) // 2])
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == cold
    # the rerun replaced every truncated entry with a whole one
    for entry in entries:
        json.loads(entry.read_text(encoding="utf-8"))
    assert sorted(cache_dir.iterdir()) == entries


def test_tampered_cache_entry_is_rejected_and_rewritten(tmp_path, capsys, monkeypatch):
    # a version-2 entry whose first differential was zeroed once changed
    # HH^0(a2) from 1 to 2 and HH^1 from 0 to 1, with exit 0; a version-3
    # entry with a pick given twice replays as a cover that is not minimal
    lookups = _Lookups(monkeypatch)
    path = _write(tmp_path, _doc("a2"))
    cache_dir = tmp_path / "cache"
    argv = ["hochschild", path, "--max-degree", "3", "--cache-dir", str(cache_dir)]
    assert main(argv) == EXIT_OK
    cold = capsys.readouterr().out
    originals = {}
    for entry in cache_dir.glob("res_*.json"):
        data = json.loads(entry.read_text(encoding="utf-8"))
        originals[entry] = entry.read_bytes()
        data["levels"][0].append(data["levels"][0][0])
        entry.write_text(json.dumps(data), encoding="utf-8")
    assert originals
    lookups.reset()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == cold
    assert lookups.hits == lookups.rejected == len(originals)
    for entry, whole in originals.items():
        assert entry.read_bytes() == whole


def test_replayed_entries_recompute_the_periodicity_witness(tmp_path, capsys, monkeypatch):
    # version-2 entries stored the witness and trusted it when absent: with
    # "periodicity": null in the four entries that had one, smoothness and
    # gldim read "AtLeast(7)" for A and A2 instead of "AtLeast(7, periodic)",
    # with exit 0; a version-3 entry stores no witness, and a replay finds it
    from recollab import complexes
    lookups = _Lookups(monkeypatch)
    argv = ["verify", str(DOCS / "dual_numbers.json"), "--idempotent", "e:1",
            "--max-degree", "3", "--cutoff", "6"]
    cover = complexes.projective_cover

    def replay_only(m, picks=None):
        if picks is None:
            raise AssertionError("a valid disk entry was searched again")
        return cover(m, picks)

    assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
    cold = capsys.readouterr().out
    suites = json.loads(cold)["suites"]
    for suite in ("smoothness", "gldim"):
        assert suites[suite]["A"] == suites[suite]["A2"] == "AtLeast(7, periodic)"
    monkeypatch.setattr(complexes, "projective_cover", replay_only)
    lookups.reset()
    assert main(argv + ["--cache-dir", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == cold
    assert lookups.hits > 0 and (lookups.misses, lookups.rejected) == (0, 0)


def test_verify_searches_each_representatives_cover_once(tmp_path, capsys, monkeypatch):
    # a resolution step is built once per module representative, so across
    # the suites a repeating syzygy (every one over the dual numbers) and a
    # module asked for at a second depth read their covers: no representative
    # is searched twice (a weak reference tells a live one from a reused id)
    from recollab import complexes
    from recollab.modules import _rep
    cover, seen, again = complexes.projective_cover, {}, []

    def spy(m, picks=None):
        if picks is None:
            rep = _rep(m)
            ref = seen.get(id(rep))
            if ref is not None and ref() is rep:
                again.append(m)
            seen[id(rep)] = weakref.ref(rep)
        return cover(m, picks)

    monkeypatch.setattr(complexes, "projective_cover", spy)
    for name, tag in (("dual_numbers", None), ("t2_one_point_extension", "Fp:5")):
        doc = _doc(name) if tag is None else _doc_over(_doc(name), tag)
        argv = ["verify", _write(tmp_path, doc, f"{name}.json"), "--idempotent",
                IDEMPOTENTS[name], "--suite", "all", "--max-degree", "3", "--cutoff", "6"]
        assert main(argv) == EXIT_OK, capsys.readouterr()
    assert len(seen) > 10 and again == []


def _structure_constants_doc(name):
    """The same algebra as a structure_constants document; over Q its basic
    structure is then discovered, not read from the quiver."""
    alg = algebra_from_doc(_doc(name))
    return {"kind": "structure_constants", "field": "Q", "dim": alg.dim,
            "table": [[[str(x) for x in entry] for entry in row] for row in _dense(alg)],
            "unit": [str(x) for x in alg.unit]}


def test_quiver_and_structure_constants_docs_share_a_cache_dir(tmp_path, capsys):
    # equal tables and content hashes, opposite idempotent orders: their
    # resolutions must be stored apart, and neither may read the other's
    docs = {"quiver": _doc("a2"), "table": _structure_constants_doc("a2")}
    algs = [algebra_from_doc(doc) for doc in docs.values()]
    assert algs[0].content_hash() == algs[1].content_hash()
    assert algs[0].basic.idempotent_coords != algs[1].basic.idempotent_coords
    cache_dir = tmp_path / "cache"
    plain = {}
    for name, doc in docs.items():
        path = _write(tmp_path, doc, f"{name}.json")
        argv = ["verify", path, "--idempotent", "[1,0,0]", "--max-degree", "3",
                "--cutoff", "4"]
        assert main(argv) == EXIT_OK
        plain[name] = (argv, capsys.readouterr().out)
    stored = []
    for _ in range(2):
        for name, (argv, expected) in plain.items():
            assert main(argv + ["--cache-dir", str(cache_dir)]) == EXIT_OK
            assert capsys.readouterr().out == expected, name
            stored.append(len(list(cache_dir.iterdir())))
    assert stored[0] < stored[1] == stored[2] == stored[3]


def test_usage_error_exit_1():
    assert main(["stratify"]) == EXIT_USAGE


def test_one_parser_serves_every_call(tmp_path, capsys):
    from recollab.cli import build_parser
    a2 = _write(tmp_path, _doc("a2"), "a2.json")
    kron = _write(tmp_path, _doc("kronecker"), "kron.json")
    calls = [["define", a2],
             ["stratify", kron, "--idempotent", "e:1", "--max-degree", "2"],
             ["hochschild", a2, "--max-degree", "2", "--oracle"],
             ["stratify", a2],
             ["verify", a2, "--idempotent", "e:2", "--suite", "smoothness",
              "--max-degree", "2", "--cutoff", "3"],
             ["bogus"],
             ["define", kron]]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert [c for c, _, _ in fresh] == [EXIT_OK] * 3 + [EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert build_parser() is build_parser()
    assert [run(argv) for argv in calls] == fresh


def test_falsified_exit_3_plumbing(tmp_path, capsys, monkeypatch):
    # honest fixtures cannot falsify a theorem, so exercise the exit-code
    # contract by stubbing one verifier to report FALSIFIED
    import recollab.cli as cli_mod
    from recollab.verify import EquivalenceReport

    def fake(r, cutoff=8, cache=None):
        return EquivalenceReport("hochschild_dimension", "Finite(0)",
                                 "AtLeast(9, periodic)", "Finite(0)",
                                 "FALSIFIED", "stubbed for exit-code test")

    monkeypatch.setattr(cli_mod, "smoothness_equivalence", fake)
    path = _write(tmp_path, _doc("a2"))
    code = main(["verify", path, "--idempotent", "e:2",
                 "--suite", "smoothness", "--max-degree", "3"])
    assert code == EXIT_FALSIFIED
    out = json.loads(capsys.readouterr().out)
    assert out["falsified"] is True


def test_certification_failure_is_one_falsified_line_exit_3(capsys, monkeypatch):
    import recollab.cli as cli_mod

    def refuted(*args, **kwargs):
        raise CertificationFailed("product of Ae and eA left the ideal AeA")

    monkeypatch.setattr(cli_mod, "check_stratifying", refuted)
    assert main(["stratify", str(DOCS / "a2.json"), "--idempotent", "e:2"]) == EXIT_FALSIFIED
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "FALSIFIED: product of Ae and eA left the ideal AeA\n"


def test_verify_timings_adds_only_the_wall_time(capsys):
    argv = ["verify", str(DOCS / "a2.json"), "--idempotent", "e:2", "--max-degree", "2",
            "--cutoff", "3"]
    assert main(argv) == EXIT_OK
    plain = json.loads(capsys.readouterr().out)
    assert main(argv + ["--timings"]) == EXIT_OK
    timed = json.loads(capsys.readouterr().out)
    assert timed.pop("wall_time_seconds") >= 0
    assert timed == plain


def test_inconclusive_is_a_resource_limit_exit_4(tmp_path, capsys, monkeypatch):
    # a search cap reached deep in the engine (here: stubbed into the
    # Hochschild cohomology call) is exit 4 with one line, no traceback
    import recollab.cli as cli_mod
    from recollab.errors import Inconclusive

    def capped(*args, **kwargs):
        raise Inconclusive("iso_test grid cap 200000 reached (371293 points needed)")

    monkeypatch.setattr(cli_mod, "hochschild_cohomology", capped)
    path = _write(tmp_path, _doc("a2"))
    assert main(["hochschild", path, "--max-degree", "2"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: iso_test grid cap 200000 reached "
                            "(371293 points needed)\n")


def test_not_finite_dimensional_exit_1(tmp_path, capsys):
    doc = {
        "kind": "quiver", "field": "Q", "vertices": ["1"],
        "arrows": [{"source": "1", "target": "1", "label": "x"}],
        "degree_bound": 10,
    }
    path = _write(tmp_path, doc)
    assert main(["define", path]) == EXIT_USAGE
    capsys.readouterr()


def test_quotient_of_whole_ideal_exit_2(tmp_path, capsys):
    doc = {
        "kind": "construction", "op": "quotient",
        "args": [_doc("dual_numbers")],
        "idempotent": "e:1",
    }
    path = _write(tmp_path, doc)
    assert main(["define", path]) == EXIT_PRECONDITION
    capsys.readouterr()


_ONE_VERTEX = {"kind": "quiver", "field": "Q", "vertices": ["1"]}
MALFORMED = {
    # b0 b1 = b1, so (0, 1) fixes b1 but not b0: not a unit
    "unit_not_a_unit": (
        ["define"], {"kind": "structure_constants", "field": "Q", "dim": 2,
                     "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
                     "unit": ["0", "1"]}, None),
    "bimodule_unit_acts_by_2": (
        ["define"], {"kind": "construction", "op": "triangular",
                     "args": [_ONE_VERTEX, _ONE_VERTEX],
                     "bimodule": {"dim": 1, "left_action": [[["2"]]],
                                  "right_action": [[["1"]]]}}, None),
    "ragged_table": (
        ["define"], {"kind": "structure_constants", "field": "Q", "dim": 2,
                     "table": [[["1", "0"]], [["0", "1"], ["0", "0"]]],
                     "unit": ["1", "0"]}, None),
    # b0 b0 has one coordinate in a 2-dimensional algebra
    "short_table_entry": (
        ["define"], {"kind": "structure_constants", "field": "Q", "dim": 2,
                     "table": [[["1"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
                     "unit": ["1", "0"]}, None),
    "arrow_to_unknown_vertex": (
        ["define"], dict(_ONE_VERTEX, arrows=[{"source": "1", "target": "9", "label": "a"}]),
        None),
    "idempotent_not_idempotent": (["stratify"], None, "[1,1,1]"),
    # the tag of F_5 is "Fp:5"
    "unknown_field_tag": (["define"], dict(_ONE_VERTEX, field="F5"), None),
    "arrow_not_an_object": (["define"], dict(_ONE_VERTEX, arrows=[5]), None),
    "relation_path_not_a_list": (["define"], dict(_ONE_VERTEX, relations=[[{"path": 3}]]), None),
    "relation_not_a_list": (["define"], dict(_ONE_VERTEX, relations=[5]), None),
    "degree_bound_not_an_integer": (["define"], dict(_ONE_VERTEX, degree_bound="x"), None),
    "duplicate_vertex": (["define"], dict(_ONE_VERTEX, vertices=["1", "2", "1"]), None),
    "duplicate_vertex_stratify": (["stratify"], dict(_ONE_VERTEX, vertices=["1", "1"]), "e:1"),
    # a right action matrix with two rows on a one-dimensional bimodule
    "bimodule_matrix_too_tall": (
        ["define"], {"kind": "construction", "op": "triangular",
                     "args": [_ONE_VERTEX, _ONE_VERTEX],
                     "bimodule": {"dim": 1, "left_action": [[["1"]]],
                                  "right_action": [[["1"], ["1"]]]}}, None),
    "bimodule_matrix_extra_zero_row": (
        ["define"], {"kind": "construction", "op": "triangular",
                     "args": [_ONE_VERTEX, _ONE_VERTEX],
                     "bimodule": {"dim": 1, "left_action": [[["1"]]],
                                  "right_action": [[["1"], ["0"]]]}}, None),
    "bimodule_row_is_a_string": (
        ["define"], {"kind": "construction", "op": "triangular",
                     "args": [_ONE_VERTEX, _ONE_VERTEX],
                     "bimodule": {"dim": 1, "left_action": [["1"]],
                                  "right_action": [[["1"]]]}}, None),
    # "10" is not the vector [1, 0]
    "table_entries_are_strings": (
        ["define"], {"kind": "structure_constants", "field": "Q", "dim": 2,
                     "table": [["10", "01"], ["01", "00"]], "unit": ["1", "0"]}, None),
    "relation_path_is_a_string": (
        ["define"], dict(_ONE_VERTEX, arrows=[{"source": "1", "target": "1", "label": "a"}],
                         relations=[[{"path": "aa"}]]), None),
    "idempotent_too_short": (["stratify"], None, "[1]"),
}
_LOOP = dict(_ONE_VERTEX, arrows=[{"source": "1", "target": "1", "label": "a"}])
for cmd in ("define", "hochschild"):
    MALFORMED.update({
        f"relation_names_unknown_arrow_{cmd}": (
            [cmd], dict(_LOOP, relations=[[{"coeff": 1, "path": ["a", "b"]}]]), None),
        f"relation_coeff_not_a_scalar_{cmd}": (
            [cmd], dict(_LOOP, relations=[[{"coeff": "x", "path": ["a", "a"]}]]), None),
        # k (x) F_5: tensor needs both factors over one field
        f"construction_fields_differ_{cmd}": (
            [cmd], {"kind": "construction", "op": "tensor",
                    "args": [_ONE_VERTEX, dict(_ONE_VERTEX, field="Fp:5")]}, None)})


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_a_one_line_parse_error(name, tmp_path, capsys):
    cmd, doc, idem = MALFORMED[name]
    path = _write(tmp_path, doc) if doc is not None else str(DOCS / "a2.json")
    argv = cmd + [path] + (["--idempotent", idem] if idem else [])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err


def test_explicit_idempotent_of_the_wrong_length_names_the_length(capsys):
    # on the 3-dimensional a2, [1] was read as an element and failed e*e = e
    assert main(["stratify", str(DOCS / "a2.json"), "--idempotent", "[1]"]) == EXIT_USAGE
    assert "expected a list of 3 entries" in capsys.readouterr().err


def test_not_split_basic_is_a_failed_precondition(tmp_path, capsys):
    # Q(i) = Q[x]/(x^2 + 1) has no basic structure to stratify by
    path = _write(tmp_path, {"kind": "structure_constants", "field": "Q", "dim": 2,
                             "table": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], "unit": [1, 0]})
    for argv in (["stratify", path, "--idempotent", "[1,0]"], ["hochschild", path]):
        assert main(argv) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("precondition failed: ") and err.count("\n") == 1, err


def test_a_document_bimodule_is_refused_unless_its_words_derive_it(tmp_path, capsys):
    """A triangular document [[A_3, 0], [M, k]] over linear A_3 gives M's
    right action by one matrix per basis element, the path a2*a1 among them,
    which is no generator.  M = e_1 A_3 is accepted; a path matrix unlike the
    product of its arrows', or generator matrices that break a law (each
    basis matrix the product along its words), exit 1 with one line."""
    a3 = algebra_from_doc(_linear_doc(3))
    path = a3.basis_labels.index("a2*a1")
    assert len(a3.generators()) == path == 5 and a3.words()[path] == ((1, (4, 3)),)
    m = max((vertex_projective(a3, v)[0] for v in range(3)), key=lambda x: x.dim)

    def define(stack):
        rows = [[[str(x) for x in r] for r in mat.rows] for mat in stack]
        ident = [[str(x) for x in r] for r in Matrix.identity(a3.field, m.dim).rows]
        doc = {"kind": "construction", "op": "triangular", "args": [_linear_doc(3), _ONE_VERTEX],
               "bimodule": {"dim": m.dim, "left_action": [ident], "right_action": rows}}
        code = main(["define", _write(tmp_path, doc)])
        return code, capsys.readouterr().err
    assert m.dim == 3 and define(m._stack()) == (EXIT_OK, "")
    bent = m._stack()
    bent[path] = bent[path].scale(2)
    broken = list(m.gens)
    broken[3] = Matrix.identity(a3.field, m.dim)       # a1 acting by the identity
    for stack in (bent, RightModule._of(a3, m.dim, broken)._stack()):
        code, err = define(stack)
        assert code == EXIT_USAGE and err.startswith("parse error: bimodule: ")
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_hochschild_without_a_basic_structure_over_fp_is_a_failed_precondition(
        tmp_path, capsys):
    # over F_p no basic structure is discovered: A^e has no generators to act by
    path = _write(tmp_path, dict(_structure_constants_doc("a2"), field="Fp:5"))
    assert algebra_from_doc(json.loads(Path(path).read_text())).basic is None
    assert main(["hochschild", path]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: ") and err.count("\n") == 1, err


def test_hochschild_cyc2_3_resolution_and_oracle_agree(tmp_path, capsys):
    # 1 <-> 2 modulo all paths of length 3: self-injective Nakayama, where a
    # periodicity search once compared syzygies with different tops by grid
    doc = {"kind": "quiver", "field": "Q", "vertices": ["1", "2"],
           "arrows": [{"label": "a1", "source": "1", "target": "2"},
                      {"label": "a2", "source": "2", "target": "1"}],
           "relations": [[{"coeff": 1, "path": ["a1", "a2", "a1"]}],
                         [{"coeff": 1, "path": ["a2", "a1", "a2"]}]]}
    path = _write(tmp_path, doc)
    # the gate still measures the unnormalised term: 6^8 at degree 6
    argv = ["hochschild", path, "--max-degree", "6", "--oracle"]
    assert main(argv) == EXIT_BUDGET
    capsys.readouterr()
    assert main(argv + ["--budget", str(6 ** 8)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    dims = {str(n): v for n, v in enumerate([3, 1, 1, 1, 1, 1, 1])}
    assert report["hh"] == report["hh_cohomology"] == dims
    assert report["oracle"]["hh"] == report["oracle"]["hh_cohomology"] == dims
    assert all(report["oracle"]["agreement"].values())


@pytest.mark.parametrize("argv", [
    ["verify", "--idempotent", "e:2", "--max-degree", "-1"],
    ["verify", "--idempotent", "e:2", "--cutoff", "-1"],
    ["hochschild", "--max-degree", "-1"],
    ["stratify", "--idempotent", "e:2", "--max-degree", "-1"],
])
def test_negative_degrees_are_usage_errors(argv, capsys):
    assert main(argv[:1] + [str(DOCS / "a2.json")] + argv[1:]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and "must be >= 0, got -1" in out.err


def test_negative_budget_is_a_usage_error_and_zero_exits_4(capsys):
    argv = ["hochschild", str(DOCS / "a2.json"), "--max-degree", "2", "--oracle", "--budget"]
    assert main(argv + ["-5"]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and "must be >= 0, got -5" in out.err
    assert main(argv + ["0"]) == EXIT_BUDGET
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("budget exceeded: ")


def test_unwritable_paths_are_one_line_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RECOLLAB_CACHE_DIR", raising=False)
    blocker = tmp_path / "file"
    blocker.write_text("")
    a2 = str(DOCS / "a2.json")
    for argv, env in ((["define", a2, "--report", str(blocker / "out.json")], None),
                      (["define", a2, "--cache-dir", str(blocker / "sub")], None),
                      (["define", a2], str(blocker))):
        if env is not None:
            monkeypatch.setenv("RECOLLAB_CACHE_DIR", env)
        assert main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "", argv
        assert out.err.startswith("usage error: ") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize("name", ["a2", "kronecker", "kronecker_f5"])
def test_verify_at_max_degree_0(name, capsys):
    # a battery module of projective dimension 1 is not bounded within the
    # degree-0 Tor window, so R4 does not test it against Tor_1
    code = main(["verify", str(DOCS / f"{name}.json"), "--idempotent", "e:2",
                 "--max-degree", "0", "--cutoff", "2"])
    assert code == EXIT_OK, capsys.readouterr().err
    out = json.loads(capsys.readouterr().out)
    assert out["certificate_ok"] is True and out["falsified"] is False


def _spy_on_trusted_matrices(monkeypatch):
    """(calls, bad): a count of the `Matrix._of` calls from now on, and the
    (field, rows, ncols) of each whose rows are not canonical: not a tuple of
    tuples of the declared width, or holding an entry that is not an int in
    0..p-1 over F_p, nor an int or a Fraction of denominator > 1 over Q."""
    calls, bad, real = [0], [], Matrix._of.__func__

    def spy(cls, field, rows, ncols):
        calls[0] += 1
        if not (type(rows) is tuple and all(
                type(r) is tuple and len(r) == ncols and all(_is_canonical(x, field) for x in r)
                for r in rows)):
            bad.append((field, rows, ncols))
        return real(cls, field, rows, ncols)

    monkeypatch.setattr(Matrix, "_of", classmethod(spy))
    return calls, bad


def test_matrices_built_without_validation_are_canonical(tmp_path, capsys, monkeypatch):
    """The kernels whose rows are already reduced build with `Matrix._of`,
    which takes the rows as they are: on every shipped document and its F_7
    copy (define, stratify, verify --suite all, hochschild --oracle) and on
    the criterion-6 registry (from_triangular, then tensor and opposite
    transfers), every row they hand it is a tuple of the declared width of
    canonical scalars."""
    calls, bad = _spy_on_trusted_matrices(monkeypatch)
    for name, idem in IDEMPOTENTS.items():
        for tag in (None, "Fp:7"):
            doc = _doc(name) if tag is None else _doc_over(_doc(name), tag)
            path = _write(tmp_path, doc, f"{name}@{tag}.json")
            for argv in (["define", path],
                         ["stratify", path, "--idempotent", idem, "--max-degree", "3"],
                         ["verify", path, "--idempotent", idem, "--suite", "all",
                          "--max-degree", "3", "--cutoff", "6"],
                         ["hochschild", path, "--max-degree", "3", "--oracle"]):
                assert main(argv) in (EXIT_OK, EXIT_PRECONDITION), (argv, capsys.readouterr())
            capsys.readouterr()
    k, d = ground_field(), dual_numbers()
    for a1, a2, m in ((k, k, field_bimodule(k, k, 1)), (k, k, field_bimodule(k, k, 2)),
                      (d, k, augmentation_bimodule(k, d))):
        r = from_triangular(a1, a2, m, 6)
        for b in (k, d, a2_path_algebra()):
            tensor_transfer(b, r, 4)
        opposite_transfer(r, 4)
    assert calls[0] > 10_000
    assert bad == []
