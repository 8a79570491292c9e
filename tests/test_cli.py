import json
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


def test_cmd_hochschild_budget_exit_4(tmp_path, capsys):
    path = _write(tmp_path, _doc("kronecker"))
    code = main(["hochschild", path, "--max-degree", "4", "--oracle",
                 "--budget", "10"])
    assert code == EXIT_BUDGET


@pytest.mark.scale
def test_cmd_hochschild_linear_a5_resolution_path_and_oracle(tmp_path, capsys):
    # linear A_5 (dim 15, A^e of dim 225) to degree 3: Happel's HH^0 = 1,
    # HH_0 = |Q_0| and 0 above, and the bar oracle agrees in every degree at
    # the budget 15^5 that its gate measures for degree 4
    from test_homology import _linear_doc
    path = _write(tmp_path, _linear_doc(5))
    code = main(["hochschild", path, "--max-degree", "3", "--oracle", "--budget", "759375"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["hh"] == {"0": 5, "1": 0, "2": 0, "3": 0}
    assert out["hh_cohomology"] == {"0": 1, "1": 0, "2": 0, "3": 0}
    assert out["oracle"]["hh"] == out["hh"]
    assert out["oracle"]["hh_cohomology"] == out["hh_cohomology"]
    assert all(out["oracle"]["agreement"].values())


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


def test_determinism_and_cache(tmp_path, capsys):
    path = _write(tmp_path, _doc("a2"))
    cache_dir = tmp_path / "cache"
    argv = ["verify", path, "--idempotent", "e:2", "--max-degree", "3",
            "--cutoff", "4", "--cache-dir", str(cache_dir)]
    assert main(argv) == EXIT_OK
    cold = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    warm = capsys.readouterr().out
    assert cold == warm
    # cache off gives the same bytes
    assert main(argv[:-2]) == EXIT_OK
    plain = capsys.readouterr().out
    assert plain == cold
    assert any(cache_dir.iterdir())


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


def test_tampered_cache_entry_is_rejected_and_rewritten(tmp_path, capsys):
    # a still-decodable entry whose first differential was zeroed used to
    # change HH^0(a2) from 1 to 2 and HH^1 from 0 to 1, with exit 0
    path = _write(tmp_path, _doc("a2"))
    cache_dir = tmp_path / "cache"
    argv = ["hochschild", path, "--max-degree", "3", "--cache-dir", str(cache_dir)]
    assert main(argv) == EXIT_OK
    cold = capsys.readouterr().out
    originals = {}
    for entry in cache_dir.glob("res_*.json"):
        data = json.loads(entry.read_text(encoding="utf-8"))
        if data["diffs"]:
            originals[entry] = entry.read_bytes()
            data["diffs"][0] = [["0"] * len(row) for row in data["diffs"][0]]
            entry.write_text(json.dumps(data), encoding="utf-8")
    assert originals
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == cold
    for entry, whole in originals.items():
        assert entry.read_bytes() == whole


def _structure_constants_doc(name):
    """The same algebra as a structure_constants document; over Q its basic
    structure is then discovered, not read from the quiver."""
    alg = algebra_from_doc(_doc(name))
    return {"kind": "structure_constants", "field": "Q", "dim": alg.dim,
            "table": [[[str(x) for x in alg.struct[i][j]] for j in range(alg.dim)]
                      for i in range(alg.dim)],
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
    "arrow_to_unknown_vertex": (
        ["define"], dict(_ONE_VERTEX, arrows=[{"source": "1", "target": "9", "label": "a"}]),
        None),
    "idempotent_not_idempotent": (["stratify"], None, "[1,1,1]"),
    # the tag of F_5 is "Fp:5"
    "unknown_field_tag": (["define"], dict(_ONE_VERTEX, field="F5"), None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_a_one_line_parse_error(name, tmp_path, capsys):
    cmd, doc, idem = MALFORMED[name]
    path = _write(tmp_path, doc) if doc is not None else str(DOCS / "a2.json")
    argv = cmd + [path] + (["--idempotent", idem] if idem else [])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err


def test_not_split_basic_is_a_failed_precondition(tmp_path, capsys):
    # Q(i) = Q[x]/(x^2 + 1) has no basic structure to stratify by
    path = _write(tmp_path, {"kind": "structure_constants", "field": "Q", "dim": 2,
                             "table": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], "unit": [1, 0]})
    for argv in (["stratify", path, "--idempotent", "[1,0]"], ["hochschild", path]):
        assert main(argv) == EXIT_PRECONDITION
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
