"""Golden digests of the CLI reports on the shipped documents.

Each of `define`, `stratify`, `verify` (with and without `--with-matrices`,
which adds every LES matrix, connecting maps included) and
`hochschild --oracle` runs on every `demos/docs/*.json`, and
`hochschild --oracle --budget 78125` on four documents at the highest degree
that budget admits; `stratify` and `verify --with-matrices` also run at every
other vertex idempotent and at the sum of all vertices (e = 1, whose quotient
A/AeA is the zero algebra).  The exit code and
the SHA-256 of the report printed to stdout must equal the entry in
`golden_reports.json`.  The digests pin the report bytes, so any change to an
emitted number, its sign, its formatting or its order fails here.
Regenerate them (only for an intended report change) with

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from recollab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "demos" / "docs"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

# The idempotent each document is cut at.
IDEMPOTENTS = {
    "a2": "e:2",
    "dual_numbers": "e:1",
    "dual_numbers_f5": "e:1",
    "kronecker": "e:2",
    "kronecker_f5": "e:2",
    "non_stratifying": "e:2",
    "t2_one_point_extension": "e:R:1",
}

# The other idempotents each document is cut at: every other vertex and the
# sum of all vertices.  The one-vertex documents are already cut at e = 1.
OTHER_IDEMPOTENTS = {
    "a2": ["e:1", "e:1+2"],
    "kronecker": ["e:1", "e:1+2"],
    "kronecker_f5": ["e:1", "e:1+2"],
    "non_stratifying": ["e:1", "e:1+2"],
    "t2_one_point_extension": ["e:L:1", "e:L:1+R:1"],
}

# The degree at which `hochschild --oracle --budget 78125` runs on each.
ORACLE_DEGREES = {"kronecker": 5, "kronecker_f5": 6, "a2": 7, "non_stratifying": 4}


def _commands():
    for name, idem in IDEMPOTENTS.items():
        path = str(DOCS / f"{name}.json")
        yield f"define:{name}", ["define", path]
        yield f"stratify:{name}", ["stratify", path, "--idempotent", idem]
        yield f"verify:{name}", ["verify", path, "--idempotent", idem,
                                 "--max-degree", "3", "--cutoff", "6"]
        yield f"verify:{name}:matrices", ["verify", path, "--idempotent", idem,
                                          "--max-degree", "3", "--cutoff", "6",
                                          "--with-matrices"]
        yield f"hochschild:{name}", ["hochschild", path, "--max-degree", "3", "--oracle"]
    for name, idems in OTHER_IDEMPOTENTS.items():
        path = str(DOCS / f"{name}.json")
        for idem in idems:
            yield f"stratify:{name}@{idem}", ["stratify", path, "--idempotent", idem]
            yield f"verify:{name}@{idem}:matrices", [
                "verify", path, "--idempotent", idem, "--max-degree", "3",
                "--cutoff", "6", "--with-matrices"]
    for name, degree in ORACLE_DEGREES.items():
        yield f"hochschild:{name}:deg{degree}", [
            "hochschild", str(DOCS / f"{name}.json"), "--max-degree", str(degree),
            "--oracle", "--budget", "78125"]


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


CASES = list(_commands())


def test_every_document_and_command_has_a_digest():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(rid for rid, _ in CASES)


@pytest.mark.parametrize("rid,argv", CASES, ids=[rid for rid, _ in CASES])
def test_report_bytes_match_golden(rid, argv):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(argv) == golden[rid]


if __name__ == "__main__":
    json.dump({rid: _digest(argv) for rid, argv in CASES}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")
