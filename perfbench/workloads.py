"""The benchmark's workloads: inputs made from a seed, requests, and checks.

A workload is built once per pass, in a fresh interpreter (`setup`, which is
what `setup_s` times), so every pass starts from the state of a new process:
no process-global cache, lazily built table or on-disk resolution cache is
carried from one pass into the next.  A pass issues every request of the
workload once, in an order drawn from the seed, from one client with no
concurrency.

Every request returns an `Outcome`: the exit code, the sha256 of the report
bytes, and the problems found by the engine's own self-checks.  The benchmark
compares the code and the digest against `expected.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Layer functions are called through their modules, so that the tracer,
# which rebinds names inside recollab, sees these calls too.
from recollab import cli, recollement
from recollab.fixtures import (
    a2_path_algebra,
    augmentation_bimodule,
    dual_numbers,
    field_bimodule,
    ground_field,
)

PRIMES = (3, 5, 7, 11, 13)

# Shipped documents, the idempotent each is cut at, and whether it is over Q
# (and so gets an F_p copy).
DOCS = {
    "a2": ("e:2", True),
    "dual_numbers": ("e:1", True),
    "dual_numbers_f5": ("e:1", False),
    "kronecker": ("e:2", True),
    "kronecker_f5": ("e:2", False),
    "non_stratifying": ("e:2", True),
    "t2_one_point_extension": ("e:R:1", True),
}

# cli_docs leaves out the two requests that alone take longer than all the
# others together: verify on t2 over Q (about 8.6 s cold plus warm) and
# hochschild on non_stratifying over Q (hh_oracle runs it).
CLI_SKIP = {("verify", "t2_one_point_extension"), ("hochschild", "non_stratifying")}
CLI_VERIFY = ["--suite", "all", "--max-degree", "3", "--cutoff", "6"]
CLI_HOCHSCHILD = ["--max-degree", "3", "--oracle"]

# hh_oracle: (document, F_p copy?, degree).
HH_REQUESTS = (
    ("kronecker", False, 5),
    ("kronecker", True, 6),
    ("a2", False, 7),
    ("non_stratifying", False, 4),
)
HH_BUDGET = "78125"

# transfer: the registry of criterion 6 and the (B, recollement) pairs run.
REGISTRY = ("k-k-k", "k-k-k2", "D-k-k")
FACTORS = ("k", "dual_numbers", "a2")
TRANSFER_PAIRS = (
    ("k", "k-k-k"), ("k", "k-k-k2"), ("k", "D-k-k"),
    ("dual_numbers", "k-k-k"), ("a2", "k-k-k"),
)
REGISTRY_N_MAX = 6
TRANSFER_N_MAX = 4


@dataclass
class Outcome:
    code: int
    digest: str
    problems: list = field(default_factory=list)
    report_bytes: int = 0


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def fp_copy(doc, p):
    """The same document with every field tag replaced by F_p."""
    out = dict(doc)
    if "field" in out:
        out["field"] = f"Fp:{p}"
    if "args" in out:
        out["args"] = [fp_copy(sub, p) for sub in out["args"]]
    return out


class Workload:
    """Common part: seeded order and prime."""

    def __init__(self, root, workdir, seed, p=None):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.rng = random.Random(seed)
        self.p = self.rng.choice(PRIMES) if p is None else p
        self.requests = []      # (rid, fn) in the seeded order


class CliWorkload(Workload):
    """Requests through `recollab.cli.main`, reports captured from stdout."""

    def setup(self):
        docdir = self.root / "demos" / "docs"
        self.cache_dir = self.workdir / "cache"
        copies = self.workdir / "docs"
        copies.mkdir(parents=True)
        self.paths = {}
        for name, (_, over_q) in DOCS.items():
            doc = json.loads((docdir / f"{name}.json").read_text(encoding="utf-8"))
            cli.validate_algebra_doc(doc)
            self.paths[name] = str(docdir / f"{name}.json")
            if over_q:
                copy = fp_copy(doc, self.p)
                cli.validate_algebra_doc(copy)
                path = copies / f"{name}_F{self.p}.json"
                path.write_text(json.dumps(copy, indent=2, sort_keys=True),
                                encoding="utf-8")
                self.paths[f"{name}@F{self.p}"] = str(path)
        self.cold = {}

    def _cli(self, rid, argv, warm_of=None):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            data = buf.getvalue().encode("utf-8")
            out = Outcome(code, _sha(data), report_bytes=len(data))
            if code in (cli.EXIT_OK, cli.EXIT_FALSIFIED):
                _report_checks(json.loads(data), out.problems)
            if warm_of is None:
                self.cold[rid] = data
            elif self.cold.get(warm_of) != data:
                out.problems.append(f"warm report differs from cold {warm_of}")
            return out
        return run


def _report_checks(report, problems):
    """The engine's own self-checks, read from a report."""
    if report.get("falsified"):
        problems.append("falsified is true")
    agreement = report.get("oracle", {}).get("agreement", {})
    if not all(agreement.values()):
        problems.append("bar oracle disagrees in degrees "
                        + ",".join(n for n, ok in agreement.items() if not ok))


class CliDocs(CliWorkload):
    """define, stratify, verify and hochschild --oracle on every document,
    verify and hochschild once cold and once warm."""

    def setup(self):
        super().setup()
        cold, warm = [], []
        cache = ["--cache-dir", str(self.cache_dir)]
        for key, path in self.paths.items():
            name = key.split("@")[0]
            idem = ["--idempotent", DOCS[name][0]]
            cold.append((f"define:{key}", ["define", path]))
            cold.append((f"stratify:{key}",
                         ["stratify", path, *idem, "--max-degree", "3"]))
            for cmd, extra in (("verify", idem + CLI_VERIFY),
                               ("hochschild", CLI_HOCHSCHILD)):
                if (cmd, key) in CLI_SKIP:
                    continue
                rid = f"{cmd}:{key}"
                cold.append((rid, [cmd, path, *extra, *cache]))
                warm.append((rid + "#warm", [cmd, path, *extra, *cache]))
        self.rng.shuffle(cold)
        self.rng.shuffle(warm)
        self.requests = [(rid, self._cli(rid, argv)) for rid, argv in cold]
        self.requests += [(rid, self._cli(rid, argv, rid.removesuffix("#warm")))
                          for rid, argv in warm]


class HhOracle(CliWorkload):
    """hochschild --oracle at the highest degrees that fit the run."""

    def setup(self):
        super().setup()
        plan = []
        for name, over_fp, degree in HH_REQUESTS:
            key = f"{name}@F{self.p}" if over_fp else name
            plan.append((f"hochschild:{key}:deg{degree}",
                         ["hochschild", self.paths[key], "--max-degree", str(degree),
                          "--oracle", "--budget", HH_BUDGET]))
        self.rng.shuffle(plan)
        self.requests = [(rid, self._cli(rid, argv)) for rid, argv in plan]


def _fixtures():
    """The fixture algebras and the triangular inputs of the registry."""
    k = ground_field()
    d = dual_numbers()
    factors = {"k": ground_field(), "dual_numbers": dual_numbers(),
               "a2": a2_path_algebra()}
    inputs = {
        "k-k-k": (ground_field(), ground_field(), field_bimodule(k, k, 1)),
        "k-k-k2": (ground_field(), ground_field(), field_bimodule(k, k, 2)),
        "D-k-k": (d, ground_field(), augmentation_bimodule(ground_field(), d)),
    }
    return factors, inputs


def _recollement_digest(r):
    doc = {
        "stratifying": r.stratifying_report.as_dict(),
        "certificate": r.certificate.as_dict(),
        "perfect": r.perfect.status,
        "dims": [r.a1.dim, r.a.dim, r.a2.dim],
    }
    return _sha(json.dumps(doc, sort_keys=True, default=str).encode("utf-8"))


class Transfer(Workload):
    """Criterion 6 as a library workload over Q: build the registry, then
    re-certify tensor and opposite transfers of it."""

    pairs = TRANSFER_PAIRS

    def setup(self):
        factors, inputs = _fixtures()
        registry = list(REGISTRY)
        transfers = [("tensor", b, r) for b, r in self.pairs]
        transfers += [("opposite", None, r) for r in REGISTRY]
        self.rng.shuffle(registry)
        self.rng.shuffle(transfers)
        built = {}
        for kind, b, rname in [("registry", None, r) for r in registry] + transfers:
            if kind == "registry":
                rid = f"registry:{rname}"
                fn = self._registry(built, rname, inputs[rname])
            elif kind == "tensor":
                rid = f"tensor:{b}(x){rname}"
                fn = self._tensor(built, rname, factors[b])
            else:
                rid = f"opposite:{rname}"
                fn = self._opposite(built, rname)
            self.requests.append((rid, fn))

    @staticmethod
    def _registry(built, rname, parts):
        def run():
            r = recollement.from_triangular(*parts, REGISTRY_N_MAX)
            built[rname] = r
            out = Outcome(0, _recollement_digest(r))
            if not r.stratifying_report.stratifying:
                out.problems.append("registry entry is not stratifying")
            if r.perfect.status != "verified":
                out.problems.append(f"perfect.status is {r.perfect.status}")
            return out
        return run

    @staticmethod
    def _tensor(built, rname, b):
        def run():
            r = built[rname]
            t = recollement.tensor_transfer(b, r, TRANSFER_N_MAX)
            out = Outcome(0, _recollement_digest(t))
            if not t.stratifying_report.stratifying:
                out.problems.append("tensor transfer is not stratifying")
            if t.perfect.status != "verified":
                out.problems.append(f"perfect.status is {t.perfect.status}")
            if (t.a1.dim, t.a2.dim) != (b.dim * r.a1.dim, b.dim * r.a2.dim):
                out.problems.append("tensor transfer has unexpected side dims")
            return out
        return run

    @staticmethod
    def _opposite(built, rname):
        def run():
            r = built[rname]
            o = recollement.opposite_transfer(r, TRANSFER_N_MAX)
            out = Outcome(0, _recollement_digest(o))
            if o.perfect.status != "verified":
                out.problems.append(f"perfect.status is {o.perfect.status}")
            if (o.a1.dim, o.a2.dim) != (r.a2.dim, r.a1.dim):
                out.problems.append("opposite transfer did not swap the sides")
            return out
        return run


class TransferFull(Transfer):
    """All of criterion 6 (every factor on every registry entry, about 45 s
    on 2 cores): too long for a run, kept to check the ROADMAP baseline."""

    pairs = tuple((b, r) for r in REGISTRY for b in FACTORS)


WORKLOADS = {
    "transfer": Transfer,
    "cli_docs": CliDocs,
    "hh_oracle": HhOracle,
    "transfer_full": TransferFull,
}
