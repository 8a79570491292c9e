#!/usr/bin/env python3
"""Benchmark for recollab: closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_docs --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --record      # rewrite expected.json from this code

One client issues the workload's requests one after another.  Each pass of
the workload runs in a fresh interpreter, which imports recollab, builds the
workload's inputs (timed as the pass's set-up), issues every request once
(each timed) and hands the times and outcomes back; so no state of one pass
carries into the next.  With `--trace 0` the run repeats passes for about
`--seconds` seconds and reports the end-to-end metrics named in
BENCHMARK.json: each request's time is its median over the run's passes,
`setup_s` is the median of the passes' set-ups, and `peak_rss_mb` the largest
peak of any pass.  With `--trace 1` it alternates three untraced passes with
three passes under the outside-in tracer (`tracer.py`) and reports the
per-layer metrics of the last traced pass, and `trace.overhead_ratio`, the
traced over the untraced `wall_s`; the spans go to `.perfbench-out/`.

Times are in host-steady seconds.  The host this was built on is a shared
virtual machine whose speed swings by up to 2x for seconds to minutes at a
time, which no number of passes in a run averages out.  So while a pass runs,
a timer (`HostSpeed`) times a tiny fixed pure-Python probe every 50 ms, and
each request's measured seconds are divided by the host's slowdown during
that request: the probe's trimmed-mean time in the request's window over
`PROBE_NOMINAL_S`.  Measured in that window, recollab's requests and numpy
kernels slow down with the host as the probe does (log-log slope 0.97-1.02,
see BASELINE.md), so the quotient is the request's time on a quiet host.
The sampler's own time is taken out of every measured interval.  Measured
seconds are printed beside every pass.

Every request's exit code and report digest is compared with
`expected.json`, and the engine's own self-checks are applied; each mismatch
is a failed request, printed as it happens.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"
PROBE_EVERY_S = 0.05    # host-speed probe period
PROBE_NOMINAL_S = 3.6e-4  # the probe's time in a pass on a quiet host (2-core Xeon VM)
PROBE_PAD_S = 0.1       # probes this close to a request also describe it
PASS_TIMEOUT_S = 900    # a `transfer_full` pass takes about 45 s
TRACE_PAIRS = 3         # untraced and traced passes of a `--trace 1` run
RUN_WORKLOADS = ("transfer", "cli_docs", "hh_oracle", "transfer_full")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=RUN_WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="run every workload once per prime and rewrite expected.json")
    # one pass in this interpreter, results written to the named file
    p.add_argument("--pass-to", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--prime", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    return args


def probe(n=5):
    """A fixed exact elimination over Q in pure Python, about 0.5 ms."""
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1


class HostSpeed:
    """Times `probe` every PROBE_EVERY_S from SIGALRM while a pass runs.

    `spent` is the total time inside the handler, to be taken out of any
    interval measured around it; `slowdown(a, b)` is the probe's trimmed mean
    time over [a, b] (padded) divided by its time on a quiet host."""

    def __init__(self):
        self.samples = []       # (start, seconds) of each probe
        self.spent = 0.0
        self.busy = False

    def _tick(self, signum, frame):
        if self.busy:           # a probe that outlasted the period
            return
        self.busy = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()            # a collection of the program's heap is not host speed
        probe()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self, a, b):
        xs = sorted(d for t, d in self.samples if a - PROBE_PAD_S <= t <= b + PROBE_PAD_S)
        xs = xs or sorted(d for _, d in self.samples)
        cut = len(xs) // 10
        return statistics.mean(xs[cut:len(xs) - cut]) / PROBE_NOMINAL_S


# -- one pass, in a fresh interpreter -------------------------------------


def one_pass(args, workdir):
    """Set the workload up, issue every request once, write the results."""
    host = HostSpeed()
    host.start()
    spent, t0 = host.spent, time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, args.prime)
    wl.setup()
    windows = [(t0, time.perf_counter(), host.spent - spent)]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outcomes = []
    try:
        for rid, fn in wl.requests:
            if tracer is not None:
                tracer.request = rid
            spent, t0 = host.spent, time.perf_counter()
            try:
                out = fn()
            except Exception as exc:    # an uncaught engine error fails the request
                out = workloads.Outcome(-1, "", [f"uncaught {type(exc).__name__}: {exc}"])
            windows.append((t0, time.perf_counter(), host.spent - spent))
            outcomes.append((rid, out.code, out.digest, out.problems, out.report_bytes))
    finally:
        if tracer is not None:
            tracer.uninstall()
        host.stop()
    measured = [t1 - t0 - spent for t0, t1, spent in windows]
    slowdowns = [host.slowdown(t0, t1) for t0, t1, _ in windows]
    result = {
        "p": wl.p,
        "setup_s": measured[0] / slowdowns[0],
        "times": [m / f for m, f in zip(measured[1:], slowdowns[1:])],
        "measured": measured[1:],
        "slowdown": statistics.median(d for _, d in host.samples) / PROBE_NOMINAL_S,
        "outcomes": outcomes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["shapes"] = [row for kind in ("rref", "matmul")
                            for row in tracer.top_shapes(kind)]
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(tracer.artefact(args.workload, args.seed), fh)
        result["spans"] = [len(tracer.spans), str(path.relative_to(ROOT))]
    args.pass_to.write_text(json.dumps(result), encoding="utf-8")


def run_pass(args, workdir, trace=0, prime=None):
    """Run one pass in a child interpreter and return its results."""
    sub = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    result = sub / "result.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass-to", str(result),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    if prime is not None:
        cmd += ["--prime", str(prime)]
    subprocess.run(cmd, cwd=ROOT, timeout=PASS_TIMEOUT_S, check=True)
    res = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(sub, ignore_errors=True)
    res["wall_s"] = sum(res["times"])
    res["measured_s"] = sum(res["measured"])
    return res


# -- the run ----------------------------------------------------------------


def count_failures(outcomes, expected):
    """Compare with the recorded exit codes and digests; print every miss."""
    failed = 0
    for rid, code, digest, problems, _ in outcomes:
        problems = list(problems)
        want = expected.get(rid.removesuffix("#warm"))
        if want is None:
            problems.append("no recorded result")
        elif [code, digest] != want:
            problems.append(f"exit {code} digest {digest[:12]}, recorded "
                            f"exit {want[0]} digest {want[1][:12]}")
        if problems:
            failed += 1
            print(f"FAILED {rid}: {'; '.join(problems)}", flush=True)
    return failed


def median_times(passes):
    """Each request's median time over the passes."""
    return [statistics.median(col) for col in zip(*(r["times"] for r in passes))]


def measure(args, workdir, expected):
    passes, failed, attempted = [], 0, 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        res = run_pass(args, workdir)
        longest = max(longest, time.perf_counter() - t0)
        passes.append(res)
        attempted += len(res["outcomes"])
        failed += count_failures(res["outcomes"], expected)
        if time.perf_counter() - start + longest > args.seconds:
            break
    per_request = median_times(passes)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "wall_s": sum(per_request),
        "max_req_s": max(per_request),
        "peak_rss_mb": max(r["rss_mb"] for r in passes),
    }
    slowest = passes[0]["outcomes"][per_request.index(max(per_request))][0]
    print(f"p={passes[0]['p']}; {len(passes)} passes (wall s / measured s / host slowdown): "
          + " ".join(f"{r['wall_s']:.3f}/{r['measured_s']:.3f}/{r['slowdown']:.2f}"
                     for r in passes)
          + f"; {len(per_request)} requests each, slowest {slowest}")
    return values, attempted, failed


def traced(args, workdir, expected):
    """Alternate untraced and traced passes; per-layer figures of the last."""
    plain, under = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_pass(args, workdir))
        under.append(run_pass(args, workdir, trace=1))
    failed = sum(count_failures(r["outcomes"], expected) for r in plain + under)
    for r in under:
        for a, b in zip(plain[0]["outcomes"], r["outcomes"]):
            if a[1:3] != b[1:3]:
                failed += 1
                print(f"FAILED {a[0]}: report differs with tracing on", flush=True)
    last = under[-1]
    values = last["metrics"]
    values["cli.report_bytes"] = sum(o[4] for o in last["outcomes"])
    values["trace.overhead_ratio"] = sum(median_times(under)) / sum(median_times(plain))
    values["raw.wall_s"] = statistics.median(r["measured_s"] for r in plain)
    values["host.slowdown"] = statistics.median(r["slowdown"] for r in plain + under)
    print(f"p={last['p']}; wall s untraced "
          + " ".join(f"{r['wall_s']:.3f}" for r in plain) + ", traced "
          + " ".join(f"{r['wall_s']:.3f}" for r in under))
    for kind, dims, field, calls, secs in last["shapes"]:
        print(f"shape {kind} {dims} {field}: {calls} calls {secs:.4f} s")
    print(f"spans: {last['spans'][0]} written to {last['spans'][1]}")
    attempted = sum(len(r["outcomes"]) for r in plain + under)
    return values, attempted, failed


def record(workdir):
    """Run each workload once per prime and write every request's result."""
    import workloads
    results = {}
    for name in ("transfer_full", "cli_docs", "hh_oracle"):
        primes = workloads.PRIMES if name != "transfer_full" else (None,)
        for p in primes:
            res = run_pass(argparse.Namespace(workload=name, seed=0), workdir, prime=p)
            for rid, code, digest, problems, _ in res["outcomes"]:
                if problems:
                    raise SystemExit(f"perfbench: {rid}: {problems}; not recorded")
                key = rid.removesuffix("#warm")
                if results.setdefault(key, [code, digest]) != [code, digest]:
                    raise SystemExit(f"perfbench: {key} differs between workloads or primes")
            print(f"recorded {name} p={p}: {len(res['outcomes'])} requests", flush=True)
    EXPECTED.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and waits for a running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "recollab" / "__init__.py").is_file():
        print(f"perfbench: no recollab sources under {ROOT / 'src'}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.pass_to is not None:
            one_pass(args, workdir)
            return 0
        if args.record:
            return record(workdir)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}", flush=True)
        if args.trace:
            values, attempted, failed = traced(args, workdir, expected)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed = measure(args, workdir, expected)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':48s} {failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted)")
    if failed:
        print(f"perfbench: {failed} FAILED REQUESTS", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
