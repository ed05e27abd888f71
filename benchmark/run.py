"""End-to-end and per-layer benchmark of wpvol.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and measures the ``wpvol`` in its ``src/``.
Load comes from this one process, one request at a time (a closed loop with
one client); every measured process is a fresh child started by
``child.py``.  A cycle is one pass over the workload:

  lift_chain        one child: lift V(0,4)..V(0,10) and V(1,2)..V(1,8) into
                    an in-memory store and render each, then warm queries.
  kernel_recursion  one child: closed V(2,0)..V(6,0) through ensure_volume
                    plus V(0,9) and V(1,7) through mirzakhani_volume, then
                    warm queries.
  cli_cache         CLI processes on a fresh cache directory: verify cold,
                    verify warm (stdout byte-identical), cache verify, then
                    the query batch (intersect, export --format json,
                    compute) on signatures the cache already holds.

Cycles repeat until the next one would end past --seconds; at least one
runs.  Every time is in reference seconds (speed.py): measured time
rescaled by the process's own speed samples, so that a busy host moves it
little.  With --trace 0 the last stdout line carries the end-to-end metrics:

  wall_s        median over cycles of the timed body (library workloads) or
                of the sum of the cycle's CLI calls, launch to exit
  setup_s       median time from process launch until wpvol is imported and
                the store is open, over at least 15 processes
  peak_rss_mb   the largest ru_maxrss of any child; it depends on the
                request order, which changes from cycle to cycle
  ok_ratio      operations that neither raised, exited nonzero nor differed
                from reference.json, over operations attempted
  query_p50_ms, query_p90_ms
                over all cycles' queries: the warm queries of a library
                workload, the step-3 CLI calls of cli_cache

With --trace 1 traced and untraced cycles alternate and the line carries the
per-layer metrics of layers.py (median over traced cycles) and
trace.overhead_s, the traced minus the untraced median wall time.

The line before it is an "info" object: environment (git sha when the
checkout is a repository, a digest of src/, Python, CPUs, load average at
start), wpvol.__file__ of every child, sample counts, failures.  The same
record goes to .bench_results/, and a traced run writes its spans there as
JSON lines.  Any output that differs from reference makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKDIRS = ROOT / ".bench_tmp"
sys.path.insert(0, str(BENCH))

from layers import UNITS, cycle_metrics, expectation_failures  # noqa: E402
from speed import mono_ns, reference_ns  # noqa: E402
from tracer import check_spans, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CACHE_VERIFY,
    EXACT,
    VERIFY,
    WORKLOADS,
    cli_id,
    cli_queries,
    library_queries,
    library_requests,
    volume_id,
)

SETUP_SAMPLES = 15  # set-up times per run, at least
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Harness:
    """Launches children and keeps the run's operation and failure counts."""

    def __init__(self, workdir: Path, deadline_ns: int):
        self.workdir = workdir
        self.deadline_ns = deadline_ns
        self.env = {k: v for k, v in os.environ.items() if k != "WPVOL_CACHE"}
        self.launched = 0
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.setup_ns: list[int] = []
        self.wpvol_files: set[str] = set()

    def launch(self, *args: str):
        """Run one child; returns (exit code, stdout, stderr, report, (launch, exit)).

        The report is None when the child wrote none.
        """
        self.launched += 1
        report_path = self.workdir / f"report{self.launched}.json"
        cmd = [sys.executable, "-I", "-S", str(BENCH / "child.py"), str(report_path), *args]
        start = mono_ns()
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True,
                timeout=max(1.0, (self.deadline_ns - start) / 1e9),
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, b"", b"timed out"
        end = mono_ns()
        report = None
        if report_path.exists():
            report = json.loads(report_path.read_text())
            report_path.unlink()
            self.wpvol_files.add(report["wpvol_file"])
        return code, out, err, report, (start, end)

    def op(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}"[:500])


def _tail(err: bytes) -> str:
    return err.decode(errors="replace").strip()[-300:]


def library_cycle(h: Harness, workload: str, order: int, trace: bool, reference: dict):
    code, _, err, report, (launched, _) = h.launch("lib", workload, str(order), str(int(trace)))
    requests = library_requests(workload, order)
    queries = library_queries(workload, order)
    if code != 0 or report is None:
        for _ in requests + queries:
            h.op(workload, False, f"child exit {code}: {_tail(err)}")
        return None
    samples = report["speed_samples"]
    h.setup_ns.append(reference_ns(samples, launched, report["ready_ns"]))
    for _, g, n in requests:
        vid = volume_id(g, n)
        got = report["outputs"].get(vid)
        ok = got == reference[vid] and (vid not in EXACT or report["texts"].get(vid) == EXACT[vid])
        h.op(vid, ok, "raised" if got is None else "output differs from reference")
    for vid, _, _, _, text_digest in report["queries"]:
        h.op(f"query {vid}", text_digest == reference[vid], "output differs from reference")
    for _ in range(len(queries) - len(report["queries"])):
        h.op("query", False, "raised")
    h.failures += report["failures"]
    start, end = report["body_ns"]
    return {
        "wall_ns": reference_ns(samples, start, end),
        "raw_wall_ns": end - start,
        "rss_kb": report["maxrss_kb"],
        "query_ns": [reference_ns(samples, q[1], q[2]) / q[3] for q in report["queries"]],
        "spans": report.get("spans"),
        "stdout_bytes": 0,
    }


def _listing(directory: Path) -> list:
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir())


def cli_cycle(h: Harness, order: int, trace: bool, reference: dict):
    cache = Path(tempfile.mkdtemp(prefix="cache", dir=h.workdir))
    cycle = {"wall_ns": 0, "rss_kb": 0, "query_ns": [], "spans": [] if trace else None,
             "stdout_bytes": 0}
    pool, calls = [], []  # speed samples of all its children; (interval, ready, query)

    def call(argv, rid, query=False):
        code, out, err, report, interval = h.launch(
            "cli", str(int(trace)), rid, *argv, "--cache-dir", str(cache))
        ok = code == 0 and report is not None and digest(out) == reference[cli_id(argv)]
        h.op(rid, ok, f"exit {code}, stdout digest {digest(out)[:12]}: {_tail(err)}")
        cycle["stdout_bytes"] += len(out)
        calls.append((interval, None if report is None else report["ready_ns"], query))
        if report is not None:
            pool.extend(report["speed_samples"])
            cycle["rss_kb"] = max(cycle["rss_kb"], report["maxrss_kb"])
            if trace:
                # renumber so the ids of all children of a cycle are unique
                base = len(cycle["spans"])
                cycle["spans"] += [
                    [base + s[0], base + s[1] if s[1] >= 0 else -1, *s[2:]]
                    for s in report["spans"]
                ]
        return out

    try:
        start = mono_ns()
        cold = call(VERIFY, "verify-cold")
        written = _listing(cache)
        if call(VERIFY, "verify-warm") != cold:
            h.problems.append("warm verify stdout differs from cold verify stdout")
        call(CACHE_VERIFY, "cache-verify")
        for argv in cli_queries(order):
            call(argv, cli_id(argv), query=True)
        cycle["raw_wall_ns"] = mono_ns() - start
        if _listing(cache) != written:
            h.problems.append("cache directory changed after the cold verify")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    # A CLI call lasts a few speed samples; the calls around it add more.
    for (launched, exited), ready, query in calls if pool else ():
        ns = reference_ns(pool, launched, exited)
        cycle["wall_ns"] += ns
        if query:
            cycle["query_ns"].append(ns)
        if ready is not None:
            h.setup_ns.append(reference_ns(pool, launched, ready))
    return cycle


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "wpvol").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": src_digest.hexdigest(),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolating between samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference["cli" if workload == "cli_cache" else "library"]
    start = mono_ns()
    h = Harness(workdir, start + RUN_LIMIT_S * 10**9)
    plain, traced, traced_metrics = [], [], []
    info = environment(seed)
    spans_path = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        RESULTS.mkdir(exist_ok=True)
        spans_path.write_text("")

    def cycle(with_trace: bool):
        # Each cycle sends the requests in another order drawn from the seed,
        # so a run averages over orders; a traced cycle repeats the order of
        # the plain cycle just before it.
        order = seed * 1000 + len(plain) - with_trace
        if workload == "cli_cache":
            return cli_cycle(h, order, with_trace, reference)
        return library_cycle(h, workload, order, with_trace, reference)

    def absorb(c) -> None:
        """Per-layer metrics of a traced cycle; its spans go to disk."""
        spans = c.pop("spans")
        c["span_count"] = len(spans)
        h.problems += check_spans(spans)[:10]
        if min(self_times(spans).values(), default=0) < 0:
            h.problems.append("a span has negative self time")
        traced_metrics.append(cycle_metrics(spans, c["stdout_bytes"]))
        with open(spans_path, "a") as out:
            for span in spans:
                out.write(json.dumps([len(traced) - 1, *span]) + "\n")

    h.launch("setup")  # writes bytecode and fills the file cache; not measured
    while True:
        began = mono_ns()
        plain.append(cycle(False))
        if trace:
            traced.append(cycle(True))
            if traced[-1] is not None:
                absorb(traced[-1])
        now = mono_ns()
        if None in plain + traced or now + (now - began) > start + seconds * 1e9:
            break
    while workload != "cli_cache" and len(h.setup_ns) < SETUP_SAMPLES and mono_ns() < h.deadline_ns:
        _, _, _, report, (launched, _) = h.launch("setup")
        if report is not None:
            h.setup_ns.append(reference_ns(report["speed_samples"], launched, report["ready_ns"]))

    plain = [c for c in plain if c is not None]
    traced = [c for c in traced if c is not None]
    walls = [c["wall_ns"] / 1e9 for c in plain]
    query_ms = [ns / 1e6 for c in plain for ns in c["query_ns"]]
    for path in h.wpvol_files:
        if not Path(path).resolve().is_relative_to(SRC):
            h.problems.append(f"wpvol imported from {path}, outside {SRC}")
    info.update(
        workload=workload,
        trace=int(trace),
        seconds=seconds,
        wpvol_file=sorted(h.wpvol_files),
        cycles=len(plain),
        cycle_wall_s=walls,
        raw_cycle_wall_s=[c["raw_wall_ns"] / 1e9 for c in plain],
        setup_samples=len(h.setup_ns),
        query_samples=len(query_ms),
        failures=h.failures[:20],
        problems=h.problems,
    )

    if not trace:
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(h.setup_ns) / 1e9,
            "peak_rss_mb": max(c["rss_kb"] for c in plain) / 1024 if plain else 0.0,
            "ok_ratio": (h.attempted - h.failed) / max(h.attempted, 1),
            "query_p50_ms": median(query_ms),
            "query_p90_ms": percentile(query_ms, 90),
        }
        units = END_TO_END
    else:
        metrics = {name: median([m[name] for m in traced_metrics])
                   for name in (traced_metrics[0] if traced_metrics else ())}
        traced_walls = [c["wall_ns"] / 1e9 for c in traced]
        metrics["trace.overhead_s"] = median(traced_walls) - median(walls)
        units = {name: unit for name, (unit, _) in UNITS.items()}
        info.update(
            traced_cycle_wall_s=traced_walls,
            spans_per_cycle=[c["span_count"] for c in traced],
            expectation_failures=expectation_failures(workload, metrics),
        )

    correct = h.failed == 0 and not h.problems and h.attempted > 0 and len(metrics) == len(units)
    result = {
        "correct": correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "wpvol" / "__init__.py", BENCH / "reference.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    WORKDIRS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run", dir=WORKDIRS))
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
