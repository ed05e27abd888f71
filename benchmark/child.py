"""One measured process of the benchmark.

    python3 -I -S child.py REPORT setup
    python3 -I -S child.py REPORT lib WORKLOAD SEED TRACE
    python3 -I -S child.py REPORT cli TRACE RID CLI_ARG...

The process imports ``wpvol`` from ``src/`` of the checkout that holds this
file, notes the monotonic time at which set-up ended (``wpvol`` imported and
the store open), does its work and writes a JSON report to REPORT, with the
speed samples that turn its times into reference seconds (see speed.py);
the work itself is sampled every 50 ms.

``setup`` stops there.  ``lib`` runs a library workload against one
in-memory store: the timed body requests every volume and renders it, then
warm queries fetch and render each volume again, timed one by one.  ``cli``
runs ``wpvol.cli.main`` on CLI_ARG exactly as ``python -m wpvol.cli`` does;
its stdout is the CLI's.  With TRACE 1 the spans go into the report.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import Speedometer, mono_ns  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import library_queries, library_requests, volume_id  # noqa: E402

QUERY_CHARS = 20_000  # about 2 ms of rendering per query


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_library(report: dict, speed: Speedometer, workload: str, seed: int,
                tracer: Tracer | None) -> None:
    from wpvol.store import VolumeStore

    store = VolumeStore()
    report["ready_ns"] = mono_ns()
    speed.sample()
    if tracer is not None:
        tracer.install()
    from wpvol import compute, mirzakhani

    generators = {
        "lift": lambda g, n: compute.lift_volume(store, g, n),
        "closed": lambda g, n: compute.ensure_volume(store, g, n),
        "kernel": lambda g, n: mirzakhani.mirzakhani_volume(g, n, store),
    }

    def request(kind: str, g: int, n: int) -> str:
        if tracer is not None:
            tracer.rid = volume_id(g, n)
        return str(generators[kind](g, n).poly)

    failures, texts = [], {}
    speed.start_timer()
    start = mono_ns()
    for kind, g, n in library_requests(workload, seed):
        try:
            texts[volume_id(g, n)] = request(kind, g, n)
        except Exception as exc:  # one failed request must not hide the others
            failures.append(f"{volume_id(g, n)}: {exc!r}")
    report["body_ns"] = [start, mono_ns()]

    # A small query repeats, like timeit, because one timing of a few
    # microseconds is mostly timer and cache noise.  The count follows from
    # the output's length, so every run does the same work.
    queries = []
    for kind, g, n in library_queries(workload, seed):
        vid = volume_id(g, n)
        repeats = max(1, QUERY_CHARS // (len(texts.get(vid, "")) + 50))
        speed.sample()
        start = mono_ns()
        try:
            for _ in range(repeats):
                text = request(kind, g, n)
        except Exception as exc:
            failures.append(f"query {vid}: {exc!r}")
            continue
        queries.append([vid, start, mono_ns(), repeats, digest(text)])
    speed.stop_timer()
    speed.sample()
    report.update(
        outputs={key: digest(text) for key, text in texts.items()},
        # short outputs verbatim, for the pinned exact values
        texts={key: text for key, text in texts.items() if len(text) < 200},
        queries=queries,
        failures=failures,
    )


def run_cli(report: dict, speed: Speedometer, rid: str, argv: list[str],
            tracer: Tracer | None) -> int:
    import wpvol.cli
    from wpvol.store import VolumeStore, resolve_cache_dir

    VolumeStore(resolve_cache_dir(wpvol.cli.build_parser().parse_args(argv).cache_dir))
    report["ready_ns"] = mono_ns()
    speed.sample()
    if tracer is not None:
        tracer.install()
        tracer.rid = rid
    speed.start_timer()
    code = wpvol.cli.main(argv)
    speed.stop_timer()
    sys.stdout.flush()
    return code


def main(argv: list[str]) -> int:
    speed = Speedometer()
    speed.sample()
    report_path, mode, rest = Path(argv[0]), argv[1], argv[2:]
    report: dict = {}
    code = 0
    tracer = None
    if mode == "setup":
        from wpvol.store import VolumeStore

        VolumeStore()
        report["ready_ns"] = mono_ns()
    elif mode == "lib":
        workload, seed, trace = rest[0], int(rest[1]), rest[2] == "1"
        tracer = Tracer() if trace else None
        run_library(report, speed, workload, seed, tracer)
    elif mode == "cli":
        trace, rid, cli_argv = rest[0] == "1", rest[1], rest[2:]
        tracer = Tracer() if trace else None
        code = run_cli(report, speed, rid, cli_argv, tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    speed.sample()
    import wpvol

    report["wpvol_file"] = wpvol.__file__
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["speed_samples"] = speed.samples
    if tracer is not None:
        report["spans"] = tracer.spans
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
