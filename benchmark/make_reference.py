"""Write reference.json from the wpvol in src/ of this checkout.

    python3 benchmark/make_reference.py

The benchmark checks every output against these digests, so run this only
on a commit whose outputs are known to be right.  It refuses to write if
the closed volumes pinned in workloads.EXACT come out differently.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, WORKDIRS, Harness, digest, mono_ns
from workloads import CACHE_VERIFY, CLI_QUERIES, EXACT, LIBRARY_REQUESTS, VERIFY, cli_id


def main() -> int:
    WORKDIRS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference", dir=WORKDIRS)
    try:
        h = Harness(Path(workdir), mono_ns() + 3600 * 10**9)
        library = {}
        for workload in LIBRARY_REQUESTS:
            code, _, err, report, _ = h.launch("lib", workload, "0", "0")
            if code != 0 or report is None or report["failures"]:
                sys.exit(f"{workload} failed: {err.decode()[-500:]}")
            for vid, text in EXACT.items():
                if vid in report["texts"] and report["texts"][vid] != text:
                    sys.exit(f"{vid} = {report['texts'][vid]}, expected {text}")
            library.update(report["outputs"])
            library.update({q[0]: q[-1] for q in report["queries"]})
        cli = {}
        cache = f"{workdir}/cache"
        for argv in (VERIFY, CACHE_VERIFY, *CLI_QUERIES):
            code, out, err, _, _ = h.launch("cli", "0", "reference", *argv, "--cache-dir", cache)
            if code != 0:
                sys.exit(f"{cli_id(argv)} exited {code}: {err.decode()[-500:]}")
            cli[cli_id(argv)] = digest(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"library": library, "cli": cli}, indent=1, sort_keys=True) + "\n"
    (BENCH / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
