"""The requests each workload sends; the seed only orders them.

Every seed sends the same requests, so every seed does the same total work.
"""

from __future__ import annotations

import random

WORKLOADS = ("lift_chain", "kernel_recursion", "cli_cache")

# Library requests: (generator, g, n).  "lift" is compute.lift_volume,
# "closed" is compute.ensure_volume on V(g, 0) and "kernel" is
# mirzakhani.mirzakhani_volume, each against one in-memory store.
LIBRARY_REQUESTS = {
    "lift_chain": [("lift", 0, n) for n in range(4, 11)]
    + [("lift", 1, n) for n in range(2, 9)],
    "kernel_recursion": [("closed", g, 0) for g in range(2, 7)]
    + [("kernel", 0, 9), ("kernel", 1, 7)],
}

# Warm queries after the cold body: rounds over these volumes, fetched again
# from the same store and rendered.  Seventy or more per cycle, so the p90
# of a run rests on tens of samples of the largest volumes.  The lift chain
# also asks for its seed V(0,3): with an odd number of volumes the median
# falls among one volume's latencies instead of between two volumes.
LIBRARY_QUERIES = {
    "lift_chain": LIBRARY_REQUESTS["lift_chain"] + [("lift", 0, 3)],
    "kernel_recursion": LIBRARY_REQUESTS["kernel_recursion"],
}
QUERY_ROUNDS = {"lift_chain": 8, "kernel_recursion": 10}

# Pinned exact closed volumes, independent of the reference digests.
EXACT = {"V(2,0)": "(43/2160)*pi^6", "V(3,0)": "(176557/1209600)*pi^12"}

VERIFY = ("verify", "--relation", "all", "--max-genus", "2", "--max-boundaries", "5")
CACHE_VERIFY = ("cache", "verify")

# Step-3 queries of cli_cache.  Each reads only entries that step 1 wrote
# under the provenance the query asks for, so none of them computes.
CLI_QUERIES = (
    ("compute", "--genus", "0", "--boundaries", "5"),
    ("compute", "--genus", "1", "--boundaries", "3"),
    ("compute", "--genus", "1", "--boundaries", "5"),
    ("compute", "--genus", "2", "--boundaries", "0"),
    ("compute", "--genus", "2", "--boundaries", "3"),
    ("compute", "--genus", "2", "--boundaries", "5"),
    ("compute", "--genus", "0", "--boundaries", "7", "--method", "mirzakhani"),
    ("compute", "--genus", "1", "--boundaries", "6", "--method", "mirzakhani"),
    ("export", "--format", "json", "--genus", "0", "--boundaries", "4"),
    ("export", "--format", "json", "--genus", "1", "--boundaries", "5"),
    ("export", "--format", "json", "--genus", "2", "--boundaries", "4"),
    ("export", "--format", "json", "--genus", "2", "--boundaries", "5"),
    ("intersect", "--genus", "0", "--n", "5", "--alpha", "1,1,0,0,0"),
    ("intersect", "--genus", "1", "--n", "4", "--alpha", "1,1,1,0", "--kappa", "1"),
    ("intersect", "--genus", "1", "--n", "5", "--alpha", "2,1,1,0,0", "--kappa", "1"),
    ("intersect", "--genus", "2", "--n", "0", "--alpha=", "--kappa", "3"),
    ("intersect", "--genus", "2", "--n", "3", "--alpha", "2,2,1", "--kappa", "1"),
    ("intersect", "--genus", "2", "--n", "5", "--alpha", "3,2,1,1,0", "--kappa", "1"),
    ("intersect", "--genus", "2", "--n", "5", "--alpha", "0,0,0,0,0", "--kappa", "8"),
)


def volume_id(g: int, n: int) -> str:
    return f"V({g},{n})"


def library_requests(workload: str, seed: int) -> list[tuple[str, int, int]]:
    requests = list(LIBRARY_REQUESTS[workload])
    random.Random(seed).shuffle(requests)
    return requests


def library_queries(workload: str, seed: int) -> list[tuple[str, int, int]]:
    rng = random.Random(seed + 1)
    queries = []
    for _ in range(QUERY_ROUNDS[workload]):
        batch = list(LIBRARY_QUERIES[workload])
        rng.shuffle(batch)
        queries += batch
    return queries


def cli_queries(seed: int) -> list[tuple[str, ...]]:
    queries = list(CLI_QUERIES)
    random.Random(seed).shuffle(queries)
    return queries


def cli_id(argv) -> str:
    return " ".join(argv)
