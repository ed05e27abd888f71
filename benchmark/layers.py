"""Per-layer metrics computed from the spans of one traced cycle.

A ``*_s`` metric is the self time of the named spans: span time minus the
time its child spans cover, so the ``*_s`` metrics of one cycle never count
a second twice.  The exception is ``cli.verify.<relation>_s``, the whole
time of that relation's sweep, whose own self time is bookkeeping.  These
are plain seconds of the traced cycle, and they include the speed samples
taken inside a span (speed.py), about 2% of its time.

EXPECT records, before any measurement, where each metric should move:
the workloads that exercise the layer (the metric must be nonzero there)
and the workloads that bypass it (the metric must read zero there).
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

L, K, C = "lift_chain", "kernel_recursion", "cli_cache"
ALL = (L, K, C)
RELATIONS = ("string", "dilaton", "second", "factor", "string2", "dilaton2")

# metric -> span names whose self time it sums
SELF_TIME = {
    "mirzakhani.self_s": ["mirzakhani.mirzakhani_volume"],
    "mirzakhani.moment_s": [
        "mirzakhani.moment_F",
        "mirzakhani.double_moment",
        "mirzakhani.pair_moment",
        "mirzakhani.zeta_even_coeff",
        "mirzakhani.bernoulli_number",
    ],
    "symmetric.stratified_lift_s": ["symmetric.stratified_lift"],
    "symmetric.sym_lift_zero_s": ["symmetric.sym_lift_zero"],
    "stringdilaton.string_rhs_s": ["stringdilaton.string_rhs"],
    "stringdilaton.lift_self_s": ["stringdilaton.genus0_lift", "stringdilaton.genus1_lift"],
    "stringdilaton.check_string_s": ["stringdilaton.check_string", "stringdilaton.string_defect"],
    "stringdilaton.check_dilaton_s": ["stringdilaton.check_dilaton", "stringdilaton.dilaton_defect"],
    "stringdilaton.check_second_s": [
        "stringdilaton.check_second_derivative",
        "stringdilaton.second_derivative_defect",
        "stringdilaton.euler_poly",
        "stringdilaton.euler_field",
    ],
    "stringdilaton.divide_s": ["stringdilaton.divide_boundary_quadratic"],
    "stringdilaton.closed_volume_s": ["stringdilaton.closed_volume", "stringdilaton.boundary_cofactor"],
    "volume.validate_s": ["volume.VolumePolynomial.validate"],
    "poly.eval_two_pi_i_s": ["poly.Poly.eval_two_pi_i"],
    "poly.is_symmetric_s": ["poly.Poly.is_symmetric"],
    "poly.str_s": ["poly.Poly.__str__"],
    "intersections.psi_kappa_s": ["intersections.psi_kappa"],
    "intersections.identity_case_s": ["intersections.string2_case", "intersections.dilaton2_case"],
    "compute.dispatch_self_s": ["compute.ensure_volume", "compute.lift_volume"],
    "store.parse_s": ["store.parse_entry"],
    "store.put_s": ["store.VolumeStore.put"],
    "store.serialize_s": ["store.serialize_entry", "store.volume_to_document"],
    "store.verify_all_s": ["store.VolumeStore.verify_all"],
}

# metric -> span name whose calls it counts
CALLS = {
    "symmetric.sym_lift_zero.calls": "symmetric.sym_lift_zero",
    "stringdilaton.string_rhs.calls": "stringdilaton.string_rhs",
    "volume.validate.calls": "volume.VolumePolynomial.validate",
    "intersections.psi_kappa.calls": "intersections.psi_kappa",
    "compute.ensure_volume.calls": "compute.ensure_volume",
    "store.get.calls": "store.VolumeStore.get",
}

# metric -> (unit, better)
UNITS = {name: ("s", "lower") for name in SELF_TIME}
UNITS.update({name: ("count", "lower") for name in CALLS})
UNITS.update({
    "mirzakhani.nodes": ("count", "lower"),
    "mirzakhani.terms_out": ("count", "lower"),
    "symmetric.terms_out": ("count", "lower"),
    "volume.validate.terms": ("count", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.disk_loads": ("count", "lower"),
    "store.bytes_read": ("bytes", "lower"),
    "store.bytes_written": ("bytes", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
})
UNITS.update({f"cli.verify.{r}_s": ("s", "lower") for r in RELATIONS})

_MIRZAKHANI = [m for m in UNITS if m.startswith("mirzakhani.")]
_SYMMETRIC = [m for m in UNITS if m.startswith("symmetric.")]
_DISK = ["store.disk_loads", "store.parse_s", "store.bytes_read", "store.serialize_s",
         "store.bytes_written", "store.verify_all_s"]
_CLI_ONLY = ([m for m in UNITS if m.startswith(("intersections.", "cli."))] + _DISK)

# metric -> (workloads where it must be nonzero, workloads where it must be zero)
EXPECT = {m: ((K, C), (L,)) for m in _MIRZAKHANI}
EXPECT.update({m: ((L, C), (K,)) for m in _SYMMETRIC})
EXPECT.update({m: ((C,), (L, K)) for m in _CLI_ONLY})
EXPECT.update({
    "stringdilaton.string_rhs_s": ((L, C), ()),
    "stringdilaton.string_rhs.calls": ((L, C), ()),
    "stringdilaton.lift_self_s": ((L, C), ()),
    "stringdilaton.check_string_s": ((L, C), ()),
    "stringdilaton.check_dilaton_s": ((L, C), ()),
    "stringdilaton.check_second_s": ((C,), ()),
    "stringdilaton.divide_s": (ALL, ()),
    "stringdilaton.closed_volume_s": ((K, C), ()),
    "volume.validate_s": (ALL, ()),
    "volume.validate.calls": (ALL, ()),
    "volume.validate.terms": (ALL, ()),
    "poly.eval_two_pi_i_s": (ALL, ()),
    "poly.is_symmetric_s": (ALL, ()),
    "poly.str_s": (ALL, ()),
    "compute.ensure_volume.calls": ((K, C), ()),
    "compute.dispatch_self_s": (ALL, ()),
    "store.get.calls": (ALL, ()),
    "store.hit_ratio": (ALL, ()),
    "store.put_s": (ALL, ()),
})


def cycle_metrics(spans, stdout_bytes: int = 0) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` for one cycle."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    self_ns, calls = defaultdict(int), defaultdict(int)
    for span in spans:
        self_ns[span[2]] += own[span[0]]
        calls[span[2]] += 1

    def parent_name(span):
        parent = by_id.get(span[1])
        return None if parent is None else parent[2]

    out = {m: sum(self_ns[n] for n in names) / 1e9 for m, names in SELF_TIME.items()}
    out.update({m: calls[n] for m, n in CALLS.items()})
    nodes = terms = 0
    gets = hits = disk_loads = bytes_read = bytes_written = 0
    lift_terms = validate_terms = 0
    verify_ns = defaultdict(int)
    for span in spans:
        name, attr = span[2], span[6]
        if name == "store.VolumeStore.put" and attr and attr[0] == "mirzakhani" \
                and parent_name(span) == "mirzakhani.mirzakhani_volume":
            nodes += 1
            terms += attr[1]
        elif name == "store.VolumeStore.get":
            gets += 1
            hits += bool(attr)
        elif name == "store.parse_entry":
            bytes_read += attr or 0
            if parent_name(span) in ("store.VolumeStore.get", "store.VolumeStore.put"):
                disk_loads += 1
        elif name == "store.serialize_entry" and parent_name(span) == "store.VolumeStore.put":
            bytes_written += attr or 0
        elif name == "symmetric.stratified_lift":
            lift_terms += attr or 0
        elif name == "volume.VolumePolynomial.validate":
            validate_terms += attr or 0
        elif name == "cli.run_verification" and attr in RELATIONS:
            verify_ns[attr] += span[4] - span[3]
    out.update({
        "mirzakhani.nodes": nodes,
        "mirzakhani.terms_out": terms,
        "symmetric.terms_out": lift_terms,
        "volume.validate.terms": validate_terms,
        "store.hit_ratio": hits / gets if gets else 0.0,
        "store.disk_loads": disk_loads,
        "store.bytes_read": bytes_read,
        "store.bytes_written": bytes_written,
        "cli.stdout_bytes": stdout_bytes,
    })
    out.update({f"cli.verify.{r}_s": verify_ns[r] / 1e9 for r in RELATIONS})
    return out


def expectation_failures(workload: str, metrics: dict) -> list[str]:
    """Metrics that read zero where the layer should work, or the reverse."""
    problems = []
    for name, (nonzero, zero) in EXPECT.items():
        value = metrics.get(name, 0)
        if workload in nonzero and not value:
            problems.append(f"{name} reads zero on {workload}")
        if workload in zero and value:
            problems.append(f"{name} reads {value} on {workload}, expected zero")
    return problems
