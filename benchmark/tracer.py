"""Span recorder that instruments wpvol from outside the package.

``install`` replaces each traced callable of ``wpvol`` with a wrapper that
records one span per call: id, parent id, name, start and end (monotonic
nanoseconds), the request id current at the call, and one attribute taken
from the arguments or the result (a term count, a byte count, a hit flag).
Spans stay in memory; the caller writes them out when the run ends.

A function imported with ``from .x import y`` is bound in every importing
module, so each traced function is replaced at every binding site found in
the ``wpvol`` modules, not only where it is defined.  Methods are replaced
on their class.

The traced set is the callables the per-layer metrics need.  Cheap guards
(``require_stable``, ``is_stable``) and coefficient arithmetic are left
out on purpose: a span costs about a microsecond, more than the work they
would time.  Their time counts in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

now_ns = time.perf_counter_ns


def _volume_terms(args, kwargs, result):
    return len(args[0].poly)


def _put_record(args, kwargs, result):
    provenance = args[2] if len(args) > 2 else kwargs.get("provenance")
    return [provenance, len(args[1].poly)]


def _text_bytes(args, kwargs, result):
    return len(args[0].encode())


def _result_bytes(args, kwargs, result):
    return len(result.encode())


# (module, callable, attribute extractor).  A module or callable missing from
# the checkout under test is skipped, and the metrics built on it read zero.
TRACED = (
    ("mirzakhani", "mirzakhani_volume", None),
    ("mirzakhani", "moment_F", None),
    ("mirzakhani", "double_moment", None),
    ("mirzakhani", "pair_moment", None),
    ("mirzakhani", "zeta_even_coeff", None),
    ("mirzakhani", "bernoulli_number", None),
    ("symmetric", "stratified_lift", lambda a, k, r: len(r[1])),
    ("symmetric", "sym_lift_zero", None),
    ("stringdilaton", "string_rhs", None),
    ("stringdilaton", "genus0_lift", None),
    ("stringdilaton", "genus1_lift", None),
    ("stringdilaton", "check_string", None),
    ("stringdilaton", "string_defect", None),
    ("stringdilaton", "check_dilaton", None),
    ("stringdilaton", "dilaton_defect", None),
    ("stringdilaton", "check_second_derivative", None),
    ("stringdilaton", "second_derivative_defect", None),
    ("stringdilaton", "euler_poly", None),
    ("stringdilaton", "euler_field", None),
    ("stringdilaton", "divide_boundary_quadratic", None),
    ("stringdilaton", "boundary_cofactor", None),
    ("stringdilaton", "closed_volume", None),
    ("volume", "VolumePolynomial.validate", _volume_terms),
    ("poly", "Poly.eval_two_pi_i", None),
    ("poly", "Poly.is_symmetric", None),
    ("poly", "Poly.__str__", None),
    ("intersections", "psi_kappa", None),
    ("intersections", "string2_case", None),
    ("intersections", "dilaton2_case", None),
    ("compute", "ensure_volume", None),
    ("compute", "lift_volume", None),
    ("store", "VolumeStore.get", lambda a, k, r: r is not None),
    ("store", "VolumeStore.put", _put_record),
    ("store", "VolumeStore.verify_all", None),
    ("store", "parse_entry", _text_bytes),
    ("store", "serialize_entry", _result_bytes),
    ("store", "volume_to_document", None),
    ("cli", "run_verification", lambda a, k, r: a[1]),
)


class Tracer:
    """In-memory span list for one process; ``rid`` names the current request."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.rid = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, name, fn, extract=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, now_ns(), self.rid, None))
                raise
            end = now_ns()
            stack.pop()
            attr = None if extract is None else extract(args, kwargs, result)
            spans.append((sid, parent, name, start, end, self.rid, attr))
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every traced callable at every binding site."""
        for module_name, path, extract in TRACED:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"wpvol.{module_name}")
            except ModuleNotFoundError:
                continue
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    continue
                setattr(cls, method, self.wrap(name, original, extract))
                self._restore.append((cls, method, original))
            else:
                original = getattr(module, path, None)
                if original is None:
                    continue
                wrapped = self.wrap(name, original, extract)
                for site, attr in binding_sites(original):
                    setattr(site, attr, wrapped)
                    self._restore.append((site, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def wpvol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wpvol" or name.startswith("wpvol."))]


def binding_sites(obj) -> list[tuple]:
    """(module, global name) for every loaded wpvol module that holds ``obj``."""
    return [(m, k) for m in wpvol_modules() for k, v in list(vars(m).items()) if v is obj]


def check_spans(spans) -> list[str]:
    """Nesting defects: a child outside its parent's interval, or under
    another request.  Returns one message per defect."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, parent, name, start, end, rid, _ in spans:
        if end < start:
            problems.append(f"span {sid} {name} ends before it starts")
        if parent < 0:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"span {sid} {name} has unknown parent {parent}")
        elif not (p[3] <= start and end <= p[4]):
            problems.append(f"span {sid} {name} lies outside parent {p[2]}")
        elif p[5] != rid:
            problems.append(f"span {sid} {name} has request {rid!r} under {p[5]!r}")
    return problems


def self_times(spans) -> dict[int, int]:
    """Span id -> nanoseconds not covered by its child spans.

    Spans come from one thread, so the children of a span are disjoint and
    their durations add up to the time they cover.
    """
    covered = defaultdict(int)
    for _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {s[0]: (s[4] - s[3]) - covered[s[0]] for s in spans}
