"""Command line for computing, verifying and exporting volume polynomials.

Exit codes: 0 success, 1 relation or cache-verification failure, 2 usage or
domain error (including a request over ``MAX_DENSE_TERMS``), 3 internal
mathematical inconsistency, 4 I/O failure.
Results go to stdout, diagnostics to stderr; identical flags against an
identical cache produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .compute import ensure_volume
from .intersections import balanced, identity_cases, psi_kappa
from .poly import MARK, Poly, block_pieces
from .store import CacheError, VolumeStore, resolve_cache_dir
from .stringdilaton import NONZERO_REMAINDER, relation_defect
from .volume import (
    ConsistencyError,
    InvariantError,
    UnstableSurfaceError,
    VolumePolynomial,
    is_stable,
)
from .symmetric import LiftError, at_two_pi_i

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_IO = 4

RELATIONS = ("string", "dilaton", "second", "factor", "string2", "dilaton2", "all")

# Largest request served, in dense terms summed over the volumes it builds.
# V(0,12) (395,693), V(1,10) (352,715) and V(9,0) (409,807) fit; V(0,13),
# V(1,11) and V(10,0) do not.
MAX_DENSE_TERMS = 500_000


class _Formatter(argparse.HelpFormatter):
    """argparse's help at the width ``shutil.get_terminal_size`` gives:
    $COLUMNS, else the terminal of ``sys.__stdout__``, else 80 columns.
    Read here, since importing ``shutil`` loads ``bz2`` and ``lzma``."""

    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` its subparsers, on _Formatter."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wpvol",
        description="Exact volume polynomials of moduli spaces of bordered "
        "hyperbolic surfaces, and their intersection numbers.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $WPVOL_CACHE or ./wpvol-cache)",
    )
    # also accepted after the subcommand; SUPPRESS keeps the global value
    # when the per-command flag is absent
    common = _Parser(add_help=False)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common], help="compute one volume polynomial")
    p_compute.add_argument("--genus", type=int, required=True)
    p_compute.add_argument("--boundaries", type=int, required=True)
    p_compute.add_argument(
        "--method",
        choices=("lift", "mirzakhani", "both"),
        default=None,
        help="generation method (default: lift for genus <= 1, else mirzakhani)",
    )
    p_compute.add_argument("--latex", action="store_true", help="print LaTeX instead")

    p_verify = sub.add_parser("verify", parents=[common], help="exhaustively check relations")
    p_verify.add_argument("--relation", choices=RELATIONS, required=True)
    p_verify.add_argument("--max-genus", type=int, default=1)
    p_verify.add_argument("--max-boundaries", type=int, default=4)

    p_intersect = sub.add_parser("intersect", parents=[common], help="one psi/kappa intersection number")
    p_intersect.add_argument("--genus", type=int, required=True)
    p_intersect.add_argument("--n", type=int, required=True)
    p_intersect.add_argument("--alpha", required=True, help="comma-separated exponents")
    p_intersect.add_argument("--kappa", type=int, default=0)

    p_export = sub.add_parser("export", parents=[common], help="export one volume as JSON or LaTeX")
    p_export.add_argument("--format", choices=("json", "latex"), required=True)
    p_export.add_argument("--genus", type=int, required=True)
    p_export.add_argument("--boundaries", type=int, required=True)
    p_export.add_argument("--output", default=None, help="write to a file instead of stdout")

    p_cache = sub.add_parser("cache", parents=[common], help="cache maintenance")
    p_cache.add_argument("action", choices=("verify", "clear"))

    return parser


def _open_store(args) -> VolumeStore:
    return VolumeStore(resolve_cache_dir(args.cache_dir))


def _within_size_limit(g: int, n: int) -> bool:
    """Whether building V(g, n) stays within MAX_DENSE_TERMS, else say why.

    The kernel recursion for V(g, n) visits at most the stable V(g', n')
    with g' <= g, n' >= 1 and g' + n' <= g + max(n, 1), and V(g', n') has
    C(3g' - 3 + 2n', n') dense terms; the lift chain builds fewer.  The sum
    grows with g' + n' and stops at the limit, so absurd requests are cheap.
    """
    total = 0
    for size in range(2, g + max(n, 1) + 1):
        for gg in range(min(g, size - 1) + 1):
            if is_stable(gg, size - gg):
                total += math.comb(3 * gg - 3 + 2 * (size - gg), size - gg)
        if total > MAX_DENSE_TERMS:
            print(
                f"error: V({g},{n}) needs more than {MAX_DENSE_TERMS} dense "
                "terms, the limit of this command",
                file=sys.stderr,
            )
            return False
    return True


def _cmd_compute(args) -> int:
    g, n = args.genus, args.boundaries
    if not is_stable(g, n):
        print(f"error: (g, n) = ({g}, {n}) is not stable", file=sys.stderr)
        return EXIT_USAGE
    method = args.method or "auto"
    if method in ("lift", "both") and g > 1:
        print(f"error: method {method!r} needs genus <= 1", file=sys.stderr)
        return EXIT_USAGE
    if not _within_size_limit(g, n):
        return EXIT_USAGE
    store = _open_store(args)
    vol = ensure_volume(store, g, n, method)
    print(vol.poly.to_latex() if args.latex else str(vol.poly))
    return EXIT_OK


def run_verification(
    store: VolumeStore, relation: str, max_genus: int, max_boundaries: int
) -> dict:
    """Run one relation sweep (or all) and return the JSON-ready report.

    Volumes come from the store, computed on demand by ``ensure_volume``.
    """
    if relation == "all":
        reports = [
            run_verification(store, name, max_genus, max_boundaries)
            for name in RELATIONS
            if name != "all"
        ]
        return {
            "relation": "all",
            "max_genus": max_genus,
            "max_boundaries": max_boundaries,
            "checked": sum(r["checked"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "vacuous": 0,
            "reports": reports,
        }

    cases = []
    failed = 0

    def record(g, n, ok, detail="", **extra):
        nonlocal failed
        entry = {"g": g, "n": n, "ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        entry.update(extra)
        if not ok:
            failed += 1
        cases.append(entry)

    if relation in ("string", "dilaton", "second"):
        # RELATIONS lists these three by derivatives in L_{n+1}: 0, 1, 2
        order = RELATIONS.index(relation)
        for g in range(max_genus + 1):
            for n in range(max_boundaries):
                if not (is_stable(g, n) and is_stable(g, n + 1)):
                    continue
                smaller = ensure_volume(store, g, n)
                defect = relation_defect(ensure_volume(store, g, n + 1), smaller, order)
                detail = str(Poly(n, defect)) if defect else ""
                record(g, n, not defect, detail=detail)
    elif relation == "factor":
        for g in range(1, max_genus + 1):
            # the remainder of V(g, 1) / (L^2 + 4 pi^2) is V(g, 1) at L = 2*pi*i
            ok = not at_two_pi_i(ensure_volume(store, g, 1).orbits)
            record(g, 1, ok, detail="" if ok else NONZERO_REMAINDER)
    elif relation in ("string2", "dilaton2"):
        order = ("string2", "dilaton2").index(relation)
        for g in range(max_genus + 1):
            for n in range(1, max_boundaries):
                if not (is_stable(g, n) and is_stable(g, n + 1)):
                    continue
                bigger, smaller = ensure_volume(store, g, n + 1), ensure_volume(store, g, n)
                for alpha, m, lhs, rhs in identity_cases(bigger, smaller, order):
                    ok = lhs == rhs
                    detail = "" if ok else f"{lhs} != {rhs}"
                    record(g, n, ok, detail=detail, alpha=list(alpha), m=m)
    else:
        raise ValueError(f"unknown relation {relation!r}")

    return {
        "relation": relation,
        "max_genus": max_genus,
        "max_boundaries": max_boundaries,
        "checked": len(cases),
        "failed": failed,
        "vacuous": 0,  # every case fills the dimension, so none is 0 = 0
        "cases": cases,
    }


def _cmd_verify(args) -> int:
    if not _within_size_limit(args.max_genus, args.max_boundaries):
        return EXIT_USAGE
    store = _open_store(args)
    report = run_verification(store, args.relation, args.max_genus, args.max_boundaries)
    print(json.dumps(report, separators=(",", ":")))
    if report["failed"]:
        flat = report.get("reports", [report])
        for sub_report in flat:
            for case in sub_report.get("cases", []):
                if not case["ok"]:
                    print(
                        f"first failure: {sub_report['relation']} at "
                        f"(g={case['g']}, n={case['n']}): {case.get('detail', '')}",
                        file=sys.stderr,
                    )
                    return EXIT_RELATION
        return EXIT_RELATION
    return EXIT_OK


def _cmd_intersect(args) -> int:
    try:
        # empty alpha means the closed surface (n = 0, pure kappa classes)
        alpha = tuple(int(part) for part in args.alpha.split(",")) if args.alpha else ()
    except ValueError:
        print(f"error: bad alpha list {args.alpha!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(alpha) != args.n:
        print(
            f"error: alpha has {len(alpha)} entries for n = {args.n}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not is_stable(args.genus, args.n):
        print(
            f"error: (g, n) = ({args.genus}, {args.n}) is not stable",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not balanced(args.genus, args.n, alpha, args.kappa):
        print(0)  # the class has the wrong degree: nothing to compute
        return EXIT_OK
    if not _within_size_limit(args.genus, args.n):
        return EXIT_USAGE
    value = psi_kappa(args.genus, args.n, alpha, args.kappa, _open_store(args))
    print(value)
    return EXIT_OK


def _json_term(pattern: tuple, pi_exp: int, c) -> str:
    return f'{{"l":[{MARK}],"pi":{pi_exp},"re":"{str(c)}","im":"0"}},'


def export_document(vol: VolumePolynomial, provenance: str) -> str:
    """The JSON export of vol: a dense document, one term per monomial in
    the canonical order, as ``json.dumps`` with separators (",", ":") writes
    it.  The orbit walk that prints a volume runs over exponent tables ("e,"
    for each L variable, "e" for L_n) with one leaf term per orbit."""
    top = range(max((pattern[0] for pattern, _ in vol.orbits if pattern), default=0) + 1)
    tables = [[f"{e}," for e in top]] * (vol.n - 1) + [[str(e) for e in top]]
    pieces = block_pieces(vol.poly, "json", _json_term, tables)
    if pieces:
        pieces[-1] = pieces[-1][:-1]  # the comma after the last term
    head = f'{{"schema":1,"g":{vol.g},"n":{vol.n},"provenance":"{provenance}",'
    return "".join([head, '"terms":[', *pieces, "]}\n"])


def _cmd_export(args) -> int:
    g, n = args.genus, args.boundaries
    if not is_stable(g, n):
        print(f"error: (g, n) = ({g}, {n}) is not stable", file=sys.stderr)
        return EXIT_USAGE
    if not _within_size_limit(g, n):
        return EXIT_USAGE
    store = _open_store(args)
    if store.find(g, n) is None:
        ensure_volume(store, g, n)
    vol, provenance = store.find(g, n)
    if args.format == "json":
        text = export_document(vol, provenance)
    else:
        text = vol.poly.to_latex() + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_cache(args) -> int:
    store = _open_store(args)
    if args.action == "clear":
        count = store.clear()
        print(f"cleared {count} entries")
        return EXIT_OK
    report = store.verify_all()
    if report["failures"]:
        for check in report["checks"]:
            if not check["ok"]:
                print(
                    f"FAIL {check['kind']} ({check['g']},{check['n']}): "
                    f"{check['detail']}",
                    file=sys.stderr,
                )
        print(f"{report['entries']} entries, {report['failures']} failures")
        return EXIT_RELATION
    print(f"{report['entries']} entries, OK")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    handler = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "intersect": _cmd_intersect,
        "export": _cmd_export,
        "cache": _cmd_cache,
    }[args.command]
    try:
        return handler(args)
    except UnstableSurfaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConsistencyError, LiftError, InvariantError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        defect = getattr(exc, "defect", None)
        if defect:
            print(f"difference polynomial: {defect}", file=sys.stderr)
        return EXIT_MATH
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_RELATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
