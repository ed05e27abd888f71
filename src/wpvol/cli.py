"""Command line for computing, verifying and exporting volume polynomials.

Exit codes: 0 success, 1 relation or cache-verification failure, 2 usage or
domain error (including a request over ``MAX_DENSE_TERMS``), 3 internal
mathematical inconsistency, 4 I/O failure.  Every refused request raises,
before any store is opened, and ``main`` alone prints it and exits 2.
Results go to stdout, diagnostics to stderr; identical flags against an
identical cache produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .compute import ensure_volume
from .intersections import balanced, identity_cases, psi_kappa
from .poly import MARK, Poly, block_pieces, marked
from .store import CacheError, VolumeStore, resolve_cache_dir
from .stringdilaton import NONZERO_REMAINDER, relation_defect
from .volume import (
    ConsistencyError,
    InvariantError,
    UnstableSurfaceError,
    VolumePolynomial,
    is_stable,
    require_stable,
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


class _Refused(Exception):
    """A request the CLI refuses: ``main`` prints ``error: <message>``, exit 2."""


def _width() -> int:
    """argparse's help width from what ``shutil.get_terminal_size`` gives:
    $COLUMNS, else the terminal of ``sys.__stdout__``, else 80 columns, less
    2.  Read here, since importing ``shutil`` loads ``bz2`` and ``lzma``."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


def build_parser() -> argparse.ArgumentParser:
    # one width for the parser, ``common`` and every subparser, read once
    formatter = functools.partial(argparse.HelpFormatter, width=_width())
    parser = argparse.ArgumentParser(
        prog="wpvol",
        description="Exact volume polynomials of moduli spaces of bordered "
        "hyperbolic surfaces, and their intersection numbers.",
        formatter_class=formatter,
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $WPVOL_CACHE or ./wpvol-cache)",
    )
    # also accepted after the subcommand; SUPPRESS keeps the global value
    # when the per-command flag is absent
    common = argparse.ArgumentParser(add_help=False, formatter_class=formatter)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    subparser = functools.partial(argparse.ArgumentParser, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)

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


def _require_size_limit(g: int, n: int) -> None:
    """Raise _Refused unless building V(g, n) stays within MAX_DENSE_TERMS.

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
            raise _Refused(f"V({g},{n}) needs more than {MAX_DENSE_TERMS} dense terms, "
                           "the limit of this command")


def _cmd_compute(args) -> int:
    g, n = args.genus, args.boundaries
    require_stable(g, n)
    method = args.method or "auto"
    if method in ("lift", "both") and g > 1:
        raise _Refused(f"method {method!r} needs genus <= 1")
    _require_size_limit(g, n)
    vol = ensure_volume(_open_store(args), g, n, method)
    print(vol.poly.to_latex() if args.latex else str(vol.poly))
    return EXIT_OK


def _case(g: int, n: int, ok: bool, detail: str, **extra) -> dict:
    """One case of a report; its detail is kept only on a failure."""
    return {"g": g, "n": n, "ok": ok, **({} if ok else {"detail": detail}), **extra}


def _pair_cases(store: VolumeStore, relation: str, max_genus: int, max_boundaries: int):
    """Each case of a relation between V(g, n+1) and V(g, n): one per pair by
    ``relation_defect`` for string, dilaton and second, one per coefficient
    by ``identity_cases`` from n = 1 for string2 and dilaton2."""
    identity = relation in ("string2", "dilaton2")
    # RELATIONS lists string, dilaton and second by derivatives in L_{n+1}: 0, 1, 2
    order = ("string2", "dilaton2").index(relation) if identity else RELATIONS.index(relation)
    for g in range(max_genus + 1):
        for n in range(int(identity), max_boundaries):
            if not (is_stable(g, n) and is_stable(g, n + 1)):
                continue
            smaller = ensure_volume(store, g, n)
            bigger = ensure_volume(store, g, n + 1)
            if identity:
                for alpha, m, lhs, rhs in identity_cases(bigger, smaller, order):
                    ok = lhs == rhs
                    yield _case(g, n, ok, ok or f"{lhs} != {rhs}", alpha=list(alpha), m=m)
            else:
                defect = relation_defect(bigger, smaller, order)
                yield _case(g, n, not defect, defect and str(Poly(n, defect)))


def run_verification(
    store: VolumeStore, relation: str, max_genus: int, max_boundaries: int
) -> dict:
    """Run one relation sweep (or all) and return the JSON-ready report.

    Volumes come from the store, computed on demand by ``ensure_volume``.
    """
    if relation == "all":
        reports = [run_verification(store, name, max_genus, max_boundaries)
                   for name in RELATIONS if name != "all"]
        checked = sum(r["checked"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        body = {"reports": reports}
    else:
        if relation == "factor":
            # the remainder of V(g, 1) / (L^2 + 4 pi^2) is V(g, 1) at L = 2*pi*i
            cases = [
                _case(g, 1, not at_two_pi_i(ensure_volume(store, g, 1).orbits), NONZERO_REMAINDER)
                for g in range(1, max_genus + 1)
            ]
        elif relation in RELATIONS:
            cases = list(_pair_cases(store, relation, max_genus, max_boundaries))
        else:
            raise ValueError(f"unknown relation {relation!r}")
        checked, failed = len(cases), sum(not case["ok"] for case in cases)
        body = {"cases": cases}
    return {
        "relation": relation,
        "max_genus": max_genus,
        "max_boundaries": max_boundaries,
        "checked": checked,
        "failed": failed,
        "vacuous": 0,  # every case fills the dimension, so none is 0 = 0
        **body,
    }


def _cmd_verify(args) -> int:
    for flag, bound in (("--max-genus", args.max_genus), ("--max-boundaries", args.max_boundaries)):
        if bound < 0:  # would check nothing and pass
            raise _Refused(f"{flag} must be nonnegative, not {bound}")
    _require_size_limit(args.max_genus, args.max_boundaries)
    report = run_verification(_open_store(args), args.relation, args.max_genus,
                              args.max_boundaries)
    print(json.dumps(report, separators=(",", ":")))
    for sub_report in report.get("reports", [report]):
        for case in sub_report["cases"]:
            if not case["ok"]:
                print(
                    f"first failure: {sub_report['relation']} at "
                    f"(g={case['g']}, n={case['n']}): {case['detail']}",
                    file=sys.stderr,
                )
                return EXIT_RELATION
    return EXIT_OK


def _cmd_intersect(args) -> int:
    try:
        # empty alpha means the closed surface (n = 0, pure kappa classes)
        alpha = tuple(int(part) for part in args.alpha.split(",")) if args.alpha else ()
    except ValueError:
        raise _Refused(f"bad alpha list {args.alpha!r}") from None
    if len(alpha) != args.n:
        raise _Refused(f"alpha has {len(alpha)} entries for n = {args.n}")
    require_stable(args.genus, args.n)
    if not balanced(args.genus, args.n, alpha, args.kappa):
        print(0)  # the class has the wrong degree: nothing to compute
        return EXIT_OK
    _require_size_limit(args.genus, args.n)
    value = psi_kappa(args.genus, args.n, alpha, args.kappa, _open_store(args))
    print(value)
    return EXIT_OK


def _json_term(pattern: tuple, pi_exp: int, c) -> str:
    return f'{{"l":[{MARK}],"pi":{pi_exp},"re":"{str(c)}","im":"0"}},'


def export_document(vol: VolumePolynomial, provenance: str) -> str:
    """The JSON export of vol: a dense document, one term per monomial in
    the canonical order, as ``json.dumps`` with separators (",", ":") writes
    it.  The orbit walk that prints a volume runs over ``vol.orbits`` with
    exponent tables ("e," for each L variable, "e" for L_n) and one leaf
    term per orbit, and keeps nothing: the CLI exports once per process."""
    top = range(max((pattern[0] for pattern, _ in vol.orbits if pattern), default=0) + 1)
    tables = marked([[f"{e}," for e in top]] * (vol.n - 1) + [[str(e) for e in top]])
    pieces = block_pieces(vol.orbits, vol.n, _json_term, tables)
    if pieces:
        pieces[-1] = pieces[-1][:-1]  # the comma after the last term
    head = f'{{"schema":1,"g":{vol.g},"n":{vol.n},"provenance":"{provenance}",'
    return "".join([head, '"terms":[', *pieces, "]}\n"])


def _cmd_export(args) -> int:
    g, n = args.genus, args.boundaries
    require_stable(g, n)
    _require_size_limit(g, n)
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
            with open(args.output, "w") as handle:
                handle.write(text)
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
    except (UnstableSurfaceError, _Refused) as exc:
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
