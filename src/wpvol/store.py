"""Persistent, validated memo table of volume polynomials.

One JSON document per (g, n), schema 2, one entry per symmetry orbit:

    {"schema": 2, "g": 1, "n": 1, "provenance": "seed",
     "orbits": [{"l": [2], "pi": 0, "c": "1/48"}, {"l": [0], "pi": 2, "c": "1/12"}]}

``"l"`` is the orbit's L exponents sorted descending and ``"c"`` its
coefficient as a string.  Orbits are listed in descending (pattern, pi)
order, so serialization is deterministic and round-trips byte for byte.  No
other module knows the document.  Entries are validated against the volume
invariants both when written and when read back, which turns any on-disk
corruption that breaks an invariant into an immediate error instead of a
wrong number: ``put`` is the one gate every produced volume passes, and
every read of a file parses its orbits straight into the orbit map the
store holds.  A document of another schema, such as the dense schema 1
that listed every monomial, is a ``CacheError``; ``wpvol cache clear``
removes it.

Exponents must be JSON integers and coefficients strings; anything else (a
float exponent, a numeric ``"c"``) is rejected rather than coerced.

``memo`` is every generator's one memo: one volume per (g, n), with the
provenances that produced it.  A second provenance must agree exactly; a
disagreement is fatal because it means two independent computation paths
produced different polynomials.  ``--method both`` relies on this check.

A file is written under a fresh name in the cache directory, created with
``O_EXCL`` so no existing file is ever reused, and renamed over its target.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .volume import InvariantError, UnstableSurfaceError, VolumePolynomial, is_seed, seed_volume

SCHEMA_VERSION = 2
PROVENANCES = ("seed", "genus0_lift", "genus1_lift", "mirzakhani")
ENV_CACHE_DIR = "WPVOL_CACHE"
DEFAULT_CACHE_DIR = "wpvol-cache"


class CacheError(Exception):
    """A cache document is unreadable, stale, or fails validation."""


class ProvenanceConflictError(CacheError):
    """Two computation paths stored different polynomials for one (g, n)."""


def resolve_cache_dir(flag_value: str | None = None) -> str:
    """Cache directory: explicit flag, else WPVOL_CACHE, else ./wpvol-cache."""
    return flag_value or os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def serialize_entry(vol: VolumePolynomial, provenance: str) -> str:
    """The cache document of vol, as ``json.dumps`` with separators (",", ":")
    writes it: one entry per orbit, in descending (pattern, pi) order."""
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    orbits = ",".join(
        f'{{"l":[{",".join(map(str, pattern))}],"pi":{pi_exp},"c":"{c}"}}'
        for (pattern, pi_exp), c in sorted(vol.orbits.items(), reverse=True)
    )
    head = f'{{"schema":{SCHEMA_VERSION},"g":{vol.g},"n":{vol.n},"provenance":"{provenance}",'
    return f'{head}"orbits":[{orbits}]}}\n'


def parse_entry(text: str) -> tuple[VolumePolynomial, str]:
    """Parse and validate a cache document; raises CacheError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(f"unreadable cache document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise CacheError(
            f"cache schema version mismatch (expected {SCHEMA_VERSION}, "
            f"got {doc.get('schema') if isinstance(doc, dict) else doc!r})"
        )
    provenance = doc.get("provenance")
    if provenance not in PROVENANCES:
        raise CacheError(f"unknown provenance {provenance!r}")
    g, n = doc.get("g"), doc.get("n")
    if type(g) is not int or type(n) is not int:
        raise CacheError("g and n must be integers")
    orbits: dict = {}
    try:
        for entry in doc["orbits"]:
            pattern, pi_exp, c = tuple(entry["l"]), entry["pi"], entry["c"]
            key = (*pattern, pi_exp)
            if len(pattern) != n or any(type(e) is not int or e < 0 for e in key):
                raise CacheError(f"bad exponents {key} for n = {n}")
            if type(c) is not str:
                raise CacheError(f"coefficient of orbit {key} is not a string")
            if (pattern, pi_exp) in orbits:
                raise CacheError(f"repeated orbit {key}")
            orbits[pattern, pi_exp] = Fraction(c)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"malformed orbit list: {exc}") from exc
    try:
        vol = VolumePolynomial(g, n, orbits)
        vol.validate()
    except (InvariantError, UnstableSurfaceError) as exc:
        raise CacheError(f"stored entry fails validation: {exc}") from exc
    return vol, provenance


class VolumeStore:
    """In-memory table of validated volumes, optionally backed by a directory.

    Concurrency contract: any number of readers; writes are serialized by the
    caller and each file write is atomic (write to a temp file, then rename).
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = os.fspath(directory) if directory is not None else None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        # (g, n) -> (the one volume, the provenances that produced it)
        self._entries: dict[tuple[int, int], tuple[VolumePolynomial, list[str]]] = {}

    def _path(self, g: int, n: int) -> str:
        return os.path.join(self.directory, f"g{g}_n{n}.json")

    def _read(self, g: int, n: int) -> tuple[VolumePolynomial, str] | None:
        """The volume and provenance in the file of (g, n), parsed and
        checked to hold that key; None when there is no such file."""
        if self.directory is None:
            return None
        path = self._path(g, n)
        try:
            with open(path) as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        except UnicodeDecodeError as exc:
            raise CacheError(f"unreadable cache document: {exc}") from exc
        vol, provenance = parse_entry(text)
        if (vol.g, vol.n) != (g, n):
            raise CacheError(f"cache file {os.path.basename(path)} holds V({vol.g},{vol.n})")
        return vol, provenance

    def _held(self, g: int, n: int) -> tuple[VolumePolynomial, list[str]] | None:
        """The volume of (g, n) and its provenances, its file read on first
        use; None when the store holds none."""
        held = self._entries.get((g, n))
        if held is None:
            read = self._read(g, n)
            if read is not None:
                held = self._entries[(g, n)] = (read[0], [read[1]])
        return held

    def find(self, g: int, n: int) -> tuple[VolumePolynomial, str] | None:
        """The entry for (g, n) and its provenance, the first held in
        ``PROVENANCES`` order; None when the store holds none."""
        held = self._held(g, n)
        return held and (held[0], min(held[1], key=PROVENANCES.index))

    def get(self, g: int, n: int, provenance: str | None = None) -> VolumePolynomial | None:
        held = self._held(g, n)
        return held[0] if held and provenance in (None, *held[1]) else None

    def memo(self, g: int, n: int, provenance: str, build, *args) -> VolumePolynomial:
        """V(g, n) as ``provenance`` produces it: the held volume once that
        provenance has, else ``build(*args)``, stored and then returned as
        the object the store holds.  The seeds V(0,3) and V(1,1) are never
        built: every provenance is served the seed, stored as ``"seed"``."""
        # a hit is one lookup and one provenance test
        held = self._entries.get((g, n)) or self._held(g, n)
        if held is not None and provenance in held[1]:
            return held[0]
        if is_seed(g, n) and build is not seed_volume:
            return self.memo(g, n, "seed", seed_volume, g, n)
        self.put(build(*args), provenance)
        return self._entries[(g, n)][0]

    def put(self, vol: VolumePolynomial, provenance: str) -> None:
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        vol.validate()
        held = self._held(vol.g, vol.n)
        if held is None:
            self._entries[(vol.g, vol.n)] = (vol, [provenance])
        elif held[0].orbits != vol.orbits:
            raise ProvenanceConflictError(
                f"V({vol.g},{vol.n}) from {provenance!r} disagrees with stored "
                f"{held[1][0]!r} entry"
            )
        elif provenance not in held[1]:
            held[1].append(provenance)
        if self.directory is not None:
            path = self._path(vol.g, vol.n)
            if not os.path.exists(path):
                self._write_atomic(path, serialize_entry(vol, provenance))

    def _write_atomic(self, path: str, text: str) -> None:
        tmp = f"{os.path.splitext(path)[0]}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def keys(self) -> list[tuple[int, int]]:
        found = set(self._entries)
        if self.directory is not None:
            for name in os.listdir(self.directory):
                try:
                    g_part, n_part = name[:-len(".json")].split("_")
                    key = (int(g_part[1:]), int(n_part[1:]))
                except ValueError:
                    continue
                # a name such as g01_n3.json is not the file of (1, 3)
                if self._path(*key) == os.path.join(self.directory, name):
                    found.add(key)
        return sorted(found)

    def clear(self) -> int:
        """Drop all entries and the files of ``keys()``; returns their count.
        A file that cannot be removed leaves the others to go first, and its
        ``OSError`` is raised at the end."""
        keys, failure = self.keys(), None
        self._entries.clear()
        for key in keys if self.directory is not None else ():
            try:
                os.unlink(self._path(*key))
            except FileNotFoundError:
                pass
            except OSError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return len(keys)

    def verify_all(self) -> dict:
        """Re-validate every entry and re-check relations between neighbors.

        Re-reads disk-backed entries from their files so corruption is
        caught; a file that cannot be read fails its own entry only.  Returns
        a report dict with one record per check.
        """
        from .stringdilaton import relation_defect

        report = {"entries": 0, "checks": [], "failures": 0}
        volumes: dict[tuple[int, int], VolumePolynomial] = {}
        for g, n in self.keys():
            record = {"kind": "entry", "g": g, "n": n, "ok": True, "detail": ""}
            try:
                read = self._read(g, n)
                if read is None:
                    vol = self.get(g, n)
                    vol.validate()
                else:
                    vol, held = read[0], self._entries.get((g, n))
                    if held is not None and held[0].orbits != vol.orbits:
                        raise ProvenanceConflictError(
                            f"disk and {held[1][0]!r} entries disagree for ({g},{n})"
                        )
                volumes[(g, n)] = vol
            except (CacheError, InvariantError, OSError) as exc:
                record["ok"] = False
                record["detail"] = str(exc)
                report["failures"] += 1
            report["entries"] += 1
            report["checks"].append(record)
        for (g, n), vol in sorted(volumes.items()):
            bigger = volumes.get((g, n + 1))
            if bigger is None:
                continue
            for order, name in enumerate(("string", "dilaton")):
                ok = not relation_defect(bigger, vol, order)
                report["checks"].append(
                    {"kind": name, "g": g, "n": n, "ok": ok, "detail": ""}
                )
                if not ok:
                    report["failures"] += 1
        return report
