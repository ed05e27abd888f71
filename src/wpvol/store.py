"""Persistent, validated memo table of volume polynomials.

One JSON document per (g, n):

    {"schema": 1, "g": 1, "n": 1, "provenance": "seed",
     "terms": [{"l": [2], "pi": 0, "re": "1/48", "im": "0"}, ...]}

Terms are listed in the canonical order (ascending pi exponent, then L
exponents) and rationals are serialized as strings, so serialization is
deterministic and round-trips byte for byte.  Coefficients are rational, so
``"im"`` is always written as ``"0"``, and a document with a nonzero ``"im"``
is rejected.  Entries are validated against the volume invariants both when
written and when read back, which turns any on-disk corruption into an
immediate error instead of a wrong number: ``put`` is the one gate every
produced volume passes, and a document's terms are read through
``VolumePolynomial.checked``, which groups them into the orbit form the
store holds.  The writer lists the terms by the orbit walk that prints a
volume (``Poly.walk``), run over exponent tables instead of text tables.

Exponents must be JSON integers and coefficients strings; anything else (a
float exponent, a numeric ``"re"``) is rejected rather than coerced.

Several provenances may record the same (g, n) in one session; they must
agree exactly, and a disagreement is fatal because it means two independent
computation paths produced different polynomials.

A file is written under a fresh name in the cache directory, created with
``O_EXCL`` so no existing file is ever reused, and renamed over its target.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from .volume import InvariantError, UnstableSurfaceError, VolumePolynomial, seed_volume

SCHEMA_VERSION = 1
PROVENANCES = ("seed", "genus0_lift", "genus1_lift", "mirzakhani")
ENV_CACHE_DIR = "WPVOL_CACHE"
DEFAULT_CACHE_DIR = "wpvol-cache"


class CacheError(Exception):
    """A cache document is unreadable, stale, or fails validation."""


class ProvenanceConflictError(CacheError):
    """Two computation paths stored different polynomials for one (g, n)."""


def resolve_cache_dir(flag_value: str | None = None) -> Path:
    """Cache directory: explicit flag, else WPVOL_CACHE, else ./wpvol-cache."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


class _Exponents(dict):
    """Exponent -> the one-tuple (e,): over these tables the orbit walk
    builds each monomial's exponent tuple, pi last, in canonical order."""

    def __missing__(self, e: int) -> tuple:
        key = self[e] = (e,)
        return key


_EXPONENTS = _Exponents()


def volume_to_document(vol: VolumePolynomial, provenance: str) -> dict:
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    coefficients, order, keys = vol.poly.walk([_EXPONENTS] * (vol.n + 1))
    texts = [str(c) for c in coefficients]
    return {
        "schema": SCHEMA_VERSION,
        "g": vol.g,
        "n": vol.n,
        "provenance": provenance,
        "terms": [
            {"l": list(key[:-1]), "pi": key[-1], "re": texts[j], "im": "0"}
            for key, j in zip(keys, order)
        ],
    }


def serialize_entry(vol: VolumePolynomial, provenance: str) -> str:
    return json.dumps(volume_to_document(vol, provenance), separators=(",", ":")) + "\n"


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
    terms = {}
    parsed: dict = {}  # coefficient string -> its one Fraction object
    try:
        for term in doc["terms"]:
            key = (*term["l"], term["pi"])
            if len(key) != n + 1 or any(type(e) is not int or e < 0 for e in key):
                raise CacheError(f"bad exponents {key} for n = {n}")
            real, imag = term["re"], term["im"]
            if type(real) is not str or type(imag) is not str:
                raise CacheError(f"coefficient at monomial {key} is not a string")
            if imag != "0" and Fraction(imag):
                raise CacheError(f"non-real coefficient at monomial {key}")
            coeff = parsed.get(real)
            if coeff is None:
                coeff = parsed[real] = Fraction(real)
            if key in terms:
                raise CacheError(f"duplicate monomial {key}")
            terms[key] = coeff
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"malformed term list: {exc}") from exc
    try:
        vol = VolumePolynomial.checked(g, n, terms)
    except (InvariantError, UnstableSurfaceError) as exc:
        raise CacheError(f"stored entry fails validation: {exc}") from exc
    return vol, provenance


class VolumeStore:
    """In-memory table of validated volumes, optionally backed by a directory.

    Concurrency contract: any number of readers; writes are serialized by the
    caller and each file write is atomic (write to a temp file, then rename).
    """

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        # (g, n) -> {provenance: VolumePolynomial}
        self._entries: dict[tuple[int, int], dict[str, VolumePolynomial]] = {}

    def _path(self, g: int, n: int) -> Path:
        return self.directory / f"g{g}_n{n}.json"

    def _load_from_disk(self, g: int, n: int) -> None:
        if self.directory is None:
            return
        path = self._path(g, n)
        if not path.exists():
            return
        vol, provenance = parse_entry(path.read_text())
        if (vol.g, vol.n) != (g, n):
            raise CacheError(
                f"cache file {path.name} holds V({vol.g},{vol.n})"
            )
        self._entries.setdefault((g, n), {})[provenance] = vol

    def find(self, g: int, n: int) -> tuple[VolumePolynomial, str] | None:
        """The entry for (g, n) and its provenance, the first held in
        ``PROVENANCES`` order; None when the store holds none."""
        if (g, n) not in self._entries:
            self._load_from_disk(g, n)
        by_prov = self._entries.get((g, n), {})
        for name in PROVENANCES:
            if name in by_prov:
                return by_prov[name], name
        return None

    def get(self, g: int, n: int, provenance: str | None = None) -> VolumePolynomial | None:
        if provenance is None:
            found = self.find(g, n)
            return None if found is None else found[0]
        if (g, n) not in self._entries:
            self._load_from_disk(g, n)
        return self._entries.get((g, n), {}).get(provenance)

    def seed(self, g: int, n: int) -> VolumePolynomial:
        """The seed V(g, n), stored on first use."""
        vol = self.get(g, n, provenance="seed")
        if vol is None:
            vol = seed_volume(g, n)
            self.put(vol, "seed")
        return vol

    def put(self, vol: VolumePolynomial, provenance: str) -> None:
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        vol.validate()
        key = (vol.g, vol.n)
        if key not in self._entries:
            self._load_from_disk(*key)
        by_prov = self._entries.setdefault(key, {})
        for other_prov, other in by_prov.items():
            if other.orbits != vol.orbits:
                raise ProvenanceConflictError(
                    f"V{key} from {provenance!r} disagrees with stored "
                    f"{other_prov!r} entry"
                )
        by_prov[provenance] = vol
        if self.directory is not None:
            path = self._path(vol.g, vol.n)
            if not path.exists():
                self._write_atomic(path, serialize_entry(vol, provenance))

    def _write_atomic(self, path: Path, text: str) -> None:
        tmp = path.with_name(f"{path.stem}.{os.urandom(8).hex()}.tmp")
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
            for path in self.directory.glob("g*_n*.json"):
                stem = path.stem
                try:
                    g_part, n_part = stem.split("_")
                    found.add((int(g_part[1:]), int(n_part[1:])))
                except ValueError:
                    continue
        return sorted(found)

    def clear(self) -> int:
        """Drop all entries; returns how many keys were removed."""
        count = len(self.keys())
        self._entries.clear()
        if self.directory is not None:
            for path in self.directory.glob("g*_n*.json"):
                path.unlink()
        return count

    def verify_all(self) -> dict:
        """Re-validate every entry and re-check relations between neighbors.

        Re-reads disk-backed entries from their files so corruption is
        caught.  Returns a report dict with one record per check.
        """
        from .stringdilaton import relation_defect

        report = {"entries": 0, "checks": [], "failures": 0}
        volumes: dict[tuple[int, int], VolumePolynomial] = {}
        for g, n in self.keys():
            record = {"kind": "entry", "g": g, "n": n, "ok": True, "detail": ""}
            try:
                if self.directory is not None and self._path(g, n).exists():
                    vol, _ = parse_entry(self._path(g, n).read_text())
                    if (vol.g, vol.n) != (g, n):
                        raise CacheError(f"file for ({g},{n}) holds other key")
                    in_memory = self._entries.get((g, n), {})
                    for prov, mem_vol in in_memory.items():
                        if mem_vol.orbits != vol.orbits:
                            raise ProvenanceConflictError(
                                f"disk and {prov!r} entries disagree for ({g},{n})"
                            )
                else:
                    vol = self.get(g, n)
                    vol.validate()
                volumes[(g, n)] = vol
            except (CacheError, InvariantError) as exc:
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
