import json
from fractions import Fraction

import pytest

from wpvol.mirzakhani import mirzakhani_volume
from wpvol.store import (
    PROVENANCES,
    CacheError,
    ProvenanceConflictError,
    VolumeStore,
    parse_entry,
    resolve_cache_dir,
    serialize_entry,
)
from wpvol.stringdilaton import genus0_lift
from wpvol.volume import UnstableSurfaceError, VolumePolynomial


def test_round_trip_in_memory(v11):
    store = VolumeStore()
    store.put(v11, "seed")
    assert store.get(1, 1).poly == v11.poly


def test_serialization_is_byte_stable(v11):
    text = serialize_entry(v11, "seed")
    vol, provenance = parse_entry(text)
    assert provenance == "seed"
    assert vol.poly == v11.poly
    assert serialize_entry(vol, provenance) == text


def test_document_shape(v11):
    doc = json.loads(serialize_entry(v11, "seed"))
    assert doc["schema"] == 1
    assert doc["g"] == 1 and doc["n"] == 1
    assert doc["terms"][0] == {"l": [2], "pi": 0, "re": "1/48", "im": "0"}


def test_disk_round_trip(tmp_path, v03):
    store = VolumeStore(tmp_path)
    v04 = genus0_lift(v03)
    store.put(v04, "genus0_lift")
    fresh = VolumeStore(tmp_path)
    assert fresh.get(0, 4).poly == v04.poly
    # identical bytes after a full write/read/write cycle
    path = tmp_path / "g0_n4.json"
    assert serialize_entry(*parse_entry(path.read_text())) == path.read_text()


def test_unstable_rejected(v03):
    store = VolumeStore()
    with pytest.raises(UnstableSurfaceError):
        store.put(VolumePolynomial(0, 2, {((0, 0), 0): Fraction(1)}), "seed")


def test_invalid_entry_rejected(v11):
    store = VolumeStore()
    with pytest.raises(Exception):
        store.put(VolumePolynomial(1, 1, {**v11.orbits, ((0,), 0): Fraction(1)}), "seed")


def test_cross_provenance_agreement(v03):
    store = VolumeStore()
    lifted = genus0_lift(v03)
    store.put(lifted, "genus0_lift")
    recursed = mirzakhani_volume(0, 4, VolumeStore())
    store.put(recursed, "mirzakhani")  # equal, accepted
    assert store.get(0, 4, provenance="mirzakhani").poly == lifted.poly


def test_cross_provenance_conflict_is_fatal(v03, v11):
    store = VolumeStore()
    lifted = genus0_lift(v03)
    store.put(lifted, "genus0_lift")
    tampered = VolumePolynomial(0, 4, {k: 2 * c for k, c in lifted.orbits.items()})
    with pytest.raises(ProvenanceConflictError):
        store.put(tampered, "mirzakhani")


def test_schema_version_mismatch(v11):
    text = serialize_entry(v11, "seed").replace('"schema":1', '"schema":99')
    with pytest.raises(CacheError, match="schema"):
        parse_entry(text)


def test_nonzero_imaginary_part_rejected(v11):
    text = serialize_entry(v11, "seed").replace('"im":"0"', '"im":"1/2"', 1)
    with pytest.raises(CacheError, match="non-real"):
        parse_entry(text)


def test_unreadable_document():
    with pytest.raises(CacheError):
        parse_entry("{not json")


def test_corrupted_coefficient_detected(tmp_path, v03):
    store = VolumeStore(tmp_path)
    store.put(genus0_lift(v03), "genus0_lift")
    path = tmp_path / "g0_n4.json"
    path.write_text(path.read_text().replace('"re":"1/2"', '"re":"1/3"', 1))
    fresh = VolumeStore(tmp_path)
    with pytest.raises(CacheError, match="validation"):
        fresh.get(0, 4)


def test_verify_all_clean(tmp_path, v03, v11):
    store = VolumeStore(tmp_path)
    store.put(v03, "seed")
    store.put(v11, "seed")
    store.put(genus0_lift(v03), "genus0_lift")
    report = store.verify_all()
    assert report["entries"] == 3
    assert report["failures"] == 0
    kinds = {c["kind"] for c in report["checks"]}
    assert {"entry", "string", "dilaton"} <= kinds


def test_verify_all_flags_corruption(tmp_path, v03):
    store = VolumeStore(tmp_path)
    store.put(v03, "seed")
    store.put(genus0_lift(v03), "genus0_lift")
    path = tmp_path / "g0_n4.json"
    path.write_text(path.read_text().replace('"re":"1/2"', '"re":"1/3"', 1))
    fresh = VolumeStore(tmp_path)
    report = fresh.verify_all()
    assert report["failures"] >= 1


def test_clear(tmp_path, v03):
    store = VolumeStore(tmp_path)
    store.put(v03, "seed")
    assert store.clear() == 1
    assert store.get(0, 3) is None
    assert not list(tmp_path.glob("*.json"))


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("WPVOL_CACHE", raising=False)
    assert resolve_cache_dir("explicit").name == "explicit"
    monkeypatch.setenv("WPVOL_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"
    monkeypatch.delenv("WPVOL_CACHE")
    assert resolve_cache_dir(None).name == "wpvol-cache"


def test_get_absent(tmp_path):
    assert VolumeStore(tmp_path).get(0, 5) is None
    assert VolumeStore().get(0, 2) is None


def test_each_produced_volume_validated_once(monkeypatch):
    from wpvol.compute import ensure_volume, lift_volume

    calls = []
    original = VolumePolynomial.validate

    def counting(self):
        calls.append((self.g, self.n))
        return original(self)

    monkeypatch.setattr(VolumePolynomial, "validate", counting)
    store = VolumeStore()
    lift_volume(store, 1, 4)
    ensure_volume(store, 3, 0)
    stored = [
        (g, n) for g, n in store.keys() for prov in PROVENANCES if store.get(g, n, prov)
    ]
    assert sorted(calls) == stored
