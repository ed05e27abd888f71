import hashlib
import json
from fractions import Fraction

import pytest

from wpvol.cli import export_document
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
from wpvol.stringdilaton import lift
from wpvol.volume import UnstableSurfaceError, VolumePolynomial
from dense_oracle import SCHEMA_1_V11, orbit_document


def test_round_trip_in_memory(v11):
    store = VolumeStore()
    store.put(v11, "seed")
    assert store.get(1, 1) == v11


def test_serialization_is_byte_stable(v11):
    text = serialize_entry(v11, "seed")
    vol, provenance = parse_entry(text)
    assert provenance == "seed"
    assert vol == v11
    assert serialize_entry(vol, provenance) == text


def test_writer_rejects_an_unknown_provenance(v11):
    with pytest.raises(ValueError, match="unknown provenance 'lifted'"):
        serialize_entry(v11, "lifted")


def test_document_shape(v11):
    text = serialize_entry(v11, "seed")
    doc = json.loads(text)
    assert doc["schema"] == 2
    assert doc["g"] == 1 and doc["n"] == 1
    assert doc["orbits"] == [{"l": [2], "pi": 0, "c": "1/48"}, {"l": [0], "pi": 2, "c": "1/12"}]
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"


# sha256 of the cache documents of lift V(0,3..11) and V(1,1..9), closed
# V(2..6,0) and kernel V(2,1..5), joined by newlines
PINNED_DOCUMENTS = "e02351450a6aaf1ff07cdf17cbc1d3e020a387293aa5212d9e212de3da78f55a"


def test_documents_match_the_oracle_and_a_pinned_digest():
    # one entry per orbit, in descending (pattern, pi) order, as the oracle
    # writes it with json.dumps; the digest pins the bytes across changes
    from wpvol.compute import ensure_volume, lift_volume

    store = VolumeStore()
    vols = [lift_volume(store, g, n) for g, top in ((0, 11), (1, 9))
            for n in range(3 - 2 * g, top + 1)]
    vols += [ensure_volume(store, g, 0) for g in range(2, 7)]
    vols += [ensure_volume(store, 2, n) for n in range(1, 6)]
    texts = [serialize_entry(v, store.find(v.g, v.n)[1]) for v in vols]
    assert texts == [orbit_document(v.g, v.n, v.orbits, store.find(v.g, v.n)[1]) for v in vols]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == PINNED_DOCUMENTS


def test_disk_round_trip(tmp_path, v03):
    store = VolumeStore(tmp_path)
    v04 = lift(v03)
    store.put(v04, "genus0_lift")
    fresh = VolumeStore(tmp_path)
    assert fresh.get(0, 4) == v04
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
    lifted = lift(v03)
    store.put(lifted, "genus0_lift")
    recursed = mirzakhani_volume(0, 4, VolumeStore())
    store.put(recursed, "mirzakhani")  # equal, accepted
    assert store.get(0, 4, provenance="mirzakhani").orbits == lifted.orbits


def test_cross_provenance_conflict_is_fatal(v03, v11):
    store = VolumeStore()
    lifted = lift(v03)
    store.put(lifted, "genus0_lift")
    tampered = VolumePolynomial(0, 4, {k: 2 * c for k, c in lifted.orbits.items()})
    with pytest.raises(ProvenanceConflictError):
        store.put(tampered, "mirzakhani")


def test_schema_version_mismatch(v11):
    text = serialize_entry(v11, "seed").replace('"schema":2', '"schema":99')
    with pytest.raises(CacheError, match="schema"):
        parse_entry(text)


def test_schema_1_document_refused(v11):
    # schema 1 is the JSON export's dense document, never a cache entry
    assert export_document(v11, "seed") == SCHEMA_1_V11
    with pytest.raises(CacheError) as info:
        parse_entry(SCHEMA_1_V11)
    assert str(info.value) == "cache schema version mismatch (expected 2, got 1)"


def test_unreadable_document():
    with pytest.raises(CacheError):
        parse_entry("{not json")


def test_corrupted_coefficient_detected(tmp_path, v03):
    store = VolumeStore(tmp_path)
    store.put(lift(v03), "genus0_lift")
    path = tmp_path / "g0_n4.json"
    # the constant orbit of V(0,4), 2 pi^2, is the volume of M(0,4): positive
    path.write_text(path.read_text().replace('"c":"2"', '"c":"-2"', 1))
    fresh = VolumeStore(tmp_path)
    with pytest.raises(CacheError, match="validation"):
        fresh.get(0, 4)


def test_verify_all_clean(tmp_path, v03, v11):
    store = VolumeStore(tmp_path)
    store.put(v03, "seed")
    store.put(v11, "seed")
    store.put(lift(v03), "genus0_lift")
    report = store.verify_all()
    assert report["entries"] == 3
    assert report["failures"] == 0
    kinds = {c["kind"] for c in report["checks"]}
    assert {"entry", "string", "dilaton"} <= kinds


def test_verify_all_flags_corruption(tmp_path, v03):
    store = VolumeStore(tmp_path)
    store.put(v03, "seed")
    store.put(lift(v03), "genus0_lift")
    path = tmp_path / "g0_n4.json"
    # a valid V(0,4) in form, so only the relations with V(0,3) can see it
    path.write_text(path.read_text().replace('"c":"1/2"', '"c":"1/3"', 1))
    fresh = VolumeStore(tmp_path)
    report = fresh.verify_all()
    assert report["failures"] >= 1


def test_verify_all_without_a_directory(v03):
    store = VolumeStore()
    store.put(v03, "seed")
    lifted = lift(v03)
    constant = ((0, 0, 0, 0), 2)
    # valid, but twice the constant orbit breaks the string relation; the
    # dilaton relation reads only the L4 derivative, which keeps it
    store.put(VolumePolynomial(0, 4, {**lifted.orbits, constant: 4}), "mirzakhani")
    report = store.verify_all()
    assert (report["entries"], report["failures"]) == (2, 1)
    assert [(c["kind"], c["g"], c["n"], c["ok"]) for c in report["checks"]] == [
        ("entry", 0, 3, True),
        ("entry", 0, 4, True),
        ("string", 0, 3, False),
        ("dilaton", 0, 3, True),
    ]
    store = VolumeStore()
    store.put(v03, "seed")
    store.put(lifted, "genus0_lift")
    assert store.verify_all()["failures"] == 0


def test_both_methods_conflict_is_raised_by_the_store(v03):
    from wpvol.compute import ensure_volume

    store = VolumeStore()
    lifted = lift(v03)
    constant = ((0, 0, 0, 0), 2)
    assert lifted.orbits[constant] == 2
    store.put(VolumePolynomial(0, 4, {**lifted.orbits, constant: 4}), "mirzakhani")
    with pytest.raises(ProvenanceConflictError) as info:
        ensure_volume(store, 0, 4, "both")
    assert str(info.value) == (
        "V(0,4) from 'genus0_lift' disagrees with stored 'mirzakhani' entry"
    )
    assert store.get(0, 4, provenance="genus0_lift") is None


def test_both_methods_share_one_volume():
    from wpvol.compute import ensure_volume

    store = VolumeStore()
    ensure_volume(store, 0, 5, "both")
    assert store.get(0, 5, "genus0_lift") is store.get(0, 5, "mirzakhani")
    assert store.find(0, 5)[1] == "genus0_lift"


def test_every_generator_is_served_the_one_seed(tmp_path):
    from wpvol.compute import lift_volume

    store = VolumeStore(tmp_path)
    seed = lift_volume(store, 0, 3)
    assert mirzakhani_volume(0, 3, store) is seed
    assert store.find(0, 3) == (seed, "seed")
    assert [store.get(0, 3, prov) for prov in PROVENANCES] == [seed, None, None, None]
    assert [path.name for path in tmp_path.iterdir()] == ["g0_n3.json"]


def test_clear(tmp_path, v03, v11):
    store = VolumeStore(tmp_path)
    store.put(v03, "seed")
    store.put(v11, "seed")
    # an entry whose file is already gone is cleared without an error
    (tmp_path / "g1_n1.json").unlink()
    assert store.clear() == 2
    assert store.get(0, 3) is None
    assert not list(tmp_path.glob("*.json"))


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("WPVOL_CACHE", raising=False)
    assert resolve_cache_dir("explicit") == "explicit"
    monkeypatch.setenv("WPVOL_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == str(tmp_path / "env")
    assert resolve_cache_dir(str(tmp_path / "flag")) == str(tmp_path / "flag")
    monkeypatch.delenv("WPVOL_CACHE")
    assert resolve_cache_dir(None) == "wpvol-cache"


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


def _document(vol, **edits):
    """The cache document of ``vol``, its first orbit's fields replaced."""
    doc = json.loads(serialize_entry(vol, "seed"))
    for field, value in edits.items():
        if field in ("g", "n"):
            doc[field] = value
        else:
            doc["orbits"][0][field] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "g, n, edits",
    [
        # V(2,0) = 43/2160 pi^6 has one orbit
        (2, 0, {"pi": 6.7}),  # read as pi^6 by int()
        (2, 0, {"pi": 6.0}),
        (2, 0, {"c": 0.0199}),  # read as its binary expansion by Fraction()
        # V(1,1)'s first orbit is L1^2 / 48
        (1, 1, {"pi": False}),  # bool is an int subclass
        (1, 1, {"l": ["2"]}),
        (1, 1, {"l": [2, 0]}),  # one exponent too many for n = 1
        (1, 1, {"c": 1}),
        (1, 1, {"c": "1/0"}),
        (1, 1, {"c": "0"}),  # a stored orbit is never zero
        (1, 1, {"l": [-2]}),
        (1, 1, {"g": True}),
        (1, 1, {"g": 0}),  # V(0,1) is unstable
        (1, 1, {"c": "x"}),
        (1, 1, {"l": 2}),
    ],
)
def test_corrupt_document_rejected(g, n, edits):
    from wpvol.compute import ensure_volume

    text = _document(ensure_volume(VolumeStore(), g, n), **edits)
    with pytest.raises(CacheError):
        parse_entry(text)


def test_failed_rename_leaves_no_file(tmp_path, monkeypatch, v03):
    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("wpvol.store.os.replace", failing_replace)
    store = VolumeStore(tmp_path)
    with pytest.raises(OSError, match="rename failed"):
        store.put(v03, "seed")
    assert list(tmp_path.iterdir()) == []


# The parse gate: a document lists each orbit of a volume once, as its
# pattern sorted descending, its pi exponent and its coefficient, and the
# orbits must make a valid V(g, n).  V(0,5)'s orbits, in document order:
# L1^4 / 8, L1^2 L2^2 / 2, 3 L1^2 pi^2 and 10 pi^4.


def _v05_orbits():
    from wpvol.compute import ensure_volume

    vol = ensure_volume(VolumeStore(), 0, 5)
    return vol, json.loads(serialize_entry(vol, "genus0_lift"))


def _with_orbits(doc, orbits):
    return json.dumps(dict(doc, orbits=orbits))


def test_orbit_with_two_coefficients_rejected():
    # the orbit L1^2 pi^2 listed a second time, with another coefficient
    # and as it is
    _, doc = _v05_orbits()
    for c in ("1/3", "3"):
        orbits = doc["orbits"] + [{"l": [2, 0, 0, 0, 0], "pi": 2, "c": c}]
        with pytest.raises(CacheError) as info:
            parse_entry(_with_orbits(doc, orbits))
        assert str(info.value) == "repeated orbit (2, 0, 0, 0, 0, 2)"


def test_wrong_number_of_exponents_rejected():
    _, doc = _v05_orbits()
    orbits = [dict(t) for t in doc["orbits"]]
    orbits[0]["l"] = orbits[0]["l"] + [0]
    with pytest.raises(CacheError) as info:
        parse_entry(_with_orbits(doc, orbits))
    assert str(info.value) == "bad exponents (4, 0, 0, 0, 0, 0, 0) for n = 5"


def test_shuffled_terms_parse_to_the_same_orbits(rng):
    vol, doc = _v05_orbits()
    for _ in range(5):
        orbits = list(doc["orbits"])
        rng.shuffle(orbits)
        parsed, provenance = parse_entry(_with_orbits(doc, orbits))
        assert (parsed, provenance) == (vol, "genus0_lift")
        assert str(parsed.poly) == str(vol.poly)


@pytest.mark.parametrize("index, fields, message", [
    (1, {"l": [2, 2, 0, 0, 0.0]}, "bad exponents (2, 2, 0, 0, 0.0, 0) for n = 5"),
    (1, {"l": [2, 2, False, 0, 0]}, "bad exponents (2, 2, False, 0, 0, 0) for n = 5"),
    (1, {"l": [4, 2, 0, 0, -2]}, "bad exponents (4, 2, 0, 0, -2, 0) for n = 5"),
    (0, {"c": ["1/8"]}, "coefficient of orbit (4, 0, 0, 0, 0, 0) is not a string"),
], ids=["float", "bool", "negative", "list"])
def test_schema_2_defect_rejected(index, fields, message):
    _, doc = _v05_orbits()
    orbits = [dict(t) for t in doc["orbits"]]
    orbits[index].update(fields)
    with pytest.raises(CacheError) as info:
        parse_entry(_with_orbits(doc, orbits))
    assert str(info.value) == message


def test_empty_orbit_list_rejected():
    # V(0,5)(0) is the volume of M(0,5), so no orbits is not the zero volume
    _, doc = _v05_orbits()
    with pytest.raises(CacheError) as info:
        parse_entry(_with_orbits(doc, []))
    assert str(info.value) == (
        "stored entry fails validation: V(0,5) invariant failure: constant term is not positive;"
        " orbit count 0 is not 4"
    )
