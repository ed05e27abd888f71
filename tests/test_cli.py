import argparse
import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wpvol.cli
import wpvol.compute
import wpvol.intersections
from wpvol.cli import MAX_DENSE_TERMS, main
from wpvol.compute import ensure_volume
from wpvol.store import VolumeStore
from wpvol.symmetric import LiftError
from wpvol.volume import VolumePolynomial, seed_volume
import dense_oracle
from dense_oracle import SCHEMA_1_V11


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "cache")


class TestCompute:
    def test_torus_seed_exact(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "compute",
                           "--genus", "1", "--boundaries", "1")
        assert code == 0
        assert out == "(1/48)*L1^2 + (1/12)*pi^2\n"

    def test_deterministic_output(self, capsys, cache):
        args = ("--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unstable_is_usage_error(self, capsys, cache):
        code, out, err = run(capsys, "--cache-dir", cache, "compute",
                             "--genus", "0", "--boundaries", "2")
        assert code == 2
        assert not out
        assert "not stable" in err

    def test_lift_needs_low_genus(self, capsys, cache):
        code, _, err = run(capsys, "--cache-dir", cache, "compute",
                           "--genus", "2", "--boundaries", "1", "--method", "lift")
        assert code == 2
        assert "genus" in err

    def test_both_methods_agree(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "compute",
                           "--genus", "0", "--boundaries", "4", "--method", "both")
        assert code == 0
        assert out.count("\n") == 1
        assert "2*pi^2" in out

    def test_both_methods_disagree_on_a_tampered_lift(self, capsys, cache):
        # the store's provenance check is the comparison `both` asks for: the
        # kernel's V(0,4) meets the stored lift there
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        path = Path(cache) / "g0_n4.json"
        text = path.read_text()
        assert text.count('"pi":2,"c":"2"') == 1
        path.write_text(text.replace('"pi":2,"c":"2"', '"pi":2,"c":"3"'))
        code, out, err = run(capsys, "--cache-dir", cache, "compute",
                             "--genus", "0", "--boundaries", "4", "--method", "both")
        assert (code, out) == (1, "")
        assert err == ("cache error: V(0,4) from 'mirzakhani' disagrees with stored "
                       "'genus0_lift' entry\n")

    def test_file_holding_another_volume(self, capsys, cache):
        argv = ("compute", "--genus", "0", "--boundaries", "7", "--method", "mirzakhani")
        run(capsys, "--cache-dir", cache, *argv)
        shutil.copy(Path(cache) / "g0_n4.json", Path(cache) / "g0_n7.json")
        message = "cache file g0_n7.json holds V(0,4)"
        code, out, err = run(capsys, "--cache-dir", cache, *argv)
        assert (code, out, err) == (1, "", f"cache error: {message}\n")
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert (code, out, err) == (1, "5 entries, 1 failures\n", f"FAIL entry (0,7): {message}\n")

    def test_latex(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "compute",
                           "--genus", "1", "--boundaries", "1", "--latex")
        assert code == 0
        assert out == "\\frac{1}{48}L_{1}^{2} + \\frac{1}{12}\\pi^{2}\n"

    def test_closed_surface(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "compute",
                           "--genus", "2", "--boundaries", "0")
        assert code == 0
        assert out == "(43/2160)*pi^6\n"

    def test_emptied_cache_entry_is_a_cache_error(self, capsys, cache):
        # a document whose orbit list is empty must not load as the zero volume
        run(capsys, "--cache-dir", cache, "compute", "--genus", "1", "--boundaries", "2")
        path = Path(cache) / "g1_n2.json"
        document = json.loads(path.read_text())
        document["orbits"] = []
        path.write_text(json.dumps(document, separators=(",", ":")))
        for argv in (("compute", "--genus", "1", "--boundaries", "2"),
                     ("compute", "--genus", "1", "--boundaries", "3"),
                     ("intersect", "--genus", "1", "--n", "2", "--alpha", "1,1")):
            code, out, err = run(capsys, "--cache-dir", cache, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("cache error: stored entry fails validation: ")

    def test_negative_cache_coefficient_is_a_cache_error(self, capsys, cache):
        # every coefficient of a volume is positive, so a negative one is corruption
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "5")
        path = Path(cache) / "g0_n4.json"
        path.write_text(path.read_text().replace('"c":"1/2"', '"c":"-1/2"'))
        message = ("cache error: stored entry fails validation: V(0,4) invariant failure: "
                   "negative coefficient stored\n")
        for argv in (("compute", "--genus", "0", "--boundaries", "4"),
                     ("intersect", "--genus", "0", "--n", "4", "--alpha", "1,0,0,0")):
            assert run(capsys, "--cache-dir", cache, *argv) == (1, "", message)

    def test_cache_entry_missing_an_orbit_is_a_cache_error(self, capsys, cache):
        # V(0,4) has two orbits; the constant one alone is not the volume
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        path = Path(cache) / "g0_n4.json"
        document = json.loads(path.read_text())
        document["orbits"] = [orbit for orbit in document["orbits"] if not any(orbit["l"])]
        path.write_text(json.dumps(document, separators=(",", ":")))
        code, out, err = run(capsys, "--cache-dir", cache, "compute", "--genus", "0",
                             "--boundaries", "4")
        assert (code, out, err) == (1, "", "cache error: stored entry fails validation: "
                                           "V(0,4) invariant failure: orbit count 1 is not 2\n")

    def test_undecodable_cache_file_is_a_cache_error(self, capsys, cache):
        # bytes that are not UTF-8 used to escape as a UnicodeDecodeError
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        (Path(cache) / "g0_n4.json").write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "--cache-dir", cache, "compute", "--genus", "0",
                             "--boundaries", "4")
        assert (code, out) == (1, "")
        assert err == (
            "cache error: unreadable cache document: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )

    def test_closed_surface_needs_genus_two(self, capsys, cache):
        code, _, err = run(capsys, "--cache-dir", cache, "compute",
                           "--genus", "1", "--boundaries", "0")
        assert code == 2
        assert "not stable" in err


class TestIntersect:
    def test_torus_psi(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "intersect",
                           "--genus", "1", "--n", "1", "--alpha", "1", "--kappa", "0")
        assert code == 0
        assert out == "1/24\n"

    def test_five_points(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "intersect",
                           "--genus", "0", "--n", "5", "--alpha", "1,1,0,0,0")
        assert code == 0
        assert out == "2\n"

    def test_dimension_violation_prints_zero(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "intersect",
                           "--genus", "1", "--n", "1", "--alpha", "0", "--kappa", "3")
        assert code == 0
        assert out == "0\n"

    def test_unstable(self, capsys, cache):
        code, _, err = run(capsys, "--cache-dir", cache, "intersect",
                           "--genus", "0", "--n", "2", "--alpha", "0,0")
        assert code == 2

    def test_alpha_length_mismatch(self, capsys, cache):
        code, _, err = run(capsys, "--cache-dir", cache, "intersect",
                           "--genus", "0", "--n", "4", "--alpha", "1,0")
        assert code == 2

    @pytest.mark.parametrize("genus, n, alpha", [
        ("1", "2", "1,,1"), ("1", "2", "1,1,"), ("1", "2", ",1,1"), ("2", "0", ","),
    ])
    def test_empty_alpha_entry_rejected(self, capsys, cache, genus, n, alpha):
        code, out, err = run(capsys, "--cache-dir", cache, "intersect", "--genus",
                             genus, "--n", n, f"--alpha={alpha}", "--kappa", "3")
        assert code == 2
        assert not out
        assert err == f"error: bad alpha list {alpha!r}\n"

    def test_empty_alpha_is_the_closed_surface(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "intersect",
                           "--genus", "2", "--n", "0", "--alpha=", "--kappa", "3")
        assert code == 0
        assert out == "43/2880\n"


class TestExport:
    def test_latex(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "export",
                           "--format", "latex", "--genus", "1", "--boundaries", "1")
        assert code == 0
        assert out == "\\frac{1}{48}L_{1}^{2} + \\frac{1}{12}\\pi^{2}\n"

    def test_json_schema(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "export",
                           "--format", "json", "--genus", "1", "--boundaries", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["provenance"] == "seed"
        assert doc["terms"][0]["re"] == "1/48"

    def test_json_is_the_dense_document_of_the_oracle(self, capsys, cache):
        # the export lists every monomial (schema 1), unlike the cache file
        code, out, _ = run(capsys, "--cache-dir", cache, "export",
                           "--format", "json", "--genus", "2", "--boundaries", "5")
        assert code == 0
        vol, provenance = VolumeStore(cache).find(2, 5)
        assert out == dense_oracle.serialize_entry(vol, provenance)

    def test_computes_on_miss(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "export",
                           "--format", "json", "--genus", "0", "--boundaries", "5")
        assert code == 0
        assert json.loads(out)["n"] == 5

    @pytest.mark.parametrize("g, n", [(0, 4), (1, 3)])
    def test_reports_stored_provenance(self, capsys, cache, monkeypatch, g, n):
        # a volume the kernel recursion stored is exported as it is,
        # without running the lift chain again
        code, _, _ = run(capsys, "--cache-dir", cache, "compute", "--method",
                         "mirzakhani", "--genus", str(g), "--boundaries", str(n))
        assert code == 0

        def fail(*args):
            raise AssertionError("export recomputed a stored volume")

        monkeypatch.setattr(wpvol.compute, "lift_volume", fail)
        code, out, _ = run(capsys, "--cache-dir", cache, "export",
                           "--format", "json", "--genus", str(g), "--boundaries", str(n))
        assert code == 0
        assert json.loads(out)["provenance"] == "mirzakhani"

    def test_output_file(self, capsys, tmp_path, cache):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "--cache-dir", cache, "export",
                           "--format", "json", "--genus", "1", "--boundaries", "1",
                           "--output", str(target))
        assert code == 0
        assert not out
        assert json.loads(target.read_text())["g"] == 1

    def test_unwritable_output_is_io_error(self, capsys, tmp_path, cache):
        target = tmp_path / "missing-dir" / "out.json"
        code, _, err = run(capsys, "--cache-dir", cache, "export",
                           "--format", "json", "--genus", "1", "--boundaries", "1",
                           "--output", str(target))
        assert code == 4


class TestCache:
    def test_verify_fresh(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert code == 0
        assert out == "0 entries, OK\n"

    def test_verify_populated(self, capsys, cache):
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        code, out, _ = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert code == 0
        assert out.endswith("entries, OK\n")

    def test_verify_corrupted(self, capsys, cache, tmp_path):
        from pathlib import Path

        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        path = next(Path(cache).glob("g0_n4.json"))
        # a valid V(0,4) in form: the string relation with V(0,3) fails
        path.write_text(path.read_text().replace('"c":"1/2"', '"c":"1/3"', 1))
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert (code, out) == (1, "2 entries, 2 failures\n")

    def test_schema_1_entry_is_refused_and_kept(self, capsys, cache):
        # a cache written before schema 2 fails until `wpvol cache clear`
        Path(cache).mkdir()
        path = Path(cache) / "g1_n1.json"
        path.write_text(SCHEMA_1_V11)
        message = "cache error: cache schema version mismatch (expected 2, got 1)\n"
        for argv in (("compute", "--genus", "1", "--boundaries", "1"),
                     ("compute", "--genus", "1", "--boundaries", "2")):
            code, out, err = run(capsys, "--cache-dir", cache, *argv)
            assert (code, out, err) == (1, "", message)
        assert path.read_text() == SCHEMA_1_V11
        assert sorted(p.name for p in Path(cache).iterdir()) == ["g1_n1.json"]
        code, out, _ = run(capsys, "--cache-dir", cache, "cache", "clear")
        assert (code, out) == (0, "cleared 1 entries\n")

    def test_verify_skips_a_stray_file_name(self, capsys, cache):
        # g01_n3.json reads as (1, 3) but is not the file of V(1,3)
        run(capsys, "--cache-dir", cache, "compute", "--genus", "1", "--boundaries", "2")
        assert sorted(p.name for p in Path(cache).iterdir()) == ["g1_n1.json", "g1_n2.json"]
        shutil.copy(Path(cache) / "g1_n2.json", Path(cache) / "g01_n3.json")
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert (code, out, err) == (0, "2 entries, OK\n", "")

    def test_verify_reports_an_undecodable_file(self, capsys, cache):
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        (Path(cache) / "g0_n4.json").write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert (code, out) == (1, "2 entries, 1 failures\n")
        assert err == (
            "FAIL entry (0,4): unreadable cache document: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_clear_removes_only_the_files_it_counts(self, capsys, cache):
        # g01_n3.json is not the file of any key, so clear leaves it; it
        # used to count two entries and remove three files
        run(capsys, "--cache-dir", cache, "compute", "--genus", "1", "--boundaries", "2")
        shutil.copy(Path(cache) / "g1_n2.json", Path(cache) / "g01_n3.json")
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "clear")
        assert (code, out, err) == (0, "cleared 2 entries\n", "")
        assert [p.name for p in Path(cache).iterdir()] == ["g01_n3.json"]

    def test_verify_reports_a_key_that_cannot_be_read(self, capsys, cache):
        # a directory where the file of V(0,4) would be fails that entry
        # alone; the other entries and their relations are still checked
        run(capsys, "--cache-dir", cache, "compute", "--genus", "1", "--boundaries", "2")
        blocked = Path(cache) / "g0_n4.json"
        blocked.mkdir()
        with pytest.raises(OSError) as raised:
            blocked.read_text()
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert (code, out) == (1, "3 entries, 1 failures\n")
        assert err == f"FAIL entry (0,4): {raised.value}\n"
        code, out, err = run(capsys, "--cache-dir", cache, "compute", "--genus", "0",
                             "--boundaries", "4")
        assert (code, out, err) == (4, "", f"I/O error: {raised.value}\n")

    def test_clear_removes_the_other_files_before_an_io_error(self, capsys, cache):
        run(capsys, "--cache-dir", cache, "compute", "--genus", "1", "--boundaries", "2")
        blocked = Path(cache) / "g0_n4.json"
        blocked.mkdir()
        with pytest.raises(OSError) as raised:
            blocked.unlink()
        code, out, err = run(capsys, "--cache-dir", cache, "cache", "clear")
        assert (code, out, err) == (4, "", f"I/O error: {raised.value}\n")
        assert [p.name for p in Path(cache).iterdir()] == ["g0_n4.json"]

    def test_clear(self, capsys, cache):
        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        code, out, _ = run(capsys, "--cache-dir", cache, "cache", "clear")
        assert code == 0
        assert "cleared" in out
        code, out, _ = run(capsys, "--cache-dir", cache, "cache", "verify")
        assert out == "0 entries, OK\n"


class TestVerify:
    def test_string_small_range(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "verify",
                           "--relation", "string", "--max-genus", "1",
                           "--max-boundaries", "5")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0
        assert report["checked"] > 0

    def test_factor_genus_two(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "verify",
                           "--relation", "factor", "--max-genus", "2",
                           "--max-boundaries", "2")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0
        assert report["checked"] == 2

    def test_factor_failure_on_perturbed_volume(self, capsys, cache):
        # V(2,1) plus L^2 pi^6 / 7: still homogeneous, no longer divisible
        orbits = dict(ensure_volume(VolumeStore(), 2, 1).orbits)
        orbits[((2,), 6)] = orbits.get(((2,), 6), 0) + Fraction(1, 7)
        VolumeStore(cache).put(VolumePolynomial(2, 1, orbits), "mirzakhani")
        code, out, err = run(capsys, "--cache-dir", cache, "verify",
                             "--relation", "factor", "--max-genus", "2")
        assert code == 1
        assert out == (
            '{"relation":"factor","max_genus":2,"max_boundaries":4,"checked":2,'
            '"failed":1,"vacuous":0,"cases":[{"g":1,"n":1,"ok":true},'
            '{"g":2,"n":1,"ok":false,'
            '"detail":"nonzero remainder dividing by (L1^2 + 4*pi^2)"}]}\n'
        )
        assert err == (
            "first failure: factor at (g=2, n=1): "
            "nonzero remainder dividing by (L1^2 + 4*pi^2)\n"
        )

    def test_identities_small_range(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "verify",
                           "--relation", "string2", "--max-genus", "0",
                           "--max-boundaries", "4")
        assert code == 0
        assert json.loads(out)["failed"] == 0

    @pytest.mark.parametrize("relation", ["string2", "dilaton2"])
    def test_passing_identity_cases_format_nothing(self, monkeypatch, relation):
        # the "lhs != rhs" detail is built only for a failing case, which
        # keeps it; a passing one would throw it away
        formatted = []
        original = Fraction.__str__

        def counted(self):
            formatted.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__str__", counted)
        report = wpvol.cli.run_verification(VolumeStore(), relation, 2, 4)
        assert report["checked"] > 0 and report["failed"] == 0
        assert formatted == []

    @pytest.mark.parametrize("relation, extra, checked", [("string2", 1, 13), ("dilaton2", 0, 8)])
    def test_identity_sweep_cases(self, capsys, cache, relation, extra, checked):
        # each (alpha, m) whose classes fill the dimension of M(g, n + extra), once
        code, out, _ = run(capsys, "--cache-dir", cache, "verify", "--relation", relation,
                           "--max-genus", "1", "--max-boundaries", "3")
        assert code == 0
        report = json.loads(out)
        cases = [(c["g"], c["n"], tuple(c["alpha"]), c["m"]) for c in report["cases"]]
        assert report["checked"] == len(set(cases)) == checked
        assert report["vacuous"] == 0
        assert all(sum(alpha) + m == 3 * g - 3 + n + extra for g, n, alpha, m in cases)

    def test_corrupted_cache_fails(self, capsys, cache):
        from pathlib import Path

        run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
        path = next(Path(cache).glob("g0_n4.json"))
        # a zero coefficient: the entry fails validation as it is read
        path.write_text(path.read_text().replace('"c":"1/2"', '"c":"0"', 1))
        code, _, err = run(capsys, "--cache-dir", cache, "verify",
                           "--relation", "string", "--max-genus", "0",
                           "--max-boundaries", "5")
        assert code == 1
        assert err == ("cache error: stored entry fails validation: V(0,4) invariant "
                       "failure: zero coefficient stored\n")

    @pytest.mark.parametrize("relation", ["string", "dilaton", "second", "string2", "dilaton2"])
    def test_each_relation_reads_the_smaller_volume_first(self, capsys, cache, relation):
        # with V(2,1) and V(2,2) both corrupted, every pair relation loads
        # V(g, n) before V(g, n+1), so each names V(2,1)
        run(capsys, "--cache-dir", cache, "compute", "--genus", "2", "--boundaries", "2")
        for n in (1, 2):
            path = Path(cache) / f"g2_n{n}.json"
            document = json.loads(path.read_text())
            document["orbits"][0]["c"] = "0"
            path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
        code, out, err = run(capsys, "--cache-dir", cache, "verify", "--relation", relation,
                             "--max-genus", "2", "--max-boundaries", "3")
        assert (code, out) == (1, "")
        assert err == ("cache error: stored entry fails validation: V(2,1) invariant "
                       "failure: zero coefficient stored\n")

    @pytest.fixture()
    def perturbed_cache(self, capsys, cache):
        """V(1,1..3) cached, with the L1^2 L2^2 coefficient of V(1,2) 1/96 -> 1/95."""
        code, _, _ = run(capsys, "--cache-dir", cache, "verify", "--relation", "all",
                         "--max-genus", "1", "--max-boundaries", "3")
        assert code == 0
        path = Path(cache) / "g1_n2.json"
        document = json.loads(path.read_text())
        for orbit in document["orbits"]:
            if orbit["l"] == [2, 2]:
                orbit["c"] = "1/95"
        path.write_text(json.dumps(document, separators=(",", ":")))
        return cache

    @pytest.mark.parametrize("relation, details", [
        ("string", ["-(1/2280)*L1^2*pi^2", "-(1/36480)*L1^4*L2^2 - (1/36480)*L1^2*L2^4"]),
        ("dilaton", ["(1/4560)*L1^2", "-(1/4560)*L1^2*L2^2"]),
        ("second", ["(1/4560)*L1^2", "-(1/4560)*L1^2*L2^2"]),
    ])
    def test_relation_failure_on_perturbed_volume(
        self, capsys, perturbed_cache, relation, details
    ):
        code, out, err = run(capsys, "--cache-dir", perturbed_cache, "verify",
                             "--relation", relation, "--max-genus", "1",
                             "--max-boundaries", "3")
        assert code == 1
        cases = ",".join(
            f'{{"g":1,"n":{n},"ok":false,"detail":"{detail}"}}'
            for n, detail in enumerate(details, 1)
        )
        assert out == (
            f'{{"relation":"{relation}","max_genus":1,"max_boundaries":3,"checked":2,'
            f'"failed":2,"vacuous":0,"cases":[{cases}]}}\n'
        )
        assert err == f"first failure: {relation} at (g=1, n=1): {details[0]}\n"

    @pytest.mark.parametrize("relation, cases, first", [
        ("string2", [
            '{"g":1,"n":1,"ok":true,"alpha":[2],"m":0}',
            '{"g":1,"n":1,"ok":false,"detail":"47/1140 != 1/24","alpha":[1],"m":1}',
            '{"g":1,"n":1,"ok":true,"alpha":[0],"m":2}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,3],"m":0}',
            '{"g":1,"n":2,"ok":false,"detail":"1/12 != 191/2280","alpha":[1,2],"m":0}',
            '{"g":1,"n":2,"ok":false,"detail":"1/12 != 191/2280","alpha":[2,1],"m":0}',
            '{"g":1,"n":2,"ok":true,"alpha":[3,0],"m":0}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,2],"m":1}',
            '{"g":1,"n":2,"ok":true,"alpha":[1,1],"m":1}',
            '{"g":1,"n":2,"ok":true,"alpha":[2,0],"m":1}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,1],"m":2}',
            '{"g":1,"n":2,"ok":true,"alpha":[1,0],"m":2}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,0],"m":3}',
        ], "47/1140 != 1/24"),
        ("dilaton2", [
            '{"g":1,"n":1,"ok":false,"detail":"4/95 != 1/24","alpha":[1],"m":0}',
            '{"g":1,"n":1,"ok":true,"alpha":[0],"m":1}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,2],"m":0}',
            '{"g":1,"n":2,"ok":false,"detail":"1/12 != 8/95","alpha":[1,1],"m":0}',
            '{"g":1,"n":2,"ok":true,"alpha":[2,0],"m":0}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,1],"m":1}',
            '{"g":1,"n":2,"ok":true,"alpha":[1,0],"m":1}',
            '{"g":1,"n":2,"ok":true,"alpha":[0,0],"m":2}',
        ], "4/95 != 1/24"),
    ], ids=["string2", "dilaton2"])
    def test_identity_failure_on_perturbed_volume(
        self, capsys, perturbed_cache, relation, cases, first
    ):
        code, out, err = run(capsys, "--cache-dir", perturbed_cache, "verify",
                             "--relation", relation, "--max-genus", "1",
                             "--max-boundaries", "3")
        assert code == 1
        failed = sum('"ok":false' in case for case in cases)
        assert out == (
            f'{{"relation":"{relation}","max_genus":1,"max_boundaries":3,'
            f'"checked":{len(cases)},"failed":{failed},"vacuous":0,'
            f'"cases":[{",".join(cases)}]}}\n'
        )
        assert err == f"first failure: {relation} at (g=1, n=1): {first}\n"

    def test_cache_verify_on_perturbed_volume(self, capsys, perturbed_cache):
        code, out, err = run(capsys, "--cache-dir", perturbed_cache, "cache", "verify")
        assert code == 1
        assert out == "3 entries, 4 failures\n"
        assert err.splitlines() == [
            "FAIL string (1,1): ",
            "FAIL dilaton (1,1): ",
            "FAIL string (1,2): ",
            "FAIL dilaton (1,2): ",
        ]

    def test_all_relations_match_the_benchmark_reference(self, capsys, cache):
        # the digest the benchmark checks, read here so a change of output
        # fails the tests and not only the benchmark
        reference = Path(__file__).parents[1] / "benchmark" / "reference.json"
        argv = ("verify", "--relation", "all", "--max-genus", "2", "--max-boundaries", "5")
        expected = json.loads(reference.read_text())["cli"][" ".join(argv)]
        code, out, _ = run(capsys, "--cache-dir", cache, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    def test_all_report_first_failure_on_perturbed_volume(self, capsys, perturbed_cache):
        # the first failing case of the first sub-report that has one
        code, out, err = run(capsys, "--cache-dir", perturbed_cache, "verify",
                             "--relation", "all", "--max-genus", "1",
                             "--max-boundaries", "3")
        assert code == 1
        assert '"checked":28,"failed":11' in out
        report = json.loads(out)
        assert [(r["relation"], r["checked"], r["failed"]) for r in report["reports"]] == [
            ("string", 2, 2), ("dilaton", 2, 2), ("second", 2, 2),
            ("factor", 1, 0), ("string2", 13, 3), ("dilaton2", 8, 2),
        ]
        assert err == "first failure: string at (g=1, n=1): -(1/2280)*L1^2*pi^2\n"

    def test_all_relations_tiny_range(self, capsys, cache):
        code, out, _ = run(capsys, "--cache-dir", cache, "verify",
                           "--relation", "all", "--max-genus", "1",
                           "--max-boundaries", "3")
        assert code == 0
        report = json.loads(out)
        assert report["relation"] == "all"
        assert report["failed"] == 0


class TestSizeLimit:
    def stub_volumes(self, monkeypatch, fake):
        for module in (wpvol.cli, wpvol.compute, wpvol.intersections):
            monkeypatch.setattr(module, "ensure_volume", fake)

    @pytest.mark.parametrize("argv", [
        ("compute", "--genus", "200", "--boundaries", "0"),
        ("compute", "--genus", "0", "--boundaries", "13"),
        ("export", "--format", "json", "--genus", "200", "--boundaries", "3"),
        ("intersect", "--genus", "200", "--n", "1", "--alpha", "0", "--kappa", "598"),
        ("verify", "--relation", "all", "--max-genus", "200"),
    ])
    def test_refused_before_any_work(self, capsys, cache, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused request must not compute")

        self.stub_volumes(monkeypatch, refuse)
        code, out, err = run(capsys, "--cache-dir", cache, *argv)
        assert code == 2
        assert not out
        assert str(MAX_DENSE_TERMS) in err
        assert not Path(cache).exists()

    @pytest.mark.parametrize("alpha, kappa", [("0", "0"), ("-1", "599"), ("600", "-2")])
    def test_unbalanced_intersect_answers_zero_before_any_work(
        self, capsys, cache, monkeypatch, alpha, kappa
    ):
        # dimension 598 at (200, 1): no nonnegative class of another degree
        def refuse(*args, **kwargs):
            raise AssertionError("a zero answer must not compute")

        self.stub_volumes(monkeypatch, refuse)
        code, out, _ = run(capsys, "--cache-dir", cache, "intersect", "--genus", "200",
                           "--n", "1", f"--alpha={alpha}", "--kappa", kappa)
        assert code == 0
        assert out == "0\n"
        assert not Path(cache).exists()

    @pytest.mark.parametrize("g, n, admitted", [
        (0, 12, True), (1, 10, True), (9, 0, True),
        (0, 13, False), (1, 11, False), (10, 0, False),
    ])
    def test_limit_edge(self, capsys, cache, monkeypatch, g, n, admitted):
        self.stub_volumes(monkeypatch, lambda *args, **kwargs: seed_volume(1, 1))
        code, _, _ = run(capsys, "--cache-dir", cache, "compute",
                         "--genus", str(g), "--boundaries", str(n))
        assert code == (0 if admitted else 2)


NOT_STABLE_0_2 = "error: (g, n) = (0, 2) is not stable\n"
TOO_BIG = "needs more than 500000 dense terms, the limit of this command\n"


@pytest.mark.parametrize("argv, err", [
    ("compute --genus 0 --boundaries 2", NOT_STABLE_0_2),
    ("compute --genus -1 --boundaries 5", "error: (g, n) = (-1, 5) is not stable\n"),
    ("export --format json --genus 0 --boundaries 2", NOT_STABLE_0_2),
    ("intersect --genus 0 --n 2 --alpha 0,0", NOT_STABLE_0_2),
    ("compute --genus 2 --boundaries 1 --method lift", "error: method 'lift' needs genus <= 1\n"),
    ("compute --genus 3 --boundaries 1 --method both", "error: method 'both' needs genus <= 1\n"),
    ("intersect --genus 1 --n 2 --alpha x,1", "error: bad alpha list 'x,1'\n"),
    ("intersect --genus 1 --n 2 --alpha 1", "error: alpha has 1 entries for n = 2\n"),
    ("compute --genus 0 --boundaries 13", f"error: V(0,13) {TOO_BIG}"),
    ("export --format latex --genus 0 --boundaries 13", f"error: V(0,13) {TOO_BIG}"),
    ("intersect --genus 200 --n 1 --alpha 0 --kappa 598", f"error: V(200,1) {TOO_BIG}"),
    ("verify --relation all --max-genus 3 --max-boundaries 8", f"error: V(3,8) {TOO_BIG}"),
    ("verify --relation all --max-genus -1 --max-boundaries 3",
     "error: --max-genus must be nonnegative, not -1\n"),
    ("verify --relation string --max-genus 1 --max-boundaries -2",
     "error: --max-boundaries must be nonnegative, not -2\n"),
])
def test_every_refusal(capsys, cache, argv, err):
    # one line on stderr, nothing on stdout, exit 2, and no cache directory
    assert run(capsys, "--cache-dir", cache, *argv.split()) == (2, "", err)
    assert not Path(cache).exists()


def test_module_entry_point(tmp_path):
    # python -m wpvol.cli returns main's exit code through SystemExit
    src = Path(wpvol.cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cache = str(tmp_path / "cache")

    def cli(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "wpvol.cli", "--cache-dir", cache, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        return result.returncode, result.stdout, result.stderr

    assert cli("compute", "--genus", "0", "--boundaries", "2") == (2, "", NOT_STABLE_0_2)
    assert cli("compute", "--genus", "1", "--boundaries", "1") == (
        0, "(1/48)*L1^2 + (1/12)*pi^2\n", "")


def test_lift_residual_printed_as_polynomial(capsys, cache, monkeypatch):
    def fail(vol):
        raise LiftError("nonzero residual", residual={((2, 0), 0): Fraction(1, 3)})

    monkeypatch.setattr(wpvol.compute, "lift", fail)
    code, out, err = run(capsys, "--cache-dir", cache, "compute",
                         "--genus", "0", "--boundaries", "5")
    assert code == 3
    assert not out
    assert err.splitlines() == [
        "internal inconsistency: nonzero residual",
        "difference polynomial: (1/3)*L1^2 + (1/3)*L2^2",
    ]


def test_lift_from_volume_breaking_dilaton_is_inconsistent(capsys, cache):
    # every pi-free coefficient of the cached V(0,4) raised by 1: the entry
    # is well-formed, so it loads; the string step lifts it to some V(0,5),
    # and only the dilaton step sees that V(0,4) is wrong
    run(capsys, "--cache-dir", cache, "compute", "--genus", "0", "--boundaries", "4")
    path = Path(cache) / "g0_n4.json"
    document = json.loads(path.read_text())
    for orbit in document["orbits"]:
        if orbit["pi"] == 0:
            orbit["c"] = str(Fraction(orbit["c"]) + 1)
    path.write_text(json.dumps(document, separators=(",", ":")))
    code, out, err = run(capsys, "--cache-dir", cache, "compute",
                         "--genus", "0", "--boundaries", "5")
    assert code == 3
    assert not out
    assert err.splitlines() == [
        "internal inconsistency: dilaton correction is not a constant",
        "difference polynomial: 4*pi^2",
    ]


def test_closed_volume_from_indivisible_cached_volume_is_inconsistent(capsys, cache):
    # the L1^8 coefficient of the cached V(2,1) set to 1/7: the entry is
    # well-formed, so it loads, but V(2,1) no longer vanishes at 2*pi*i; the
    # remainder, a constant in L, is printed as a polynomial in L1
    run(capsys, "--cache-dir", cache, "compute", "--genus", "2", "--boundaries", "1")
    path = Path(cache) / "g2_n1.json"
    document = json.loads(path.read_text())
    changed = [orbit for orbit in document["orbits"] if orbit["l"] == [8]]
    assert len(changed) == 1
    changed[0]["c"] = "1/7"
    path.write_text(json.dumps(document, separators=(",", ":")))
    code, out, err = run(capsys, "--cache-dir", cache, "compute",
                         "--genus", "2", "--boundaries", "0")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "internal inconsistency: nonzero remainder dividing by (L1^2 + 4*pi^2)",
        "difference polynomial: (442361/12096)*pi^8",
    ]


def test_usage_error_exit_code(capsys):
    assert main(["compute"]) == 2
    capsys.readouterr()


def test_repeated_runs_byte_identical_with_warm_cache(capsys, tmp_path):
    cache = str(tmp_path / "c")
    args = ("--cache-dir", cache, "compute", "--genus", "1", "--boundaries", "3")
    outputs = set()
    for _ in range(3):
        code = main(list(args))
        assert code == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_import_stays_lean():
    # modules that cost milliseconds at every CLI start and that wpvol
    # does not need, neither to import nor to parse a command line; -I -S
    # keeps site and the environment out of the count
    src = Path(wpvol.cli.__file__).parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import wpvol.cli; "
        "wpvol.cli.build_parser().parse_args(['compute', '--genus', '0', '--boundaries', '4']); "
        "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect', "
        "'tempfile', 'shutil', 'bz2', 'lzma', 'pathlib') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.split() == []


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares the oldest Python wpvol runs on; every module
    # must parse with that version's grammar, whichever Python runs the suite
    root = Path(wpvol.cli.__file__).parent
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root.parents[1] / "pyproject.toml").read_text())
    sources = sorted(root.glob("*.py"))
    assert floor and sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


def test_import_builds_no_moments():
    # the kernel's moment table, its constants and its rows, is built on
    # first use, so a CLI call that never reaches the kernel does not pay
    # for it
    src = Path(wpvol.cli.__file__).parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import wpvol.cli; "
        "from wpvol import mirzakhani; print(mirzakhani._rows)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.split() == ["([],", "[])"]


@pytest.mark.parametrize("columns, terminal", [
    ("40", 57), ("80", None), ("200", None), (None, 57), (None, 0), (None, None), ("0", 57),
    ("x", None),
])
def test_help_matches_the_stock_formatter(monkeypatch, columns, terminal):
    # the parser finds its width without shutil, and lays out the same text;
    # a terminal of None is no terminal at all
    def get_terminal_size(fd):
        if terminal is None:
            raise OSError("not a terminal")
        return os.terminal_size((terminal, 24))

    monkeypatch.setattr(os, "get_terminal_size", get_terminal_size)
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    parser = wpvol.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = [parser, *commands.choices.values()]
    assert [p.prog for p in parsers] == ["wpvol"] + [
        f"wpvol {name}" for name in ("compute", "verify", "intersect", "export", "cache")
    ]
    ours = [(p.format_help(), p.format_usage()) for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert [(p.format_help(), p.format_usage()) for p in parsers] == ours
