import ast
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import wpvol
from wpvol.compute import ensure_volume
from wpvol.store import CacheError, VolumeStore, parse_entry, serialize_entry
from wpvol.volume import (
    InvariantError,
    UnstableSurfaceError,
    VolumePolynomial,
    admissible_orbits,
    is_stable,
    seed_volume,
)
from dense_oracle import (
    Dense,
    coeff_monomial,
    coeff_pi,
    const,
    expand,
    orbit_document,
)


def test_seeds_are_valid():
    seed_volume(0, 3).validate()
    seed_volume(1, 1).validate()


def test_seed_values(v03, v11):
    assert expand(v03) == const(3, 1)
    assert coeff_monomial(expand(v11), (2,), 0) == Fraction(1, 48)
    assert coeff_monomial(expand(v11), (0,), 2) == Fraction(1, 12)
    assert len(v11.poly) == 2


def test_stability():
    assert is_stable(0, 3) and is_stable(1, 1) and is_stable(2, 0)
    assert not is_stable(0, 2) and not is_stable(1, 0) and not is_stable(-1, 5)


# A cache document is the one way an orbit map enters the package from
# outside: parse_entry validates the orbits it lists, and a CacheError
# carries the invariant failure as its cause.


def _parse_rejects(g, n, orbits, error, match):
    with pytest.raises(CacheError, match=match) as info:
        parse_entry(orbit_document(g, n, orbits))
    assert isinstance(info.value.__cause__, error)


def test_unstable_rejected():
    _parse_rejects(0, 2, {((0, 0), 0): Fraction(1)}, UnstableSurfaceError, "not stable")


def test_odd_exponent_rejected():
    _parse_rejects(1, 1, {((1,), 1): Fraction(1)}, InvariantError, "odd")


def test_asymmetric_rejected():
    # right degree and parity; an orbit map is symmetric by construction, so
    # its one asymmetric form is a key that is no orbit: L4^2 of V(0,4)
    orbits = {((0, 0, 0, 2), 0): Fraction(1, 2), ((0, 0, 0, 0), 2): Fraction(2)}
    _parse_rejects(0, 4, orbits, InvariantError, "sorted")


def test_inhomogeneous_rejected(v11):
    _parse_rejects(1, 1, {**v11.orbits, ((0,), 0): Fraction(1)}, InvariantError, "homogeneous")


def test_complex_coefficient_rejected():
    # coefficients are exact rationals; anything else fails at construction
    # of a term map (a cache document's coefficient must be a string)
    for value in (0.5, 1j):
        with pytest.raises(TypeError):
            Dense.from_terms(1, {(2, 0): value})


def test_odd_pi_layers_vanish(v11):
    # even L exponents plus homogeneity force even pi exponents
    for e in range(v11.degree + 1):
        if e % 2:
            assert not coeff_pi(expand(v11), e)


def test_seed_only_for_base_cases():
    with pytest.raises(ValueError):
        seed_volume(0, 4)


def test_unsorted_orbit_key_rejected():
    vol = VolumePolynomial(0, 4, {((0, 2, 0, 0), 0): Fraction(1, 2)})
    with pytest.raises(InvariantError, match="sorted"):
        vol.validate()


def test_wrong_length_orbit_key_rejected():
    vol = VolumePolynomial(0, 4, {((2, 0, 0), 0): Fraction(1, 2)})
    with pytest.raises(InvariantError, match="4 L exponents"):
        vol.validate()


def test_zero_coefficient_rejected():
    vol = VolumePolynomial(0, 4, {((2, 0, 0, 0), 0): Fraction(0)})
    with pytest.raises(InvariantError, match="zero coefficient"):
        vol.validate()


@pytest.mark.parametrize("c, problem", [
    (Fraction(-1, 2), "negative coefficient stored"),
    (Fraction(0), "zero coefficient stored"),
])
def test_negative_and_zero_coefficients_are_told_apart(c, problem):
    vol = VolumePolynomial(0, 4, {((2, 0, 0, 0), 0): c, ((0,) * 4, 2): Fraction(2)})
    with pytest.raises(InvariantError) as info:
        vol.validate()
    assert str(info.value) == f"V(0,4) invariant failure: {problem}"


def test_admissible_orbits_count_the_multisets_of_halves():
    for n in range(8):
        for top in range(9):
            listed = {tuple(sorted(halves)) for halves in product(range(top + 1), repeat=n)
                      if sum(halves) <= top}
            assert admissible_orbits(n, top) == len(listed)


def test_a_volume_missing_an_orbit_is_rejected():
    vol = ensure_volume(VolumeStore(), 1, 3)
    orbits = dict(vol.orbits)
    del orbits[(2, 2, 0), 2]
    with pytest.raises(InvariantError) as info:
        VolumePolynomial(1, 3, orbits).validate()
    assert str(info.value) == "V(1,3) invariant failure: orbit count 6 is not 7"


@pytest.mark.parametrize("orbits", [
    {},
    {((2,), 0): Fraction(1, 48)},
    {((2,), 0): Fraction(1, 48), ((0,), 2): Fraction(-1, 12)},
], ids=["empty", "missing", "negative"])
def test_nonpositive_constant_term_rejected(orbits):
    # V(g, n)(0) is the volume of M(g, n), so a volume without a positive
    # constant orbit is rejected even when every other invariant holds
    with pytest.raises(InvariantError, match="constant term is not positive"):
        VolumePolynomial(1, 1, orbits).validate()


def test_parse_reads_the_oracle_orbit_document(v11):
    assert parse_entry(orbit_document(1, 1, v11.orbits)) == (v11, "seed")


@pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (0, 6), (1, 4), (2, 2), (2, 0), (3, 0)])
def test_parsed_volume_renders_like_the_computed_one(g, n):
    computed = ensure_volume(VolumeStore(), g, n)
    parsed, _ = parse_entry(serialize_entry(computed, "mirzakhani"))
    assert parsed == computed
    assert str(parsed.poly) == str(computed.poly)
    assert parsed.poly.to_latex() == computed.poly.to_latex()
    # the parsed volume renders from its orbits: no term map is kept, only the text
    assert parsed.poly.orbits == computed.orbits and not hasattr(parsed.poly, "terms")
    assert parsed.poly._texts == {False: str(computed.poly), True: computed.poly.to_latex()}


def test_volume_is_an_unhashable_read_only_value(v11):
    fields = [1, 1, dict(v11.orbits)]
    vol = VolumePolynomial(*fields)
    assert vol == v11
    for i in range(len(fields)):
        assert vol != VolumePolynomial(*fields[:i], "other", *fields[i + 1:])
    with pytest.raises(TypeError):
        hash(vol)
    for name in ("g", "orbits", "poly"):
        with pytest.raises(AttributeError):
            setattr(vol, name, None)
    with pytest.raises(AttributeError):
        del vol.n
    assert vol.poly is vol.poly
    assert repr(vol) == (
        "VolumePolynomial(g=1, n=1, orbits={((2,), 0): Fraction(1, 48), "
        "((0,), 2): Fraction(1, 12)})"
    )


def test_package_has_no_float_constants():
    # exactness: floats live only in the test oracles, never in the package
    found = []
    for path in sorted(Path(wpvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_package_keeps_no_term_map():
    # a volume is kept by orbit only; the dense term map lives in the tests
    pattern = re.compile(
        r"\.terms\b|\b_terms\b|sorted_terms|orbit_coefficients|from_terms|"
        r"\.embed\(|\barrangements\b"
    )
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(wpvol.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []


def test_only_the_store_knows_the_cache_document():
    # the cache document's fields and its parse live in store.py alone, the
    # dense export's fields in cli.py alone, and volume.py takes nothing
    # from poly but the text form
    package = Path(wpvol.__file__).parent
    owners = {
        "store.py": re.compile(r"""["']c["']|["']orbits["']:|checked\("""),
        "cli.py": re.compile(r"""["'](terms|re|im)["']"""),
    }
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for owner, pattern in owners.items()
        for path in sorted(package.glob("*.py"))
        if path.name != owner
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
    tree = ast.parse((package / "volume.py").read_text())
    from_poly = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "poly" in (node.module or "").split(".") or alias.name == "poly"
    ]
    assert from_poly == ["Poly"]


def test_only_the_store_decides_what_to_memoize():
    # every generator looks up, seeds and stores through VolumeStore.memo:
    # no other module puts a volume or asks whether a key is a seed
    owners = {r"\.put\(": ("store.py",), r"\bis_seed\b": ("store.py", "volume.py")}
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for pattern, allowed in owners.items()
        for path in sorted(Path(wpvol.__file__).parent.glob("*.py"))
        if path.name not in allowed
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert found == []


def test_every_exported_name_resolves():
    assert [name for name in wpvol.__all__ if not hasattr(wpvol, name)] == []
    assert len(set(wpvol.__all__)) == len(wpvol.__all__)
