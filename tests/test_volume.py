import ast
from fractions import Fraction
from pathlib import Path

import pytest

import wpvol
from wpvol.poly import Poly
from wpvol.volume import (
    InvariantError,
    UnstableSurfaceError,
    VolumePolynomial,
    is_stable,
    seed_volume,
)
from dense_oracle import add, coeff_monomial, coeff_pi, const, mul, pi, var


def test_seeds_are_valid():
    seed_volume(0, 3).validate()
    seed_volume(1, 1).validate()


def test_seed_values(v03, v11):
    assert v03.poly == const(3, 1)
    assert coeff_monomial(v11.poly, (2,), 0) == Fraction(1, 48)
    assert coeff_monomial(v11.poly, (0,), 2) == Fraction(1, 12)
    assert len(v11.poly) == 2


def test_stability():
    assert is_stable(0, 3) and is_stable(1, 1) and is_stable(2, 0)
    assert not is_stable(0, 2) and not is_stable(1, 0) and not is_stable(-1, 5)


def test_unstable_rejected():
    with pytest.raises(UnstableSurfaceError):
        VolumePolynomial.checked(0, 2, const(2, 1))


def test_odd_exponent_rejected():
    poly = mul(var(1, 1), pi(1, 1))
    with pytest.raises(InvariantError, match="odd"):
        VolumePolynomial.checked(1, 1, poly)


def test_asymmetric_rejected():
    # right degree and parity, wrong symmetry
    poly = var(4, 1, 2)
    with pytest.raises(InvariantError, match="symmetric"):
        VolumePolynomial.checked(0, 4, poly)


def test_inhomogeneous_rejected(v11):
    with pytest.raises(InvariantError, match="homogeneous"):
        VolumePolynomial.checked(1, 1, add(v11.poly, const(1, 1)))


def test_complex_coefficient_rejected():
    # coefficients are exact rationals; anything else fails at construction
    for value in (0.5, 1j):
        with pytest.raises(TypeError):
            Poly.from_terms(1, {(2, 0): value})


def test_wrong_variable_count_rejected(v03):
    with pytest.raises(InvariantError):
        VolumePolynomial.checked(0, 4, v03.poly)


def test_odd_pi_layers_vanish(v11):
    # even L exponents plus homogeneity force even pi exponents
    for e in range(v11.degree + 1):
        if e % 2:
            assert not coeff_pi(v11.poly, e)


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


def test_checked_keeps_the_dense_input_as_its_view(v11):
    vol = VolumePolynomial.checked(1, 1, v11.poly)
    assert vol.orbits == v11.orbits
    assert vol.poly is v11.poly


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


def test_every_exported_name_resolves():
    assert [name for name in wpvol.__all__ if not hasattr(wpvol, name)] == []
    assert len(set(wpvol.__all__)) == len(wpvol.__all__)
