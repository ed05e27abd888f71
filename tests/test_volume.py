from fractions import Fraction

import pytest

from wpvol.poly import Poly
from wpvol.volume import (
    InvariantError,
    UnstableSurfaceError,
    VolumePolynomial,
    is_stable,
    seed_volume,
)


def test_seeds_are_valid():
    seed_volume(0, 3).validate()
    seed_volume(1, 1).validate()


def test_seed_values(v03, v11):
    assert v03.poly == Poly.one(3)
    assert v11.poly.coeff_monomial((2,), 0) == Fraction(1, 48)
    assert v11.poly.coeff_monomial((0,), 2) == Fraction(1, 12)
    assert len(v11.poly) == 2


def test_stability():
    assert is_stable(0, 3) and is_stable(1, 1) and is_stable(2, 0)
    assert not is_stable(0, 2) and not is_stable(1, 0) and not is_stable(-1, 5)


def test_unstable_rejected():
    with pytest.raises(UnstableSurfaceError):
        VolumePolynomial.checked(0, 2, Poly.one(2))


def test_odd_exponent_rejected():
    poly = Poly.var(1, 1) * Poly.pi(1, 1)
    with pytest.raises(InvariantError, match="odd"):
        VolumePolynomial.checked(1, 1, poly)


def test_asymmetric_rejected():
    # right degree and parity, wrong symmetry
    poly = Poly.var(4, 1, 2)
    with pytest.raises(InvariantError, match="symmetric"):
        VolumePolynomial.checked(0, 4, poly)


def test_inhomogeneous_rejected(v11):
    with pytest.raises(InvariantError, match="homogeneous"):
        VolumePolynomial.checked(1, 1, v11.poly + 1)


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
            assert not v11.poly.coeff_pi(e)


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


def test_checked_keeps_the_dense_input_as_its_view(v11):
    vol = VolumePolynomial.checked(1, 1, v11.poly)
    assert vol.orbits == v11.orbits
    assert vol.poly is v11.poly
