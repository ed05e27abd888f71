from fractions import Fraction
from itertools import permutations

import pytest

from wpvol.intersections import (
    admissible_dilaton2,
    admissible_string2,
    compositions,
    dilaton2_case,
    genus0_psi,
    psi_kappa,
    string2_case,
)
from wpvol.store import VolumeStore
from wpvol.volume import UnstableSurfaceError


@pytest.fixture(scope="module")
def store():
    return VolumeStore()


class TestPsiKappa:
    def test_torus_psi(self, store):
        assert psi_kappa(1, 1, (1,), 0, store) == Fraction(1, 24)

    def test_torus_kappa(self, store):
        assert psi_kappa(1, 1, (0,), 1, store) == Fraction(1, 24)

    def test_sphere_trivial(self, store):
        assert psi_kappa(0, 3, (0, 0, 0), 0, store) == 1

    def test_five_points(self, store):
        assert psi_kappa(0, 5, (1, 1, 0, 0, 0), 0, store) == 2

    def test_negative_exponent_is_zero(self, store):
        assert psi_kappa(0, 3, (-1, 1, 0), 0, store) == 0

    def test_dimension_mismatch_is_zero(self, store):
        assert psi_kappa(1, 1, (0,), 0, store) == 0
        assert psi_kappa(0, 4, (1, 1, 0, 0), 0, store) == 0

    def test_unstable_rejected(self, store):
        with pytest.raises(UnstableSurfaceError):
            psi_kappa(0, 2, (0, 0), 1, store)

    def test_wrong_alpha_length(self, store):
        with pytest.raises(ValueError):
            psi_kappa(1, 1, (1, 0), 0, store)

    def test_permutation_invariance(self, store):
        for base in [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0)]:
            values = {
                psi_kappa(0, 5, alpha, 0, store)
                for alpha in set(permutations(base))
            }
            assert len(values) == 1

    def test_genus_two_psi_from_volume(self, store):
        # top coefficient of the one-boundary genus-2 volume
        assert psi_kappa(2, 1, (4,), 0, store) == Fraction(1, 1152)

    def test_closed_surface_kappa(self, store):
        # pure kappa_1 power on the closed genus-2 moduli space
        assert psi_kappa(2, 0, (), 3, store) == Fraction(43, 2880)

    def test_genus_three_psi_from_volume(self, store):
        # classical Witten-Kontsevich constants, rederived from the volume
        # coefficients through the kernel recursion
        assert psi_kappa(3, 1, (7,), 0, store) == Fraction(1, 82944)
        expected = {
            (7, 1): Fraction(5, 82944),
            (6, 2): Fraction(77, 414720),
            (5, 3): Fraction(503, 1451520),
            (4, 4): Fraction(607, 1451520),
        }
        for alpha, value in expected.items():
            assert psi_kappa(3, 2, alpha, 0, store) == value


class TestGenus0Psi:
    def test_single_heavy_exponent(self):
        assert genus0_psi((2, 0, 0, 0, 0)) == 1

    def test_empty(self):
        assert genus0_psi((0, 0, 0)) == 1

    def test_six_points(self):
        assert genus0_psi((1, 1, 1, 0, 0, 0)) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            genus0_psi((1, 0, 0))

    def test_agrees_with_volume_coefficients(self, store):
        for n in range(3, 7):
            for alpha in compositions(n - 3, n):
                assert psi_kappa(0, n, alpha, 0, store) == genus0_psi(alpha)


class TestStringIdentity:
    def test_classical_case(self, store):
        # m = 0 at (0,3): <psi_1> over 4 points = <1> over 3 points
        case = string2_case(0, 3, (1, 0, 0), 0, store)
        assert case.ok and not case.vacuous
        assert case.lhs == case.rhs == 1

    def test_torus_with_kappa(self, store):
        assert string2_case(1, 1, (0,), 1, store).ok

    def test_dimension_violation_is_vacuous(self, store):
        case = string2_case(0, 3, (0, 0, 0), 0, store)
        assert case.ok and case.vacuous
        assert case.lhs == case.rhs == 0

    def test_small_exhaustive(self, store):
        for g, n in [(0, 3), (0, 4), (1, 1)]:
            for alpha, m in admissible_string2(g, n):
                case = string2_case(g, n, alpha, m, store)
                assert case.ok, (g, n, alpha, m, case.lhs, case.rhs)


class TestDilatonIdentity:
    def test_classical_case(self, store):
        # m = 0 at (1,1): <psi_1 psi_2> over (1,2) = 1 * <psi_1> over (1,1)
        case = dilaton2_case(1, 1, (1,), 0, store)
        assert case.ok and not case.vacuous
        assert case.lhs == case.rhs == Fraction(1, 24)

    def test_four_points(self, store):
        assert dilaton2_case(0, 4, (1, 0, 0, 0), 0, store).ok
        case = dilaton2_case(0, 4, (1, 0, 0, 0), 0, store)
        assert case.lhs == case.rhs == 2

    def test_vacuous(self, store):
        case = dilaton2_case(1, 1, (0,), 0, store)
        assert case.ok and case.vacuous

    def test_small_exhaustive(self, store):
        for g, n in [(0, 3), (0, 4), (1, 1)]:
            for alpha, m in admissible_dilaton2(g, n):
                case = dilaton2_case(g, n, alpha, m, store)
                assert case.ok, (g, n, alpha, m, case.lhs, case.rhs)


def test_compositions_cover_simplex():
    items = list(compositions(3, 2))
    assert items == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_nonnegativity_observed(store):
    # reported, not asserted as an invariant: print a summary only
    negatives = []
    for alpha, m in admissible_dilaton2(1, 2):
        value = psi_kappa(1, 2, alpha, m, store)
        if value < 0:
            negatives.append((alpha, m, value))
    print(f"nonnegativity check at (1,2): {len(negatives)} negative values")
    assert negatives == [] or True
