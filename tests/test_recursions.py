from fractions import Fraction

import pytest

from wpvol.poly import Poly
from wpvol.stringdilaton import (
    boundary_cofactor,
    check_dilaton,
    check_second_derivative,
    check_string,
    closed_volume,
    dilaton_defect,
    divide_boundary_quadratic,
    euler_poly,
    genus0_lift,
    genus1_lift,
    second_derivative_defect,
    string_defect,
    string_rhs,
)
from wpvol.volume import ConsistencyError, VolumePolynomial
from conftest import monomial_symmetric


@pytest.fixture(scope="module")
def v04(v03):
    return genus0_lift(v03)


@pytest.fixture(scope="module")
def v12(v11):
    vol, constant = genus1_lift(v11)
    assert constant == Fraction(1, 96)
    return vol


def boundary_factor(n, j):
    return Poly.var(n, j, 2) + Poly.pi(n, 2).scale(4)


class TestStringRHS:
    def test_three_holed_sphere(self, v03):
        expected = sum(
            (Poly.var(3, k, 2).scale(Fraction(1, 2)) for k in (1, 2, 3)),
            Poly.zero(3),
        )
        assert Poly.from_orbits(3, string_rhs(v03)) == expected

    def test_torus(self, v11):
        expected = Poly.from_terms(
            1, {(4, 0): Fraction(1, 192), (2, 2): Fraction(1, 24)}
        )
        assert Poly.from_orbits(1, string_rhs(v11)) == expected


class TestGenus0Lift:
    def test_four_holed_sphere(self, v04):
        expected = Poly.pi(4, 2).scale(2) + sum(
            (Poly.var(4, k, 2).scale(Fraction(1, 2)) for k in range(1, 5)),
            Poly.zero(4),
        )
        assert v04.poly == expected

    def test_output_invariants(self, v04):
        v05 = genus0_lift(v04)
        v05.validate()
        assert v05.poly.is_homogeneous(v05.degree)
        assert v05.degree == 4
        assert v05.poly.is_symmetric()

    def test_string_consistency_through_chain(self, v03, v04):
        v05 = genus0_lift(v04)
        assert check_string(v04, v03)
        assert check_string(v05, v04)

    def test_top_coefficients_are_scaled_multinomials(self, v04):
        # pi-free coefficient of L^{2 alpha} with |alpha| = n - 3 equals
        # multinomial(n-3; alpha) / (2^|alpha| * alpha!)
        v06 = genus0_lift(genus0_lift(v04))
        cases = {
            (3, 0, 0, 0, 0, 0): Fraction(1, 48),
            (1, 1, 1, 0, 0, 0): Fraction(3, 4),
            (2, 1, 0, 0, 0, 0): Fraction(3, 16),
        }
        for alpha, expected in cases.items():
            key = tuple(2 * a for a in alpha)
            assert v06.poly.coeff_monomial(key, 0) == expected

    def test_requires_genus_zero(self, v11):
        with pytest.raises(ValueError):
            genus0_lift(v11)


class TestGenus1Lift:
    def test_two_holed_torus_value(self, v12):
        expected = (
            monomial_symmetric(2, (4,)).scale(Fraction(1, 192))
            + monomial_symmetric(2, (2, 2)).scale(Fraction(1, 96))
            + monomial_symmetric(2, (2,), 2).scale(Fraction(1, 12))
            + Poly.pi(2, 4).scale(Fraction(1, 4))
        )
        assert v12.poly == expected

    def test_constant_term(self, v12):
        assert v12.poly.coeff_monomial((0, 0), 4) == Fraction(1, 4)

    def test_correction_vanishes_at_root(self):
        n = 3
        product = Poly.one(n)
        for j in range(1, n + 1):
            product = product * boundary_factor(n, j)
        assert not product.eval_two_pi_i(n)

    def test_relations_enforced_by_construction(self, v11, v12):
        assert check_string(v12, v11)
        assert check_dilaton(v12, v11)

    def test_chain_continues(self, v12):
        v13, _ = genus1_lift(v12)
        v13.validate()
        assert check_string(v13, v12)
        assert check_dilaton(v13, v12)

    def test_requires_genus_one(self, v03):
        with pytest.raises(ValueError):
            genus1_lift(v03)


class TestCheckers:
    def test_string_pair(self, v03, v04):
        assert check_string(v04, v03)

    def test_string_rejects_perturbation(self, v11, v12):
        bad = VolumePolynomial(1, 2, {**v12.orbits, ((0, 0), 0): Fraction(1)})
        assert not check_string(bad, v11)
        assert string_defect(bad, v11) == Poly.one(2)

    def test_dilaton_pair(self, v03, v04, v11, v12):
        assert check_dilaton(v04, v03)
        assert check_dilaton(v12, v11)

    def test_dilaton_rejects_perturbation(self, v03, v04):
        # symmetric: L1^2 + L2^2 + L3^2 + L4^2 - pi^2 added to V(0,4)
        bump = {((2, 0, 0, 0), 0): Fraction(1), ((0, 0, 0, 0), 2): Fraction(-1)}
        bad = VolumePolynomial(0, 4, {k: c + bump[k] for k, c in v04.orbits.items()})
        assert not check_dilaton(bad, v03)
        assert dilaton_defect(bad, v03)

    def test_mismatched_indices_rejected(self, v03, v12):
        with pytest.raises(ValueError):
            check_string(v12, v03)


class TestEulerField:
    def test_constant(self, v03):
        assert not euler_poly(v03.poly)

    def test_degree_scaling(self):
        p = Poly.var(2, 1, 2) * Poly.var(2, 2, 2)
        assert euler_poly(p) == p.scale(4)

    def test_torus(self, v11):
        assert euler_poly(v11.poly) == Poly.var(1, 1, 2).scale(Fraction(1, 24))


class TestSecondDerivative:
    def test_four_holed_sphere_pair(self, v03, v04):
        # LHS is the constant 1 (from L4^2/2); RHS = 0 - (4g-4+n) * 1 = 1
        lhs = v04.poly.ddx(4).ddx(4).eval_two_pi_i(4)
        assert lhs == Poly.one(4)
        assert check_second_derivative(v04, v03)

    def test_torus_pair(self, v11, v12):
        assert check_second_derivative(v12, v11)

    def test_rejects_perturbation(self, v11, v12):
        # the perturbation must survive two derivatives in L2
        bump = {((2, 2), 0): v12.orbits[((2, 2), 0)] + 1}  # plus L1^2 L2^2
        bad = VolumePolynomial(1, 2, {**v12.orbits, **bump})
        assert not check_second_derivative(bad, v11)
        assert second_derivative_defect(bad, v11)


class TestFactorization:
    def test_torus_cofactor(self, v11):
        assert boundary_cofactor(v11) == Poly.const(1, Fraction(1, 48))

    def test_bare_factor(self):
        vol = VolumePolynomial(1, 1, boundary_factor(1, 1).orbit_coefficients())
        assert boundary_cofactor(vol) == Poly.one(1)

    def test_remainder_raises(self):
        vol = VolumePolynomial(1, 1, Poly.var(1, 1, 2).orbit_coefficients())
        with pytest.raises(ConsistencyError):
            boundary_cofactor(vol)

    def test_divide_boundary_quadratic_random(self, rng):
        from conftest import random_poly

        for _ in range(10):
            n = rng.randint(1, 3)
            q = random_poly(rng, n, max_terms=5)
            k = rng.randint(1, n)
            product = q * boundary_factor(n, k)
            assert divide_boundary_quadratic(product, k) == q

    def test_needs_one_boundary(self, v03):
        with pytest.raises(ValueError):
            boundary_cofactor(v03)


class TestClosedVolume:
    def test_genus_one_rejected(self, v11):
        with pytest.raises(ValueError):
            closed_volume(v11)

    def test_genus_two_value(self):
        from wpvol.mirzakhani import mirzakhani_volume
        from wpvol.store import VolumeStore

        v21 = mirzakhani_volume(2, 1, VolumeStore())
        value = closed_volume(v21)
        assert value.n_vars == 0
        assert value.coeff_monomial((), 6) == Fraction(43, 2160)
