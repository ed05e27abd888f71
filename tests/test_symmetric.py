from fractions import Fraction

import pytest

from wpvol.poly import Poly
from wpvol.symmetric import LiftError, stratified_lift, sym_lift_zero
from conftest import (
    brute_force_lift,
    epsilon_lift,
    monomial_symmetric,
    random_symmetric_even,
)


def lift(f):
    """sym_lift_zero on the orbits of f, expanded in n + 1 variables."""
    return Poly.from_orbits(f.n_vars + 1, sym_lift_zero(f.orbit_coefficients()))


def reconstruct(evaluation, half_degree):
    """stratified_lift on the orbits of evaluation, strata and result expanded."""
    n_plus_1 = evaluation.n_vars + 1
    strata, total = stratified_lift(evaluation.orbit_coefficients(), half_degree)
    expanded = [(s.k, Poly.from_orbits(n_plus_1, s.w)) for s in strata]
    return expanded, Poly.from_orbits(n_plus_1, total)


def half_sum_of_squares(n):
    total = Poly.zero(n)
    for k in range(1, n + 1):
        total = total + Poly.var(n, k, 2).scale(Fraction(1, 2))
    return total


class TestSymLiftZero:
    def test_constant(self):
        lifted = lift(Poly.one(3))
        assert lifted == Poly.one(4)

    def test_sum_of_squares(self):
        lifted = lift(half_sum_of_squares(3))
        assert lifted == half_sum_of_squares(4)

    def test_full_product(self):
        # all squared variables at once: lift keeps degree and drops the
        # all-variable orbit in the extension
        n = 3
        f = monomial_symmetric(n, (2,) * n)
        lifted = lift(f)
        assert lifted.n_vars == n + 1
        assert lifted.eval_zero(n + 1).drop_var(n + 1) == f
        assert not lifted.coeff_monomial((2,) * (n + 1), 0)
        assert lifted.is_symmetric()
        assert lifted.l_degree() == f.l_degree()

    def test_restriction_postcondition(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            f = random_symmetric_even(rng, n, rng.randint(0, 3))
            lifted = lift(f)
            assert lifted.eval_zero(n + 1).drop_var(n + 1) == f
            assert lifted.is_symmetric()

    def test_odd_exponent_rejected(self):
        odd = Poly.var(2, 1) + Poly.var(2, 2)
        with pytest.raises(LiftError, match="odd"):
            lift(odd)

    def test_agrees_with_brute_force_solve(self, rng):
        for _ in range(12):
            n = rng.randint(2, 4)
            f = random_symmetric_even(rng, n, rng.randint(0, 4))
            assert lift(f) == brute_force_lift(f)

    def test_agrees_with_subset_enumeration(self, rng):
        for _ in range(10):
            n = rng.randint(1, 3)
            f = random_symmetric_even(rng, n, rng.randint(0, n + 1))
            assert lift(f) == epsilon_lift(f)

    def test_enumeration_on_degenerate_degree(self):
        # squared degree equals the variable count: the convention case
        f = monomial_symmetric(2, (2, 2)) + monomial_symmetric(2, (4,)).scale(
            Fraction(1, 3)
        )
        assert lift(f) == epsilon_lift(f) == brute_force_lift(f)


class TestStratifiedLift:
    def test_four_holed_sphere_shape(self):
        strata, lifted = reconstruct(half_sum_of_squares(3), 1)
        expected = half_sum_of_squares(4) + Poly.pi(4, 2).scale(2)
        assert lifted == expected
        assert [k for k, _ in strata] == [0, 1]
        assert strata[0][1] == half_sum_of_squares(4)
        assert strata[1][1] == Poly.const(4, 2)

    def test_zero_input(self):
        strata, lifted = reconstruct(Poly.zero(3), 4)
        assert not lifted
        assert all(not w for _, w in strata)

    def test_round_trip_small(self, rng):
        for _ in range(20):
            n_plus_1 = rng.randint(3, 5)
            half_degree = rng.randint(0, n_plus_1 - 1)
            target = random_symmetric_even(rng, n_plus_1, half_degree)
            evaluation = target.eval_two_pi_i(n_plus_1).drop_var(n_plus_1)
            _, recovered = reconstruct(evaluation, half_degree)
            assert recovered == target

    def test_inhomogeneous_stratum_rejected(self):
        with pytest.raises(LiftError, match="homogeneous"):
            reconstruct(Poly.one(3), 1)

    def test_nonzero_residual_rejected(self):
        bad = half_sum_of_squares(3) + Poly.pi(3, 4)
        with pytest.raises(LiftError, match="residual") as info:
            reconstruct(bad, 1)
        assert info.value.residual is not None

    def test_strata_are_pi_free_and_homogeneous(self, rng):
        n_plus_1 = 4
        target = random_symmetric_even(rng, n_plus_1, 3)
        evaluation = target.eval_two_pi_i(n_plus_1).drop_var(n_plus_1)
        strata, _ = reconstruct(evaluation, 3)
        for k, w in strata:
            assert all(key[-1] == 0 for key in w.terms)
            if w:
                assert all(sum(key[:-1]) == 2 * (3 - k) for key in w.terms)
