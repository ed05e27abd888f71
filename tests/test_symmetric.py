import math
from fractions import Fraction

import pytest

from wpvol.symmetric import LiftError, stratified_lift
from conftest import (
    brute_force_lift,
    epsilon_lift,
    monomial_symmetric,
    random_symmetric_even,
)
from dense_oracle import (
    Dense,
    add,
    coeff_monomial,
    const,
    drop_var,
    eval_two_pi_i,
    eval_zero,
    is_symmetric,
    l_degree,
    mul,
    pi,
    scale,
    var,
)


def lift(f):
    """The extension of f to n + 1 variables that ``stratified_lift`` makes
    of each stratum: every orbit of f is lifted alone, as a pi-free
    evaluation of its own degree, read off ``strata[0]`` and given back its
    pi exponent."""
    out = {}
    for (pattern, pi_exp), c in f.orbit_coefficients().items():
        strata, _ = stratified_lift({(pattern, 0): c}, sum(pattern) // 2)
        out.update({(p, pi_exp): c for (p, _), c in strata[0].items()})
    return Dense.from_orbits(f.n_vars + 1, out)


def reconstruct(evaluation, half_degree):
    """stratified_lift on the orbits of evaluation, strata and result expanded."""
    n_plus_1 = evaluation.n_vars + 1
    strata, total = stratified_lift(evaluation.orbit_coefficients(), half_degree)
    expanded = [(k, Dense.from_orbits(n_plus_1, w)) for k, w in enumerate(strata)]
    return expanded, Dense.from_orbits(n_plus_1, total)


def without_all_variable_orbits(f):
    """f less its orbits with no zero exponent, so that f is the
    representative ``stratified_lift`` returns for f's evaluation."""
    orbits = f.orbit_coefficients()
    return Dense.from_orbits(f.n_vars, {key: c for key, c in orbits.items() if 0 in key[0]})


def half_sum_of_squares(n):
    halves = (scale(var(n, k, 2), Fraction(1, 2)) for k in range(1, n + 1))
    return add(Dense(n, {}), *halves)


class TestSymLiftZero:
    def test_constant(self):
        lifted = lift(const(3, 1))
        assert lifted == const(4, 1)

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
        assert drop_var(eval_zero(lifted, n + 1), n + 1) == f
        assert not coeff_monomial(lifted, (2,) * (n + 1), 0)
        assert is_symmetric(lifted)
        assert l_degree(lifted) == l_degree(f)

    def test_restriction_postcondition(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            f = random_symmetric_even(rng, n, rng.randint(0, 3))
            lifted = lift(f)
            assert drop_var(eval_zero(lifted, n + 1), n + 1) == f
            assert is_symmetric(lifted)

    def test_odd_exponent_rejected(self):
        # of even degree, so the homogeneity check passes first
        odd = mul(var(2, 1), var(2, 2))
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
        f = add(
            monomial_symmetric(2, (2, 2)),
            scale(monomial_symmetric(2, (4,)), Fraction(1, 3)),
        )
        assert lift(f) == epsilon_lift(f) == brute_force_lift(f)


class TestStratifiedLift:
    def test_four_holed_sphere_shape(self):
        strata, lifted = reconstruct(half_sum_of_squares(3), 1)
        expected = add(half_sum_of_squares(4), scale(pi(4, 2), 2))
        assert lifted == expected
        assert [k for k, _ in strata] == [0, 1]
        assert strata[0][1] == half_sum_of_squares(4)
        assert strata[1][1] == const(4, 2)

    def test_zero_input(self):
        strata, lifted = reconstruct(Dense(3, {}), 4)
        assert not lifted
        assert all(not w for _, w in strata)

    def test_round_trip_small(self, rng):
        for _ in range(20):
            n_plus_1 = rng.randint(3, 5)
            half_degree = rng.randint(0, n_plus_1 - 1)
            target = random_symmetric_even(rng, n_plus_1, half_degree)
            evaluation = drop_var(eval_two_pi_i(target, n_plus_1), n_plus_1)
            _, recovered = reconstruct(evaluation, half_degree)
            assert recovered == target
        # five to eight strata
        for half_degree in [5, 6, 7, 8] * 3:
            n_plus_1 = rng.randint(3, 5)
            target = without_all_variable_orbits(random_symmetric_even(rng, n_plus_1, half_degree))
            evaluation = drop_var(eval_two_pi_i(target, n_plus_1), n_plus_1)
            _, recovered = reconstruct(evaluation, half_degree)
            assert recovered == target

    def test_integer_evaluation_lifts_in_integers(self, rng):
        # the lift chain runs it on integer numerators over one denominator
        targets = []
        for _ in range(10):
            n_plus_1 = rng.randint(3, 5)
            half_degree = rng.randint(0, n_plus_1)
            targets.append((random_symmetric_even(rng, n_plus_1, half_degree), half_degree))
        # five to eight strata
        for half_degree in [5, 6, 7, 8] * 2:
            target = random_symmetric_even(rng, rng.randint(3, 5), half_degree)
            targets.append((without_all_variable_orbits(target), half_degree))
        for target, half_degree in targets:
            n_plus_1 = target.n_vars
            evaluation = drop_var(eval_two_pi_i(target, n_plus_1), n_plus_1).orbit_coefficients()
            scale_by = math.lcm(*(c.denominator for c in evaluation.values()))
            numerators = {key: int(c * scale_by) for key, c in evaluation.items()}
            strata, total = stratified_lift(evaluation, half_degree)
            int_strata, int_total = stratified_lift(numerators, half_degree)
            for exact, scaled in zip(strata + [total], int_strata + [int_total]):
                assert all(type(c) is int for c in scaled.values())
                assert scaled == {key: c * scale_by for key, c in exact.items()}

    def test_inhomogeneous_stratum_rejected(self):
        with pytest.raises(LiftError, match="homogeneous"):
            reconstruct(const(3, 1), 1)

    def test_nonzero_residual_rejected(self):
        bad = add(half_sum_of_squares(3), pi(3, 4))
        with pytest.raises(LiftError, match="residual") as info:
            reconstruct(bad, 1)
        assert info.value.residual is not None

    def test_inhomogeneous_later_stratum_carries_the_residual(self):
        # the layers below are lifted and cancelled; the residual holds the
        # failing layer and what the lifted strata left above it
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [
            (
                {((4, 0), 0): half, ((2, 2), 0): Fraction(3),
                 ((4, 0), 2): Fraction(5, 7), ((2, 0), 2): 1},
                2,
                "stratum 1 is not homogeneous of degree 2",
                {((4, 0), 2): Fraction(5, 7), ((2, 0), 2): 13, ((0, 0), 4): -8},
            ),
            (
                {((6, 0, 0), 0): third, ((2, 2, 2), 0): Fraction(1, 5),
                 ((4, 0, 0), 2): -2 * third, ((2, 2, 0), 4): half / 2,
                 ((2, 0, 0), 4): half * third},
                3,
                "stratum 2 is not homogeneous of degree 2",
                {((2, 2, 0), 4): half / 2, ((2, 0, 0), 4): Fraction(101, 30),
                 ((0, 0, 0), 6): 32},
            ),
        ]
        for evaluation, half_degree, message, residual in cases:
            with pytest.raises(LiftError) as info:
                stratified_lift(evaluation, half_degree)
            assert str(info.value) == message
            assert info.value.residual == residual

    def test_homogeneity_is_checked_before_odd_exponents(self):
        # one layer with an odd-exponent orbit ahead of an inhomogeneous one
        with pytest.raises(LiftError) as info:
            stratified_lift({((4, 0), 0): 1, ((1, 1), 2): 2, ((4, 0), 2): 3}, 2)
        assert str(info.value) == "stratum 1 is not homogeneous of degree 2"
        assert info.value.residual == {((1, 1), 2): 2, ((4, 0), 2): 3, ((0, 0), 4): -16}

    def test_odd_exponent_in_a_later_stratum_rejected(self):
        evaluation = {
            ((6, 0), 0): Fraction(1, 3), ((2, 2), 2): Fraction(1, 5),
            ((1, 1), 4): Fraction(2), ((2, 0), 4): Fraction(1, 2),
        }
        with pytest.raises(LiftError, match="odd") as info:
            stratified_lift(evaluation, 3)
        assert str(info.value) == "lift input has an odd L exponent"
        assert info.value.residual is None

    def test_odd_and_high_pi_powers_are_left_in_the_residual(self):
        bad = {((2, 0), 3): Fraction(5), ((0, 0), 5): Fraction(-1, 9), ((2, 0), 6): Fraction(7)}
        evaluation = {
            ((4, 0), 0): Fraction(1, 2), ((2, 2), 0): Fraction(3),
            ((2, 0), 2): Fraction(-5, 3), ((0, 0), 4): Fraction(7), **bad,
        }
        with pytest.raises(LiftError, match="nonzero residual") as info:
            stratified_lift(evaluation, 2)
        assert info.value.residual == bad

    def test_zero_coefficients_are_skipped(self):
        # zeros that would fail the homogeneity, odd and residual checks
        clean = {((4, 0), 0): Fraction(1, 2), ((2, 0), 2): Fraction(3), ((0, 0), 4): Fraction(-8)}
        with_zeros = {
            ((6, 0), 0): 0, ((3, 1), 0): Fraction(0), ((1, 1), 2): 0,
            ((2, 0), 3): Fraction(0), ((0, 0), 8): 0, **clean,
        }
        expected = (
            [{((4, 0, 0), 0): Fraction(1, 2)}, {((2, 0, 0), 0): 3}, {((0, 0, 0), 0): -4}],
            {((4, 0, 0), 0): Fraction(1, 2), ((2, 0, 0), 2): 3, ((0, 0, 0), 4): -4},
        )
        assert stratified_lift(with_zeros, 2) == stratified_lift(clean, 2) == expected

    def test_strata_are_pi_free_and_homogeneous(self, rng):
        n_plus_1 = 4
        target = random_symmetric_even(rng, n_plus_1, 3)
        evaluation = drop_var(eval_two_pi_i(target, n_plus_1), n_plus_1)
        strata, _ = reconstruct(evaluation, 3)
        for k, w in strata:
            assert all(key[-1] == 0 for key in w.terms)
            if w:
                assert all(sum(key[:-1]) == 2 * (3 - k) for key in w.terms)

