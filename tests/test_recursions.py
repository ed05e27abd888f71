from fractions import Fraction

import pytest

from wpvol.stringdilaton import closed_volume, lift, relation_defect, string_rhs
from wpvol.symmetric import LiftError, stratified_lift
from wpvol.symmetric import add as add_orbits
from wpvol.volume import ConsistencyError, VolumePolynomial, seed_volume
from conftest import monomial_symmetric
from dense_oracle import (
    Dense,
    add,
    boundary_cofactor,
    coeff_monomial,
    const,
    ddx,
    divide_boundary_quadratic,
    euler_poly,
    eval_two_pi_i,
    expand,
    is_homogeneous,
    is_symmetric,
    mul,
    pi,
    scale,
    var,
)


@pytest.fixture(scope="module")
def v04(v03):
    return lift(v03)


@pytest.fixture(scope="module")
def v12(v11):
    vol = lift(v11)
    # the stratified lift leaves no all-variable orbit, so the L1^2 L2^2
    # coefficient is the correction constant c
    assert vol.orbits[((2, 2), 0)] == Fraction(1, 96)
    return vol


def boundary_factor(n, j):
    return add(var(n, j, 2), scale(pi(n, 2), 4))


def string_orbits(vol):
    """string_rhs as rational orbits: its integer numerators over its denominator."""
    den, numerators = string_rhs(vol)
    assert all(isinstance(c, int) for c in numerators.values())
    return {key: Fraction(c, den) for key, c in numerators.items()}


class TestStringRHS:
    def test_three_holed_sphere(self, v03):
        half = Fraction(1, 2)
        expected = Dense.from_terms(
            3, {(2, 0, 0, 0): half, (0, 2, 0, 0): half, (0, 0, 2, 0): half}
        )
        assert Dense.from_orbits(3, string_orbits(v03)) == expected

    def test_torus(self, v11):
        expected = Dense.from_terms(
            1, {(4, 0): Fraction(1, 192), (2, 2): Fraction(1, 24)}
        )
        assert Dense.from_orbits(1, string_orbits(v11)) == expected


class TestGenus0Lift:
    def test_four_holed_sphere(self, v04):
        halves = (scale(var(4, k, 2), Fraction(1, 2)) for k in range(1, 5))
        expected = add(scale(pi(4, 2), 2), *halves)
        assert expand(v04) == expected

    def test_output_invariants(self, v04):
        v05 = lift(v04)
        v05.validate()
        assert is_homogeneous(expand(v05), v05.degree)
        assert v05.degree == 4
        assert is_symmetric(expand(v05))

    def test_string_consistency_through_chain(self, v03, v04):
        v05 = lift(v04)
        assert not relation_defect(v04, v03, 0)
        assert not relation_defect(v05, v04, 0)

    def test_top_coefficients_are_scaled_multinomials(self, v04):
        # pi-free coefficient of L^{2 alpha} with |alpha| = n - 3 equals
        # multinomial(n-3; alpha) / (2^|alpha| * alpha!)
        v06 = lift(lift(v04))
        cases = {
            (3, 0, 0, 0, 0, 0): Fraction(1, 48),
            (1, 1, 1, 0, 0, 0): Fraction(3, 4),
            (2, 1, 0, 0, 0, 0): Fraction(3, 16),
        }
        for alpha, expected in cases.items():
            key = tuple(2 * a for a in alpha)
            assert coeff_monomial(expand(v06), key, 0) == expected

    @pytest.mark.parametrize("n, bump, defect", [
        (4, {((2, 0, 0, 0), 0): 1}, "4*pi^2"),  # plus m_(2)
        (5, {((0, 0, 0, 0, 0), 4): 1}, "-2*pi^4"),  # plus pi^4
        (4, {((0, 0, 0, 0), 2): Fraction(5, 3)}, "-(5/3)*pi^2"),  # plus (5/3)*pi^2
    ])
    def test_dilaton_failure_raises(self, v04, n, bump, defect):
        # V(0, n) breaking the dilaton relation: the string step alone
        # would lift it to a wrong V(0, n+1)
        vol = v04 if n == 4 else lift(v04)
        bad = VolumePolynomial(0, n, add_orbits(vol.orbits, bump))
        with pytest.raises(ConsistencyError, match="dilaton correction") as info:
            lift(bad)
        assert str(info.value.defect) == defect

    def test_requires_genus_zero(self):
        # the genus-0 chain starts at the stable V(0, 3)
        with pytest.raises(ValueError):
            lift(VolumePolynomial(0, 2, {}))


class TestGenus1Lift:
    def test_two_holed_torus_value(self, v12):
        expected = add(
            scale(monomial_symmetric(2, (4,)), Fraction(1, 192)),
            scale(monomial_symmetric(2, (2, 2)), Fraction(1, 96)),
            scale(monomial_symmetric(2, (2,), 2), Fraction(1, 12)),
            scale(pi(2, 4), Fraction(1, 4)),
        )
        assert expand(v12) == expected

    def test_constant_term(self, v12):
        assert coeff_monomial(expand(v12), (0, 0), 4) == Fraction(1, 4)

    def test_correction_vanishes_at_root(self):
        n = 3
        product = const(n, 1)
        for j in range(1, n + 1):
            product = mul(product, boundary_factor(n, j))
        assert not eval_two_pi_i(product, n)

    def test_relations_enforced_by_construction(self, v11, v12):
        assert not relation_defect(v12, v11, 0)
        assert not relation_defect(v12, v11, 1)

    def test_chain_continues(self, v12):
        v13 = lift(v12)
        v13.validate()
        assert not relation_defect(v13, v12, 0)
        assert not relation_defect(v13, v12, 1)

    def test_dilaton_failure_raises(self, v12):
        bad = VolumePolynomial(1, 2, add_orbits(v12.orbits, {((0, 0), 4): 1}))
        with pytest.raises(ConsistencyError, match="dilaton correction") as info:
            lift(bad)
        assert str(info.value.defect) == "-pi^4"

    def test_requires_genus_one(self):
        # the genus-1 chain starts at the stable V(1, 1), and lift stops there
        from wpvol.mirzakhani import mirzakhani_volume
        from wpvol.store import VolumeStore

        for vol in (VolumePolynomial(1, 0, {}), mirzakhani_volume(2, 1, VolumeStore())):
            with pytest.raises(ValueError):
                lift(vol)


class TestCheckers:
    def test_string_pair(self, v03, v04):
        assert not relation_defect(v04, v03, 0)

    def test_string_rejects_perturbation(self, v11, v12):
        bad = VolumePolynomial(1, 2, {**v12.orbits, ((0, 0), 0): Fraction(1)})
        assert relation_defect(bad, v11, 0) == {((0,), 0): 1}

    def test_dilaton_pair(self, v03, v04, v11, v12):
        assert not relation_defect(v04, v03, 1)
        assert not relation_defect(v12, v11, 1)

    def test_dilaton_rejects_perturbation(self, v03, v04):
        # symmetric: L1^2 + L2^2 + L3^2 + L4^2 - pi^2 added to V(0,4)
        bump = {((2, 0, 0, 0), 0): Fraction(1), ((0, 0, 0, 0), 2): Fraction(-1)}
        bad = VolumePolynomial(0, 4, {k: c + bump[k] for k, c in v04.orbits.items()})
        assert relation_defect(bad, v03, 1) == {((0, 0, 0), 0): 2}

    def test_mismatched_indices_rejected(self, v03, v12):
        with pytest.raises(ValueError):
            relation_defect(v12, v03, 0)


class TestErrorUnits:
    def test_lift_error_defect_is_in_rational_units(self, v04):
        # V(0,4) plus (1/3)*L1^4: its string image is not homogeneous, and the
        # residual is in rational units, not scaled by the lift's denominator
        bad = VolumePolynomial(0, 4, add_orbits(v04.orbits, {((4, 0, 0, 0), 0): Fraction(1, 3)}))
        with pytest.raises(LiftError, match="stratum 0 is not homogeneous") as info:
            lift(bad)
        assert info.value.residual == {
            ((6, 0, 0, 0), 0): Fraction(1, 18),
            ((4, 2, 0, 0), 0): Fraction(1, 6),
            ((4, 0, 0, 0), 0): Fraction(1, 8),
            ((2, 2, 0, 0), 0): Fraction(1, 2),
            ((2, 0, 0, 0), 2): Fraction(1),
        }
        assert str(info.value.defect).startswith("(1/18)*L1^6 + (1/6)*L1^4*L2^2")

    def test_stratified_lift_leaves_the_evaluation_unchanged(self, v04):
        den, evaluation = string_rhs(v04)
        before = dict(evaluation)
        _, total = stratified_lift(evaluation, 2)
        assert evaluation == before
        assert {key: Fraction(c, den) for key, c in total.items()} == lift(v04).orbits


class TestArithmetic:
    @pytest.fixture
    def fraction_calls(self, monkeypatch):
        """Count Fraction + and * calls, both operand orders, from here on."""
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(a, b, method=getattr(Fraction, name)):
                calls.append(method)
                return method(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        assert 1 + Fraction(1, 2) == 2 * Fraction(3, 4)
        assert len(calls) == 2
        calls.clear()
        return calls

    @pytest.mark.parametrize("g, n", [(0, 8), (1, 6)])
    def test_lift_does_no_per_term_fraction_arithmetic(self, fraction_calls, g, n):
        # lift(V(0,9)) took 913 Fraction + and * calls and lift(V(1,7)) 1,386
        # when every term was a Fraction; integer numerators over one
        # denominator build one Fraction per output orbit instead
        vol = seed_volume(g, 3 - 2 * g)
        for _ in range(n - vol.n + 1):
            vol = lift(vol)
        fraction_calls.clear()
        out = lift(vol)
        assert (out.g, out.n) == (g, n + 2)
        assert len(fraction_calls) <= 2 * len(out.orbits)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_relation_defect_does_no_per_term_fraction_arithmetic(self, fraction_calls, order):
        # 478 / 240 / 240 calls at orders 0 / 1 / 2 when every term was a Fraction
        smaller = seed_volume(0, 3)
        for _ in range(6):
            smaller = lift(smaller)
        bigger = lift(smaller)
        assert (smaller.n, bigger.n) == (9, 10)
        fraction_calls.clear()
        assert not relation_defect(bigger, smaller, order)
        assert len(fraction_calls) <= len(smaller.orbits)


class TestEulerField:
    def test_constant(self, v03):
        assert not euler_poly(expand(v03))

    def test_degree_scaling(self):
        p = mul(var(2, 1, 2), var(2, 2, 2))
        assert euler_poly(p) == scale(p, 4)

    def test_torus(self, v11):
        assert euler_poly(expand(v11)) == Dense.from_terms(1, {(2, 0): Fraction(1, 24)})


class TestSecondDerivative:
    def test_four_holed_sphere_pair(self, v03, v04):
        # LHS is the constant 1 (from L4^2/2); RHS = 0 - (4g-4+n) * 1 = 1
        lhs = eval_two_pi_i(ddx(ddx(expand(v04), 4), 4), 4)
        assert lhs == const(4, 1)
        assert not relation_defect(v04, v03, 2)

    def test_torus_pair(self, v11, v12):
        assert not relation_defect(v12, v11, 2)

    def test_rejects_perturbation(self, v11, v12):
        # the perturbation must survive two derivatives in L2
        bump = {((2, 2), 0): v12.orbits[((2, 2), 0)] + 1}  # plus L1^2 L2^2
        bad = VolumePolynomial(1, 2, {**v12.orbits, **bump})
        assert relation_defect(bad, v11, 2) == {((2,), 0): 2}


class TestFactorization:
    def test_torus_cofactor(self, v11):
        assert boundary_cofactor(v11) == const(1, Fraction(1, 48))

    def test_bare_factor(self):
        vol = VolumePolynomial(1, 1, boundary_factor(1, 1).orbit_coefficients())
        assert boundary_cofactor(vol) == const(1, 1)

    def test_remainder_raises(self):
        vol = VolumePolynomial(1, 1, {((2,), 0): Fraction(1)})
        with pytest.raises(ConsistencyError):
            boundary_cofactor(vol)

    def test_divide_boundary_quadratic_random(self, rng):
        from conftest import random_poly

        for _ in range(10):
            n = rng.randint(1, 3)
            q = random_poly(rng, n, max_terms=5)
            k = rng.randint(1, n)
            product = mul(q, boundary_factor(n, k))
            assert divide_boundary_quadratic(product, k) == q


class TestClosedVolume:
    def test_genus_one_rejected(self, v11):
        with pytest.raises(ValueError):
            closed_volume(v11)

    def test_needs_one_boundary_and_genus_two(self, v03, v11):
        from wpvol.mirzakhani import mirzakhani_volume
        from wpvol.store import VolumeStore

        for vol in (v03, v11, mirzakhani_volume(2, 2, VolumeStore())):
            with pytest.raises(ValueError):
                closed_volume(vol)

    def test_genus_two_value(self):
        from wpvol.mirzakhani import mirzakhani_volume
        from wpvol.store import VolumeStore

        v21 = mirzakhani_volume(2, 1, VolumeStore())
        value = expand(closed_volume(v21))
        assert value.n_vars == 0
        assert coeff_monomial(value, (), 6) == Fraction(43, 2160)
