from fractions import Fraction

import pytest

from wpvol.poly import Poly, arrangements
from conftest import random_poly


def L(n, k, power=1):
    return Poly.var(n, k, power)


def random_even_poly(rng, n_vars) -> Poly:
    """random_poly with every L exponent doubled, as volumes have."""
    p = random_poly(rng, n_vars)
    return Poly(
        n_vars,
        {tuple(2 * e for e in key[:-1]) + key[-1:]: c for key, c in p.terms.items()},
    )


class TestConstruction:
    def test_zero_terms_dropped(self):
        p = Poly.from_terms(1, {(2, 0): 1, (0, 1): 0})
        assert list(p.terms) == [(2, 0)]

    def test_additive_inverse_is_empty(self):
        p = L(1, 1, 2)
        assert not (p + (-p)).terms

    def test_monomial_product(self):
        assert L(1, 1, 2) * Poly.pi(1, 2) == Poly.from_terms(1, {(2, 2): 1})

    def test_scale_produces_torus_seed(self, v11):
        shape = L(1, 1, 2) + Poly.pi(1, 2).scale(4)
        assert shape.scale(Fraction(1, 48)) == v11.poly

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            L(1, 1) + L(2, 1)
        with pytest.raises(ValueError):
            L(1, 1) * L(2, 1)


class TestCalculus:
    def test_ddx_power_rule(self):
        assert L(1, 1, 2).ddx(1) == L(1, 1).scale(2)

    def test_ddx_of_constant_in_that_variable(self):
        assert not Poly.pi(1, 2).ddx(1)

    def test_ddx_other_variable(self):
        p = L(2, 1) * L(2, 2, 3)
        assert p.ddx(2) == (L(2, 1) * L(2, 2, 2)).scale(3)

    def test_integrate_linear(self):
        assert L(1, 1).integrate_from_zero(1) == L(1, 1, 2).scale(Fraction(1, 2))

    def test_integrate_constant(self):
        assert Poly.pi(1, 2).integrate_from_zero(1) == Poly.pi(1, 2) * L(1, 1)

    def test_integrate_other_variable(self):
        assert L(2, 2).integrate_from_zero(1) == L(2, 1) * L(2, 2)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            L(2, 1).ddx(3)
        with pytest.raises(IndexError):
            L(2, 1).integrate_from_zero(0)

    def test_ddx_undoes_integrate(self, rng):
        for _ in range(25):
            p = random_poly(rng, rng.randint(1, 3))
            for k in range(1, p.n_vars + 1):
                assert p.integrate_from_zero(k).ddx(k) == p


class TestSubstitution:
    def test_square_becomes_minus_four_pi_squared(self):
        assert L(1, 1, 2).eval_two_pi_i(1) == Poly.pi(1, 2).scale(-4)

    def test_odd_power_rejected(self):
        # L1 = 2*pi*i is imaginary; volumes never contain odd powers
        with pytest.raises(ValueError):
            L(1, 1).eval_two_pi_i(1)

    def test_root_of_boundary_factor(self):
        p = L(1, 1, 2) + Poly.pi(1, 2).scale(4)
        assert not p.eval_two_pi_i(1)

    def test_eval_zero(self):
        p = L(2, 1) * L(2, 2) + L(2, 2, 2)
        assert p.eval_zero(1) == L(2, 2, 2)

    def test_coeff_pi_reads_off(self):
        p = Poly.pi(3, 2).scale(2) + sum(
            (L(3, k, 2).scale(Fraction(1, 2)) for k in (1, 2, 3)), Poly.zero(3)
        )
        assert p.coeff_pi(2) == Poly.const(3, 2)

    def test_substitutions_are_ring_homomorphisms(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            p = random_even_poly(rng, n)
            q = random_even_poly(rng, n)
            k = rng.randint(1, n)
            assert (p * q).eval_two_pi_i(k) == p.eval_two_pi_i(k) * q.eval_two_pi_i(k)
            assert (p * q).eval_zero(k) == p.eval_zero(k) * q.eval_zero(k)
            assert (p + q).eval_two_pi_i(k) == p.eval_two_pi_i(k) + q.eval_two_pi_i(k)


class TestRingAxioms:
    def test_randomized(self, rng):
        for _ in range(30):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            q = random_poly(rng, n)
            r = random_poly(rng, n)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            c = Fraction(3, 7)
            assert (p + q).scale(c) == p.scale(c) + q.scale(c)


class TestStructure:
    def test_is_symmetric_false(self):
        assert not (L(2, 1, 2) * L(2, 2)).is_symmetric()

    def test_is_symmetric_true(self):
        p = L(2, 1, 2) + L(2, 2, 2)
        assert p.is_symmetric()

    def test_symmetric_needs_equal_coefficients(self):
        p = L(2, 1, 2) + L(2, 2, 2).scale(2)
        assert not p.is_symmetric()

    def test_embed(self):
        p = L(2, 1) * L(2, 2)
        q = p.embed(4)
        assert q.n_vars == 4
        assert q.coeff_monomial((1, 1, 0, 0), 0) == 1

    def test_embed_cannot_shrink(self):
        with pytest.raises(ValueError):
            L(3, 1).embed(2)

    def test_place(self):
        p = L(2, 1, 2) * L(2, 2, 4)
        q = p.place(5, (3, 1))
        assert q == L(5, 3, 2) * L(5, 1, 4)

    def test_drop_var(self):
        p = (L(3, 1) * L(3, 3)).drop_var(2)
        assert p == L(2, 1) * L(2, 2)
        with pytest.raises(ValueError):
            (L(3, 2)).drop_var(2)

    def test_divide_by_var(self):
        p = L(2, 1, 3) * L(2, 2)
        assert p.divide_by_var(1) == L(2, 1, 2) * L(2, 2)
        with pytest.raises(ValueError):
            L(2, 2).divide_by_var(1)

    def test_homogeneity_helpers(self):
        p = L(2, 1, 2) + Poly.pi(2, 2)
        assert p.is_homogeneous(2)
        assert not (p + 1).is_homogeneous(2)


class TestFormatting:
    def test_torus_seed_plain(self, v11):
        assert str(v11.poly) == "(1/48)*L1^2 + (1/12)*pi^2"

    def test_integer_coefficients_bare(self):
        p = Poly.pi(1, 2).scale(2)
        assert str(p) == "2*pi^2"

    def test_zero(self):
        assert str(Poly.zero(2)) == "0"

    def test_latex(self, v11):
        assert v11.poly.to_latex() == "\\frac{1}{48}L_{1}^{2} + \\frac{1}{12}\\pi^{2}"

    def test_canonical_order_is_stable(self, rng):
        p = random_poly(rng, 3, max_terms=8)
        assert [k for k, _ in p.sorted_terms()] == [
            k for k, _ in Poly(3, dict(reversed(list(p.terms.items())))).sorted_terms()
        ]


def test_arrangements_distinct_count():
    items = list(arrangements((2, 2, 0, 0)))
    assert len(items) == len(set(items)) == 6
    assert all(sorted(a, reverse=True) == [2, 2, 0, 0] for a in items)
