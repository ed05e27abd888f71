import math
from fractions import Fraction

import pytest
from scipy.integrate import dblquad, quad

from wpvol.mirzakhani import (
    bernoulli_number,
    double_moment,
    kernel_H,
    mirzakhani_volume,
    moment_F,
    pair_moment,
    zeta_even_coeff,
)
from wpvol.poly import Poly
from wpvol.store import VolumeStore
from wpvol.stringdilaton import genus0_lift, genus1_lift
from wpvol import mirzakhani
from wpvol.compute import ensure_volume
from wpvol.volume import ConsistencyError, UnstableSurfaceError


def eval_float(p: Poly, *values: float) -> float:
    total = 0.0
    for key, c in p.terms.items():
        term = float(c) * math.pi ** key[-1]
        for x, e in zip(values, key[:-1]):
            term *= x ** e
        total += term
    return total


class TestKernel:
    def test_at_origin(self):
        assert kernel_H(0.0, 0.0) == pytest.approx(0.5)

    def test_zero_second_argument(self):
        for x in (0.5, 1.0, 5.0):
            assert kernel_H(x, 0.0) == pytest.approx(1.0 / (1.0 + math.exp(x / 2)))

    def test_decay(self):
        assert kernel_H(200.0, 3.0) < 1e-40

    def test_no_overflow(self):
        assert kernel_H(1e6, 1e5) == 0.0
        assert kernel_H(1e6, -1e5) == 0.0


class TestBernoulli:
    def test_known_values(self):
        known = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            3: Fraction(0),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        for m, value in known.items():
            assert bernoulli_number(m) == value

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for m in range(0, 20, 2):
            p, q = mpmath.bernfrac(m)
            assert bernoulli_number(m) == Fraction(int(p), int(q))

    def test_even_zeta(self):
        assert zeta_even_coeff(0) == Fraction(-1, 2)
        assert zeta_even_coeff(1) == Fraction(1, 6)
        assert zeta_even_coeff(2) == Fraction(1, 90)
        assert zeta_even_coeff(3) == Fraction(1, 945)


class TestMoments:
    def test_first_moment(self):
        expected = Poly.from_terms(1, {(2, 0): Fraction(1, 4), (0, 2): Fraction(1, 3)})
        assert moment_F(0) == expected

    def test_third_moment(self):
        expected = Poly.from_terms(
            1, {(4, 0): Fraction(1, 8), (2, 2): 1, (0, 4): Fraction(14, 15)}
        )
        assert moment_F(1) == expected

    def test_shape(self):
        for k in range(7):
            F = moment_F(k)
            assert F.is_homogeneous(2 * k + 2)
            assert F.has_even_l_exponents()
            assert F.coeff_monomial((2 * k + 2,), 0) == Fraction(1, 4 * k + 4)
            # value at 0 is a pure pi power
            at_zero = F.eval_zero(1)
            assert list(at_zero.terms) == [(0, 2 * k + 2)]

    def test_against_quadrature(self):
        # the heavier sweep (k <= 6, t in {0,1,2,5}) runs in the acceptance suite
        for k in range(3):
            F = moment_F(k)
            for t in (0.0, 1.0, 2.5):
                numeric, _ = quad(
                    lambda x: x ** (2 * k + 1) * kernel_H(x, t), 0, math.inf, limit=200
                )
                exact = eval_float(F, t)
                assert abs(exact - numeric) / (1 + abs(numeric)) < 1e-9


class TestDoubleMoment:
    def test_reduction_to_single_moment(self):
        assert double_moment(0, 0) == moment_F(1).scale(Fraction(1, 6))

    def test_symmetry(self):
        for a, b in [(0, 1), (1, 2), (0, 3)]:
            assert double_moment(a, b) == double_moment(b, a)

    def test_leading_coefficient(self):
        # leading term of F_{2m+1} is t^(2m+2)/(4m+4) with m = a + b + 1
        for a, b in [(0, 0), (1, 0), (1, 1)]:
            top = double_moment(a, b).coeff_monomial((2 * a + 2 * b + 4,), 0)
            expected = Fraction(
                math.factorial(2 * a + 1) * math.factorial(2 * b + 1),
                math.factorial(2 * a + 2 * b + 3),
            ) / (4 * (a + b + 1) + 4)
            assert top == expected

    def test_against_2d_quadrature(self):
        for a, b in [(0, 0), (1, 0)]:
            dm = double_moment(a, b)
            for t in (0.0, 1.0, 2.0):
                numeric, _ = dblquad(
                    lambda y, x: x ** (2 * a + 1) * y ** (2 * b + 1) * kernel_H(x + y, t),
                    0,
                    120,
                    0,
                    120,
                )
                exact = eval_float(dm, t)
                assert abs(exact - numeric) / (1 + abs(numeric)) < 1e-6


class TestPairMoment:
    def test_matches_direct_substitution(self):
        # F(u+v) + F(u-v) expanded by hand for k = 0:
        # (u+v)^2/4 + (u-v)^2/4 + 2*pi^2/3 = u^2/2 + v^2/2 + 2*pi^2/3
        expected = Poly.from_terms(
            2,
            {
                (2, 0, 0): Fraction(1, 2),
                (0, 2, 0): Fraction(1, 2),
                (0, 0, 2): Fraction(2, 3),
            },
        )
        assert pair_moment(0) == expected

    def test_even_in_both_variables(self):
        for k in range(4):
            assert pair_moment(k).has_even_l_exponents()


class TestVolumes:
    def test_base_cases_returned(self, v03, v11):
        store = VolumeStore()
        assert mirzakhani_volume(0, 3, store).poly == v03.poly
        assert mirzakhani_volume(1, 1, store).poly == v11.poly

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSurfaceError):
            mirzakhani_volume(0, 2, VolumeStore())

    def test_closed_surface_rejected(self):
        # stable, but the recursion has no boundary to privilege
        with pytest.raises(ValueError, match="boundary"):
            mirzakhani_volume(2, 0, VolumeStore())

    def test_four_holed_sphere(self, v03):
        lifted = genus0_lift(v03)
        recursed = mirzakhani_volume(0, 4, VolumeStore())
        assert recursed.poly == lifted.poly

    def test_two_holed_torus(self, v11):
        lifted, _ = genus1_lift(v11)
        recursed = mirzakhani_volume(1, 2, VolumeStore())
        assert recursed.poly == lifted.poly

    def test_five_holed_sphere(self, v03):
        lifted = genus0_lift(genus0_lift(v03))
        recursed = mirzakhani_volume(0, 5, VolumeStore())
        assert recursed.poly == lifted.poly

    def test_output_is_symmetric_despite_privileged_boundary(self):
        vol = mirzakhani_volume(1, 3, VolumeStore())
        assert vol.poly.is_symmetric()
        vol.validate()

    def test_split_order_does_not_matter(self):
        forward = mirzakhani_volume(2, 1, VolumeStore(), split_reverse=False)
        backward = mirzakhani_volume(2, 1, VolumeStore(), split_reverse=True)
        assert forward.poly == backward.poly

    def test_memoization_reuses_store(self):
        store = VolumeStore()
        first = mirzakhani_volume(1, 2, store)
        again = mirzakhani_volume(1, 2, store)
        assert first is again


class TestOrbitCheck:
    def test_asymmetric_pair_moment_is_caught(self, monkeypatch):
        # a moment that is no longer symmetric in (L1, Lj) breaks the symmetry
        # of every volume with a B-term; the representatives must notice
        original = mirzakhani.pair_moment

        def perturbed(k):
            terms = dict(original(k).terms)
            terms[(2 * k + 2, 0, 0)] += Fraction(1, 7)
            return Poly(2, terms)

        monkeypatch.setattr(mirzakhani, "pair_moment", perturbed)
        store = VolumeStore()
        with pytest.raises(ConsistencyError, match="orbit-agreement"):
            mirzakhani_volume(0, 5, store)
        assert store.get(0, 5, provenance="mirzakhani") is None


class TestLargeGenus:
    def test_closed_volumes_genus_four_and_five(self):
        store = VolumeStore()
        assert str(ensure_volume(store, 4, 0).poly) == "(1959225867017/493807104000)*pi^18"
        assert str(ensure_volume(store, 5, 0).poly) == (
            "(84374265930915479/355541114880000)*pi^24"
        )

    def test_mirzakhani_zograf_trend(self):
        # arXiv 1112.1151: 4 pi^2 (2g-2) V(g,0) / V(g,1) -> 1 and
        # V(g-1,2) / V(g,0) -> 1, both with error O(1/g), on constant terms
        store = VolumeStore()

        def at_zero(g, n):
            vol = ensure_volume(store, g, n, "mirzakhani")
            return vol.poly.coeff_monomial((0,) * n, 6 * g - 6 + 2 * n)

        errors = []
        for g in range(2, 8):
            r1 = 4 * (2 * g - 2) * at_zero(g, 0) / at_zero(g, 1)
            r2 = float(at_zero(g - 1, 2) / at_zero(g, 0)) / math.pi ** 2
            errors.append((g, abs(float(r1) - 1), abs(r2 - 1)))
        for (g, e1, e2), (h, f1, f2) in zip(errors, errors[1:]):
            assert f1 <= e1 and f2 <= e2
            assert h * f1 <= g * e1 and h * f2 <= g * e2
        assert errors[-1][1] < 0.01 and errors[-1][2] < 0.05


class TestCrossPathRange:
    def test_lift_matches_recursion_beyond_the_acceptance_range(self):
        # past test_criterion_03's (0,4)..(0,8) and (1,2)..(1,5)
        from wpvol.compute import lift_volume

        lift_store, kernel_store = VolumeStore(), VolumeStore()
        for g, n in [(0, 9), (0, 10), (1, 6), (1, 7), (1, 8)]:
            lifted = lift_volume(lift_store, g, n)
            recursed = mirzakhani_volume(g, n, kernel_store)
            assert lifted.orbits == recursed.orbits, (g, n)
            assert lifted.poly == recursed.poly, (g, n)
