import math
from collections import Counter
from fractions import Fraction

import pytest
from scipy.integrate import dblquad, quad

from wpvol.mirzakhani import mirzakhani_volume
from wpvol.store import VolumeStore
from wpvol.stringdilaton import lift
from wpvol import mirzakhani
from wpvol.compute import ensure_volume
from wpvol.volume import ConsistencyError, UnstableSurfaceError, is_stable
from conftest import kernel_moment, reversed_split_product
from dense_oracle import (
    Dense,
    coeff_monomial,
    double_moment,
    eval_zero,
    expand,
    has_even_l_exponents,
    is_homogeneous,
    is_symmetric,
    kernel_H,
    reference_bernoulli_number,
    reference_moment_F,
    reference_pair_moment,
    reference_zeta_even_coeff,
    scale,
)


def eval_float(terms: dict, *values: float) -> float:
    total = 0.0
    for key, c in terms.items():
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


def kept_constants(monkeypatch, half):
    # the constants c_i = zeta(2i) (4^i - 2) / pi^(2i), i <= half, of a
    # table built afresh
    monkeypatch.setattr(mirzakhani, "_rows", ([], []))
    mirzakhani._moment_rows(half)
    return mirzakhani._rows[0]


class TestBernoulli:
    # the kernel reads its constants off the tangent numbers; the oracle's
    # Bernoulli recurrence behind the reference zeta values is pinned here
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
            assert reference_bernoulli_number(m) == value

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for m in range(0, 20, 2):
            p, q = mpmath.bernfrac(m)
            assert reference_bernoulli_number(m) == Fraction(int(p), int(q))

    def test_against_the_fraction_recurrence(self, monkeypatch):
        # the tangent-number route in integers gives the recurrence's values
        cs = kept_constants(monkeypatch, 40)
        assert len(cs) == 41
        for i, c in enumerate(cs):
            assert c == reference_zeta_even_coeff(i) * (4 ** i - 2), i

    def test_even_zeta(self, monkeypatch):
        assert reference_zeta_even_coeff(0) == Fraction(-1, 2)
        assert reference_zeta_even_coeff(1) == Fraction(1, 6)
        assert reference_zeta_even_coeff(2) == Fraction(1, 90)
        assert reference_zeta_even_coeff(3) == Fraction(1, 945)
        # c_i = zeta(2i) (4^i - 2) / pi^(2i)
        expected = [Fraction(1, 2), Fraction(1, 3), Fraction(7, 45), Fraction(62, 945)]
        assert kept_constants(monkeypatch, 3) == expected


class TestMoments:
    def test_first_moment(self):
        expected = {(2, 0): Fraction(1, 4), (0, 2): Fraction(1, 3)}
        assert reference_moment_F(0) == expected

    def test_third_moment(self):
        expected = {(4, 0): Fraction(1, 8), (2, 2): 1, (0, 4): Fraction(14, 15)}
        assert reference_moment_F(1) == expected

    def test_shape(self):
        for k in range(7):
            F = Dense(1, reference_moment_F(k))
            assert is_homogeneous(F, 2 * k + 2)
            assert has_even_l_exponents(F)
            assert coeff_monomial(F, (2 * k + 2,), 0) == Fraction(1, 4 * k + 4)
            # value at 0 is a pure pi power
            at_zero = eval_zero(F, 1)
            assert list(at_zero.terms) == [(0, 2 * k + 2)]

    def test_against_quadrature(self):
        # the heavier sweep (k <= 6, t in {0,1,2,5}) runs in the acceptance suite
        for k in range(3):
            F = kernel_moment(k)
            for t in (0.0, 1.0, 2.5):
                numeric, _ = quad(
                    lambda x: x ** (2 * k + 1) * kernel_H(x, t), 0, math.inf, limit=200
                )
                exact = eval_float(F, t)
                assert abs(exact - numeric) / (1 + abs(numeric)) < 1e-9


class TestDoubleMoment:
    def test_reduction_to_single_moment(self):
        assert double_moment(0, 0) == scale(Dense(1, reference_moment_F(1)), Fraction(1, 6))

    def test_symmetry(self):
        for a, b in [(0, 1), (1, 2), (0, 3)]:
            assert double_moment(a, b) == double_moment(b, a)

    def test_leading_coefficient(self):
        # leading term of F_{2m+1} is t^(2m+2)/(4m+4) with m = a + b + 1
        for a, b in [(0, 0), (1, 0), (1, 1)]:
            top = coeff_monomial(double_moment(a, b), (2 * a + 2 * b + 4,), 0)
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
                exact = eval_float(dm.terms, t)
                assert abs(exact - numeric) / (1 + abs(numeric)) < 1e-6


class TestPairMoment:
    def test_matches_direct_substitution(self):
        # F(u+v) + F(u-v) expanded by hand for k = 0:
        # (u+v)^2/4 + (u-v)^2/4 + 2*pi^2/3 = u^2/2 + v^2/2 + 2*pi^2/3
        expected = {
            (2, 0, 0): Fraction(1, 2),
            (0, 2, 0): Fraction(1, 2),
            (0, 0, 2): Fraction(2, 3),
        }
        assert reference_pair_moment(0) == expected

    def test_even_in_both_variables(self):
        for k in range(4):
            assert has_even_l_exponents(Dense(2, reference_pair_moment(k)))


class TestVolumes:
    def test_base_cases_returned(self, v03, v11):
        store = VolumeStore()
        assert mirzakhani_volume(0, 3, store).orbits == v03.orbits
        assert mirzakhani_volume(1, 1, store).orbits == v11.orbits

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSurfaceError):
            mirzakhani_volume(0, 2, VolumeStore())

    def test_closed_surface_rejected(self):
        # stable, but the recursion has no boundary to privilege
        with pytest.raises(ValueError, match="boundary"):
            mirzakhani_volume(2, 0, VolumeStore())

    def test_four_holed_sphere(self, v03):
        lifted = lift(v03)
        recursed = mirzakhani_volume(0, 4, VolumeStore())
        assert recursed.orbits == lifted.orbits

    def test_two_holed_torus(self, v11):
        lifted = lift(v11)
        recursed = mirzakhani_volume(1, 2, VolumeStore())
        assert recursed.orbits == lifted.orbits

    def test_five_holed_sphere(self, v03):
        lifted = lift(lift(v03))
        recursed = mirzakhani_volume(0, 5, VolumeStore())
        assert recursed.orbits == lifted.orbits

    def test_output_is_symmetric_despite_privileged_boundary(self):
        vol = mirzakhani_volume(1, 3, VolumeStore())
        assert is_symmetric(expand(vol))
        vol.validate()

    def test_split_order_does_not_matter(self, monkeypatch):
        forward = mirzakhani_volume(2, 1, VolumeStore())
        monkeypatch.setattr(mirzakhani, "product", reversed_split_product)
        backward = mirzakhani_volume(2, 1, VolumeStore())
        assert forward.orbits == backward.orbits

    def test_memoization_reuses_store(self):
        store = VolumeStore()
        first = mirzakhani_volume(1, 2, store)
        again = mirzakhani_volume(1, 2, store)
        assert first is again


def a_rows(b_rows):
    # A row s, F_{2s+3}(t) / (2s+3)!, as the kernel reads it: B row s + 1
    # at v^0 over twice its denominator
    return [(2 * den, row[0]) for den, row in b_rows[1:]]


def bump_rows(monkeypatch, kind):
    # the kept rows afresh to half 12, each B row k with the 1/7 that
    # F_{2k+1}(u+v) + F_{2k+1}(u-v) gains at its top power u^(2k+2) v^0,
    # over (2k+1)!; for kind "A" the bump is doubled and starts at B row 1,
    # so that A row s, read off B row s + 1, gains 1/7 of F_{2s+3} at
    # t^(2s+4), over (2s+3)!, and B row 0, the only row V(0,4) reads,
    # stays exact
    monkeypatch.setattr(mirzakhani, "_rows", ([], []))
    rows = mirzakhani._moment_rows(12)
    for k in range(kind == "A", len(rows)):
        den, row = rows[k]
        step = 7 * math.factorial(2 * k + 1)
        if kind == "A":
            step //= 2
        new = math.lcm(den, step)
        lists = {r: [(t, c * (new // den)) for t, c in terms] for r, terms in row.items()}
        t, c = lists[0][0]  # the top power, first in its list
        lists[0][0] = (t, c + new // step)
        rows[k] = (new, lists)


class TestOrbitCheck:
    def test_asymmetric_pair_moment_is_caught(self, monkeypatch):
        # a moment that is no longer symmetric in (L1, Lj) breaks the symmetry
        # of every volume with a B-term; the representatives must notice
        bump_rows(monkeypatch, "B")
        store = VolumeStore()
        with pytest.raises(ConsistencyError, match="orbit-agreement"):
            mirzakhani_volume(0, 5, store)
        assert store.get(0, 5, provenance="mirzakhani") is None

    def test_orbit_agreement_message_is_pinned(self, monkeypatch):
        # the check compares integer numerators, and the message shows the
        # reach map as Fractions
        bump_rows(monkeypatch, "B")
        with pytest.raises(ConsistencyError) as caught:
            mirzakhani_volume(0, 5, VolumeStore())
        assert str(caught.value) == (
            "recursion output for (0,4) fails the orbit-agreement check at "
            "exponents (2, 0, 0, 0), pi^0: L1 exponent -> coefficient "
            "{0: Fraction(1, 2), 2: Fraction(9, 14)}"
        )


class TestMomentRows:
    def test_perturbed_a_rows_are_caught(self, monkeypatch):
        # the twin of TestOrbitCheck's B-row perturbation, made where the
        # kernel reads the A rows, at v^0 of B rows 1 and up
        bump_rows(monkeypatch, "A")
        for s, (den, row) in enumerate(a_rows(mirzakhani._rows[1])):
            got = {(t, 2 * s + 4 - t): Fraction(c, den) for t, c in row}
            fac = math.factorial(2 * s + 3)
            exact = {key: c / fac for key, c in reference_moment_F(s + 1).items()}
            exact[(2 * s + 4, 0)] += Fraction(1, 7 * fac)
            assert got == exact, s
        store = VolumeStore()
        with pytest.raises(ConsistencyError, match="orbit-agreement"):
            mirzakhani_volume(0, 5, store)
        assert store.get(0, 5, provenance="mirzakhani") is None

    def test_rows_equal_the_exact_moments(self, monkeypatch):
        # the rows come from the closed form in integers, grown on demand,
        # each over its least denominator
        monkeypatch.setattr(mirzakhani, "_rows", ([], []))
        mirzakhani._moment_rows(10)
        b_rows = mirzakhani._moment_rows(30)
        assert b_rows is mirzakhani._rows[1] and len(b_rows) == 30
        # A row s, read off B row s + 1, is F_{2s+3}(t) / (2s+3)! over its
        # least denominator: the B row's denominator at v^0 is never odd
        for s, (den, row) in enumerate(a_rows(b_rows)):
            assert math.gcd(den, *(c for _, c in row)) == 1
            got = {(t, 2 * s + 4 - t): Fraction(c, den) for t, c in row}
            fac = math.factorial(2 * s + 3)
            assert got == {key: c / fac for key, c in reference_moment_F(s + 1).items()}, s
        for k, (den, row) in enumerate(b_rows):
            assert math.gcd(den, *(c for terms in row.values() for _, c in terms)) == 1
            got = {
                (t, r, 2 * k + 2 - t - r): Fraction(c, den)
                for r, terms in row.items() for t, c in terms
            }
            fac = math.factorial(2 * k + 1)
            assert got == {key: c / fac for key, c in reference_pair_moment(k).items()}, k

    def test_each_moment_is_read_once(self, monkeypatch):
        # the table keeps each constant c_i = zeta(2i) (4^i - 2) / pi^(2i)
        # it computes, and computes them only when it grows, so a chain
        # computes each once; built for each node, closed V(8,0) read the
        # first moment 40 times
        monkeypatch.setattr(mirzakhani, "_rows", ([], []))
        cs, b_rows = mirzakhani._rows
        calls = Counter()

        def counted(half, original=mirzakhani._moment_rows):
            before, grows = list(cs), len(b_rows) < half
            rows = original(half)
            # new constants only when the table grows, and the kept ones
            # are the same objects ever after
            assert (len(cs) > len(before)) == grows
            assert all(c is k for c, k in zip(cs, before))
            calls[grows] += 1
            return rows

        monkeypatch.setattr(mirzakhani, "_moment_rows", counted)
        ensure_volume(VolumeStore(), 8, 0)
        # the top node V(8,1) has degree 44, so half 22
        assert len(cs) == 23 and len(b_rows) == 22
        assert calls[True] and calls[False]  # both paths ran


class TestIndex:
    def test_each_volume_is_indexed_at_most_twice(self, monkeypatch):
        # a volume is indexed once, kept on the volume for every node above
        # it, and once more, not kept, by the one node that reads it for
        # the connected term; indexing afresh in every node that read a
        # volume made 406 builds for the 44 volumes of closed V(8,0)
        builds = []
        original = mirzakhani._build_index

        def counted(orbits):
            builds.append(len(orbits))
            return original(orbits)

        monkeypatch.setattr(mirzakhani, "_build_index", counted)
        store = VolumeStore()
        ensure_volume(store, 8, 0)
        assert len(store.keys()) == 44
        assert len(builds) <= 2 * len(store.keys())


class TestSplits:
    def test_split_loop_looks_up_only_halves_that_exist(self, monkeypatch):
        # the splits are read by the tail length and the part sums the two
        # halves hold, so every lookup in a half's index is a hit; the node
        # V(2,5) of closed V(6,0) made 1,290 lookups for 732 hits when
        # every split was looked up at every g1, and makes 208 now
        class Counted(dict):
            def get(self, key, default=None):
                self.reads.append(key in self)
                return super().get(key, default)

        original = mirzakhani._build_index

        def counted(orbits):
            den, index = original(orbits)
            index = Counted(index)
            index.reads = []
            return den, index

        monkeypatch.setattr(mirzakhani, "_build_index", counted)
        g, n = 2, 5
        store = VolumeStore()
        for gg in range(g + 1):
            for nn in range(1, n + 2):
                if is_stable(gg, nn) and 2 * gg + nn < 2 * g + n:
                    mirzakhani_volume(gg, nn, store)
        halves = {
            id(vol): vol
            for g1 in range(g + 1)
            for n1 in range(1, n + 1)
            if is_stable(g1, n1) and is_stable(g - g1, n + 1 - n1)
            for vol in (store.get(g1, n1), store.get(g - g1, n + 1 - n1))
        }
        for vol in halves.values():
            if "_kernel_index" in vol.__dict__:
                vol.__dict__["_kernel_index"][1].reads.clear()
        mirzakhani_volume(g, n, store)
        reads = [hit for vol in halves.values() for hit in vol.__dict__["_kernel_index"][1].reads]
        assert len(reads) == 208
        assert all(reads)


class TestArithmetic:
    @pytest.mark.parametrize("g, n", [(3, 1), (1, 6)])
    def test_one_node_does_no_per_term_fraction_arithmetic(self, monkeypatch, g, n):
        # with every input stored, V(3,1) took 347 Fraction + and * calls
        # and V(1,6) 2,357 when each term was a Fraction product; integer
        # numerators build one Fraction per output coefficient instead
        store = VolumeStore()
        for gg in range(g + 1):
            for nn in range(1, n + 2):
                if is_stable(gg, nn) and 2 * gg + nn < 2 * g + n:
                    mirzakhani_volume(gg, nn, store)
        assert store.get(g, n) is None
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(a, b, method=getattr(Fraction, name)):
                calls.append(method)
                return method(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        vol = mirzakhani_volume(g, n, store)
        assert len(calls) <= 2 * len(vol.orbits)
        # the counter sees both operand orders
        seen = len(calls)
        assert 1 + Fraction(1, 2) == 2 * Fraction(3, 4)
        assert len(calls) == seen + 2


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
            return coeff_monomial(expand(vol), (0,) * n, 6 * g - 6 + 2 * n)

        errors = []
        for g in range(2, 8):
            r1 = 4 * (2 * g - 2) * at_zero(g, 0) / at_zero(g, 1)
            r2 = float(at_zero(g - 1, 2) / at_zero(g, 0)) / math.pi ** 2
            errors.append((g, abs(float(r1) - 1), abs(r2 - 1)))
        for (g, e1, e2), (h, f1, f2) in zip(errors, errors[1:]):
            assert f1 <= e1 and f2 <= e2
            assert h * f1 <= g * e1 and h * f2 <= g * e2
        assert errors[-1][1] < 0.01 and errors[-1][2] < 0.05

    # the kernel recursion to genus 9, once per class
    @pytest.fixture(scope="class")
    def store(self):
        return VolumeStore()

    def test_closed_volumes_genus_six_to_nine(self, store):
        expected = {
            6: "(2516292682076619940682627/100667911267123200000)*pi^30",
            7: "(57836500609415964441264863965730519/14128121232007335641088000000)*pi^36",
            8: "(1368123622965616841128459067826888556813/"
            "1421122782748973173309440000000)*pi^42",
            9: "(18023847789626070555169453784661940895203207456841/"
            "58595524689402363572010772070400000000)*pi^48",
        }
        for g, text in expected.items():
            assert str(ensure_volume(store, g, 0).poly) == text

    def test_mirzakhani_zograf_trend_to_genus_nine(self, store):
        # the trend above, further out: both errors keep falling like 1/g
        def at_zero(g, n):
            vol = ensure_volume(store, g, n, "mirzakhani")
            return vol.orbits[((0,) * n, 6 * g - 6 + 2 * n)]

        errors = []
        for g in range(2, 10):
            r1 = 4 * (2 * g - 2) * at_zero(g, 0) / at_zero(g, 1)
            r2 = float(at_zero(g - 1, 2) / at_zero(g, 0)) / math.pi ** 2
            errors.append((g, abs(float(r1) - 1), abs(r2 - 1)))
        for (g, e1, e2), (h, f1, f2) in zip(errors, errors[1:]):
            assert f1 <= e1 and f2 <= e2
            assert h * f1 <= g * e1 and h * f2 <= g * e2
        assert errors[-1][1] < 0.007 and errors[-1][2] < 0.04


class TestCrossPathRange:
    def test_lift_matches_recursion_beyond_the_acceptance_range(self):
        # past test_criterion_03's (0,4)..(0,8) and (1,2)..(1,5)
        from wpvol.compute import lift_volume

        lift_store, kernel_store = VolumeStore(), VolumeStore()
        for g, n in [(0, 9), (0, 10), (1, 6), (1, 7), (1, 8)]:
            lifted = lift_volume(lift_store, g, n)
            recursed = mirzakhani_volume(g, n, kernel_store)
            assert lifted.orbits == recursed.orbits, (g, n)
            assert expand(lifted) == expand(recursed), (g, n)
