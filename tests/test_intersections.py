import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from wpvol import intersections
from wpvol.compute import ensure_volume
from wpvol.intersections import (
    admissible,
    compositions,
    identity_cases,
    psi_kappa,
    volume_coefficient,
)
from wpvol.store import VolumeStore
from wpvol.volume import UnstableSurfaceError, is_stable
from dense_oracle import genus0_psi, reference_compositions


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


def cases(store, g, n, order):
    """identity_cases of V(g, n+1) against V(g, n), by (alpha, m)."""
    bigger, smaller = ensure_volume(store, g, n + 1), ensure_volume(store, g, n)
    return {
        (alpha, m): (lhs, rhs)
        for alpha, m, lhs, rhs in identity_cases(bigger, smaller, order)
    }


class TestStringIdentity:
    def test_classical_case(self, store):
        # m = 0 at (0,3): <psi_1> over 4 points = <1> over 3 points
        assert cases(store, 0, 3, 0)[(1, 0, 0), 0] == (1, 1)

    def test_torus_with_kappa(self, store):
        # <psi_1 kappa_1> - <psi_1 psi_2> over (1,2) = <kappa_1> over (1,1)
        assert cases(store, 1, 1, 0)[(1,), 1] == (Fraction(1, 24), Fraction(1, 24))
        assert ((0,), 1) not in cases(store, 1, 1, 0)

    def test_dimension_violation_is_vacuous(self, store):
        # |alpha| + m = 0 misses dim M(0,4) = 1: not a case, and both sides read 0
        found = cases(store, 0, 3, 0)
        assert list(found) == list(admissible(1, 3))
        assert ((0, 0, 0), 0) not in found
        assert volume_coefficient(ensure_volume(store, 0, 4), (0, 0, 0, 0), 0) == 0
        assert volume_coefficient(ensure_volume(store, 0, 3), (-1, 0, 0), 0) == 0

    def test_small_exhaustive(self, store):
        for g, n in [(0, 3), (0, 4), (1, 1)]:
            found = cases(store, g, n, 0)
            assert list(found) == list(admissible(3 * g - 2 + n, n))
            for (alpha, m), (lhs, rhs) in found.items():
                assert lhs == rhs, (g, n, alpha, m, lhs, rhs)


class TestDilatonIdentity:
    def test_classical_case(self, store):
        # m = 0 at (1,1): <psi_1 psi_2> over (1,2) = 1 * <psi_1> over (1,1)
        assert cases(store, 1, 1, 1)[(1,), 0] == (Fraction(1, 24), Fraction(1, 24))

    def test_four_points(self, store):
        assert cases(store, 0, 4, 1)[(1, 0, 0, 0), 0] == (2, 2)

    def test_vacuous(self, store):
        # |alpha| + m = 0 misses dim M(1,1) = 1: not a case, and both sides read 0
        found = cases(store, 1, 1, 1)
        assert list(found) == list(admissible(1, 1))
        assert ((0,), 0) not in found
        assert volume_coefficient(ensure_volume(store, 1, 2), (0, 1), 0) == 0
        assert volume_coefficient(ensure_volume(store, 1, 1), (0,), 0) == 0

    def test_small_exhaustive(self, store):
        for g, n in [(0, 3), (0, 4), (1, 1)]:
            found = cases(store, g, n, 1)
            assert list(found) == list(admissible(3 * g - 3 + n, n))
            for (alpha, m), (lhs, rhs) in found.items():
                assert lhs == rhs, (g, n, alpha, m, lhs, rhs)


@pytest.mark.parametrize("order", [0, 1], ids=["string2_case", "dilaton2_case"])
def test_each_sorted_alpha_is_read_once_per_pair(store, monkeypatch, order):
    # both sides are symmetric in alpha, so a rearrangement reads nothing:
    # the reads are those of one case per (sorted alpha, m)
    g, n = 1, 4
    bigger, smaller = ensure_volume(store, g, n + 1), ensure_volume(store, g, n)
    reads = []
    read = intersections._read
    monkeypatch.setattr(intersections, "_read", lambda *args: reads.append(args) or read(*args))
    found = list(identity_cases(bigger, smaller, order))
    monkeypatch.undo()
    keys = {(tuple(sorted(alpha, reverse=True)), m) for alpha, m, _, _ in found}
    assert [(alpha, m) for alpha, m, _, _ in found] == list(admissible(3 * g - 2 + n - order, n))
    assert len(found) > 2 * len(keys)
    bigger_at, smaller_at = intersections._numerators(bigger)[1], intersections._numerators(smaller)[1]
    assert sum(at is bigger_at for at, _, _ in reads) == sum(m + 1 for _, m in keys)
    assert sum(at is smaller_at for at, _, _ in reads) == sum(
        1 if order else sum(map(bool, alpha)) for alpha, _ in keys
    )
    # every case, a rearrangement or not, carries its own sides
    for alpha, m, lhs, rhs in found:
        assert lhs == sum(
            (-1) ** j * math.comb(m, j) * psi_kappa(g, n + 1, alpha + (j + order,), m - j, store)
            for j in range(m + 1)
        )
        if order:
            assert rhs == (2 * g - 2 + n) * psi_kappa(g, n, alpha, m, store)
        else:
            assert rhs == sum(
                psi_kappa(g, n, alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:], m, store)
                for k in range(n) if alpha[k]
            )


@pytest.mark.parametrize("order", [0, 1], ids=["string2_case", "dilaton2_case"])
def test_identity_case_rejects_wrong_alpha_length(store, order):
    # a bigger volume with the wrong n, so alpha + (j,) has the wrong length,
    # the wrong genus, or an order past dilaton is refused before any read
    v03, v04, v14 = (ensure_volume(store, g, n) for g, n in [(0, 3), (0, 4), (1, 4)])
    for args in [(v04, v04, order), (v14, v03, order), (v04, v03, order + 2)]:
        with pytest.raises(ValueError, match=r"expected \(g, n\+1\)"):
            next(identity_cases(*args))


def test_compositions_cover_simplex():
    items = list(compositions(3, 2))
    assert items == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []
    # in the recursive order, which the verify report lists its cases in
    for total in range(9):
        for parts in range(6):
            assert list(compositions(total, parts)) == list(reference_compositions(total, parts))


def test_nonnegativity_observed(store):
    # every balanced psi/kappa_1 number of a stable V(g, n), g <= 2, n <= 5,
    # is nonnegative: the volumes' orbit coefficients are all positive there
    negatives, checked = [], 0
    for g, n in product(range(3), range(6)):
        if not is_stable(g, n):
            continue
        for alpha, m in admissible(3 * g - 3 + n, n):
            value = psi_kappa(g, n, alpha, m, store)
            checked += 1
            if value < 0:
                negatives.append((g, n, alpha, m, value))
    assert negatives == []
    assert checked == 2105


def chained_psi_kappa(g, n, alpha, kappa, store):
    """Reference: the coefficient times alpha! kappa! 2^|alpha| / 2^kappa,
    one Fraction multiplication per factor."""
    vol = ensure_volume(store, g, n)
    pattern = tuple(sorted((2 * a for a in alpha), reverse=True))
    rational = vol.orbits.get((pattern, 2 * kappa), Fraction(0))
    for a in alpha:
        rational *= math.factorial(a)
    rational *= math.factorial(kappa)
    return rational * Fraction(2 ** sum(alpha), 2 ** kappa)


def test_psi_kappa_matches_chained_formula(store):
    checked = 0
    for g, n in product(range(3), range(6)):
        if not is_stable(g, n):
            continue
        dimension = 3 * g - 3 + n
        for kappa in range(dimension + 1):
            for alpha in compositions(dimension - kappa, n):
                value = psi_kappa(g, n, alpha, kappa, store)
                assert type(value) is Fraction
                assert value == chained_psi_kappa(g, n, alpha, kappa, store)
                checked += 1
    assert checked == 2105  # sum of C(3g - 3 + 2n, n) over the stable (g, n)
