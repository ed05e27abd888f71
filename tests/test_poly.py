import hashlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import wpvol.poly
from wpvol.cli import export_document
from wpvol.compute import ensure_volume, lift_volume
from wpvol.poly import Poly
from wpvol.store import VolumeStore, serialize_entry
from conftest import random_poly
from dense_oracle import (
    Dense,
    add,
    arrangements,
    coeff_monomial,
    coeff_pi,
    const,
    ddx,
    divide_by_var,
    drop_var,
    eval_two_pi_i,
    eval_zero,
    expand,
    is_homogeneous,
    is_symmetric,
    mul,
    pi,
    scale,
    var,
)


def L(n, k, power=1):
    return var(n, k, power)


def random_even_poly(rng, n_vars) -> Dense:
    """random_poly with every L exponent doubled, as volumes have."""
    p = random_poly(rng, n_vars)
    return Dense(
        n_vars,
        {tuple(2 * e for e in key[:-1]) + key[-1:]: c for key, c in p.terms.items()},
    )


class TestConstruction:
    def test_zero_terms_dropped(self):
        p = Dense.from_terms(1, {(2, 0): 1, (0, 1): 0})
        assert list(p.terms) == [(2, 0)]

    def test_additive_inverse_is_empty(self):
        p = L(1, 1, 2)
        assert not add(p, scale(p, -1)).terms

    def test_monomial_product(self):
        assert mul(L(1, 1, 2), pi(1, 2)) == Dense.from_terms(1, {(2, 2): 1})

    def test_scale_produces_torus_seed(self, v11):
        shape = add(L(1, 1, 2), scale(pi(1, 2), 4))
        assert scale(shape, Fraction(1, 48)) == expand(v11)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            add(L(1, 1), L(2, 1))
        with pytest.raises(ValueError):
            mul(L(1, 1), L(2, 1))


class TestCalculus:
    def test_ddx_power_rule(self):
        assert ddx(L(1, 1, 2), 1) == scale(L(1, 1), 2)

    def test_ddx_of_constant_in_that_variable(self):
        assert not ddx(pi(1, 2), 1)

    def test_ddx_other_variable(self):
        p = mul(L(2, 1), L(2, 2, 3))
        assert ddx(p, 2) == scale(mul(L(2, 1), L(2, 2, 2)), 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            ddx(L(2, 1), 3)
        with pytest.raises(IndexError):
            ddx(L(2, 1), 0)


class TestSubstitution:
    def test_square_becomes_minus_four_pi_squared(self):
        assert eval_two_pi_i(L(1, 1, 2), 1) == scale(pi(1, 2), -4)

    def test_odd_power_rejected(self):
        # L1 = 2*pi*i is imaginary; volumes never contain odd powers
        with pytest.raises(ValueError):
            eval_two_pi_i(L(1, 1), 1)

    def test_root_of_boundary_factor(self):
        p = add(L(1, 1, 2), scale(pi(1, 2), 4))
        assert not eval_two_pi_i(p, 1)

    def test_eval_zero(self):
        p = add(mul(L(2, 1), L(2, 2)), L(2, 2, 2))
        assert eval_zero(p, 1) == L(2, 2, 2)

    def test_coeff_pi_reads_off(self):
        halves = (scale(L(3, k, 2), Fraction(1, 2)) for k in (1, 2, 3))
        p = add(scale(pi(3, 2), 2), *halves)
        assert coeff_pi(p, 2) == const(3, 2)

    def test_substitutions_are_ring_homomorphisms(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            p = random_even_poly(rng, n)
            q = random_even_poly(rng, n)
            k = rng.randint(1, n)
            at_root = [eval_two_pi_i(p, k), eval_two_pi_i(q, k)]
            assert eval_two_pi_i(mul(p, q), k) == mul(*at_root)
            assert eval_zero(mul(p, q), k) == mul(eval_zero(p, k), eval_zero(q, k))
            assert eval_two_pi_i(add(p, q), k) == add(*at_root)


class TestRingAxioms:
    def test_randomized(self, rng):
        for _ in range(30):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            q = random_poly(rng, n)
            r = random_poly(rng, n)
            assert add(add(p, q), r) == add(p, add(q, r))
            assert add(p, q) == add(q, p)
            assert mul(p, q) == mul(q, p)
            assert mul(mul(p, q), r) == mul(p, mul(q, r))
            assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
            c = Fraction(3, 7)
            assert scale(add(p, q), c) == add(scale(p, c), scale(q, c))


class TestStructure:
    def test_is_symmetric_false(self):
        assert not is_symmetric(mul(L(2, 1, 2), L(2, 2)))

    def test_is_symmetric_true(self):
        p = add(L(2, 1, 2), L(2, 2, 2))
        assert is_symmetric(p)

    def test_symmetric_needs_equal_coefficients(self):
        p = add(L(2, 1, 2), scale(L(2, 2, 2), 2))
        assert not is_symmetric(p)

    def test_embed(self):
        p = mul(L(2, 1), L(2, 2))
        q = p.embed(4)
        assert q.n_vars == 4
        assert coeff_monomial(q, (1, 1, 0, 0), 0) == 1

    def test_embed_cannot_shrink(self):
        with pytest.raises(ValueError):
            L(3, 1).embed(2)

    def test_drop_var(self):
        p = drop_var(mul(L(3, 1), L(3, 3)), 2)
        assert p == mul(L(2, 1), L(2, 2))
        with pytest.raises(ValueError):
            drop_var(L(3, 2), 2)

    def test_divide_by_var(self):
        p = mul(L(2, 1, 3), L(2, 2))
        assert divide_by_var(p, 1) == mul(L(2, 1, 2), L(2, 2))
        with pytest.raises(ValueError):
            divide_by_var(L(2, 2), 1)

    def test_homogeneity_helpers(self):
        p = add(L(2, 1, 2), pi(2, 2))
        assert is_homogeneous(p, 2)
        assert not is_homogeneous(add(p, const(2, 1)), 2)


class TestFormatting:
    def test_torus_seed_plain(self, v11):
        assert str(v11.poly) == "(1/48)*L1^2 + (1/12)*pi^2"

    def test_integer_coefficients_bare(self):
        p = Poly(1, {((0,), 2): Fraction(2)})
        assert str(p) == "2*pi^2"

    def test_zero(self):
        assert str(Poly(2, {})) == "0"

    def test_latex(self, v11):
        assert v11.poly.to_latex() == "\\frac{1}{48}L_{1}^{2} + \\frac{1}{12}\\pi^{2}"

    def test_canonical_order_is_stable(self, rng):
        # the text does not depend on the order the orbits were inserted in
        for _ in range(20):
            p = random_poly(rng, 3, max_terms=8)
            orbits = {
                (tuple(sorted(key[:-1], reverse=True)), key[-1]): c
                for key, c in p.terms.items()
            }
            forward = Poly(3, orbits)
            backward = Poly(3, dict(reversed(list(orbits.items()))))
            assert str(forward) == str(backward)
            assert forward.to_latex() == backward.to_latex()


def test_rendering_formats_each_orbit_coefficient_once(monkeypatch):
    # V(0,10) has 19,448 monomials in 45 orbits; each orbit shares one
    # coefficient object, so each output formats at most 45 coefficients
    formatted = []
    coefficient = wpvol.poly._coefficient

    def counted(c, latex):
        formatted.append(c)
        return coefficient(c, latex)

    vol = lift_volume(VolumeStore(), 0, 10)
    assert (len(vol.orbits), len(vol.poly)) == (45, 19448)
    monkeypatch.setattr(wpvol.poly, "_coefficient", counted)
    for render in (str, Poly.to_latex):
        formatted.clear()
        render(vol.poly)
        assert 0 < len(formatted) <= 45
    fraction_str = Fraction.__str__

    def counted_str(c):
        formatted.append(c)
        return fraction_str(c)

    monkeypatch.setattr(Fraction, "__str__", counted_str)
    for write in (export_document, serialize_entry):
        formatted.clear()
        write(vol, "genus0_lift")
        assert 0 < len(formatted) <= 45


# sha256 of the texts of lift V(0,3..11) and V(1,1..9), closed V(2..6,0)
# and kernel V(2,1..5), joined by newlines, as the term-at-a-time renderer
# and ``json.dumps`` wrote them; "json" is the JSON export
PINNED_DIGESTS = {
    "str": "cfc3e10085daf14e86505b486c381d822693f3bcfab245a3ab8e8f5e6aa04cee",
    "latex": "da099028003e65cf4b1011c5a8be438a1ac67b7fbdf2492e8e501628dd02f2b1",
    "json": "0f93c8b6976da7141fa4c8228cd84526fc7bfaedc5f382b1190725434a5749d2",
}


def test_rendered_bytes_match_pinned_digests():
    store = VolumeStore()
    vols = [lift_volume(store, g, n) for g, top in ((0, 11), (1, 9))
            for n in range(3 - 2 * g, top + 1)]
    vols += [ensure_volume(store, g, 0) for g in range(2, 7)]
    vols += [ensure_volume(store, 2, n) for n in range(1, 6)]
    texts = {
        "str": [str(v.poly) for v in vols],
        "latex": [v.poly.to_latex() for v in vols],
        "json": [export_document(v, store.find(v.g, v.n)[1]) for v in vols],
    }
    digests = {kind: hashlib.sha256("\n".join(t).encode()).hexdigest()
               for kind, t in texts.items()}
    assert digests == PINNED_DIGESTS


def test_rendered_poly_keeps_only_its_texts_and_warm_renders_format_nothing(monkeypatch):
    vol = lift_volume(VolumeStore(), 0, 10)
    closed = ensure_volume(VolumeStore(), 2, 0)
    p = vol.poly
    first = (str(p), p.to_latex(), export_document(vol, "genus0_lift"), str(closed.poly))
    # no walk, leaf or head outlives the render: the orbits and the two texts
    assert [getattr(p, name) for name in Poly.__slots__] == [10, vol.orbits, p._texts]
    assert p._texts == {False: first[0], True: first[1]} and len(p) == 19448
    formatted = []
    coefficient = wpvol.poly._coefficient
    monkeypatch.setattr(
        wpvol.poly, "_coefficient", lambda *a: formatted.append(a) or coefficient(*a)
    )
    again = (str(p), p.to_latex(), export_document(vol, "genus0_lift"), str(closed.poly))
    assert again == first and formatted == []


def test_the_kept_text_does_not_follow_the_callers_map():
    # Poly copies its map, so the text it keeps, and the LaTeX it renders
    # later, stay those of the map it was given
    orbits = {((2, 0), 0): Fraction(1, 2), ((0, 0), 2): Fraction(3)}
    fresh = Poly(2, dict(orbits))
    p = Poly(2, orbits)
    text = str(p)
    orbits[(2, 2), 0] = Fraction(5)
    orbits[(0, 0), 2] = Fraction(-1)
    del orbits[(2, 0), 0]
    assert p.orbits == fresh.orbits and p.orbits != orbits
    assert str(p) is text and text == str(fresh) == "(1/2)*L1^2 + (1/2)*L2^2 + 3*pi^2"
    assert p.to_latex() == fresh.to_latex()


def test_the_per_monomial_walk_is_gone():
    pattern = re.compile(r"\.walk\(|\bdef walk\b|\b_walk\b|_EXPONENTS|\b_Exponents\b")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(wpvol.poly.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == [] and not hasattr(Poly, "walk")


def test_arrangements_distinct_count():
    items = list(arrangements((2, 2, 0, 0)))
    assert len(items) == len(set(items)) == 6
    assert all(sorted(a, reverse=True) == [2, 2, 0, 0] for a in items)


def test_from_orbits_inverts_orbit_coefficients(rng):
    from conftest import random_symmetric_even

    for _ in range(30):
        n = rng.randint(0, 5)
        p = random_symmetric_even(rng, n, rng.randint(0, 4))
        orbits = p.orbit_coefficients()
        assert all(list(pattern) == sorted(pattern, reverse=True) for pattern, _ in orbits)
        assert Dense.from_orbits(n, orbits) == p
        assert Dense.from_orbits(n, orbits).orbit_coefficients() == orbits
        # the package keeps the orbits, and counts the monomials of the term map
        assert (Poly(n, orbits).orbits, len(Poly(n, orbits))) == (orbits, len(p.terms))


def test_orbit_backed_counts_without_expanding():
    orbits = {((2, 0, 0), 0): Fraction(1, 2), ((2, 2, 2), 2): Fraction(3)}
    p = Poly(3, orbits)
    assert (len(p), bool(p)) == (4, True)
    assert str(p) == "(1/2)*L1^2 + (1/2)*L2^2 + (1/2)*L3^2 + 3*L1^2*L2^2*L3^2*pi^2"
    assert not hasattr(p, "terms") and p.orbits == orbits
    empty = Poly(2, {})
    assert (len(empty), bool(empty), str(empty), empty.to_latex()) == (0, False, "0", "0")
