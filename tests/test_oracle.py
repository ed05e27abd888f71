"""The orbit relations and the renderer against their twins in
``dense_oracle``.

Every evaluation at L = 2*pi*i in the package runs on symmetry orbits.
These tests expand each orbit result into a term map and require it to
equal the dense reference, monomial for monomial, on the real volumes, on
random symmetric perturbations of them, and on random symmetric
polynomials.  A further test checks that computing and verifying build no
text form.  The rendering tests require the orbit walk, in the printed
text and in the term list of the JSON export, to match the term-at-a-time
reference byte for byte, the bytes not to depend on the depth where the
walk keeps its heads, and the walk to build no term map.  The kernel
tests require the integer recursion to give the orbit maps, and so the
text, of the Fraction recursion.
"""

from fractions import Fraction
from functools import cached_property

import pytest

import dense_oracle as dense
from conftest import (
    partitions,
    random_rational,
    random_symmetric_even,
    reversed_split_product,
)
import wpvol.cli
import wpvol.poly
from wpvol import mirzakhani
from wpvol.cli import export_document, run_verification
from wpvol.compute import ensure_volume, lift_volume
from wpvol.mirzakhani import mirzakhani_volume
from wpvol.poly import Poly, _arrangement_count
from wpvol.store import VolumeStore, parse_entry, serialize_entry
from wpvol.stringdilaton import closed_volume, relation_defect
from wpvol.symmetric import at_two_pi_i
from wpvol.volume import ConsistencyError, VolumePolynomial, is_stable

# the dense reference of ``relation_defect`` at each order
RELATIONS = (dense.string_defect, dense.dilaton_defect, dense.second_derivative_defect)

PAIRS = [
    (g, n)
    for g in range(3)
    for n in range(6)
    if is_stable(g, n) and is_stable(g, n + 1)
]


@pytest.fixture(scope="module")
def store():
    return VolumeStore()


def volume(store, g, n):
    method = "lift" if g <= 1 and n > 0 else "mirzakhani"
    return ensure_volume(store, g, n, method)


def perturbed(rng, vol):
    """vol plus a random symmetric, even, homogeneous polynomial, by orbit."""
    half = vol.degree // 2
    orbits = dict(vol.orbits)
    for _ in range(3):
        k = rng.randint(0, half)
        parts = list(partitions(half - k, vol.n))
        if not parts:
            continue
        pattern = tuple(2 * p for p in rng.choice(parts))
        key = (pattern + (0,) * (vol.n - len(pattern)), 2 * k)
        orbits[key] = orbits.get(key, 0) + random_rational(rng, allow_zero=False)
    return VolumePolynomial(vol.g, vol.n, {key: c for key, c in orbits.items() if c})


@pytest.mark.parametrize("g, n", PAIRS)
def test_relations_match_dense_on_volumes(store, g, n):
    smaller, bigger = volume(store, g, n), volume(store, g, n + 1)
    for order, dense_defect in enumerate(RELATIONS):
        expected = dense_defect(bigger, smaller)
        assert not expected, (order, g, n)
        defect = relation_defect(bigger, smaller, order)
        assert dense.Dense.from_orbits(n, defect).embed(n + 1) == expected
        assert not defect


@pytest.mark.parametrize("g, n", PAIRS)
def test_relations_match_dense_on_perturbations(store, rng, g, n):
    smaller, bigger = volume(store, g, n), volume(store, g, n + 1)
    for _ in range(3):
        bad = perturbed(rng, bigger)
        for order, dense_defect in enumerate(RELATIONS):
            expected = dense_defect(bad, smaller)
            defect = relation_defect(bad, smaller, order)
            got = dense.Dense.from_orbits(n, defect).embed(n + 1)
            assert got.n_vars == expected.n_vars == n + 1
            assert got == expected, (order, g, n)
            # as ``verify`` prints it; L_{n+1} is absent from the reference
            assert str(Poly(n, defect)) == dense.render(expected)
            assert (not defect) == (not expected)


def test_at_two_pi_i_matches_dense(rng):
    for _ in range(40):
        m = rng.randint(1, 5)
        p = random_symmetric_even(rng, m, rng.randint(0, 5))
        orbits = p.orbit_coefficients()
        dense_forms = (
            p,
            dense.divide_by_var(dense.ddx(p, m), m),
            dense.ddx(dense.ddx(p, m), m),
        )
        for derivatives, q in enumerate(dense_forms):
            expected = dense.drop_var(dense.eval_two_pi_i(q, m), m)
            assert dense.Dense.from_orbits(m - 1, at_two_pi_i(orbits, derivatives)) == expected


def test_at_two_pi_i_rejects_odd_exponents():
    with pytest.raises(ValueError, match="odd"):
        at_two_pi_i({((2, 1), 0): Fraction(1)})


# The closed volume: the package reads V(g, 0) off V(g, 1) at 2*pi*i through
# the string and dilaton relations at n = 0; the oracle divides V(g, 1) by
# (L^2 + 4 pi^2) densely and evaluates the cofactor.  At g = 1 only the
# remainder, the factor check of ``verify``, is compared.


@pytest.mark.parametrize("g", [1, 2, 3])
def test_cofactor_and_closed_volume_match_dense(store, g):
    v = volume(store, g, 1)
    # plus (L^2 + 4 pi^2) * pi^(6g - 6): still divisible
    shifted = dict(v.orbits)
    for key, c in ((((2,), 6 * g - 6), 1), (((0,), 6 * g - 4), 4)):
        shifted[key] = shifted.get(key, 0) + c
    shifted = VolumePolynomial(g, 1, {key: c for key, c in shifted.items() if c})
    for vol in (v, shifted):
        dense.boundary_cofactor(vol)  # divides, or raises
        assert at_two_pi_i(vol.orbits) == {}
    if g >= 2:
        assert dense.expand(closed_volume(v)) == dense.closed_volume(v)
        assert closed_volume(v).orbits == volume(store, g, 0).orbits
        # the identity holds for every divisible V(g, 1), not only volumes
        assert dense.expand(closed_volume(shifted)) == dense.closed_volume(shifted)
        assert closed_volume(shifted).orbits != closed_volume(v).orbits


@pytest.mark.parametrize("g", [1, 2, 3])
def test_cofactor_remainder_matches_dense(store, rng, g):
    v = volume(store, g, 1)
    for _ in range(3):
        bad = perturbed(rng, v)
        remainder = at_two_pi_i(bad.orbits)
        try:
            dense.boundary_cofactor(bad)
        except ConsistencyError as exc:
            assert dense.Dense.from_orbits(0, remainder).embed(1) == exc.defect
            if g >= 2:
                with pytest.raises(ConsistencyError) as info:
                    closed_volume(bad)
                assert str(info.value) == str(exc)
                assert dense.expand(info.value.defect) == exc.defect
                assert str(info.value.defect) == dense.render(exc.defect)
        else:
            assert remainder == {}
            if g >= 2:
                assert dense.expand(closed_volume(bad)) == dense.closed_volume(bad)


def test_compute_and_verify_build_no_dense_view(monkeypatch):
    built = []
    dense_view = VolumePolynomial.__dict__["poly"]

    def counted(vol):
        built.append((vol.g, vol.n))
        return dense_view.func(vol)

    view = cached_property(counted)
    view.__set_name__(VolumePolynomial, "poly")
    monkeypatch.setattr(VolumePolynomial, "poly", view)

    store = VolumeStore()
    lift_volume(store, 0, 12)
    lift_volume(store, 1, 10)
    report = run_verification(store, "all", 2, 5)
    assert report["failed"] == 0
    assert built == []
    # the counter sees a dense view when one is built
    str(store.get(0, 4).poly)
    assert built == [(0, 4)]


# ----------------------------------------------------------------------
# the kernel recursion

KERNEL = (
    [(g, n) for g in range(4) for n in range(1, 6) if is_stable(g, n)]
    + [(0, 9), (1, 7)]
)


@pytest.fixture(scope="module")
def reference_store():
    return VolumeStore()


def reference(reference_store, g, n):
    if n == 0:
        return closed_volume(dense.reference_volume(g, 1, reference_store))
    return dense.reference_volume(g, n, reference_store)


def assert_same_volume(got: VolumePolynomial, expected: VolumePolynomial) -> None:
    assert got.orbits == expected.orbits
    assert str(got.poly) == str(expected.poly)


@pytest.mark.parametrize("g, n", KERNEL)
def test_kernel_matches_fraction_reference(store, reference_store, g, n):
    assert_same_volume(mirzakhani_volume(g, n, store), reference(reference_store, g, n))


@pytest.mark.parametrize("g", range(2, 8))
def test_closed_volumes_match_fraction_reference(store, reference_store, g):
    assert_same_volume(ensure_volume(store, g, 0), reference(reference_store, g, 0))


@pytest.mark.parametrize("g, n", [(0, 7), (1, 5), (2, 3), (3, 1), (3, 2)])
def test_kernel_in_reversed_split_order_matches_reference(
    monkeypatch, reference_store, g, n
):
    monkeypatch.setattr(mirzakhani, "product", reversed_split_product)
    reversed_order = mirzakhani_volume(g, n, VolumeStore())
    assert_same_volume(reversed_order, reference(reference_store, g, n))


# The kernel convolves each split once with its mirror, weight 2, and a
# diagonal split (g1 = g - g1, beta1 == beta2) once, weight 1.  V(4,1)
# (beta empty), V(2,3) and V(2,5) have diagonal splits; V(4,2) and V(2,4),
# with an odd number of tail exponents, have g1 = g - g1 pairs that are all
# off the diagonal, one of each taken.  The reference sums ordered splits.
@pytest.mark.parametrize("g, n", [(4, 1), (4, 2), (2, 4), (2, 3), (2, 5)])
@pytest.mark.parametrize("reverse", [False, True])
def test_mirror_fold_matches_reference(monkeypatch, reference_store, g, n, reverse):
    if reverse:
        monkeypatch.setattr(mirzakhani, "product", reversed_split_product)
    folded = mirzakhani_volume(g, n, VolumeStore())
    assert_same_volume(folded, reference(reference_store, g, n))


def test_kept_index_serves_only_its_own_volume(rng):
    # the index a volume keeps must not serve another volume of the same
    # (g, n): warm the real V(0,5)'s index, then compute V(0,6) over a
    # perturbed V(0,5) in another store, by the kernel and the reference
    warm = VolumeStore()
    real = mirzakhani_volume(0, 5, warm)
    mirzakhani_volume(0, 6, warm)
    fake = perturbed(rng, real)
    assert fake.orbits != real.orbits
    outcomes = []
    for recursion in (mirzakhani_volume, dense.reference_volume):
        store = VolumeStore()
        store.put(fake, "mirzakhani")
        try:
            outcomes.append(recursion(0, 6, store).orbits)
        except ConsistencyError:
            outcomes.append(ConsistencyError)
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# rendering

RENDERED = (
    [(g, n) for g in range(3) for n in range(6) if is_stable(g, n)]
    + [(0, 10), (1, 8)]
    + [(g, 0) for g in range(3, 6)]
)


def assert_renders_like_dense(p: Poly) -> None:
    assert str(p) == dense.render(p)
    assert p.to_latex() == dense.render_latex(p)


@pytest.mark.parametrize("g, n", RENDERED)
def test_render_matches_dense_on_volumes(store, g, n):
    vol = volume(store, g, n)
    assert_renders_like_dense(vol.poly)
    assert export_document(vol, "mirzakhani") == dense.serialize_entry(vol, "mirzakhani")
    # a volume read back from its cache document renders alike
    parsed, _ = parse_entry(serialize_entry(vol, "mirzakhani"))
    assert_renders_like_dense(parsed.poly)
    assert str(parsed.poly) == str(vol.poly)


def test_render_matches_dense_on_string_defect(store, rng):
    smaller, bigger = volume(store, 1, 3), volume(store, 1, 4)
    orbits = relation_defect(perturbed(rng, bigger), smaller, 0)
    # as the verify detail prints it; the one embedding the package prints,
    # the closed-volume remainder in L1, is test_cofactor_remainder_matches_dense
    defect = Poly(3, orbits)
    assert defect
    assert_renders_like_dense(defect)
    assert dense.render(defect) == dense.render(dense.Dense.from_orbits(3, orbits).embed(4))


def random_orbit_map(rng, n: int, shared: list) -> dict:
    """Orbits with any exponents and several pi exponents, so not homogeneous;
    fractional, integer and unit coefficients of both signs, some of them
    objects from ``shared`` that other orbits hold too."""
    orbits = {}
    for _ in range(rng.randint(0, 8)):
        pattern = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        if rng.random() < 0.4:
            c = rng.choice(shared)
        else:
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 3, 8]))
        orbits[pattern, rng.randint(0, 3)] = c
    return orbits


def coverage(orbits: dict, n: int) -> set:
    """The kinds of input an orbit map exercises."""
    seen = {n, "nonzero" if orbits else "zero"}
    if sum(_arrangement_count(pattern, n) for pattern, _ in orbits) == 1:
        seen.add("one monomial")
    if ((0,) * n, 0) in orbits:
        seen.add("constant")
    if len({pi_exp for _, pi_exp in orbits}) > 1:
        seen.add("several pi")
    if len({sum(pattern) + pi_exp for pattern, pi_exp in orbits}) > 1:
        seen.add("inhomogeneous")
    values = list(orbits.values())
    if len({id(c) for c in values}) < len(values):
        seen.add("shared")
    for (pattern, pi_exp), c in orbits.items():
        seen.add("negative" if c < 0 else "positive")
        if abs(c) == 1:
            seen.add("unit")
            # some term's first factor is L_{HEAD+1} or later, or pi alone:
            # the walk below the heads puts it in, and plain text drops its "*"
            head = wpvol.poly.HEAD
            if n >= head + 2 and pattern.count(0) >= head and (pi_exp or any(pattern)):
                seen.add("unit past heads")
        elif c.denominator == 1:
            seen.add("integer")
    if orbits:
        # the canonically first term, lowest pi then highest lex: its sign is
        # cut, and a unit coefficient drops its first factor's separator
        (pattern, pi_exp), c = min(orbits.items(), key=lambda i: (i[0][1], [-e for e in i[0][0]]))
        if c < 0:
            seen.add("negative first term")
        if abs(c) == 1 and (pi_exp or any(pattern)):
            seen.add("unit first term")
    return seen


COVERED = set(range(7)) | {
    "zero", "nonzero", "constant", "one monomial", "several pi", "inhomogeneous", "shared",
    "negative", "positive", "unit", "integer", "unit past heads",
    "unit first term", "negative first term",
}


# (n, orbit map) inputs that the random ones rarely or never draw.  At the
# field bounds: n = 9 with the largest sum of exponents 16, so the count
# fields of 4 and 2 hold at most 4 and 8, and both counts reach that bound;
# a field one bit short overflows into the next.
AT_FIELD_BOUNDS = (9, {((4, 4, 4, 4) + (0,) * 5, 0): Fraction(1), ((2,) * 8 + (0,), 0): Fraction(-5, 12)})
# Malformed lift input reaches the text edge through ``LiftError.defect``,
# which the CLI prints: negative, odd and inhomogeneous exponents.
MALFORMED = [
    (2, {((4, -2), 0): Fraction(1)}),
    (5, {((6, -2, -2, -2, -2), 0): Fraction(1), ((2, 2, 0, 0, 0), 0): Fraction(1, 3)}),
    (3, {((3, 1, -1), 2): Fraction(-2), ((5, 0, 0), -1): Fraction(7, 3), ((0, 0, -4), 0): Fraction(1)}),
]


# Unit coefficients whose first printed factor is L_4 or later, or pi alone,
# next to a term with no unit coefficient; from n = 6 on, past the depth-4
# heads, which the random maps (n <= 6) seldom reach.
UNIT_PAST_HEADS = [
    (5, {((2, 0, 0, 0, 0), 0): Fraction(1), ((0,) * 5, 2): Fraction(-1)}),
    (6, {((4, 2, 0, 0, 0, 0), 1): Fraction(-1), ((2, 2, 2, 0, 0, 0), 0): Fraction(1, 3)}),
    (7, {((0,) * 7, 1): Fraction(1), ((6,) + (0,) * 6, 0): Fraction(5, 2)}),
    (8, {((2,) + (0,) * 7, 0): Fraction(-1), ((4, 4, 2, 2, 2, 0, 0, 0), 2): Fraction(7)}),
]


# The canonically first term with a unit coefficient and a factor, or
# negative: L1^2*L2^2 alone, -(7/2)*L1^2*pi, and -pi alone past the heads.
FIRST_TERMS = [
    (3, {((2, 2, 0), 0): Fraction(1), ((4, 0, 0), 2): Fraction(3, 5)}),
    (2, {((2, 0), 1): Fraction(-7, 2), ((0, 0), 2): Fraction(1)}),
    (6, {((0,) * 6, 1): Fraction(-1), ((2,) * 6, 3): Fraction(5)}),
]


def orbit_maps(rng, shared: list, *fixed):
    """The fixed (n, orbit map) pairs, then 200 random ones."""
    yield from fixed
    for _ in range(200):
        n = rng.randint(0, 6)
        yield n, random_orbit_map(rng, n, shared)


def test_orbit_walk_renders_like_dense(rng):
    shared = [Fraction(1), Fraction(-1), Fraction(6), Fraction(-5, 12)]
    seen = set()
    fixed = AT_FIELD_BOUNDS, *MALFORMED, *UNIT_PAST_HEADS, *FIRST_TERMS
    for n, orbits in orbit_maps(rng, shared, *fixed):
        p = Poly(n, orbits)
        text, latex = str(p), p.to_latex()
        assert text == dense.render(p) and latex == dense.render_latex(p)
        assert p._texts == {False: text, True: latex}  # the text is kept
        seen |= coverage(orbits, n)
    assert seen >= COVERED


def test_writer_lists_random_orbit_maps_like_dense(rng):
    # the JSON export runs the walk over exponent tables; the reference
    # sorts the term map
    shared = [Fraction(1), Fraction(-1), Fraction(6), Fraction(-5, 12)]
    seen = set()
    for n, orbits in orbit_maps(rng, shared, AT_FIELD_BOUNDS, *UNIT_PAST_HEADS, *FIRST_TERMS):
        vol = VolumePolynomial(rng.randint(0, 3), n, orbits)
        assert export_document(vol, "mirzakhani") == dense.serialize_entry(vol, "mirzakhani")
        seen |= coverage(orbits, n)
    assert seen >= COVERED


def rendered(vol: VolumePolynomial) -> tuple:
    """str, LaTeX and, for nonnegative exponents, the JSON export of vol, each
    from a fresh walk."""
    p = Poly(vol.n, vol.orbits)
    fresh = VolumePolynomial(vol.g, vol.n, vol.orbits)
    nonnegative = all(e >= 0 for pattern, _ in vol.orbits for e in pattern)
    return str(p), p.to_latex(), nonnegative and export_document(fresh, "mirzakhani")


def test_render_bytes_do_not_depend_on_the_head_depth(store, monkeypatch):
    maps = [AT_FIELD_BOUNDS, *MALFORMED, *UNIT_PAST_HEADS, *FIRST_TERMS]
    vols = [VolumePolynomial(1, n, orbits) for n, orbits in maps]
    # V(1,8) has 1,287 head paths at depth 4, all through the last head level
    vols += [volume(store, g, n) for g, n in ((0, 7), (1, 6), (2, 3), (3, 0), (1, 8))]
    expected = [rendered(vol) for vol in vols]  # at the default depth
    for vol, texts in zip(vols, expected):
        for depth in range(vol.n + 2):
            monkeypatch.setattr(wpvol.poly, "HEAD", depth)
            monkeypatch.setattr(wpvol.poly, "_TABLES", {})
            assert rendered(vol) == texts, (vol.n, depth)


@pytest.mark.parametrize("n", range(1, 10))
def test_an_exponent_in_every_slot_renders_like_dense(n):
    # the walk keys a node by one count field per distinct exponent; a count
    # of n (every slot) must fit its field, next to orbits at other pi exponents
    orbits = {
        ((2,) * n, 0): Fraction(1),
        ((4,) * n, 2): Fraction(-5, 12),
        ((0,) * n, 6): Fraction(6),
        ((4,) + (2,) * (n - 1), 4): Fraction(-1),
        ((6,) + (0,) * (n - 1), 2): Fraction(3, 7),
    }
    p = Poly(n, orbits)
    assert str(p) == dense.render(p)
    assert p.to_latex() == dense.render_latex(p)
    vol = VolumePolynomial(1, n, orbits)
    assert export_document(vol, "mirzakhani") == dense.serialize_entry(vol, "mirzakhani")


def test_each_kind_walks_once_and_builds_no_term_map(monkeypatch):
    walks = []
    walk = wpvol.poly.block_pieces

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(wpvol.poly, "block_pieces", counted)
    monkeypatch.setattr(wpvol.cli, "block_pieces", counted)
    vol = lift_volume(VolumeStore(), 0, 10)
    p = vol.poly
    text, latex = str(p), p.to_latex()
    assert len(walks) == 2
    # a warm render walks none and returns the kept text itself
    assert str(p) is text and p.to_latex() is latex and len(walks) == 2
    assert (len(p), bool(p)) == (19448, True)
    # the export keeps nothing, so each one walks
    first = export_document(vol, "genus0_lift")
    assert export_document(vol, "genus0_lift") == first and len(walks) == 4
    assert p.__slots__ == ("n_vars", "orbits", "_texts") and not hasattr(p, "terms")
    # the reference expands the orbits into a term map of its own
    assert text == dense.render(p) and latex == dense.render_latex(p)


@pytest.mark.parametrize("g, n", [(0, 3), (2, 0), (3, 0)])
def test_one_monomial_renders_alike_on_both_paths(store, g, n):
    # a one-monomial volume, computed or read back from its cache document,
    # renders by the walk like the reference
    vol = volume(store, g, n)
    parsed, _ = parse_entry(serialize_entry(vol, "mirzakhani"))
    assert len(vol.orbits) == len(vol.poly) == 1
    for p in (vol.poly, parsed.poly):
        assert str(p) == dense.render(p)
        assert p.to_latex() == dense.render_latex(p)
        assert p._texts == {False: str(p), True: p.to_latex()}


def test_arrangements_match_dense(rng):
    # the package counts the monomials of an orbit (``len``, ``checked``)
    # without listing them; the reference lists them
    for _ in range(200):
        pattern = tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(0, 8))), reverse=True))
        listed = list(dense.arrangements(pattern))
        assert len(listed) == len(set(listed)) == _arrangement_count(pattern, len(pattern))
        assert all(sorted(a, reverse=True) == list(pattern) for a in listed)
