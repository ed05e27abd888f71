"""Acceptance suite: one test per criterion, one PASS line per criterion.

Exact checks carry zero tolerance; the only float comparisons are the
quadrature oracles for the kernel moments.  Run with ``pytest -v`` (add
``-s`` to see the PASS lines as they happen).
"""

import math
import time
from fractions import Fraction

import pytest
from scipy.integrate import quad

import wpvol.mirzakhani
from wpvol.cli import main, run_verification
from wpvol.compute import ensure_volume, lift_volume
from wpvol.intersections import compositions, identity_cases, psi_kappa
from wpvol.mirzakhani import mirzakhani_volume
from wpvol.store import VolumeStore, parse_entry, serialize_entry
from wpvol.stringdilaton import closed_volume
from wpvol.symmetric import stratified_lift
from wpvol.volume import seed_volume
from conftest import kernel_moment, random_symmetric_even, reversed_split_product
from dense_oracle import (
    Dense,
    boundary_cofactor,
    coeff_monomial,
    const,
    drop_var,
    eval_two_pi_i,
    expand,
    genus0_psi,
    is_homogeneous,
    kernel_H,
    l_degree,
)


@pytest.fixture(scope="module")
def lift_store():
    return VolumeStore()


@pytest.fixture(scope="module")
def shared_store():
    return VolumeStore()


def report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def test_criterion_01_seed_reproduction(capsys, tmp_path):
    started = time.monotonic()
    code = main(
        ["--cache-dir", str(tmp_path / "cache"), "compute",
         "--genus", "1", "--boundaries", "1"]
    )
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    assert out == "(1/48)*L1^2 + (1/12)*pi^2\n"
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"seed printed exactly in {elapsed:.3f}s")


def test_criterion_02_genus0_chain_to_twelve(lift_store, capsys):
    started = time.monotonic()
    volumes = {}
    for n in range(3, 13):
        volumes[n] = lift_volume(lift_store, 0, n)
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    for n, vol in volumes.items():
        vol.validate()
        assert is_homogeneous(expand(vol), 2 * n - 6)
    assert len(volumes[12].poly) == 293930
    with capsys.disabled():
        report(2, f"V(0,3)..V(0,12) all valid in {elapsed:.1f}s")


def test_criterion_03_cross_path_exactness(lift_store, shared_store, capsys):
    checked = []
    for n in range(4, 9):
        lifted = lift_volume(lift_store, 0, n)
        recursed = mirzakhani_volume(0, n, shared_store)
        assert expand(lifted) == expand(recursed), f"(0,{n}) disagreement"
        checked.append((0, n))
    for n in range(2, 6):
        lifted = lift_volume(lift_store, 1, n)
        recursed = mirzakhani_volume(1, n, shared_store)
        assert expand(lifted) == expand(recursed), f"(1,{n}) disagreement"
        checked.append((1, n))
    with capsys.disabled():
        report(3, f"lift == kernel recursion monomial-for-monomial at {checked}")


def test_criterion_04_string_and_dilaton_exhaustive(shared_store, capsys):
    counts = {}
    for relation in ("string", "dilaton"):
        result = run_verification(shared_store, relation, 2, 6)
        assert result["failed"] == 0, result
        # pairs: g=0: n=3..5, g=1: n=1..5, g=2: n=0..5 (n=0 via closed volume)
        assert result["checked"] == 14
        counts[relation] = result["checked"]
    with capsys.disabled():
        report(4, f"string/dilaton hold for all pairs g<=2, n<=6: {counts}")


def test_criterion_05_generalized_identities_exhaustive(shared_store, capsys):
    spots = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)]
    total = 0
    for g, n in spots:
        bigger, smaller = ensure_volume(shared_store, g, n + 1), ensure_volume(shared_store, g, n)
        for order, name in enumerate(("string2", "dilaton2")):
            for alpha, m, lhs, rhs in identity_cases(bigger, smaller, order):
                assert lhs == rhs, (name, g, n, alpha, m, lhs, rhs)
                total += 1
    # every case fills the dimension, so all of them are nontrivial
    assert total == 189
    with capsys.disabled():
        report(5, f"{total} identity instances hold ({total} nontrivial)")


def test_criterion_06_factorization_and_closed_volume(shared_store, capsys, monkeypatch):
    v11 = seed_volume(1, 1)
    assert boundary_cofactor(v11) == const(1, Fraction(1, 48))
    v21 = mirzakhani_volume(2, 1, shared_store)
    cofactor = boundary_cofactor(v21)
    assert l_degree(cofactor) == 6
    value_forward = expand(closed_volume(v21))
    monkeypatch.setattr(wpvol.mirzakhani, "product", reversed_split_product)
    v21_reversed = mirzakhani_volume(2, 1, VolumeStore())
    value_backward = expand(closed_volume(v21_reversed))
    assert value_forward == value_backward
    # golden value, derived once through the recursion and pinned
    assert coeff_monomial(value_forward, (), 6) == Fraction(43, 2160)
    with capsys.disabled():
        report(6, "V(1,1), V(2,1) factor exactly; closed genus-2 volume = (43/2160)*pi^6")


def test_criterion_07_kernel_moment_oracle(capsys):
    started = time.monotonic()
    worst = 0.0
    for k in range(7):
        F = kernel_moment(k)
        for t in (0.0, 1.0, 2.0, 5.0):
            numeric, _ = quad(
                lambda x: x ** (2 * k + 1) * kernel_H(x, t), 0, math.inf, limit=200
            )
            exact = sum(
                float(c) * t ** key[0] * math.pi ** key[1]
                for key, c in F.items()
            )
            rel = abs(exact - numeric) / (1 + abs(numeric))
            worst = max(worst, rel)
            assert rel < 1e-6, (k, t, rel)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    with capsys.disabled():
        report(7, f"moments match quadrature, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_08_genus0_closed_form(lift_store, capsys):
    checked = 0
    for n in range(3, 9):
        for alpha in compositions(n - 3, n):
            assert psi_kappa(0, n, alpha, 0, lift_store) == genus0_psi(alpha)
            checked += 1
    with capsys.disabled():
        report(8, f"{checked} genus-0 psi numbers match the multinomial formula")


def test_criterion_09_second_derivative_relation(shared_store, capsys):
    result = run_verification(shared_store, "second", 2, 4)
    assert result["failed"] == 0, result
    assert result["checked"] == 8
    with capsys.disabled():
        report(9, f"second-derivative relation holds for all {result['checked']} pairs")


def test_criterion_10_property_suite(capsys, rng):
    # 200 randomized lift round-trips
    for trial in range(200):
        n_vars = rng.randint(3, 6)
        half_degree = rng.randint(0, min(n_vars - 1, 4))
        target = random_symmetric_even(rng, n_vars, half_degree)
        evaluation = drop_var(eval_two_pi_i(target, n_vars), n_vars)
        _, recovered = stratified_lift(evaluation.orbit_coefficients(), half_degree)
        assert Dense.from_orbits(n_vars, recovered) == target, (
            f"round-trip failed on trial {trial}"
        )
    # byte-identical store serialization
    samples = [
        (seed_volume(0, 3), "seed"),
        (seed_volume(1, 1), "seed"),
        (mirzakhani_volume(1, 3, VolumeStore()), "mirzakhani"),
    ]
    for vol, provenance in samples:
        text = serialize_entry(vol, provenance)
        assert serialize_entry(*parse_entry(text)) == text
    with capsys.disabled():
        report(10, "200 lift round-trips exact; serialization byte-stable")
