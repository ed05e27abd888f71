"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production algorithms: the
symmetric-extension problem is solved a second time by brute-force linear
algebra over the symmetric-monomial basis, and a third time by a literal
transcription of the subset inclusion-exclusion enumeration, so the fast
orbit-based implementation can be checked against both.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from wpvol import mirzakhani
from wpvol.volume import seed_volume
from dense_oracle import Dense, add, coeff_pi, drop_var, eval_zero, mul, pi, scale


@pytest.fixture(scope="session")
def v03():
    return seed_volume(0, 3)


@pytest.fixture(scope="session")
def v11():
    return seed_volume(1, 1)


@pytest.fixture()
def rng():
    return random.Random(20260810)


def reversed_split_product(*factors):
    """Stand-in for ``itertools.product`` in ``wpvol.mirzakhani``: every range
    factor counts down, so the kernel recursion's split shapes, a product of
    ranges nested in a product, come in exactly the reversed order."""
    return product(*(f[::-1] if isinstance(f, range) else f for f in factors))


def kernel_moment(k: int) -> dict:
    """F_{2k+1}(t) as ``{(t exponent, pi exponent): coefficient}``, read off
    the kernel's B row k at v^0, which holds 2 F_{2k+1}(u) / (2k+1)!: the
    numbers the recursion multiplies, for the quadrature oracles."""
    den, row = mirzakhani._moment_rows(k + 1)[k]
    factor = Fraction(math.factorial(2 * k + 1), 2 * den)
    return {(t, 2 * k + 2 - t): c * factor for t, c in row[0]}


# ----------------------------------------------------------------------
# random polynomial generators


def random_rational(rng, allow_zero=True) -> Fraction:
    num = rng.randint(-9, 9)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 9))


def random_poly(rng, n_vars, max_terms=4, max_exp=3, max_pi=2) -> Dense:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(rng.randint(0, max_exp) for _ in range(n_vars)) + (
            rng.randint(0, max_pi),
        )
        terms[key] = random_rational(rng)
    return Dense.from_terms(n_vars, terms)


def partitions(total, max_parts):
    """All partitions of `total` into at most `max_parts` positive parts."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return

    def rec(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part, slots - 1):
                yield (part,) + rest

    yield from rec(total, total, max_parts)


def monomial_symmetric(n_vars, pattern, pi_exp=0) -> Dense:
    """m_lambda over n_vars variables, built by brute-force permutation."""
    padded = tuple(pattern) + (0,) * (n_vars - len(pattern))
    keys = {p + (pi_exp,) for p in permutations(padded)}
    return Dense.from_terms(n_vars, {key: 1 for key in keys})


def random_symmetric_even(rng, n_vars, half_degree) -> Dense:
    """Random symmetric polynomial, even L exponents, homogeneous of total
    degree 2*half_degree (pi included), squared degree <= half_degree."""
    total = Dense(n_vars, {})
    for k in range(half_degree + 1):
        for pattern in partitions(half_degree - k, n_vars):
            if rng.random() < 0.5:
                continue
            c = random_rational(rng, allow_zero=False)
            doubled = tuple(2 * p for p in pattern)
            total = add(total, scale(monomial_symmetric(n_vars, doubled, 2 * k), c))
    return total


# ----------------------------------------------------------------------
# independent oracles for the symmetric lift


def solve_linear(rows, rhs):
    """Fraction Gaussian elimination; returns the unique solution or None."""
    n_unknowns = len(rows[0]) if rows else 0
    aug = [list(row) + [value] for row, value in zip(rows, rhs)]
    pivots = []
    row_at = 0
    for col in range(n_unknowns):
        pivot = next((r for r in range(row_at, len(aug)) if aug[r][col]), None)
        if pivot is None:
            return None  # underdetermined
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        factor = aug[row_at][col]
        aug[row_at] = [v / factor for v in aug[row_at]]
        for r in range(len(aug)):
            if r != row_at and aug[r][col]:
                scale = aug[r][col]
                aug[r] = [a - scale * b for a, b in zip(aug[r], aug[row_at])]
        pivots.append(col)
        row_at += 1
    for r in range(row_at, len(aug)):
        if aug[r][-1]:
            return None  # inconsistent
    return [aug[i][-1] for i in range(n_unknowns)]


def brute_force_lift(f: Dense) -> Dense:
    """Solve for the symmetric extension by linear algebra, layer by layer.

    Unknowns are coefficients of monomial symmetric polynomials over n+1
    variables whose pattern keeps at least one variable absent (the
    no-all-variables convention); equations match the restriction at
    L_{n+1} = 0 against f.
    """
    n = f.n_vars
    total = Dense(n + 1, {})
    pi_levels = sorted({key[-1] for key in f.terms})
    for pi_exp in pi_levels:
        layer = coeff_pi(f, pi_exp)
        degrees = sorted({sum(key[:-1]) for key in layer.terms})
        lambdas = []
        for degree in degrees:
            for pattern in partitions(degree // 2, n):
                lambdas.append(tuple(2 * p for p in pattern))
        basis = [monomial_symmetric(n + 1, lam) for lam in lambdas]
        restricted = [drop_var(eval_zero(b, n + 1), n + 1) for b in basis]
        keys = sorted(set(layer.terms) | {k for r in restricted for k in r.terms})
        rows = []
        rhs = []
        for key in keys:
            rows.append([r.terms.get(key, 0) for r in restricted])
            rhs.append(layer.terms.get(key, 0))
        solution = solve_linear(rows, rhs)
        assert solution is not None, "brute-force lift system was not uniquely solvable"
        for lam_poly, coeff in zip(basis, solution):
            if coeff:
                total = add(total, scale(mul(lam_poly, pi(n + 1, pi_exp)), coeff))
    return total


def _substitute_var(p: Dense, source: int, target: int) -> Dense:
    """L_source -> L_target (exponents merge onto the target)."""
    out = {}
    for key, c in p.terms.items():
        e = key[source - 1]
        if e:
            key = list(key)
            key[source - 1] = 0
            key[target - 1] += e
            key = tuple(key)
        out[key] = out.get(key, 0) + c
    return Dense.from_terms(p.n_vars, out)


def epsilon_lift(f: Dense) -> Dense:
    """Literal subset inclusion-exclusion enumeration of the lift (slow).

    For every epsilon in {0,1}^n: zero the marked variables, then for each i
    whose higher-indexed marks are all zero, rename L_i to L_{n+1} and add
    with sign (-1)^{|epsilon|}."""
    n = f.n_vars
    total = f.embed(n + 1)
    for bits in product((0, 1), repeat=n):
        zeroed = f
        for j, bit in enumerate(bits, start=1):
            if bit:
                zeroed = eval_zero(zeroed, j)
        zeroed = zeroed.embed(n + 1)
        inner = Dense(n + 1, {})
        for i in range(1, n + 1):
            if all(bits[j - 1] == 0 for j in range(i + 1, n + 1)):
                inner = add(inner, _substitute_var(zeroed, i, n + 1))
        total = add(total, scale(inner, (-1) ** sum(bits)))
    return total
