"""Symmetric polynomials in boundary lengths L1..Ln and a formal pi, by
symmetry orbit, and their text form.

Coefficients are exact rationals (``fractions.Fraction``).  The symbol pi
is never a float: it is carried as an extra exponent, so the pi-grading of
a polynomial can be inspected and compared exactly.

Representation.  A ``Poly`` in ``n_vars`` variables holds an orbit map

    {(L exponents sorted descending, pi exponent): coefficient}

as volumes are stored and computed: every distinct rearrangement of an
orbit's L exponents is one monomial with the orbit's coefficient.  This
type is the text edge of the package: printing a volume and the difference
polynomials that diagnostics print.  It has no arithmetic, and the
evaluation at L = 2*pi*i lives on orbits in ``symmetric``.  ``len`` counts
the monomials without listing them.  The tests keep a dense term map with
a ring (sum, product, scaling, the monomials) as a reference, in
``tests/dense_oracle.py``.

Rendering.  The canonical order is ascending pi exponent, then descending
lexicographic L exponents.  ``str`` and ``to_latex`` share one renderer: a
walk over prefix multisets from L_n back to L_1 (``_build_plan``,
``_walk``) that lists no monomial.  A term is its coefficient's form in
front of factors from per-variable tables (``*L3^4``, `` L_{3}^{4}``)
filled on first use and kept.  The plan, with each distinct coefficient's
form, is built on the first render and kept.  ``walk`` runs the plan over
any tables, so the cache writer lists exponent tuples in the same order.

A polynomial is never changed after construction, so values can be shared
freely between threads; the plan filled in on first use comes out the same
whichever thread builds it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain


class Poly:
    """Symmetric exact polynomial in L1..Ln and pi, by orbit: ``orbits``
    maps ``(pattern, pi_exp)``, the pattern the ``n_vars`` L exponents
    sorted descending, to a nonzero Fraction.  Keeps a copy of the map."""

    __slots__ = ("n_vars", "orbits", "_plan")

    def __init__(self, n_vars: int, orbits: dict):
        self.n_vars = n_vars
        self.orbits = dict(orbits)
        self._plan = None

    def __bool__(self) -> bool:
        return bool(self.orbits)

    def __len__(self) -> int:
        return sum(_arrangement_count(pattern, self.n_vars) for pattern, _ in self.orbits)

    def walk(self, tables: list) -> tuple[list, list, chain]:
        """(coefficients, order, pieces): the distinct coefficients; for
        every monomial in canonical order, the index of its coefficient; and
        the monomials' pieces in that order, from ``_walk`` over ``tables``.
        The plan of the walk is built on first use and kept."""
        if self._plan is None:
            self._plan = _build_plan(self.orbits, self.n_vars)
        return self._plan[2], self._plan[3], _walk(self._plan, tables)

    def __str__(self) -> str:
        return _render(self, False)

    def __repr__(self) -> str:
        return f"Poly({self.n_vars}, {self})"

    def to_latex(self) -> str:
        return _render(self, True)


def _arrangement_count(pattern: tuple[int, ...], n: int) -> int:
    """Distinct rearrangements of an exponent pattern over n slots."""
    count = math.factorial(n)
    for mult in Counter(pattern).values():
        count //= math.factorial(mult)
    return count


class _Powers(dict):
    """Exponent -> printed factor of one variable (``*L3^4``, `` L_{3}^{4}``),
    each entry built on first use.  Every factor starts with its separator."""

    def __init__(self, factor: str, power: str, close: str):
        super().__init__({0: "", 1: factor})
        self.head, self.tail = factor + power, close

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.head}{e}{self.tail}"
        return text


# (n_vars, latex) -> the _Powers of L1..Ln and of pi, kept across calls
_TABLES: dict = {}


def _tables(n_vars: int, latex: bool) -> list:
    if latex:
        names = [f" L_{{{i}}}" for i in range(1, n_vars + 1)] + [" \\pi"]
        power = ("^{", "}")
    else:
        names = [f"*L{i}" for i in range(1, n_vars + 1)] + ["*pi"]
        power = ("^", "")
    tables = _TABLES[(n_vars, latex)] = [_Powers(name, *power) for name in names]
    return tables


def _coefficient(c: Fraction, latex: bool) -> tuple[str, int, str]:
    """How c prints: the text before the factors, how many characters of the
    factors to drop, and the term with no factor.  Both texts open with the
    sign, " + " or " - "; a magnitude of 1 prints no digits before a factor."""
    num, den = c.numerator, c.denominator
    sign = " - " if num < 0 else " + "
    num = abs(num)
    if den == 1:
        digits = str(num)
    elif latex:
        digits = f"\\frac{{{num}}}{{{den}}}"
    else:
        digits = f"({num}/{den})"
    if num == den == 1:
        return sign, 1, sign + digits
    return sign + digits, int(latex), sign + digits


def _build_plan(orbits: dict, n: int) -> tuple:
    """The walk that renders an orbit map: (pi exponents, levels,
    coefficients, order, forms).

    A node at depth k stands for the term prefixes of k L exponents with one
    pi exponent and one multiset, which alone fixes the suffixes that follow.
    The leaves, at depth n, are the orbits, taken by ascending pi exponent so
    that the roots come in that order.  ``levels`` lists, for k = n - 1 down
    to 0, (k, the nodes of depth k), each node as its children (value of
    L_{k+1}, index one level down) by descending value.  ``order`` holds,
    for every term in canonical order, the index of its coefficient among
    the distinct values.  ``forms`` keeps the coefficients' printed forms
    (``_coefficient``), plain and LaTeX, each filled by its first render.
    """
    items = sorted(orbits.items(), key=lambda item: item[0][1])
    slots: dict = {}  # coefficient -> index among the distinct values
    order = [[slots.setdefault(c, len(slots))] for _, c in items]
    level = {(pi_exp, pattern): i for i, ((pattern, pi_exp), _) in enumerate(items)}
    levels = []
    for k in reversed(range(n)):
        parents: dict = {}
        for (pi_exp, ms), i in level.items():
            for j, v in enumerate(ms):
                if not j or v != ms[j - 1]:
                    parents.setdefault((pi_exp, ms[:j] + ms[j + 1:]), []).append((v, i))
        for children in parents.values():
            children.sort(reverse=True)
        levels.append((k, list(parents.values())))
        level = {key: i for i, key in enumerate(parents)}
    for _, nodes in levels:
        order = [[j for _, i in node for j in order[i]] for node in nodes]
    pis = [pi_exp for (_, pi_exp), _ in items]
    return pis, levels, list(slots), [j for root in order for j in root], {}


def _walk(plan: tuple, tables: list) -> chain:
    """The piece of every term in canonical order, from ``tables``, one per
    variable with pi last: bottom-up from L_n to L_1, each node puts its
    value's entry in front of its children's suffixes.  Over text tables the
    pieces are factor texts; over one-tuples they are exponent tuples."""
    pis, levels, top = plan[0], plan[1], tables[-1]
    suffixes = [(top[pi_exp],) for pi_exp in pis]
    for k, nodes in levels:
        table = tables[k]
        suffixes = [
            [f + s for v, i in node for f in [table[v]] for s in suffixes[i]]
            for node in nodes
        ]
    return chain.from_iterable(suffixes)


def _render(p: Poly, latex: bool) -> str:
    tables = _TABLES.get((p.n_vars, latex)) or _tables(p.n_vars, latex)
    coefficients, order, pieces = p.walk(tables)
    forms = p._plan[4].get(latex)
    if forms is None:
        forms = p._plan[4][latex] = [_coefficient(c, latex) for c in coefficients]
    # a generator, so neither the walk's text nor the pieces outlive the join
    text = "".join(f[0] + s[f[1]:] if s else f[2]
                   for s, f in zip(pieces, map(forms.__getitem__, order)))
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]
