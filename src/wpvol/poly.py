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
lexicographic L exponents.  ``str``, ``to_latex`` and the JSON export share
one walk over prefix multisets from L_n back to L_1 (``_build_plan``,
``block_pieces``) that lists no monomial.  A node of the walk is keyed by
one int, a count per distinct exponent with the pi exponent above, so a
parent's key is its child's less one weight; each count has only the bits
its largest value needs.  Each orbit is one leaf block: its coefficient's
printed form, a marker, and its pi factor.  Each level is one pass over
its flat edges: one ``str.replace`` per edge puts the child's factor, kept
with the marker in front (``*L5^4``, `` L_{5}^{4}``), in place of the
marker in all its terms, and each node joins its run of the results.  The
walk stops at depth 4, where one ``str.replace`` puts in each block's
head, the factors of L_1 to L_4, one head per path to the block (for
n <= 5, one per monomial).  The plan and each kind's leaf
blocks and heads are built on first use and kept, with a flag for a leaf
whose first factor loses its separator (LaTeX, or a unit coefficient in
plain text), so a warm render formats no coefficient, builds no head, and
scans for that mark only when it is set.

A polynomial is never changed after construction, so values can be shared
freely between threads; the plan filled in on first use comes out the same
whichever thread builds it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate


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
    each entry built on first use.  Every factor starts with ``mark`` (MARK for
    the variables the walk puts in below its heads), then its separator."""

    def __init__(self, factor: str, power: str, close: str, mark: str = ""):
        super().__init__({0: "", 1: mark + factor})
        self.head, self.tail = mark + factor + power, close

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.head}{e}{self.tail}"
        return text


# (n_vars, latex) -> the _Powers of L1..Ln and of pi, the maker of an orbit's
# leaf block and the text that DROP marks for removal, kept across calls
_TABLES: dict = {}


def _tables(n_vars: int, latex: bool) -> tuple:
    names = [f" L_{{{i}}}" if latex else f"*L{i}" for i in range(1, n_vars + 1)]
    names.append(" \\pi" if latex else "*pi")
    power = ("^{", "}") if latex else ("^", "")
    tables = [_Powers(name, *power, MARK * (HEAD <= k < n_vars)) for k, name in enumerate(names)]
    powers_of_pi = tables[-1]

    def leaf(pattern: tuple, pi_exp: int, c: Fraction) -> str:
        head, bare = _coefficient(c, latex)
        return head + MARK + powers_of_pi[pi_exp] if pi_exp or any(pattern) else bare

    entry = _TABLES[(n_vars, latex)] = tables, leaf, DROP + (" " if latex else "*")
    return entry


def _coefficient(c: Fraction, latex: bool) -> tuple[str, str]:
    """How c prints: the text before the factors, which ends in DROP where
    the first factor loses its separator (always in LaTeX, and after a bare
    sign), and the term with no factor.  Both open with " + " or " - "."""
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
        return sign + DROP, sign + digits
    return sign + digits + (DROP if latex else ""), sign + digits


def _build_plan(orbits: dict, n: int) -> tuple:
    """The walk that renders an orbit map: (orbits, levels, starts, upper, kept).

    A node at depth k stands for the term prefixes of k L exponents with one
    pi exponent and one multiset, which alone fixes the suffixes that follow.
    Its key is one int: a count field per distinct exponent, with the pi
    exponent above them, so that a parent's key is the child's less the
    weight of the value dropped.  A field has the bits of its largest count:
    n for exponent 0, else ``min(n, top // abs(e))`` with ``top`` the largest
    sum of absolute exponents of an orbit, so the keys of ``V(0,10)`` take 19
    bits, one CPython digit.  The leaves, at depth n, are the orbits, listed
    as (orbit, coefficient).  A node's edges are its children (value of
    L_{k+1}, index one level down) by descending value.  ``upper`` lists, for
    k = 0 .. 3 (HEAD - 1) while k < n, (k, the nodes of depth k as edge lists);
    ``levels`` lists, for k = n - 1 down to 4, (k, (edges, lo, hi)), every
    edge of the level in one list, node j's being ``edges[lo[j]:hi[j]]``.
    ``starts`` lists the depth-0 nodes, one per pi exponent, in ascending
    order.  ``kept`` keeps each text kind's leaves, heads and DROP flag.
    """
    items = list(orbits.items())
    top = max((sum(map(abs, pattern)) for pattern, _ in orbits), default=0)
    fields, above = {}, 0  # above: where the pi exponent starts
    for e in sorted({e for pattern, _ in orbits for e in pattern}, reverse=True):
        width = (min(n, top // abs(e)) if e else n).bit_length()
        fields[e] = (1 << above, ((1 << width) - 1) << above)  # weight, count field
        above += width
    level = {
        sum([fields[e][0] for e in pattern], pi_exp << above): i
        for i, ((pattern, pi_exp), _) in enumerate(items)
    }
    levels = []
    for k in reversed(range(n)):
        parents: dict = {}
        for v, (w, mask) in fields.items():  # by descending value
            for code, i in level.items():
                if code & mask:
                    parents.setdefault(code - w, []).append((v, i))
        nodes = list(parents.values())
        if k >= HEAD:
            hi = list(accumulate(map(len, nodes)))
            nodes = [edge for node in nodes for edge in node], [0, *hi[:-1]], hi
        levels.append((k, nodes))
        level = {code: i for i, code in enumerate(parents)}
    upper = [levels.pop() for _ in range(min(n, HEAD))]  # k = 0 .. HEAD - 1
    return items, levels, [level[code] for code in sorted(level)], upper, {}


# MARK stands in each term where the next factor goes; DROP marks a term
# whose first factor loses its separator; the walk stops at depth HEAD
MARK, DROP, HEAD = "\x00", "\x01", 4


def marked(columns: list) -> list:
    """Factor tables of L_1..L_n, each a list by exponent, as ``block_pieces``
    reads them: MARK in front of each nonempty factor from L_{HEAD+1} on."""
    return columns[:HEAD] + [[f and MARK + f for f in column] for column in columns[HEAD:]]


def block_pieces(p: Poly, kind: str, leaf, tables: list) -> tuple:
    """Pieces whose join is every term of p in canonical order, and whether
    any holds DROP, as found once when the leaves were built.

    The leaves, kept in the plan by ``kind``, are ``leaf(pattern, pi_exp, c)``
    for each orbit: MARK in front of the pi factor, or the bare term.  From
    L_n back to L_{HEAD+1}, each level is one pass over its flat edges: one
    ``str.replace`` of MARK by the child's factor from ``tables[k]``, MARK
    in front (``marked``), or the child itself if that is empty; then each
    node joins its run.  The pieces are the depth-HEAD (4) blocks, each with
    its head in place of MARK: the factors of L_1 .. L_4 (as far as they
    exist) on the path to it, joined once and kept beside the leaves, so a
    kind must come with the same tables on every call.  There is one head
    per path to a block, which for n <= 5 is one per monomial."""
    if p._plan is None:
        p._plan = _build_plan(p.orbits, p.n_vars)
    items, levels, starts, upper, kept = p._plan
    if kind not in kept:
        heads = [("", i) for i in starts]
        for k, nodes in upper:
            table = tables[k]
            heads = [(head + table[v], i) for head, j in heads for v, i in nodes[j]]
        blocks = [leaf(*orbit, c) for orbit, c in items]
        kept[kind] = blocks, heads, any(DROP in block for block in blocks)
    blocks, heads, dropped = kept[kind]
    for k, (edges, lo, hi) in levels:
        table = tables[k]
        parts = [blocks[i].replace(MARK, f) if (f := table[v]) else blocks[i] for v, i in edges]
        blocks = ["".join(parts[a:b]) for a, b in zip(lo, hi)]
        del parts  # so it does not live through the next level or the heads
    return [blocks[i].replace(MARK, head) for head, i in heads], dropped


def _render(p: Poly, latex: bool) -> str:
    tables, leaf, drop = _TABLES.get((p.n_vars, latex)) or _tables(p.n_vars, latex)
    pieces, dropped = block_pieces(p, "latex" if latex else "str", leaf, tables)
    if dropped:
        for j, piece in enumerate(pieces):
            if DROP in piece:  # a memchr scan, far faster than a replace's
                pieces[j] = piece.replace(drop, "")
    if not pieces:
        return "0"
    first = pieces[0]
    pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(pieces)
