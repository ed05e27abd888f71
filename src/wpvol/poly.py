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
one walk over prefix multisets from L_n back to L_1 (``block_pieces``) that
lists no monomial.  A node of the walk is keyed by one int, a count per
distinct exponent with the pi exponent above, so a parent's key is its
child's less one weight; each count has only the bits its largest value
needs.  Each orbit is one leaf block: its coefficient's printed form, a
marker, and its pi factor.  Each level is built and rendered at once: one
``str.replace`` per edge puts the child's factor, kept with the marker in
front (``*L5^4``, `` L_{5}^{4}``), in place of the marker in all its terms,
and each node joins its children.  The walk stops at depth 4, where one
``str.replace`` puts in each block's head, the factors of L_1 to L_4, one
head per path to the block (for n <= 5, one per monomial).  A leaf whose
first factor loses its separator (LaTeX, or a unit coefficient in plain
text) carries a second mark, and the finished pieces are scanned for it.

What is kept is the text, not the walk: ``str`` and ``to_latex`` each walk
once and keep their finished text, so a warm render is a lookup.  The trade
is memory: a volume's text lives as long as the volume, 12 MB of plain text
and 22 MB of LaTeX for ``V(0,12)``.  The JSON export keeps nothing.

A polynomial is never changed after construction (it keeps a copy of the
map it is given), so values can be shared freely between threads; the text
kept on first use comes out the same whichever thread renders it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction


class Poly:
    """Symmetric exact polynomial in L1..Ln and pi, by orbit: ``orbits``
    maps ``(pattern, pi_exp)``, the pattern the ``n_vars`` L exponents
    sorted descending, to a nonzero Fraction.  Keeps a copy of the map, and
    its ``str`` and ``to_latex`` once rendered."""

    __slots__ = ("n_vars", "orbits", "_texts")

    def __init__(self, n_vars: int, orbits: dict):
        self.n_vars = n_vars
        self.orbits = dict(orbits)
        self._texts = {}  # latex -> the text, kept once rendered

    def __bool__(self) -> bool:
        return bool(self.orbits)

    def __len__(self) -> int:
        return sum(_arrangement_count(pattern, self.n_vars) for pattern, _ in self.orbits)

    def __str__(self) -> str:
        return self._texts.get(False) or _render(self, False)

    def __repr__(self) -> str:
        return f"Poly({self.n_vars}, {self})"

    def to_latex(self) -> str:
        return self._texts.get(True) or _render(self, True)


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


# MARK stands in each term where the next factor goes; DROP marks a term
# whose first factor loses its separator; the walk stops at depth HEAD
MARK, DROP, HEAD = "\x00", "\x01", 4


def marked(columns: list) -> list:
    """Factor tables of L_1..L_n, each a list by exponent, as ``block_pieces``
    reads them: MARK in front of each nonempty factor from L_{HEAD+1} on."""
    return columns[:HEAD] + [[f and MARK + f for f in column] for column in columns[HEAD:]]


def block_pieces(orbits: dict, n: int, leaf, tables: list) -> list:
    """Pieces whose join is every term of an orbit map in n L variables, in
    canonical order, from one walk that lists no monomial and keeps nothing.

    A node at depth k stands for the term prefixes of k L exponents with one
    pi exponent and one multiset, which alone fixes the suffixes that follow.
    Its key is one int: a count field per distinct exponent, with the pi
    exponent above them, so that a parent's key is the child's less the
    weight of the value dropped.  A field has the bits of its largest count:
    n for exponent 0, else ``min(n, top // abs(e))`` with ``top`` the largest
    sum of absolute exponents of an orbit, so the keys of ``V(0,10)`` take 19
    bits, one CPython digit.  The leaves, at depth n, are the orbits'
    ``leaf(pattern, pi_exp, c)``: MARK in front of the pi factor, or the bare
    term.  Each level from L_n back to L_{HEAD+1} is built and rendered at
    once, and the level below it dropped: by descending value, each child
    joins its parent's run with one ``str.replace`` of MARK by its factor
    from ``tables[k]``, MARK in front (``marked``), or as it is if that is
    empty; then each node joins its run.  Only the top HEAD levels keep their
    edges, (factor, child) by node, to build the heads: the factors of L_1 ..
    L_HEAD (as far as they exist) on each path to a depth-HEAD block, joined
    once.  The pieces are those blocks, each with its head in place of MARK,
    one per path, which for n <= HEAD + 1 is one per monomial."""
    top = max((sum(map(abs, pattern)) for pattern, _ in orbits), default=0)
    fields, above = {}, 0  # above: where the pi exponent starts
    for e in sorted({e for pattern, _ in orbits for e in pattern}, reverse=True):
        width = (min(n, top // abs(e)) if e else n).bit_length()
        fields[e] = (1 << above, ((1 << width) - 1) << above)  # weight, count field
        above += width
    level = {
        sum([fields[e][0] for e in pattern], pi_exp << above): leaf(pattern, pi_exp, c)
        for (pattern, pi_exp), c in orbits.items()
    }
    for k in reversed(range(HEAD, n)):
        table, parents = tables[k], {}
        for v, (w, mask) in fields.items():  # by descending value
            f = table[v]
            for code, block in level.items():
                if code & mask:
                    parents.setdefault(code - w, []).append(block.replace(MARK, f) if f else block)
        level = {code: "".join(run) for code, run in parents.items()}
    blocks, upper = level, []
    for k in reversed(range(min(n, HEAD))):
        table, parents = tables[k], {}
        for v, (w, mask) in fields.items():
            for code in level:
                if code & mask:
                    parents.setdefault(code - w, []).append((table[v], code))
        upper.append(level := parents)
    heads = [("", code) for code in sorted(level)]  # by ascending pi exponent
    for nodes in reversed(upper):
        heads = [(head + f, child) for head, code in heads for f, child in nodes[code]]
    return [blocks[code].replace(MARK, head) for head, code in heads]


def _render(p: Poly, latex: bool) -> str:
    tables, leaf, drop = _TABLES.get((p.n_vars, latex)) or _tables(p.n_vars, latex)
    pieces = block_pieces(p.orbits, p.n_vars, leaf, tables)
    for j, piece in enumerate(pieces):
        if DROP in piece:  # a memchr scan, far faster than a replace's
            pieces[j] = piece.replace(drop, "")
    if pieces:
        first = pieces[0]
        pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    text = p._texts[latex] = "".join(pieces) or "0"
    return text
