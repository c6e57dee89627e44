"""The W(2,2) Lie algebra: basis symbols, the defining bracket, grading.

The algebra has basis ``L(n)``, ``I(n)`` for integer ``n`` together with two
central elements ``C`` and ``C1``.  The bracket is

* ``[L(n), L(m)] = (m - n) L(n+m) + delta(n, -m) (n^3 - n)/12 C``
* ``[L(n), I(m)] = (m - n) I(n+m) + delta(n, -m) (n^3 - n)/12 C1``
* ``[I(n), I(m)] = 0``
* ``C`` and ``C1`` are central.

These four relations are the single source of truth for the whole engine;
everything downstream (normal ordering, module actions, Gram matrices) is
derived from :func:`bracket_gen`.

Symbols and constants are native values, because every rewriting step
hashes, compares and multiplies them.  A :class:`Generator` is an ``int``
whose value is its canonical sort key, so its hash, equality and canonical
order are the built-in ``int`` ones, and a word of generators hashes and
compares as a tuple of ints.  The
structure constants ``m - n`` are ``int``, and so is a central coefficient
``(n^3 - n)/12`` that is an integer (``n`` not 2 mod 4); the others are
``Fraction``.  The two mix exactly.  A
:class:`LieElement` is a :class:`~w22.scalars.Combination` of generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .scalars import Combination, _accumulate

__all__ = [
    "INDEX_LIMIT",
    "IndexLimitError",
    "Generator",
    "L",
    "I",
    "C",
    "C1",
    "LieElement",
    "bracket_gen",
    "bracket",
    "generator_window",
    "JacobiReport",
    "jacobi_report",
]

#: Construction of a mode with |index| beyond this bound is rejected.  Checked
#: construction turns a silent runaway index into a reported error; every
#: desk-scale computation stays far below it.
INDEX_LIMIT = 10**6

_RANK = {"C": 0, "C1": 1, "I": 2, "L": 3}
_KINDS = tuple(_RANK)
# A generator's value is rank * 2**_SHIFT + index + _OFFSET, with
# |index| <= INDEX_LIMIT < _OFFSET, so the index field never reaches the rank.
_SHIFT = 22
_OFFSET = 1 << (_SHIFT - 1)
_INDEX_MASK = (1 << _SHIFT) - 1


class IndexLimitError(ValueError):
    """A generator index exceeded the configured bound."""


class Generator(int):
    """One basis symbol: ``L(n)``, ``I(n)``, ``C`` or ``C1``.

    Stored as the ``int`` ``rank * 2**22 + index + 2**21`` with rank 0, 1,
    2, 3 for C, C1, I, L.  As ``|index| <= INDEX_LIMIT < 2**21``, ``int``
    order is the canonical order ``C < C1 < I(n) asc < L(n) asc``, so
    hashing, equality and ``<`` run on the built-in ``int``.

    A generator equals its ``int`` value, but it is a letter and never a
    number: its arithmetic operators, reflected ones included, raise
    ``TypeError`` (so ``2 * L(1)``, ``L(1) + 1``, ``Fraction(1, 2) * L(1)``
    and ``Fraction(L(1))`` do), and so do ``numerator`` and
    ``denominator``, which ``Fraction`` reads.  Only ``>>`` and ``&``, which
    ``kind`` and ``index`` read, keep their ``int`` results, reflections
    included: a class that defines either method of such a pair routes both
    through a Python-level lookup, twice as slow here.  Every scalar
    check of :mod:`w22.scalars` takes ``int`` by exact type, so a
    combination times a generator raises ``TypeError`` too, and a ``Poly``
    to a generator's power raises ``ValueError``.
    """

    __slots__ = ()

    def _not_a_number(self, *_):
        raise TypeError(f"the generator {self} is a letter, not a number")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _not_a_number
    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _not_a_number
    __mod__ = __rmod__ = __divmod__ = __rdivmod__ = __pow__ = __rpow__ = _not_a_number
    __neg__ = __pos__ = __abs__ = __invert__ = _not_a_number
    __lshift__ = __rlshift__ = __or__ = __ror__ = __xor__ = __rxor__ = _not_a_number
    numerator = denominator = property(_not_a_number)

    def __new__(cls, kind: str, index: int = 0):
        rank = _RANK.get(kind)
        if rank is None:
            raise ValueError(f"unknown generator kind {kind!r}")
        if rank < 2:
            if index != 0:
                raise ValueError("central generators carry no index")
        elif abs(index) > INDEX_LIMIT:
            raise IndexLimitError(f"index {index} exceeds the configured bound {INDEX_LIMIT}")
        return int.__new__(cls, (rank << _SHIFT) + index + _OFFSET)

    def __getnewargs__(self):
        return (self.kind, self.index)

    kind = property(lambda self: _KINDS[self >> _SHIFT])
    index = property(lambda self: (self & _INDEX_MASK) - _OFFSET)
    # The central generators have index 0, so the ad-L(0) eigenvalue (n for
    # L(n) and I(n), 0 for C, C1) is the index.
    weight = index

    def __str__(self) -> str:
        if self >> _SHIFT < 2:
            return self.kind
        return f"{self.kind}({self.index})"

    __repr__ = __str__


def L(n: int) -> Generator:
    return Generator("L", n)


def I(n: int) -> Generator:
    return Generator("I", n)


C = Generator("C")
C1 = Generator("C1")


def _format_word(word) -> str:
    """A word of generators as its letters run together, ``1`` if empty."""
    return "".join(map(str, word)) if word else "1"


class LieElement(Combination):
    """A finite linear combination of generators with exact coefficients."""

    __slots__ = ()


def _bracket_gen(a: Generator, b: Generator) -> LieElement:
    """The bracket of two basis symbols, in canonical form.  For X = L or I,
    ``[L(n), X(m)] = (m - n) X(n+m) + delta(n, -m) (n^3 - n)/12 Z`` with Z the
    central element C for X = L and C1 for X = I."""
    if a.kind == "I" and b.kind == "L":
        # [I(n), L(m)] = -[L(m), I(n)], from the body itself, so that what the
        # memo stores never depends on what the module name is bound to.
        return -_bracket_gen(b, a)
    if a.kind != "L" or b.kind in ("C", "C1"):
        return LieElement()
    n, m = a.index, b.index
    out = {}
    if m != n:
        out[Generator(b.kind, n + m)] = m - n
    if n == -m and n**3 != n:
        q, r = divmod(n**3 - n, 12)
        out[C if b.kind == "L" else C1] = Fraction(n**3 - n, 12) if r else q
    return LieElement(out)


bracket_gen = lru_cache(maxsize=None)(_bracket_gen)


def _terms(x):
    """The (generator, coefficient) pairs of a Generator or LieElement."""
    if isinstance(x, Generator):
        return ((x, 1),)
    if isinstance(x, LieElement):
        return x.terms.items()
    raise TypeError(f"expected a Generator or LieElement, got {type(x).__name__}")


def bracket(x, y) -> LieElement:
    """Bilinear extension of the defining relations."""
    out = {}
    y = _terms(y)
    for a, ca in _terms(x):
        for b, cb in y:
            _accumulate(out, bracket_gen(a, b).terms.items(), ca * cb)
    return LieElement(out)


def generator_window(max_index: int) -> list[Generator]:
    """C, C1 and every L(n), I(n) with |n| <= max_index, in canonical order."""
    window = [C, C1]
    window += [I(n) for n in range(-max_index, max_index + 1)]
    window += [L(n) for n in range(-max_index, max_index + 1)]
    return window


@dataclass
class JacobiReport:
    max_index: int
    triples_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def jacobi_report(max_index: int) -> JacobiReport:
    """Evaluate the Jacobi cyclic sum over every ordered generator triple
    with indices in [-max_index, max_index] and report any nonzero results.

    The rotations ``(a, b, c)``, ``(b, c, a)``, ``(c, a, b)`` have the same
    cyclic sum term for term, so it is evaluated once per rotation class, at
    the least of its index triples: ``(i, j, k)`` with ``i`` the least
    index and ``k > i`` unless ``i = j``.  Every ordered triple is still
    counted, and each one whose class sum is nonzero is reported, in
    product order.  Every bracket is read through ``bracket_gen``; the
    inner ones once per pair of the window, into a table kept for this call
    only, which holds the bracket's own terms and copies none.

    A nonempty violation list would mean the central terms fail to be a
    2-cocycle; the report is expected to be empty.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    window = generator_window(max_index)
    n = len(window)
    inner = [[bracket_gen(a, b).terms for b in window] for a in window]
    nonzero = []
    for i in range(n):
        for j in range(i, n):
            for k in range(i if i == j else i + 1, n):
                s = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    a = window[x]
                    for g, coef in inner[y][z].items():
                        _accumulate(s, bracket_gen(a, g).terms.items(), coef)
                if s:
                    value = str(LieElement(s))
                    nonzero += [(t, value) for t in {(i, j, k), (j, k, i), (k, i, j)}]
    nonzero.sort()
    violations = [(str(window[i]), str(window[j]), str(window[k]), v) for (i, j, k), v in nonzero]
    return JacobiReport(max_index, n**3, violations)
