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
hashes, compares and multiplies them.  A :class:`Generator` is a tuple, so
its hash, equality and canonical order are the built-in tuple ones.  The
structure constants ``m - n`` are ``int``; only the central coefficients
``(n^3 - n)/12`` are ``Fraction``.  The two mix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .scalars import Poly

__all__ = [
    "INDEX_LIMIT",
    "IndexLimitError",
    "Generator",
    "L",
    "I",
    "C",
    "C1",
    "Combination",
    "LieElement",
    "bracket_gen",
    "bracket",
    "sigma",
    "weight",
    "generator_window",
    "JacobiReport",
    "jacobi_report",
]

#: Construction of a mode with |index| beyond this bound is rejected.  Checked
#: construction turns a silent runaway index into a reported error; every
#: desk-scale computation stays far below it.
INDEX_LIMIT = 10**6

_RANK = {"C": 0, "C1": 1, "I": 2, "L": 3}


class IndexLimitError(ValueError):
    """A generator index exceeded the configured bound."""


class Generator(tuple):
    """One basis symbol: ``L(n)``, ``I(n)``, ``C`` or ``C1``.

    Stored as the tuple ``(rank, index, kind)`` with rank 0, 1, 2, 3 for C,
    C1, I, L, so hashing, equality and ``<`` run on the built-in tuple and
    tuple order is the canonical order ``C < C1 < I(n) asc < L(n) asc``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0):
        rank = _RANK.get(kind)
        if rank is None:
            raise ValueError(f"unknown generator kind {kind!r}")
        if rank < 2:
            if index != 0:
                raise ValueError("central generators carry no index")
        elif abs(index) > INDEX_LIMIT:
            raise IndexLimitError(f"index {index} exceeds the configured bound {INDEX_LIMIT}")
        return tuple.__new__(cls, (rank, index, kind))

    def __getnewargs__(self):
        return (self[2], self[1])

    kind = property(itemgetter(2))
    index = property(itemgetter(1))
    # The central generators have index 0, so the ad-L(0) eigenvalue (n for
    # L(n) and I(n), 0 for C, C1) is the index.
    weight = index

    @property
    def sort_key(self) -> tuple[int, int]:
        """Position in the canonical order C < C1 < I(n) asc < L(n) asc."""
        return self[:2]

    def __str__(self) -> str:
        if self[0] < 2:
            return self[2]
        return f"{self[2]}({self[1]})"

    __repr__ = __str__


def L(n: int) -> Generator:
    return Generator("L", n)


def I(n: int) -> Generator:
    return Generator("I", n)


C = Generator("C")
C1 = Generator("C1")


_ONE = 1


def _accumulate(out: dict, pairs, factor) -> None:
    """Add ``factor`` times the (key, coef) ``pairs`` into ``out``, dropping
    zeros: the one accumulation loop of every linear combination.  A
    coefficient or factor 1 is not multiplied out (CPython shares one int 1,
    so ``is`` finds it): it is the coefficient of a PBW insertion that was
    already normal, the most common case, and the factor of a sum."""
    for key, coef in pairs:
        s = out.get(key, 0) + (factor if coef is _ONE else coef if factor is _ONE else factor * coef)
        if s:
            out[key] = s
        else:
            out.pop(key, None)


class Combination:
    """A finite linear combination with exact coefficients: ``terms`` maps
    each key to its coefficient and holds no zero coefficient.  A
    combination is never mutated, so a sum with a zero operand returns the
    other operand itself.  A scalar is an ``int``, ``Fraction`` or ``Poly``.

    Subclasses supply the printing order of the keys (``_sorted_keys``) and
    how a key prints (``_format``); one whose constructor takes more than
    the terms also supplies ``_with``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: coef for key, coef in terms.items() if coef} if terms else {}

    def _with(self, terms) -> "Combination":
        """A combination of the same kind with the given terms."""
        return type(self)(terms)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        _accumulate(out, other.terms.items(), _ONE)
        return self._with(out)

    def __neg__(self):
        return self._with({key: -coef for key, coef in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, Poly)):
            return NotImplemented
        if not scalar:
            return self._with(None)
        return self._with({key: scalar * coef for key, coef in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _sorted_keys(self):
        """The keys in printing order."""
        return sorted(self.terms)

    @staticmethod
    def _format(key) -> str:
        return str(key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[key]}*{self._format(key)}" for key in self._sorted_keys())

    __repr__ = __str__


class LieElement(Combination):
    """A finite linear combination of generators with exact coefficients."""

    __slots__ = ()

    @classmethod
    def of(cls, gen: Generator, coef=1) -> "LieElement":
        return cls({gen: coef})


def _central_coeff(n: int) -> Fraction:
    return Fraction(n**3 - n, 12)


def _bracket_gen(a: Generator, b: Generator) -> LieElement:
    """The bracket of two basis symbols, in canonical form."""
    if a.kind in ("C", "C1") or b.kind in ("C", "C1"):
        return LieElement()
    n, m = a.index, b.index
    if a.kind == "I" and b.kind == "I":
        return LieElement()
    if a.kind == "L" and b.kind == "L":
        out = {}
        if m != n:
            out[L(n + m)] = m - n
        if n == -m:
            cc = _central_coeff(n)
            if cc:
                out[C] = cc
        return LieElement(out)
    if a.kind == "L":  # [L(n), I(m)]
        out = {}
        if m != n:
            out[I(n + m)] = m - n
        if n == -m:
            cc = _central_coeff(n)
            if cc:
                out[C1] = cc
        return LieElement(out)
    # [I(n), L(m)] = -[L(m), I(n)], from the body itself, so that what the
    # memo stores never depends on what the module name is bound to.
    return -_bracket_gen(b, a)


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


def sigma(x) -> LieElement:
    """The canonical involution: L(n) -> -L(-n), I(n) -> -I(-n), C -> -C,
    C1 -> -C1.

    It is an automorphism of the algebra (checked by the test suite on an
    index window) and exchanges raising and lowering modes.
    """
    # A bijection on generators (central ones have index 0), so no two
    # images collide.
    return LieElement({Generator(g.kind, -g.index): -coef for g, coef in _terms(x)})


def weight(g: Generator) -> int:
    """The ad-L(0) weight of a basis symbol."""
    return g.weight


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
    the least of the three index triples (met first in the loop), and every
    ordered triple is still counted and reported.

    A nonempty violation list would mean the central terms fail to be a
    2-cocycle; the report is expected to be empty.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    window = generator_window(max_index)
    report = JacobiReport(max_index=max_index)
    nonzero = {}
    for t in product(range(len(window)), repeat=3):
        i, j, k = t
        a, b, c = window[i], window[j], window[k]
        least = min(t, (j, k, i), (k, i, j))
        if least == t:
            s = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for g, coef in bracket_gen(y, z).terms.items():
                    _accumulate(s, bracket_gen(x, g).terms.items(), coef)
            if s:
                nonzero[t] = str(LieElement(s))
        report.triples_checked += 1
        if least in nonzero:
            report.violations.append((str(a), str(b), str(c), nonzero[least]))
    return report
