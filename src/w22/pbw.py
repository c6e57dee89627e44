"""Universal enveloping algebra with PBW normal ordering.

Monomials are words in the generators; a word is in normal form when it is
nondecreasing in the canonical order ``C < C1 < I(n) (asc) < L(n) (asc)``.
So a normal word is a block ``P`` of commuting letters (``C``, ``C1``,
``I``) followed by a Virasoro word ``W`` of ``L`` letters: the ``I(n)`` span
an abelian ideal, and ``[L(n), I(m)]`` lies in ``span{I, C1}``.

A word is folded into normal form letter by letter, rightmost first.  A
commuting letter ``C``, ``C1`` or ``I(k)`` commutes with every letter of
``P`` and precedes every ``L``, so it is placed into ``P`` by sorted
insertion, in every term at once.  An ``L`` letter goes through one kernel,
the insertion of ``g = L(k)`` into a normal word ``P W``, which takes one of
two cases:

* ``g = L(k)`` and ``P`` is not empty: ``ad g`` is a derivation that maps
  ``P``'s letters into the abelian block, so ``g P W = P (g W) + sum over
  the letters p of P of (P with p replaced by [g, p]) W``.  Each ``[g, p]``
  is placed by sorted insertion; only ``g W`` is rewritten further.
* ``g = L(k)`` and ``P`` is empty: ``g h t`` is normal when ``g <= h``, and
  otherwise ``g h t = h (g t) + [g, h] t``, two insertions into shorter
  words.  Each (generator, Virasoro word) table depends on no parameter
  point, so it is built once per process: a Virasoro word is rewritten once
  however many blocks ``P`` stand before it and however many calls meet it.

Rewriting terminates and the normal form is unique (PBW), so the order in
which inversions are rewritten does not matter.

A word is a tuple of :class:`~w22.algebra.Generator` tuples, so table keys
and output words hash and compare in C.  Coefficients stay ``int`` until a
central term brings in a ``Fraction``.

``C`` and ``C1`` stay formal generators here; they are only evaluated to
scalars inside the Verma machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain
from operator import le

from .algebra import C, C1, INDEX_LIMIT, Generator, L, LieElement, bracket_gen
from .scalars import _ONE, Combination, _accumulate

__all__ = [
    "WORD_LIMIT",
    "WordLengthError",
    "UEElement",
    "normal_order",
    "multiply",
    "commutator",
    "ue",
]

#: Bound on the length of a word entering the rewriter or formed by a product.
WORD_LIMIT = 64

Word = tuple

# The least L letter: every C, C1 and I letter sorts before it.
_FIRST_L = L(-INDEX_LIMIT)


class WordLengthError(ValueError):
    """A word exceeded the configured length bound."""


class UEElement(Combination):
    """A linear combination of normal-form words (an element of U)."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, UEElement):
            return multiply(self, other)
        return Combination.__mul__(self, other)

    def max_word_length(self) -> int:
        return max(map(len, self.terms), default=0)

    def _sorted_keys(self):
        return sorted(self.terms, key=lambda word: (len(word), word))

    @staticmethod
    def _format(word) -> str:
        return "".join(str(g) for g in word) if word else "1"


def ue(x) -> UEElement:
    """Lift a generator, a Lie element, or a scalar into U."""
    if isinstance(x, UEElement):
        return x
    if isinstance(x, Generator):
        return UEElement({(x,): 1})
    if isinstance(x, LieElement):
        return UEElement({(g,): c for g, c in x.terms.items()})
    return UEElement({(): x})


def _place(g: Generator, word: Word) -> Word:
    """The commuting letter ``g`` (``C``, ``C1`` or ``I(k)``) placed into
    the normal word ``word`` by sorted insertion.  For a fixed ``g`` this is
    injective on normal words: removing one ``g`` gives ``word`` back."""
    i = bisect_right(word, g)
    return word[:i] + (g,) + word[i:]


def _insert(g: Generator, word: Word) -> Iterable:
    """``g`` times the normal word ``word``, as (normal word, coef) pairs.

    ``g`` is an ``L`` letter, or ``C`` in front of a Virasoro word (a
    central term of :func:`_virasoro_table`); :func:`_fold` places the
    other commuting letters itself.  With ``word = P W`` (``P`` the letters
    before the first ``L``):

    * ``g <= word[0]``: ``g word`` is already normal.
    * ``g = L(k)``, ``P`` not empty: ``P (g W)`` plus, for each ``I(j)`` in
      ``P`` (times its multiplicity), ``P`` with one ``I(j)`` replaced by
      ``[L(k), I(j)]``, followed by ``W``, because ``ad L(k)`` is a
      derivation into the commuting block.
    * ``g = L(k)``, ``P`` empty: the table :func:`_virasoro_table`, built
      once per process.
    """
    if not word or g <= word[0]:
        return (((g,) + word, _ONE),)
    if word[0] < _FIRST_L:
        p = bisect_left(word, _FIRST_L)
        prefix, block = word[:p], word[p:]
        out = {}
        # The central terms of g W bring C letters; they go before P.
        for w, c in _insert(g, block):
            a = bisect_right(w, C)
            out[w[:a] + prefix + w[a:]] = c
        i = bisect_right(prefix, C1)
        while i < p:
            h = prefix[i]
            j = bisect_right(prefix, h, i)
            rest = prefix[:i] + prefix[i + 1:]
            for gen, bc in bracket_gen(g, h).terms.items():
                _accumulate(out, ((_place(gen, rest) + block, bc),), j - i)
            i = j
        return out.items()
    it = iter(_virasoro_table(g, word))
    return zip(it, it)


@lru_cache(maxsize=None)
def _virasoro_table(g: Generator, word: Word) -> tuple:
    """``g`` times the Virasoro word ``word``, for ``g > word[0]``, as the
    flat tuple ``(w1, c1, w2, c2, ...)`` of normal words and coefficients.

    ``g h t = h (g t) + [g, h] t`` for ``word = h t``: two insertions into
    shorter words.  A table depends on no parameter point, so it is built
    once per process and shared by every call and by every block ``P``
    standing before the word.  ``cache_info()`` reads the number of tables
    and ``cache_clear()`` drops them.  The flat tuple is the smallest
    immutable store of the pairs, and each word in it is the one copy kept
    in :data:`_WORDS`.
    """
    h, tail = word[0], word[1:]
    out = {}
    for w, c in _insert(g, tail):
        _accumulate(out, _insert(h, w), c)
    for gen, bc in bracket_gen(g, h).terms.items():
        _accumulate(out, _insert(gen, tail), bc)
    return tuple(chain.from_iterable(zip(map(_WORDS.setdefault, out, out), out.values())))


#: One tuple per distinct word of the tables: a normal word reached from
#: many (generator, word) keys is stored once.  It changes no value, so
#: ``_virasoro_table.cache_clear()`` leaves it.
_WORDS: dict = {}


def _is_normal(word: Word) -> bool:
    return all(map(le, word, word[1:]))


def _fold(word: Word, terms: dict) -> dict:
    """``word`` times the normal-form ``terms``, rightmost letter first.

    A commuting letter (``C``, ``C1`` or ``I(k)``) commutes with every
    letter of the block ``P`` and precedes every ``L``, so it is placed into
    every word by sorted insertion in one pass: placement is injective and
    keeps each coefficient, so no two words meet.  An ``L`` letter goes
    through :func:`_insert`."""
    for g in reversed(word):
        if g < _FIRST_L:
            terms = {_place(g, w): c for w, c in terms.items()}
            continue
        step = {}
        for w, c in terms.items():
            _accumulate(step, _insert(g, w), c)
        terms = step
    return terms


def normal_order(word) -> UEElement:
    """Rewrite an arbitrary word into its unique PBW normal form.

    Rewriting never lengthens a word, so only the input length is checked
    against ``WORD_LIMIT``.
    """
    word = tuple(word)
    if len(word) > WORD_LIMIT:
        raise WordLengthError(f"word of length {len(word)} exceeds bound {WORD_LIMIT}")
    return UEElement._with(_fold(word, {(): _ONE}))


def multiply(u: UEElement, v: UEElement) -> UEElement:
    """The associative product of U, returned in normal form.

    A right factor whose words are not all normal is normal-ordered first,
    because the fold inserts letters into normal words only."""
    right_len = v.max_word_length()
    n = u.max_word_length() + right_len
    if n > WORD_LIMIT:
        raise WordLengthError(f"product of length {n} exceeds bound {WORD_LIMIT}")
    right = v.terms
    if right_len > 1 and not all(map(_is_normal, right)):
        right = {}
        for word, coef in v.terms.items():
            _accumulate(right, _fold(word, {(): _ONE}).items(), coef)
    out = {}
    for word, coef in u.terms.items():
        _accumulate(out, _fold(word, right).items(), coef)
    return UEElement._with(out)


def commutator(u: UEElement, v: UEElement) -> UEElement:
    return multiply(u, v) - multiply(v, u)

