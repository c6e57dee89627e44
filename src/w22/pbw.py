"""Universal enveloping algebra with PBW normal ordering.

Monomials are words in the generators; a word is in normal form when it is
nondecreasing in the canonical order ``C < C1 < I(n) (asc) < L(n) (asc)``.
So a normal word is a block ``P`` of commuting letters (``C``, ``C1``,
``I``) followed by a Virasoro word ``W`` of ``L`` letters: the ``I(n)`` span
an abelian ideal, and ``[L(n), I(m)]`` lies in ``span{I, C1}``.

A word is folded into normal form letter by letter, rightmost first, on
buckets ``{block: {word: coef}}``.  A bucket's block is the sorted ``C1``
and ``I`` letters of its terms; each of its words is the ``C`` letters
followed by the ``L`` word.  ``C`` rides with the word because the
Virasoro table emits it there; ``C1`` rides with the block because
``[L(k), I(-k)]`` emits it there.  Every term of one bucket has the same
block, so a letter does the block's work once per bucket, not per term:

* ``C`` goes to the front of every word.
* ``C1`` or ``I(k)`` commutes with the block and precedes every ``L``, so
  it is placed into each block by sorted insertion.  Placement is
  injective, so the buckets are re-keyed and their words kept as they are.
* ``L(k)`` is inserted into each word of a bucket by :func:`_insert`, and
  ``ad L(k)``, a derivation that maps the block's letters into the abelian
  block, acts once per bucket: ``L(k) P W = P (L(k) W) + sum over the
  letters p of P of (P with p replaced by [L(k), p]) W``.  Each
  ``[L(k), I(j)]`` is placed into the block less one ``I(j)``, and the
  bucket's words go there as they are, times the multiplicity of ``I(j)``.

:func:`_insert` rewrites ``L(k)`` into a word of ``C`` and ``L`` letters:
``g h t`` is normal when ``g <= h``, and otherwise ``g h t = h (g t) +
[g, h] t``, two insertions into shorter words.  Each (generator, Virasoro
word) table depends on no parameter point, so it is built once per
process: a Virasoro word is rewritten once however many blocks stand
before it and however many calls meet it.  At the end each bucket is
joined into normal words: ``C`` letters, then the block, then the ``L``
word.

Rewriting terminates and the normal form is unique (PBW), so the order in
which inversions are rewritten does not matter.

A word is a tuple of :class:`~w22.algebra.Generator` ints, so table keys
and output words hash and compare as tuples of ints.  Coefficients stay
``int`` until a central term ``(n^3 - n)/12`` that is not an integer
brings in a ``Fraction``.

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


def _place(g: Generator, block: Word) -> Word:
    """The letter ``g`` (``C1`` or ``I(k)``) placed into the sorted
    ``block`` by sorted insertion.  For a fixed ``g`` this is injective:
    removing one ``g`` gives ``block`` back."""
    i = bisect_right(block, g)
    return block[:i] + (g,) + block[i:]


def _insert(g: Generator, word: Word) -> Iterable:
    """``g`` times the word ``word`` of ``C`` and ``L`` letters, as (normal
    word, coef) pairs.

    ``g`` is an ``L`` letter, or ``C`` in front of a Virasoro word (a
    central term of :func:`_virasoro_table`); :func:`_fold` keeps the
    ``C1`` and ``I`` letters in the block and applies ``ad L(k)`` there.

    * ``g <= word[0]``: ``g word`` is already normal.
    * ``word`` starts with ``C`` letters: they commute with ``g`` and stay
      in front of ``g`` times the rest.
    * Otherwise ``word`` is a Virasoro word: the table
      :func:`_virasoro_table`, built once per process.
    """
    if not word or g <= word[0]:
        return (((g,) + word, _ONE),)
    if word[0] < _FIRST_L:
        p = bisect_left(word, _FIRST_L)
        prefix = word[:p]
        return [(prefix + w, c) for w, c in _insert(g, word[p:])]
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


def _split(terms: dict) -> dict:
    """Normal-form ``terms`` as buckets ``{block: {word: coef}}``: the block
    is a word's ``C1`` and ``I`` letters, the word its ``C`` letters and its
    ``L`` word."""
    buckets = {}
    for w, c in terms.items():
        p = bisect_right(w, C)
        q = bisect_left(w, _FIRST_L, p)
        buckets.setdefault(w[p:q], {})[w[:p] + w[q:]] = c
    return buckets


def _fold(word: Word, buckets: dict) -> dict:
    """``word`` times the buckets of :func:`_split`, rightmost letter first,
    as new buckets (see the module docstring).  The inner dicts of
    ``buckets`` are never changed; a letter that only re-keys the blocks
    hands them on as they are."""
    for g in reversed(word):
        if g < _FIRST_L:
            if g < C1:
                buckets = {b: {(g,) + w: c for w, c in ws.items()} for b, ws in buckets.items()}
            else:
                buckets = {_place(g, b): ws for b, ws in buckets.items()}
            continue
        out = {}
        for block, ws in buckets.items():
            step = out.setdefault(block, {})
            for w, c in ws.items():
                _accumulate(step, _insert(g, w), c)
            n = len(block)
            i = bisect_right(block, C1)
            while i < n:
                h = block[i]
                j = bisect_right(block, h, i)
                rest = block[:i] + block[i + 1:]
                for gen, bc in bracket_gen(g, h).terms.items():
                    target = _place(gen, rest)
                    factor = (j - i) * bc
                    into = out.get(target)
                    if into is None:
                        out[target] = {w: factor * c for w, c in ws.items()}
                    else:
                        _accumulate(into, ws.items(), factor)
                i = j
        buckets = out
    return buckets


def _join(buckets: dict) -> dict:
    """The normal-form terms of ``buckets``: each word's ``C`` letters, then
    its block, then its ``L`` word.  Blocks and words are recovered from the
    joined word, so no two terms meet."""
    if len(buckets) == 1 and () in buckets:
        return buckets[()]
    out = {}
    for block, ws in buckets.items():
        for w, c in ws.items():
            a = bisect_right(w, C)
            out[w[:a] + block + w[a:] if a else block + w] = c
    return out


def normal_order(word) -> UEElement:
    """Rewrite an arbitrary word into its unique PBW normal form.

    Rewriting never lengthens a word, so only the input length is checked
    against ``WORD_LIMIT``.
    """
    word = tuple(word)
    if len(word) > WORD_LIMIT:
        raise WordLengthError(f"word of length {len(word)} exceeds bound {WORD_LIMIT}")
    return UEElement._with(_join(_fold(word, {(): {(): _ONE}})))


def multiply(u: UEElement, v: UEElement) -> UEElement:
    """The associative product of U, returned in normal form.

    The right factor is split into buckets once per call, and each left
    word is folded into them.  A right factor whose words are not all normal
    is normal-ordered first, into buckets, because the fold inserts letters
    into normal words only."""
    right_len = v.max_word_length()
    n = u.max_word_length() + right_len
    if n > WORD_LIMIT:
        raise WordLengthError(f"product of length {n} exceeds bound {WORD_LIMIT}")
    if right_len > 1 and not all(map(_is_normal, v.terms)):
        right = {}
        for word, coef in v.terms.items():
            for block, ws in _fold(word, {(): {(): _ONE}}).items():
                _accumulate(right.setdefault(block, {}), ws.items(), coef)
    else:
        right = _split(v.terms)
    out = {}
    for word, coef in u.terms.items():
        _accumulate(out, _join(_fold(word, right)).items(), coef)
    return UEElement._with(out)


def commutator(u: UEElement, v: UEElement) -> UEElement:
    return multiply(u, v) - multiply(v, u)

