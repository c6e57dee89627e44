"""Universal enveloping algebra with PBW normal ordering.

Monomials are words in the generators; a word is in normal form when it is
nondecreasing in the canonical order ``C < C1 < I(n) (asc) < L(n) (asc)``.
With this order the I modes, which commute among themselves, collect into a
block before the L modes, which keeps module actions cheap.

All rewriting goes through one kernel, the insertion of a generator g into a
normal word ``h t``: ``g h t`` is normal when ``g <= h``, and otherwise
``g h t = h (g t) + [g, h] t``, two insertions into shorter normal words.
Insertions are memoised on (generator, word) for the length of one call.
Rewriting terminates and the normal form is unique (PBW), so the order in
which inversions are rewritten does not matter.

A word is a tuple of :class:`~w22.algebra.Generator` tuples, so memo keys
and output words hash and compare in C.  Coefficients stay ``int`` until a
central term brings in a ``Fraction``.

``C`` and ``C1`` stay formal generators here; they are only evaluated to
scalars inside the Verma machinery.
"""

from __future__ import annotations

from operator import le

from .algebra import _ONE, Combination, Generator, LieElement, _accumulate, bracket_gen

__all__ = [
    "WORD_LIMIT",
    "WordLengthError",
    "UEElement",
    "normal_order",
    "multiply",
    "commutator",
    "omega",
    "ue",
]

#: Bound on the length of a word entering the rewriter or formed by a product.
WORD_LIMIT = 64

Word = tuple


class WordLengthError(ValueError):
    """A word exceeded the configured length bound."""


class UEElement(Combination):
    """A linear combination of normal-form words (an element of U)."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "UEElement":
        return cls({(): 1})

    def __mul__(self, other):
        if isinstance(other, UEElement):
            return multiply(self, other)
        return Combination.__mul__(self, other)

    def max_word_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

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


def _insert(g: Generator, word: Word, memo: dict) -> tuple:
    """``g`` times the normal word ``word``, as (normal word, coef) pairs."""
    if not word or g <= word[0]:
        return (((g,) + word, _ONE),)
    key = (g, word)
    hit = memo.get(key)
    if hit is None:
        h, tail = word[0], word[1:]
        out = {}
        for w, c in _insert(g, tail, memo):
            _accumulate(out, _insert(h, w, memo), c)
        for gen, bc in bracket_gen(g, h).terms.items():
            _accumulate(out, _insert(gen, tail, memo), bc)
        hit = memo[key] = tuple(out.items())
    return hit


def _is_normal(word: Word) -> bool:
    return all(map(le, word, word[1:]))


def _fold(word: Word, terms: dict, memo: dict) -> dict:
    """``word`` times the normal-form ``terms``, rightmost letter first."""
    for g in reversed(word):
        step = {}
        for w, c in terms.items():
            _accumulate(step, _insert(g, w, memo), c)
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
    return UEElement(_fold(word, {(): _ONE}, {}))


def multiply(u: UEElement, v: UEElement) -> UEElement:
    """The associative product of U, returned in normal form.

    A right factor whose words are not all normal is normal-ordered first,
    because the fold inserts letters into normal words only."""
    right_len = v.max_word_length()
    n = u.max_word_length() + right_len
    if n > WORD_LIMIT:
        raise WordLengthError(f"product of length {n} exceeds bound {WORD_LIMIT}")
    memo = {}
    right = v.terms
    if right_len > 1 and not all(map(_is_normal, right)):
        right = {}
        for word, coef in v.terms.items():
            _accumulate(right, _fold(word, {(): _ONE}, memo).items(), coef)
    out = {}
    for word, coef in u.terms.items():
        _accumulate(out, _fold(word, right, memo).items(), coef)
    return UEElement(out)


def commutator(u: UEElement, v: UEElement) -> UEElement:
    return multiply(u, v) - multiply(v, u)


def omega(u: UEElement) -> UEElement:
    """The transpose anti-involution: L(n) -> L(-n), I(n) -> I(-n), fixes C
    and C1, and reverses products.

    It is the adjoint used to define the contravariant form on Verma modules.
    """
    out = {}
    for word, coef in u.terms.items():
        image = tuple(Generator(g.kind, -g.index) for g in reversed(word))  # central: index 0
        _accumulate(out, normal_order(image).terms.items(), coef)
    return UEElement(out)
