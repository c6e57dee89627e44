"""The two involutions of W(2,2) that the tests check against the engine.

``sigma`` is the canonical automorphism of the Lie algebra, ``L(n) ->
-L(-n)``, ``I(n) -> -I(-n)``, ``C -> -C``, ``C1 -> -C1``; it exchanges
raising and lowering modes.  ``omega`` is the transpose anti-involution of
the enveloping algebra, ``L(n) -> L(-n)``, ``I(n) -> I(-n)``, fixing ``C``
and ``C1`` and reversing products: the adjoint that defines the
contravariant form, which ``w22.verma.gram_matrix`` applies to one mode at a
time.
"""

from w22.algebra import Generator, LieElement
from w22.pbw import UEElement, normal_order


def _flip(g):
    """``g`` with its index negated; a central generator has index 0."""
    return Generator(g.kind, -g.index)


def sigma(x):
    """The image of a generator or Lie element under sigma."""
    terms = {x: 1} if isinstance(x, Generator) else x.terms
    return LieElement({_flip(g): -coef for g, coef in terms.items()})


def omega(u):
    """The image of an element of U under omega, in normal form."""
    out = UEElement()
    for word, coef in u.terms.items():
        out = out + coef * normal_order(tuple(map(_flip, reversed(word))))
    return out
