"""Reference Verma action for the tests: the straightening recursion run at
one parameter point, with the parameters' values in every coefficient.

``naive_act_on_monomial(g, mono, p)`` gives the coordinates of g acting on
one basis monomial as (monomial, coeff) pairs.  It shares no table with
``w22.verma``, which builds every image once without a point and evaluates
it per point; the evaluated images must equal these.  A negative mode acts
here by ``w22.pbw.normal_order``, a path ``w22.verma`` does not take, and
L(0) and the I modes on an I-only monomial by their closed forms.

``per_point_i0`` and ``per_point_i0_degree`` assemble I(0) on a level at one
point from ``act``, with no use of the point-free part of I(0) that
``i0_matrix`` reads from a per-level table.

``pairing_gram`` assembles the Gram matrix by brute force, applying every
row word letter by letter to every column unit, with none of the level
recursion of ``gram_matrix``.

``act_element`` and ``apply_word`` extend ``act`` to algebra elements and
to products of generators, and ``level_of`` reads the level of a monomial.
"""

from fractions import Fraction
from functools import lru_cache

from w22.algebra import Generator, I, bracket_gen
from w22.pbw import normal_order
from w22.scalars import _accumulate
from w22.verma import DEFAULT_MAX_LEVEL, EMPTY_MONOMIAL, BasisMonomial, VermaVector, act, level_basis


def act_element(x, w, p):
    """Linear extension of ``act`` to algebra elements.

    Only meaningful when every term of x has the same weight (otherwise the
    result would not be homogeneous)."""
    weights = {g.weight for g in x.terms}
    if len(weights) > 1:
        raise ValueError("cannot act by a mixed-weight element on one level")
    level = w.level - (weights.pop() if weights else 0)
    result = VermaVector(max(level, 0))
    for g, coef in x.terms.items():
        result = result + coef * act(g, w, p)
    return result


def apply_word(word, w, p):
    """Apply a product of generators, rightmost factor first."""
    for g in reversed(tuple(word)):
        w = act(g, w, p)
    return w


def level_of(mono):
    """The level of a basis monomial: the sum of its parts."""
    return sum(mono.i_part) + sum(mono.l_part)


def _monomial(word):
    """The basis monomial of a normal word in negative modes."""
    return BasisMonomial(*(tuple(-x.index for x in word if x.kind == kind) for kind in ("I", "L")))


@lru_cache(maxsize=None)
def naive_act_on_monomial(g, mono, p):
    """A negative mode acts by normal ordering in U; any other generator
    moves right through ``mono = h t`` by ``g h t v = h (g t v) + [g, h] t
    v`` until it meets v."""
    kind, k = g.kind, g.index
    if kind == "C":
        return ((mono, p.c),)
    if kind == "C1":
        return ((mono, p.c1),)
    if k < 0:
        return tuple((_monomial(w), c) for w, c in normal_order((g,) + mono.word()).terms.items())
    if kind == "L" and k == 0:
        return ((mono, p.lam - level_of(mono)),)
    if kind == "I" and not mono.l_part:
        return ((mono, p.c0),) if k == 0 else ()
    if mono == EMPTY_MONOMIAL:
        return ()
    head, tail = mono.split_head()
    out = {}
    for m2, s2 in naive_act_on_monomial(g, tail, p):
        _accumulate(out, naive_act_on_monomial(head, m2, p), s2)
    for gen2, bc in bracket_gen(g, head).terms.items():
        _accumulate(out, naive_act_on_monomial(gen2, tail, p), bc)
    return tuple(out.items())


def naive_image(g, mono, p) -> dict:
    """The oracle's image as a dict without zero coordinates."""
    return {m: c for m, c in naive_act_on_monomial(g, mono, p) if c}


def per_point_i0(n, p):
    """The matrix of I(0) on level n at p: column j is the image under
    ``act`` of the j-th basis vector with coefficient ``Fraction(1)``."""
    basis = level_basis(n)
    images = [act(I(0), VermaVector(n, {b: Fraction(1)}), p) for b in basis]
    return [[w.terms.get(b, p.ring.zero) for w in images] for b in basis]


def per_point_i0_degree(n, p):
    """The least e <= n + 1 with ``(I(0) - c0)^e = 0`` on level n, applying
    ``w -> act(I(0), w) - c0 w`` at p to every basis vector; None if none."""
    vectors = [VermaVector(n, {b: Fraction(1)}) for b in level_basis(n)]
    for e in range(1, n + 2):
        vectors = [w for w in (act(I(0), w, p) + (-p.c0) * w for w in vectors) if w]
        if not vectors:
            return e
    return None


def _pairing(row_word, col_vec, p):
    """<row at v, col_vec> via the transpose anti-involution, given the
    row's word with every mode negated: its first letter acts first."""
    vec = col_vec
    for g in row_word:
        vec = act(g, vec, p)
    value = vec.terms.get(EMPTY_MONOMIAL, None)
    return value if value is not None else p.ring.zero


def pairing_gram(n, p, max_level=DEFAULT_MAX_LEVEL):
    """The entries of the level-n Gram matrix at p: each row word with its
    modes negated (omega), paired with every ``Fraction(1)`` column unit."""
    basis = level_basis(n, max_level)
    units = [VermaVector(n, {b: Fraction(1)}) for b in basis]
    rows = [tuple(Generator(g.kind, -g.index) for g in b.word()) for b in basis]
    return [[_pairing(row, uj, p) for uj in units] for row in rows]
