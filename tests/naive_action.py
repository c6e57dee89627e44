"""Reference Verma action for the tests: the straightening recursion run at
one parameter point, with the parameters' values in every coefficient.

``naive_act_on_monomial(g, mono, p)`` gives the coordinates of g acting on
one basis monomial as (monomial, coeff) pairs.  It shares no table with
``w22.verma``, which builds every image once without a point and evaluates
it per point; the evaluated images must equal these.
"""

from functools import lru_cache

from w22.algebra import _accumulate, bracket_gen
from w22.pbw import normal_order
from w22.verma import EMPTY_MONOMIAL, BasisMonomial


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
        return tuple(
            (BasisMonomial.of_word(w), c)
            for w, c in normal_order((g,) + mono.word()).terms.items()
        )
    if kind == "L" and k == 0:
        return ((mono, p.lam - mono.level()),)
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
