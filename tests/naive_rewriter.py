"""Reference PBW rewriter for the tests: no memo, no sharing of work.

It rewrites one adjacent inversion ``g h -> h g + [g, h]`` at a time, either
the leftmost or the rightmost one first, until every word is normal.  By PBW
both orders must agree with each other and with ``w22.pbw.normal_order``.
"""

from fractions import Fraction

from w22.algebra import bracket_gen
from w22.pbw import UEElement


def naive_normal_order(word, strategy):
    out = {}
    pending = [(tuple(word), Fraction(1))]
    while pending:
        w, coef = pending.pop()
        spots = [i for i in range(len(w) - 1) if w[i + 1] < w[i]]
        if not spots:
            out[w] = out.get(w, 0) + coef
            continue
        i = {"leftmost": spots[0], "rightmost": spots[-1]}[strategy]
        head, g, h, tail = w[:i], w[i], w[i + 1], w[i + 2:]
        pending.append((head + (h, g) + tail, coef))
        for gen, bc in bracket_gen(g, h).terms.items():
            pending.append((head + (gen,) + tail, coef * bc))
    return UEElement(out)
