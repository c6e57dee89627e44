"""Output oracles that do not depend on the code under test.

Each check returns a list of problems; an empty list means the output passed.
The rewriter and the determinant formula below are written from the defining
relations of W(2,2) alone: they share no code with ``w22.pbw`` or
``w22.linalg``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

# Generators as (rank, index) pairs, ordered C < C1 < I(n) asc < L(n) asc.
RANK = {"C": 0, "C1": 1, "I": 2, "L": 3}
C_, C1_, I_, L_ = 0, 1, 2, 3


def as_pair(g):
    """A ``w22`` generator as an oracle (rank, index) pair."""
    return (RANK[g.kind], g.index)


def _bracket(a, b):
    """The defining bracket on (rank, index) pairs, as (pair, coefficient)."""
    (ra, n), (rb, m) = a, b
    if ra in (C_, C1_) or rb in (C_, C1_) or (ra == I_ and rb == I_):
        return []
    if ra == I_:  # [I(n), L(m)] = -[L(m), I(n)]
        return [(g, -c) for g, c in _bracket(b, a)]
    out = []
    if m != n:
        out.append(((rb, n + m), Fraction(m - n)))
    if n == -m and n**3 != n:
        out.append(((C_ if rb == L_ else C1_, 0), Fraction(n**3 - n, 12)))
    return out


@lru_cache(maxsize=None)  # the reversed words repeat within a run
def naive_normal_order(word):
    """Normal form of a tuple of (rank, index) pairs by repeatedly rewriting
    the leftmost adjacent inversion ``g h -> h g + [g, h]``."""
    out = {}
    pending = [(word, Fraction(1))]
    while pending:
        w, coef = pending.pop()
        i = next((k for k in range(len(w) - 1) if w[k + 1] < w[k]), None)
        if i is None:
            out[w] = out.get(w, 0) + coef
            continue
        pending.append((w[:i] + (w[i + 1], w[i]) + w[i + 2:], coef))
        for g, c in _bracket(w[i], w[i + 1]):
            pending.append((w[:i] + (g,) + w[i + 2:], coef * c))
    return {w: c for w, c in out.items() if c}


def check_normal_form(word, result, compare_naive):
    """Every output word is canonical and has the input's weight; for short
    words the whole result must equal the naive rewriter's."""
    problems = []
    weight = sum(idx for rank, idx in word if rank in (I_, L_))
    terms = {tuple(as_pair(g) for g in w): c for w, c in result.terms.items()}
    for w in terms:
        if any(w[k + 1] < w[k] for k in range(len(w) - 1)):
            problems.append(f"non-canonical output word {w}")
        if sum(idx for rank, idx in w if rank in (I_, L_)) != weight:
            problems.append(f"output word {w} has the wrong weight")
    if compare_naive and terms != naive_normal_order(tuple(word)):
        problems.append("normal form differs from the naive rewriter")
    return problems


def find_float(obj, path="output"):
    """Path to the first float inside an engine output, or None."""
    if isinstance(obj, float):
        return path
    if obj is None or isinstance(obj, (bool, int, Fraction, str)):
        return None
    if isinstance(obj, Mapping):
        for k, v in obj.items():
            hit = find_float(k, path) or find_float(v, f"{path}[{k!r}]")
            if hit:
                return hit
        return None
    if isinstance(obj, (list, tuple, set, frozenset)):
        for k, v in enumerate(obj):
            hit = find_float(v, f"{path}[{k}]")
            if hit:
                return hit
        return None
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            hit = find_float(getattr(obj, f.name), f"{path}.{f.name}")
            if hit:
                return hit
        return None
    for attr in ("terms", "coords"):  # Poly, UEElement, LieElement, VermaVector
        if hasattr(obj, attr):
            return find_float(getattr(obj, attr), f"{path}.{attr}")
    return None


# -- Gram determinant formula --------------------------------------------------


def two_colored_partitions(n):
    """p2(n): the number of pairs of partitions of total size n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return sum(p[k] * p[n - k] for k in range(n + 1))


def _bi_mul(a, b):
    """Product of polynomials in (c0, c1) stored as {(e0, e1): Fraction}."""
    out = {}
    for (a0, a1), x in a.items():
        for (b0, b1), y in b.items():
            e = (a0 + b0, a1 + b1)
            out[e] = out.get(e, 0) + x * y
    return {e: c for e, c in out.items() if c}


def det_formula(n):
    """prod_{m <= n} (2 c0 - (m^2 - 1)/12 c1)^(2 sum_{k >= 1} p2(n - m k)),
    as a polynomial in (c0, c1)."""
    out = {(0, 0): Fraction(1)}
    for m in range(1, n + 1):
        exponent = 2 * sum(two_colored_partitions(n - m * k) for k in range(1, n // m + 1))
        factor = {(1, 0): Fraction(2)}
        if m > 1:
            factor[(0, 1)] = -Fraction(m * m - 1, 12)
        for _ in range(exponent):
            out = _bi_mul(out, factor)
    return out


def check_gram_det(n, det):
    """det / det_formula(n) must be a nonzero rational constant."""
    terms = {}
    for exp, coef in det.terms.items():
        if exp[0] or exp[1]:
            return [f"level-{n} det depends on lambda or c: {det}"]
        terms[(exp[2], exp[3])] = coef
    formula = det_formula(n)
    lead = max(formula)
    ratio = Fraction(terms.get(lead, 0)) / formula[lead]
    if not ratio or terms != {e: ratio * c for e, c in formula.items()}:
        return [f"level-{n} det is not a nonzero multiple of the product formula"]
    return []


def locus_level(c0, c1, top):
    """Smallest m <= top with 2 c0 = (m^2 - 1)/12 c1, or None."""
    return next((m for m in range(1, top + 1) if 2 * c0 == Fraction(m * m - 1, 12) * c1), None)
