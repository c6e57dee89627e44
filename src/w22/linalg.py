"""Exact linear algebra: a sparse rational kernel.

:func:`nullspace` computes kernels over the rationals by sparse column
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import _accumulate, _integer_terms

__all__ = ["nullspace"]


def _normalize(vec):
    """Scale a rational vector to a primitive integer vector with positive
    leading entry (deterministic representative of its line)."""
    _, ints = _integer_terms(dict(enumerate(vec)))
    g = 0
    for _, v in ints:
        g = gcd(g, v)
    if next(v for _, v in ints if v) < 0:
        g = -g
    return [Fraction(v // g) for _, v in ints]


def nullspace(columns):
    """Basis of the exact kernel of the matrix whose columns are the sparse
    dicts ``key -> nonzero coefficient``, as from the reduced row echelon
    form: one normalized vector per column that depends on the earlier ones.
    Each independent column is kept scaled to 1 at its pivot, its least key,
    with the combination of columns it stands for.  A new column is reduced
    at its least key while that key is a pivot; what is left is zero or
    independent."""
    pivots = {}  # least key -> (reduced column, its combination of columns)
    basis = []
    for j, column in enumerate(columns):
        vec = dict(column)
        combo = {j: Fraction(1)}
        while vec:
            key = min(vec)
            if key not in pivots:
                inv = 1 / Fraction(vec[key])
                pivots[key] = ({k: c * inv for k, c in vec.items()}, {i: c * inv for i, c in combo.items()})
                break
            reduced, origin = pivots[key]
            factor = -vec[key]
            _accumulate(vec, reduced.items(), factor)
            _accumulate(combo, origin.items(), factor)
        else:
            basis.append(_normalize([combo.get(i, 0) for i in range(len(columns))]))
    return basis
