"""Exact linear algebra: a fraction-free sparse kernel.

:func:`nullspace` computes kernels of integer matrices by sparse column
elimination in integers.
"""

from __future__ import annotations

from math import gcd

from .scalars import _accumulate

__all__ = ["nullspace"]


def _primitive(vec, combo, key):
    """A reduced column and its combination divided by the gcd of all their
    entries, signed so that the entry at ``key`` is positive."""
    g = gcd(*vec.values(), *combo.values())
    if vec[key] < 0:
        g = -g
    if g == 1:
        return vec, combo
    return {k: x // g for k, x in vec.items()}, {i: x // g for i, x in combo.items()}


def _normalize(combo, size):
    """The combination as a primitive integer vector of ``size`` entries with
    positive leading entry (deterministic representative of its line)."""
    g = gcd(*combo.values())
    if combo[min(combo)] < 0:
        g = -g
    return [combo[i] // g if i in combo else 0 for i in range(size)]


def nullspace(columns):
    """Basis of the exact kernel of the matrix whose columns are the sparse
    dicts ``key -> nonzero int``: for each column that depends on the
    earlier ones, its unique relation to the earlier independent columns,
    normalized.  This is the list that any exact elimination gives, e.g.
    one free column at a time from the reduced row echelon form.

    The elimination is fraction-free.  Each independent column is kept
    with the combination of columns it stands for, the two primitive
    together, with a positive pivot at its least key.  A new column is
    reduced at its least key while that key is a pivot, as ``a vec - b
    pivot`` with ``a, b`` coprime; what is left is zero or independent."""
    pivots = {}  # least key -> (reduced column, its combination of columns)
    basis = []
    for j, column in enumerate(columns):
        vec = dict(column)
        combo = {j: 1}
        while vec:
            key = min(vec)
            if key not in pivots:
                pivots[key] = _primitive(vec, combo, key)
                break
            reduced, origin = pivots[key]
            g = gcd(reduced[key], vec[key])
            a, b = reduced[key] // g, vec[key] // g
            if a != 1:
                vec = {k: a * x for k, x in vec.items()}
                combo = {i: a * x for i, x in combo.items()}
            _accumulate(vec, reduced.items(), -b)
            _accumulate(combo, origin.items(), -b)
        else:
            basis.append(_normalize(combo, len(columns)))
    return basis
