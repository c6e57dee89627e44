"""Reference kernel for the tests: the dense action matrices and plain
Gauss-Jordan elimination over the rationals.

``dense_nullspace`` puts the matrix in reduced row echelon form and returns
one normalized kernel vector per free column, in ascending free-column order.
``action_rows`` writes the action of one generator from level n to its
target level as a dense matrix in the canonical bases.  Together they give
the singular vectors the slow, obvious way; ``w22.linalg.nullspace`` on the
sparse action images must give the same list.
"""

from fractions import Fraction

from w22.linalg import _normalize
from w22.verma import VermaVector, act, level_basis


def action_rows(g, n, p, max_level):
    """Rows of the matrix of act(g): level n -> level n - weight(g)."""
    src = level_basis(n, max_level)
    tgt_level = n - g.weight
    if tgt_level < 0:
        return []
    tgt = level_basis(tgt_level, max_level)
    index = {b: i for i, b in enumerate(tgt)}
    columns = []
    for b in src:
        vec = act(g, VermaVector(n, {b: Fraction(1)}), p)
        col = [p.ring.zero] * len(tgt)
        for mono, coef in vec.terms.items():
            col[index[mono]] = coef
        columns.append(col)
    return [[columns[j][i] for j in range(len(src))] for i in range(len(tgt))]


def dense_nullspace(rows, ncols):
    """Basis of the exact kernel of a rational matrix, one normalized vector
    per free column, in ascending free-column order."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []  # (row, col)
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in pivots:
            vec[col] = -m[row][free]
        basis.append(_normalize(vec))
    return basis
