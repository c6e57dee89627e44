"""Verma modules M(lambda, c, c0, c1) for the W(2,2) algebra.

The highest weight vector v satisfies ``L(k) v = I(k) v = 0`` for k > 0,
``L(0) v = lambda v``, ``I(0) v = c0 v``, and the central elements act as the
scalars c and c1.  Level n is the weight space of L(0)-weight ``lambda - n``;
its basis is indexed by pairs of partitions (one for the I modes, one for the
L modes) of total size n, matching the PBW words ``I(-j1)..I(-jr)
L(-k1)..L(-ks) v``.

The generator action is computed by straightening.  The basis words are
exactly the PBW normal words of U(n-), so a negative mode acts by
:func:`w22.pbw.normal_order`.  Any other generator is commuted through a
basis word with the defining bracket until it hits the highest weight
vector.  Everything is exact, and works identically over rational parameters
and over the symbolic polynomial ring in (lambda, c, c0, c1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from typing import NamedTuple, Optional

from . import linalg
from .algebra import Combination, Generator, I, L, LieElement, _accumulate, bracket_gen
from .pbw import normal_order
from .scalars import PARAM_POLYS, QQ

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "LevelBoundError",
    "HWParams",
    "BasisMonomial",
    "EMPTY_MONOMIAL",
    "VermaVector",
    "partitions",
    "partition_pairs",
    "level_basis",
    "act",
    "act_element",
    "apply_word",
    "highest_weight_vector",
    "GramMatrix",
    "gram_matrix",
    "shapovalov_det",
    "SingularVector",
    "singular_vectors",
    "is_reducible",
    "I0Report",
    "i0_matrix",
    "first_degenerate_level",
]

#: Default bound on the level of any weight space that is materialised.
DEFAULT_MAX_LEVEL = 8


class LevelBoundError(ValueError):
    """A requested level exceeded the configured bound."""


@dataclass(frozen=True)
class HWParams:
    """Highest weight data (lambda, c, c0, c1) over a scalar ring."""

    lam: object
    c: object
    c0: object
    c1: object
    ring: object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Every memoised action is keyed by the point, so hash it once.
        object.__setattr__(self, "_hash", hash((self.lam, self.c, self.c0, self.c1, self.ring)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def rational(cls, lam, c, c0, c1) -> "HWParams":
        """Exact rational parameter point."""
        q = QQ.coerce
        return cls(q(lam), q(c), q(c0), q(c1), QQ)

    @classmethod
    def symbolic(cls) -> "HWParams":
        """Generic parameters: the four polynomial indeterminates."""
        P = PARAM_POLYS
        return cls(P.lam, P.c, P.c0, P.c1, P)


class BasisMonomial(NamedTuple):
    """A level basis element: I-mode partition and L-mode partition.

    ``i_part = (j1 >= j2 >= ...)`` stands for the factors I(-j1) I(-j2) ...
    and likewise ``l_part`` for the L factors; the monomial is the
    corresponding PBW word applied to the highest weight vector.
    """

    i_part: tuple
    l_part: tuple

    def level(self) -> int:
        return sum(self.i_part) + sum(self.l_part)

    def word(self):
        return tuple(I(-j) for j in self.i_part) + tuple(L(-k) for k in self.l_part)

    def split_head(self):
        """The leftmost factor and the remaining (still valid) monomial."""
        if self.i_part:
            return I(-self.i_part[0]), BasisMonomial(self.i_part[1:], self.l_part)
        return L(-self.l_part[0]), BasisMonomial((), self.l_part[1:])

    @classmethod
    def of_word(cls, word) -> "BasisMonomial":
        """Inverse of :meth:`word` on normal words in negative modes."""
        i_part = tuple(-g.index for g in word if g.kind == "I")
        return cls(i_part, tuple(-g.index for g in word if g.kind == "L"))

    def __str__(self) -> str:
        if not self.i_part and not self.l_part:
            return "1"
        return "".join(str(g) for g in self.word())


EMPTY_MONOMIAL = BasisMonomial((), ())


def partitions(n: int, max_part: Optional[int] = None):
    """All partitions of n as nonincreasing tuples, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_pairs(n: int):
    """All two-colored partitions of n as (i_part, l_part) tuples."""
    for s in range(n, -1, -1):
        for ip in partitions(s):
            for lp in partitions(n - s):
                yield BasisMonomial(ip, lp)


def level_basis(n: int, max_level: int = DEFAULT_MAX_LEVEL):
    """The canonical ordered basis of level n.

    The order is descending lexicographic on (i_part, l_part); for n = 2 it
    reads I(-2), I(-1)I(-1), I(-1)L(-1), L(-2), L(-1)L(-1).
    """
    if n < 0 or n > max_level:
        raise LevelBoundError(f"level {n} outside [0, {max_level}]")
    return sorted(partition_pairs(n), reverse=True)


class VermaVector(Combination):
    """A homogeneous element of one level, as coordinates over the basis.

    The monomials fix the level, so equality and hash read only ``terms``;
    ``level`` places a zero vector."""

    __slots__ = ("level",)

    def __init__(self, level: int, terms=None):
        super().__init__(terms)
        self.level = level

    def _with(self, terms) -> "VermaVector":
        return VermaVector(self.level, terms)

    def __add__(self, other: "VermaVector") -> "VermaVector":
        if self.terms and other.terms and self.level != other.level:
            raise ValueError("cannot add vectors of different levels")
        return Combination.__add__(self, other)

    def _sorted_keys(self):
        return sorted(self.terms, reverse=True)

    @staticmethod
    def _format(mono) -> str:
        return f"[{mono}]v"


def highest_weight_vector() -> VermaVector:
    return VermaVector(0, {EMPTY_MONOMIAL: Fraction(1)})


@lru_cache(maxsize=None)
def _act_on_monomial(g: Generator, mono: BasisMonomial, p: HWParams):
    """Coordinates of g acting on one basis monomial, as (monomial, coeff)
    pairs, memoised per parameter point.  A negative mode acts by normal
    ordering in U; any other generator moves right through ``mono = h t`` by
    ``g h t v = h (g t v) + [g, h] t v`` until it meets v."""
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
        # I(k) commutes through the I block and meets v directly.
        return ((mono, p.c0),) if k == 0 else ()
    if mono == EMPTY_MONOMIAL:
        return ()
    head, tail = mono.split_head()
    out = {}
    for m2, s2 in _act_on_monomial(g, tail, p):
        _accumulate(out, _act_on_monomial(head, m2, p), s2)
    for gen2, bc in bracket_gen(g, head).terms.items():
        _accumulate(out, _act_on_monomial(gen2, tail, p), bc)
    return tuple(out.items())


def act(g: Generator, w: VermaVector, p: HWParams) -> VermaVector:
    """The module action of one generator on a homogeneous vector."""
    new_level = w.level - g.weight
    out = {}
    for mono, coef in w.terms.items():
        _accumulate(out, _act_on_monomial(g, mono, p), coef)
    return VermaVector(max(new_level, 0), out)


def act_element(x: LieElement, w: VermaVector, p: HWParams) -> VermaVector:
    """Linear extension of :func:`act` to algebra elements.

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


def apply_word(word, w: VermaVector, p: HWParams) -> VermaVector:
    """Apply a product of generators, rightmost factor first."""
    for g in reversed(tuple(word)):
        w = act(g, w, p)
    return w


@dataclass
class GramMatrix:
    """The contravariant form restricted to one level, in canonical order."""

    level: int
    basis: list
    entries: list

    def is_symmetric(self) -> bool:
        n = len(self.basis)
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )


def _pairing(row_mono: BasisMonomial, col_vec: VermaVector, p: HWParams):
    """<row_mono at v, col_vec> via the transpose anti-involution."""
    vec = col_vec
    for g in row_mono.word():
        vec = act(Generator(g.kind, -g.index), vec, p)
    value = vec.terms.get(EMPTY_MONOMIAL, None)
    return value if value is not None else p.ring.zero


def gram_matrix(n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL) -> GramMatrix:
    """Matrix of the contravariant form on level n in the canonical basis."""
    basis = level_basis(n, max_level)
    units = [VermaVector(n, {b: Fraction(1)}) for b in basis]
    entries = [[_pairing(bi, uj, p) for uj in units] for bi in basis]
    return GramMatrix(level=n, basis=basis, entries=entries)


def _f(k: int, c0, c1):
    """``<I(-k) v, L(-k) v> = -k (2 c0 - (k^2 - 1)/12 c1)``, the only factor
    of the Shapovalov determinant."""
    return -k * (2 * c0 - Fraction(k * k - 1, 12) * c1)


def shapovalov_det(n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL):
    """Determinant of the level-n Gram matrix in the canonical basis order,
    as a closed product: no Gram entry is computed and nothing is eliminated.

    Write ``(mu, nu)`` for the basis element ``I(-mu) L(-nu) v`` and pair
    the row ``(mu, nu)`` with the colour-swapped column ``(nu, mu)``.
    :func:`_pairing` applies omega(row) to a column ``(alpha, beta)``: the
    positive modes ``I(mu_1) ... I(mu_a)`` act first, then ``L(nu_1) ...``.

    I modes.  A positive ``I(j)`` commutes with every ``I(-k)`` and kills v,
    so every surviving term has met an ``L(-k)``, and ``[I(j), L(-k)]`` is
    ``I(j - k)``, plus ``C1`` when j = k.  A leftover mode that is still
    positive goes on to the right, ``I(0)`` only meets further ``L(-k')``
    (giving I modes) or v (a scalar), and a negative one moves left past
    ``L(-k')``, which gives only I modes.  So each ``I(mu_i)`` lowers the L
    count by at least one and never raises it: the form is 0 when
    ``a > len(beta)``, and for ``a = len(beta)`` each ``I(mu_i)`` removes
    exactly one ``L(-beta_j)`` and its leftover ``I(mu_i - beta_j)`` removes
    no other.  A positive leftover then reaches v and kills it, so the
    survivors match the parts with ``mu_i <= beta_j``: ``mu`` is at most
    ``beta`` part by part and lexicographically, equal only if every match
    is exact.  Then the leftover ``I(0)`` meets v, each match gives the
    scalar ``[I(k), L(-k)]`` on v, that is ``f(k) = <I(-k) v, L(-k) v>``,
    and the ``prod_k m_k(mu)!`` matchings leave
    ``prod_k f(k)^{m_k(mu)} m_k(mu)! * I(-alpha) v``.

    L modes.  A positive ``L(k)`` on an I-only word meets some ``I(-m)``:
    for m < k the positive leftover kills v, for m = k the part goes with
    the scalar ``<L(-k) v, I(-k) v> = f(k)`` (the form is symmetric), and
    for m > k it shrinks to m - k.  Reaching v needs each part of alpha to
    be used up by parts of nu, so nu refines alpha and ``nu <= alpha``
    lexicographically, equal only if the parts match one to one, which
    gives ``prod_k f(k)^{m_k(nu)} m_k(nu)!``.

    Hence a nonzero ``<(mu, nu), (alpha, beta)>`` has ``len(mu) <
    len(beta)``, or ``len(mu) = len(beta)`` and ``(mu, nu) <= (beta,
    alpha)`` in canonical order, with equality only on the swapped
    diagonal.  With the basis sorted by I count and then in ascending
    canonical order, ``<b_i, swap(b_j)>`` is upper triangular with diagonal
    ``prod_k f(k)^{m_k(mu)} m_k(mu)! * prod_k f(k)^{m_k(nu)} m_k(nu)!``.
    Sorting rows and columns alike leaves the sign of the colour swap, an
    involution with one transposition per pair ``mu != nu``, so
    ``det = (-1)^{(p2(n) - s_n)/2} * prod over (mu, nu) of the diagonal``,
    where s_n counts the basis elements with ``mu == nu``.  The exponents
    are collected per k first, so each ``f(k)`` is raised to a power once,
    and a zero ``f(k)`` ends the product.
    """
    exponents = Counter()
    scale = 1
    swapped = 0
    for b in level_basis(n, max_level):
        swapped += b.i_part != b.l_part
        for part in (b.i_part, b.l_part):
            for k, m in Counter(part).items():
                exponents[k] += m
                scale *= factorial(m)
    factors = [(_f(k, p.c0, p.c1), e) for k, e in sorted(exponents.items())]
    if not all(fk for fk, _ in factors):
        return p.ring.zero
    det = p.ring.one * (-scale if swapped // 2 % 2 else scale)
    for fk, e in factors:
        det = det * fk ** e
    return det


@dataclass(frozen=True)
class SingularVector:
    """A singular vector together with its I(0)-eigenvector status."""

    vector: VermaVector
    i0_eigenvector: bool


def singular_vectors(
    n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL
) -> list[SingularVector]:
    """Exact basis of the level-n vectors annihilated by L(1), L(2), I(1),
    I(2); these four generate the whole positive part, so the result is the
    space of singular vectors at that level.

    A singular vector w lies in the radical of the contravariant form, since
    ``<x v, w> = <v, omega(x) w> = 0`` for every x in U(n-) of degree n
    (omega(x) is a sum of positive-mode words).  So where the determinant is
    nonzero the result is ``[]``, found without any elimination.  Elsewhere
    it is the :func:`linalg.nullspace` of the images of the basis monomials,
    one sparse column each, keyed by (generator, target monomial)."""
    if n < 1:
        raise ValueError("singular vectors live at positive levels")
    if not p.ring.is_field:
        raise TypeError("singular-vector search requires rational parameters")
    if shapovalov_det(n, p, max_level):
        return []
    basis = level_basis(n, max_level)
    units = [VermaVector(n, {b: Fraction(1)}) for b in basis]
    gens = (L(1), L(2), I(1), I(2))
    columns = [{(g, m): c for g in gens for m, c in act(g, u, p).terms.items()} for u in units]
    kernel = linalg.nullspace(columns)
    out = []
    for vec in kernel:
        w = VermaVector(n, dict(zip(basis, vec)))
        eigen = act(I(0), w, p) == p.c0 * w
        out.append(SingularVector(vector=w, i0_eigenvector=eigen))
    return out


def is_reducible(c0, c1) -> tuple[bool, Optional[int]]:
    """The irreducibility criterion of the source paper, as a decision
    procedure in this engine's bracket convention.

    Reducible iff some nonzero integer m satisfies
    ``(m^2 - 1)/12 * c1 = 2*c0``; for c1 = 0 this degenerates to
    ``c0 = 0`` with witness m = 1, otherwise m^2 = 1 + 24*c0/c1 must be a
    positive perfect square.

    The paper states ``2h' + (m^2 - 1)/12 * c' = 0`` for the bracket
    ``[L_m, W_n] = (m - n) W_{m+n} + ...``.  The map ``L_n = -L(n)``,
    ``W_n = -I(n)`` (central elements unchanged) carries this engine's
    bracket onto the paper's and the highest-weight conditions onto the
    paper's with ``h = -lambda`` and ``h' = -c0``, which gives the form
    above.  It agrees with the exact determinants, e.g.
    ``det_2 = 64*c0^6*(c1 - 8*c0)^2``.
    """
    c0 = QQ.coerce(c0)
    c1 = QQ.coerce(c1)
    if c1 == 0:
        return (True, 1) if c0 == 0 else (False, None)
    t = 1 + 24 * c0 / c1
    if t.denominator != 1 or t < 1:
        return (False, None)
    root = isqrt(t.numerator)
    if root * root == t.numerator:
        return (True, root)
    return (False, None)


@dataclass
class I0Report:
    """The I(0) action on one level, with its Jordan-structure summary."""

    level: int
    basis: list
    entries: list
    nilpotency_degree: Optional[int]
    nilpotent_within_bound: bool
    diagonalizable: bool


def i0_matrix(n: int, p: HWParams, max_level: int = DEFAULT_MAX_LEVEL) -> I0Report:
    """Matrix of I(0) on level n plus verification that I(0) - c0 is
    nilpotent of degree at most n + 1 (and not diagonalizable for n >= 1).

    The degree is the first e at which applying ``w -> I(0) w - c0 w`` e
    times sends every basis vector to zero.  Since I(0) - c0 is nilpotent,
    I(0) is diagonalizable exactly when that degree is 1."""
    basis = level_basis(n, max_level)
    # Fraction units keep every entry a Fraction; int ones would leave the
    # int structure constants in the reported matrix.
    images = [act(I(0), VermaVector(n, {b: Fraction(1)}), p) for b in basis]
    entries = [[w.terms.get(b, p.ring.zero) for w in images] for b in basis]
    vectors = [VermaVector(n, {b: 1}) for b in basis]
    degree = None
    for e in range(1, n + 2):
        vectors = [w for w in (act(I(0), w, p) - p.c0 * w for w in vectors) if w]
        if not vectors:
            degree = e
            break
    return I0Report(
        level=n,
        basis=basis,
        entries=entries,
        nilpotency_degree=degree,
        nilpotent_within_bound=degree is not None,
        diagonalizable=degree == 1,
    )


def first_degenerate_level(
    p: HWParams, max_level: int = DEFAULT_MAX_LEVEL
) -> Optional[int]:
    """Smallest level with a degenerate contravariant form, if any.

    The level-n determinant is a product of powers of ``f(k)``, and ``f(k)``
    occurs for exactly the k <= n (``L(-k) L(-1)^{n-k} v`` is a basis
    element), so the form first degenerates at the smallest m with
    ``f(m) = 0``."""
    return next((m for m in range(1, max_level + 1) if not _f(m, p.c0, p.c1)), None)
