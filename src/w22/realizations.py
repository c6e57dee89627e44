"""Intermediate-series realizations, of which the Witt module is one, and
the semidirect product consistency check.

The algebra arises as the universal central extension of W ⋉ V, where W is
the Witt algebra spanned by the L modes and V the abelian ideal spanned by
the I modes with action ``L(m) . I(n) = (n - m) I(m + n)``.  Killing the two
central elements in the defining bracket must reproduce exactly this action;
:func:`semidirect_check` verifies it on an index window.

Intermediate-series modules have one-dimensional weight spaces v_k with
``L(m) v_k = (a + k + b m) v_{k+m}`` and the I modes and central elements
acting by zero.  The Witt module V is the instance (a, b) = (0, -1), with
v_n = I(n).  :func:`module_report` checks the module axiom
``x (y v_k) - y (x v_k) = [x, y] v_k`` with ``[x, y]`` read from
:func:`~w22.algebra.bracket_gen`, so a wrong L-L coefficient of the
bracket fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Generator, I, L, bracket_gen, generator_window
from .scalars import _integer_terms

__all__ = [
    "IntermediateSeriesParams",
    "module_report",
    "semidirect_check",
]


@dataclass(frozen=True)
class IntermediateSeriesParams:
    """The module ``L(m) v_k = (a + k + b m) v_{k+m}``, held as the ints
    ``da = d a`` and ``db = d b`` over the least common denominator d of a
    and b."""

    da: int
    db: int
    d: int

    @classmethod
    def of(cls, a, b) -> "IntermediateSeriesParams":
        d, ((_, da), (_, db)) = _integer_terms({"a": Fraction(a), "b": Fraction(b)})
        return cls(da, db, d)

    def act(self, g: Generator, k: int) -> int:
        """d times the coefficient of ``v_{k + g.weight}`` in ``g v_k``:
        ``d (a + k + b m)`` for ``g = L(m)``, and 0 for every other
        generator."""
        return self.da + self.d * k + self.db * g.index if g.kind == "L" else 0


@dataclass
class WindowReport:
    window: int
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, residual, label: str, *args) -> None:
        """Count one check, failed where ``residual`` is nonzero; the label
        is ``label.format(*args)``, formatted for a failure only."""
        self.checks += 1
        if residual:
            self.failures.append((label.format(*args), str(residual)))


def module_report(p: IntermediateSeriesParams, window: int) -> WindowReport:
    """The module axiom ``x (y v_k) - y (x v_k) = [x, y] v_k`` for x, y in
    ``generator_window(window)`` and |k| <= window, one check each, with
    ``[x, y]`` from :func:`~w22.algebra.bracket_gen`.

    The left side lies at ``v_{k + x.weight + y.weight}`` and a term g of
    ``[x, y]`` acts into ``v_{k + g.weight}``, so the residual is taken
    weight by weight, and a bracket term of the wrong weight fails too.
    Both sides are taken ``d^2`` times, in ints, with the d of p."""
    report = WindowReport(window=window)
    gens = generator_window(window)
    for x in gens:
        for y in gens:
            wx, wy = x.weight, y.weight
            terms = [(g.weight, p.d * c, g) for g, c in bracket_gen(x, y).terms.items()]
            for k in range(-window, window + 1):
                out = {wx + wy: p.act(x, k + wy) * p.act(y, k) - p.act(y, k + wx) * p.act(x, k)}
                for w, c, g in terms:
                    out[w] = out.get(w, 0) - c * p.act(g, k)
                residual = " ".join(f"{Fraction(r, p.d**2)} v_{k + w}" for w, r in out.items() if r)
                report.record(residual, "[{}, {}] v_{}", x, y, k)
    return report


def semidirect_check(window: int = 8) -> WindowReport:
    """Deleting the central terms from ``[L(m), I(n)]`` must give exactly
    the Witt-module action ``(n - m) I(m + n)``."""
    if window < 1:
        raise ValueError("window must be >= 1")
    report = WindowReport(window=window)
    rng = range(-window, window + 1)
    for m in rng:
        for n in rng:
            coeff, stray = Fraction(0), False
            for gen, coef in bracket_gen(L(m), I(n)).terms.items():
                if gen == I(m + n):
                    coeff = coef
                elif gen.kind not in ("C", "C1"):  # the quotient by the centre deletes these
                    stray = True
            ok = not stray and coeff == n - m
            report.record(0 if ok else f"{coeff} != {n - m}", "m={} n={}", m, n)
    return report
