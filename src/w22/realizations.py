"""Witt-module and intermediate-series realizations, and the semidirect
product consistency check.

The algebra arises as the universal central extension of W ⋉ V, where W is
the Witt algebra spanned by the L modes and V the abelian ideal spanned by
the I modes with action ``L(m) . I(n) = (n - m) I(m + n)``.  Killing the two
central elements in the defining bracket must reproduce exactly this action;
:func:`semidirect_check` verifies it on an index window.

Intermediate-series modules have one-dimensional weight spaces v_k with
``L(m) v_k = (a + k + b m) v_{k+m}`` and the I modes and central elements
acting by zero; the pair (a, b) = (0, -1) reproduces the Witt-module action
table, which pins the parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import I, L, bracket_gen

__all__ = [
    "witt_action",
    "IntermediateSeriesParams",
    "intermediate_series_action",
    "WindowReport",
    "witt_module_report",
    "intermediate_series_report",
    "semidirect_check",
]


def witt_action(m: int, n: int) -> tuple[int, int]:
    """Coefficient and target index of ``L(m)`` acting on ``I(n)``:
    returns ``(n - m, m + n)``."""
    return (n - m, m + n)


@dataclass(frozen=True)
class IntermediateSeriesParams:
    a: Fraction
    b: Fraction

    @classmethod
    def of(cls, a, b) -> "IntermediateSeriesParams":
        return cls(Fraction(a), Fraction(b))


def intermediate_series_action(p: IntermediateSeriesParams, m: int, k: int) -> Fraction:
    """Coefficient of ``v_{k+m}`` in ``L(m) v_k``, namely ``a + k + b m``."""
    return p.a + k + p.b * m


@dataclass
class WindowReport:
    window: int
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, label: str, residual) -> None:
        self.checks += 1
        if residual:
            self.failures.append((label, str(residual)))


def witt_module_report(window: int = 8) -> WindowReport:
    """Module axiom for the Witt action:
    ``L(a).(L(b).I(n)) - L(b).(L(a).I(n)) = (b - a) L(a+b).I(n)``
    for all indices in the window."""
    report = WindowReport(window=window)
    rng = range(-window, window + 1)
    for a in rng:
        for b in rng:
            for n in rng:
                cb, ib = witt_action(b, n)
                cab, iab = witt_action(a, ib)
                ca, ia = witt_action(a, n)
                cba, iba = witt_action(b, ia)
                # Both sides live at I(a + b + n).
                lhs = cb * cab - ca * cba
                crhs, _ = witt_action(a + b, n)
                residual = lhs - (b - a) * crhs
                report.record(f"a={a} b={b} n={n}", residual)
    return report


def intermediate_series_report(
    p: IntermediateSeriesParams, window: int = 8
) -> WindowReport:
    """Module axiom ``[L(n), L(m)] v_k = (m - n) L(n+m) v_k`` for the
    intermediate-series action, for all indices in the window.

    The I modes and the central elements act by zero, so the L-L relation
    is the only one with content: every other bracket relation holds with
    both sides zero.  One check is recorded per (n, m, k)."""
    report = WindowReport(window=window)
    rng = range(-window, window + 1)
    for m in rng:
        for n in rng:
            for k in rng:
                # [L(n), L(m)] v_k: central C term acts by zero.
                lhs = intermediate_series_action(p, m, k) * intermediate_series_action(
                    p, n, k + m
                ) - intermediate_series_action(p, n, k) * intermediate_series_action(
                    p, m, k + n
                )
                rhs = (m - n) * intermediate_series_action(p, n + m, k)
                report.record(f"L({n})L({m}) k={k}", lhs - rhs)
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
            br = bracket_gen(L(m), I(n))
            coeff = Fraction(0)
            residual_terms = {}
            for gen, coef in br.terms.items():
                if gen.kind in ("C", "C1"):
                    continue  # the quotient by the centre deletes these
                if gen.kind == "I" and gen.index == m + n:
                    coeff = coef
                else:
                    residual_terms[gen] = coef
            expected, _ = witt_action(m, n)
            ok = not residual_terms and coeff == expected
            report.record(f"m={m} n={n}", 0 if ok else f"{coeff} != {expected}")
    return report
