"""Exact scalar arithmetic for the engine.

Two coefficient domains are supported throughout the package: plain
``fractions.Fraction`` values, and :class:`Poly`, a sparse multivariate
polynomial over Q in the four fixed module parameters ``lambda``, ``c``,
``c0``, ``c1``.  There is no floating point anywhere; every number that
enters or leaves the engine is an exact rational or a polynomial with
rational coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "VARIABLES",
    "Poly",
    "parse_rational",
    "RationalScalars",
    "PolynomialScalars",
    "QQ",
    "PARAM_POLYS",
]

#: Canonical variable order for the polynomial domain.
VARIABLES = ("lambda", "c", "c0", "c1")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXP = (0, 0, 0, 0)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal ``p`` or ``p/q``.

    Anything else (floats, exponents, stray whitespace) is rejected; this is
    the only scalar input path, so no float can leak into a computation.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Poly:
    """Sparse polynomial in (lambda, c, c0, c1) with ``Fraction`` coefficients.

    Terms are stored as a map from exponent 4-tuples to nonzero coefficients.
    The canonical term order used for printing is descending lexicographic on
    the exponent tuple, so string output is deterministic and round-trips
    through :meth:`PolynomialScalars.parse`.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coef in terms.items():
                coef = _as_fraction(coef)
                if coef:
                    clean[exp] = coef
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({_ZERO_EXP: Fraction(1)})

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({_ZERO_EXP: _as_fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        exp = [0, 0, 0, 0]
        exp[_VAR_INDEX[name]] = 1
        return cls({tuple(exp): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {_ZERO_EXP}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get(_ZERO_EXP, Fraction(0))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (Fraction, int)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, coef in other._terms.items():
            s = out.get(exp, Fraction(0)) + coef
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({exp: -coef for exp, coef in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the square after the top bit would go unused
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (Fraction, int)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- division and evaluation -------------------------------------------

    def exact_div(self, divisor) -> "Poly":
        """Exact quotient ``self / divisor``; raises if it does not divide."""
        divisor = self._coerce(divisor)
        if divisor is None:
            raise TypeError("cannot divide by that operand")
        if not divisor._terms:
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            inv = 1 / divisor.constant_value()
            return Poly({e: c * inv for e, c in self._terms.items()})
        rem = dict(self._terms)
        out = {}
        dlead = max(divisor._terms)
        dcoef = divisor._terms[dlead]
        while rem:
            lead = max(rem)
            qexp = tuple(a - b for a, b in zip(lead, dlead))
            if any(e < 0 for e in qexp):
                raise ValueError("inexact polynomial division")
            qc = rem[lead] / dcoef
            out[qexp] = out.get(qexp, Fraction(0)) + qc
            for dexp, dc in divisor._terms.items():
                exp = tuple(a + b for a, b in zip(qexp, dexp))
                s = rem.get(exp, Fraction(0)) - qc * dc
                if s:
                    rem[exp] = s
                else:
                    rem.pop(exp, None)
        return Poly(out)

    def substitute(self, lam, c, c0, c1) -> Fraction:
        """Evaluate at exact rational parameter values."""
        values = tuple(_as_fraction(v) for v in (lam, c, c0, c1))
        total = Fraction(0)
        for exp, coef in self._terms.items():
            term = coef
            for v, e in zip(values, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    # -- canonical string form ----------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, reverse=True):
            coef = self._terms[exp]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLES, exp)
                if e
            )
            mag = abs(coef)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            parts.append(("-" if coef < 0 else "+", body))
        sign, body = parts[0]
        pieces = [("-" + body) if sign == "-" else body]
        for sign, body in parts[1:]:
            pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _parse_poly(text: str) -> Poly:
    """Parse the canonical polynomial string form emitted by ``str(Poly)``."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial literal")
    result = Poly.zero()
    i = 0
    sign = 1
    saw_term = False
    while i < len(s):
        if s[i] == "+":
            sign, i = 1, i + 1
        elif s[i] == "-":
            sign, i = -1, i + 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        term = s[i:j]
        i = j
        if not term:
            raise ValueError(f"malformed polynomial literal: {text!r}")
        coef = Fraction(sign)
        exps = [0, 0, 0, 0]
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"malformed polynomial literal: {text!r}")
            if factor[0].isdigit():
                coef *= parse_rational(factor)
            else:
                name, sep, power = factor.partition("^")
                if name not in _VAR_INDEX:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                e = 1
                if sep:
                    if not power.isdigit() or int(power) < 1:
                        raise ValueError(f"bad exponent in {text!r}")
                    e = int(power)
                exps[_VAR_INDEX[name]] += e
        result = result + Poly({tuple(exps): coef})
        sign = 1
        saw_term = True
    if not saw_term:
        raise ValueError(f"malformed polynomial literal: {text!r}")
    return result


class RationalScalars:
    """The exact rational coefficient domain (a field)."""

    name = "rational"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(value) -> Fraction:
        return _as_fraction(value)

    @staticmethod
    def parse(text: str) -> Fraction:
        return parse_rational(text)

    @staticmethod
    def format(value) -> str:
        return str(_as_fraction(value))

    @staticmethod
    def exact_div(a, b) -> Fraction:
        return _as_fraction(a) / _as_fraction(b)


class PolynomialScalars:
    """Polynomials in (lambda, c, c0, c1) over Q (an integral domain)."""

    name = "polynomial"
    is_field = False
    zero = Poly.zero()
    one = Poly.one()
    lam = Poly.variable("lambda")
    c = Poly.variable("c")
    c0 = Poly.variable("c0")
    c1 = Poly.variable("c1")

    @staticmethod
    def coerce(value) -> Poly:
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    @staticmethod
    def parse(text: str) -> Poly:
        return _parse_poly(text)

    @classmethod
    def format(cls, value) -> str:
        return str(cls.coerce(value))

    @classmethod
    def exact_div(cls, a, b) -> Poly:
        return cls.coerce(a).exact_div(cls.coerce(b))


QQ = RationalScalars()
PARAM_POLYS = PolynomialScalars()
