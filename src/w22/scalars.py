"""Exact scalar arithmetic for the engine.

Two coefficient domains are supported throughout the package: plain
``fractions.Fraction`` values, and :class:`Poly`, a sparse multivariate
polynomial over Q in the four fixed module parameters ``lambda``, ``c``,
``c0``, ``c1``.  There is no floating point anywhere; every number that
enters or leaves the engine is an exact rational or a polynomial with
rational coefficients.

``Poly`` multiplication is an integer kernel.  Each operand is written over
one common denominator, the lcm of its coefficient denominators, with
integer numerators; the numerators are convolved in ``int`` arithmetic,
keyed by the summed exponents; and each nonzero output coefficient becomes
one ``Fraction`` of its summed numerator over the product of the two
denominators.  Integer sums and products are exact, and the one
``Fraction`` per output term reduces by a gcd, so the stored coefficients
are the same canonical fractions as a term-by-term ``Fraction`` product
would give, with one normalisation per output term instead of one per pair
of terms.  The determinant's factors ``f(k)`` have coefficients with
denominator 1 or 2, so the common denominators stay powers of 2.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

__all__ = [
    "VARIABLES",
    "DigitLimitError",
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


class DigitLimitError(ValueError):
    """An integer too long for the interpreter's decimal conversion.

    Python refuses to convert between ``int`` and ``str`` beyond
    ``sys.get_int_max_str_digits()`` decimal digits (4300 by default).  The
    engine never raises that limit; it refuses such a number in both
    directions with this error: a longer literal on input
    (:func:`parse_rational`) and a longer numerator or denominator on output
    (``str`` of a :class:`Poly`, :meth:`RationalScalars.format`).
    """


def _decimal(convert, value):
    """``convert(value)`` for ``convert`` in (``int``, ``str``), with the
    interpreter's digit-limit ``ValueError`` raised as :class:`DigitLimitError`."""
    try:
        return convert(value)
    except ValueError as exc:
        raise DigitLimitError(
            f"a number with more than {sys.get_int_max_str_digits()} decimal digits "
            "(the interpreter's int/str conversion limit, which w22 does not raise)"
        ) from exc


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal ``p`` or ``p/q``.

    Anything else (floats, exponents, stray whitespace) is rejected; this is
    the only scalar input path, so no float can leak into a computation.  A
    numerator or denominator longer than the interpreter's digit limit
    raises :class:`DigitLimitError`.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, _, den = text.partition("/")
    num = _decimal(int, num)
    den = _decimal(int, den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _integer_terms(terms):
    """Write a term map as ``D`` and ``[(exp, n)]`` with every coefficient
    equal to ``n / D``: ``D`` is the lcm of the denominators, so each ``n``
    is an integer."""
    den = 1
    for coef in terms.values():
        den = den // gcd(den, coef.denominator) * coef.denominator
    return den, [(exp, coef.numerator * (den // coef.denominator)) for exp, coef in terms.items()]


class Poly:
    """Sparse polynomial in (lambda, c, c0, c1) with ``Fraction`` coefficients.

    Terms are stored as a map from exponent 4-tuples to nonzero coefficients.
    The canonical term order used for printing is descending lexicographic on
    the exponent tuple, so string output is deterministic and round-trips
    through :meth:`PolynomialScalars.parse`.

    ``*`` multiplies in integers: both operands over their own common
    denominator, an ``int`` convolution of the numerators, and one reduced
    ``Fraction`` per nonzero output term (see the module docstring).
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
        d1, n1 = _integer_terms(self._terms)
        d2, n2 = _integer_terms(other._terms)
        out = {}
        get = out.get
        for (a0, a1, a2, a3), x in n1:
            for (b0, b1, b2, b3), y in n2:
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[exp] = get(exp, 0) + x * y
        den = d1 * d2
        product = Poly()
        product._terms = {exp: Fraction(num, den) for exp, num in out.items() if num}
        return product

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
        # A constant equals its Fraction value, so it must hash as that value.
        if self._hash is None:
            key = self.constant_value() if self.is_constant() else frozenset(self._terms.items())
            self._hash = hash(key)
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
                body = mono if mag == 1 else f"{_decimal(str, mag)}*{mono}"
            else:
                body = _decimal(str, mag)
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
        return _decimal(str, _as_fraction(value))


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


QQ = RationalScalars()
PARAM_POLYS = PolynomialScalars()
