"""Exact scalar arithmetic and the engine's one sparse type.

Two coefficient domains are supported throughout the package: plain
``fractions.Fraction`` values, and :class:`Poly`, a sparse multivariate
polynomial over Q in the four fixed module parameters ``lambda``, ``c``,
``c0``, ``c1``.  There is no floating point anywhere; every number that
enters or leaves the engine is an exact rational or a polynomial with
rational coefficients.

:class:`Combination` is the one sparse linear-combination type, and
``_accumulate`` its one accumulation loop.  ``Poly`` is a combination of
exponent 4-tuples; Lie elements (``algebra``), enveloping-algebra elements
(``pbw``) and Verma vectors (``verma``) are the other subclasses.

``Poly`` multiplication is an integer kernel.  Each operand is written over
one common denominator, the lcm of its coefficient denominators, with
integer numerators; the numerators are convolved in ``int`` arithmetic,
keyed by the summed exponents; and each nonzero output coefficient becomes
one ``Fraction`` of its summed numerator over the product of the two
denominators.  Integer sums and products are exact, and the one
``Fraction`` per output term reduces by a gcd, so the stored coefficients
are the same canonical fractions as a term-by-term ``Fraction`` product
would give, with one normalisation per output term instead of one per pair
of terms.

Two products take the structure of an operand instead.  A ``Poly`` times
an ``int`` or ``Fraction`` scales each coefficient, one ``Fraction``
product per term.  A binary form with ``int`` coefficients at two
single-term values (``_binary_form``) is one reduced ``Fraction`` per
output term: the symbolic determinant is one such form, at (c0, c1/24).
A power is repeated squaring.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

__all__ = [
    "VARIABLES",
    "DigitLimitError",
    "Combination",
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

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


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
    """Parse an exact rational literal ``p`` or ``p/q`` in ASCII digits.

    Anything else (floats, exponents, stray whitespace) is rejected; this is
    the only scalar input path, so no float can leak into a computation.  A
    numerator or denominator longer than the interpreter's digit limit
    raises :class:`DigitLimitError`.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
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
    if type(value) is int:
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


_ONE = 1
_MINUS_ONE = -1


def _accumulate(out: dict, pairs, factor) -> None:
    """Add ``factor`` times the (key, coef) ``pairs`` into ``out``, dropping
    zeros: the one accumulation loop of every linear combination.  A
    coefficient or factor 1 is not multiplied out (CPython shares one int 1,
    so ``is`` finds it): it is the coefficient of a PBW insertion that was
    already normal, the most common case, and the factor of a sum.  A
    factor -1, that of a difference, subtracts each coefficient."""
    for key, coef in pairs:
        s = out.get(key, 0)
        if coef is _ONE:
            s += factor
        elif factor is _ONE:
            s += coef
        elif factor is _MINUS_ONE:
            s = s - coef if s else -coef
        else:
            s += factor * coef
        if s:
            out[key] = s
        else:
            out.pop(key, None)


class Combination:
    """A finite linear combination with exact coefficients: ``terms`` maps
    each key to its coefficient and holds no zero coefficient.  A
    combination is never mutated, so a sum with a zero operand returns the
    other operand itself.  A scalar is an ``int``, ``Fraction`` or ``Poly``;
    ``int`` by exact type, as a :class:`~w22.algebra.Generator` is an
    ``int`` subclass and never a scalar.

    The constructor drops zero coefficients; ``_with`` builds from terms
    that hold none, with no second pass.  Sums drop zeros as they
    accumulate, and a product of nonzero exact scalars is nonzero, so
    ``+``, ``-``, negation and scalar ``*`` build through ``_with``.

    Subclasses supply the printing order of the keys (``_sorted_keys``) and
    how a key prints (``_format``); one whose constructor takes more than
    the terms also supplies ``_with``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: coef for key, coef in terms.items() if coef} if terms else {}

    @classmethod
    def _with(cls, terms) -> "Combination":
        """A combination of this kind holding ``terms``, a dict with no zero
        coefficient, as it is."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _add(self, other, factor):
        """``self + factor * other`` for ``factor`` 1 or -1, in one pass
        over ``other``: the body of both ``+`` and ``-``."""
        if not other.terms:
            return self
        if not self.terms:
            return other if factor is _ONE else -other
        out = dict(self.terms)
        _accumulate(out, other.terms.items(), factor)
        return self._with(out)

    def __add__(self, other):
        return self._add(other, _ONE)

    def __sub__(self, other):
        return self._add(other, _MINUS_ONE)

    def __neg__(self):
        return self._with({key: -coef for key, coef in self.terms.items()})

    def __mul__(self, scalar):
        if type(scalar) is not int and not isinstance(scalar, (Fraction, Poly)):
            return NotImplemented
        if not scalar:
            return self._with({})
        return self._with({key: scalar * coef for key, coef in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _sorted_keys(self):
        """The keys in printing order."""
        return sorted(self.terms)

    @staticmethod
    def _format(key) -> str:
        return str(key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[key]}*{self._format(key)}" for key in self._sorted_keys())

    __repr__ = __str__


class Poly(Combination):
    """Sparse polynomial in (lambda, c, c0, c1) with ``Fraction`` coefficients:
    a linear combination of exponent 4-tuples.

    Every stored coefficient is a nonzero ``Fraction``.  The canonical term
    order used for printing is descending lexicographic on the exponent
    tuple, so string output is deterministic and round-trips through
    :meth:`PolynomialScalars.parse`.  A constant equals, and hashes as, its
    ``Fraction`` value.

    ``*`` by a ``Poly`` multiplies in integers: both operands over their
    own common denominator, an ``int`` convolution of the numerators, and
    one reduced ``Fraction`` per nonzero output term (see the module
    docstring).  ``*`` by an ``int`` or ``Fraction`` scales each
    coefficient.  ``**`` is repeated squaring.
    """

    __slots__ = ("_hash",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coef in terms.items():
                coef = _as_fraction(coef)
                if coef:
                    clean[exp] = coef
        self.terms = clean
        self._hash = None

    @classmethod
    def _with(cls, terms) -> "Poly":
        """A Poly of terms whose coefficients are already nonzero
        ``Fraction``s: sums, negations and products, with no second pass."""
        poly = super()._with(terms)
        poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

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

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {_ZERO_EXP}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get(_ZERO_EXP, Fraction(0))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if type(other) is int or isinstance(other, Fraction):
            return Poly.const(other)
        return None

    def _add(self, other, factor):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Combination._add(self, other, factor)

    __radd__ = Combination.__add__

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._add(self, _MINUS_ONE)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Combination.__mul__(self, other)  # a scalar scales each coefficient
        d1, n1 = _integer_terms(self.terms)
        d2, n2 = _integer_terms(other.terms)
        out = {}
        get = out.get
        for (a0, a1, a2, a3), x in n1:
            for (b0, b1, b2, b3), y in n2:
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[exp] = get(exp, 0) + x * y
        den = d1 * d2
        return self._with({exp: Fraction(num, den) for exp, num in out.items() if num})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not self.terms:
            return Poly.one() if n == 0 else self
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
            return self.terms == other.terms
        if type(other) is int or isinstance(other, Fraction):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # A constant equals its Fraction value, so it must hash as that value.
        if self._hash is None:
            key = self.constant_value() if self.is_constant() else frozenset(self.terms.items())
            self._hash = hash(key)
        return self._hash

    # -- division and evaluation -------------------------------------------

    def exact_div(self, divisor) -> "Poly":
        """Exact quotient ``self / divisor``; raises if it does not divide."""
        divisor = self._coerce(divisor)
        if divisor is None:
            raise TypeError("cannot divide by that operand")
        if not divisor.terms:
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            inv = 1 / divisor.constant_value()
            return Poly({e: c * inv for e, c in self.terms.items()})
        rem = dict(self.terms)
        out = {}
        dlead = max(divisor.terms)
        dcoef = divisor.terms[dlead]
        while rem:
            lead = max(rem)
            qexp = tuple(a - b for a, b in zip(lead, dlead))
            if any(e < 0 for e in qexp):
                raise ValueError("inexact polynomial division")
            qc = rem[lead] / dcoef
            out[qexp] = out.get(qexp, Fraction(0)) + qc
            shifted = ((tuple(a + b for a, b in zip(qexp, dexp)), dc) for dexp, dc in divisor.terms.items())
            _accumulate(rem, shifted, -qc)
        return Poly(out)

    # -- canonical string form ----------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coef = self.terms[exp]
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


def _binary_form(coeffs, degree: int, x: Poly, y: Poly) -> Poly:
    """``sum_j coeffs[j] x^(degree - j) y^j``, an int binary form of degree
    ``degree >= len(coeffs) - 1`` at two ``Poly`` values, for nonzero int
    ``coeffs``.

    If x and y are single terms ``a X`` and ``b Y`` with ``X != Y``, term
    j is ``coeffs[j] a^degree (b / a)^j`` at exponent ``(degree - j) X +
    j Y``: distinct exponents, so no two terms meet, and each coefficient
    is one reduced ``Fraction`` of an int numerator and denominator.  Any
    other x and y, a zero, a sum, or two terms on one monomial, where the
    terms meet, go by Horner's rule in ring arithmetic."""
    if len(x.terms) == len(y.terms) == 1 and x.terms.keys() != y.terms.keys():
        ((x_exp, a),) = x.terms.items()
        ((y_exp, b),) = y.terms.items()
        ratio = b / a
        step_num, step_den = ratio.numerator, ratio.denominator
        num, den = a.numerator**degree, a.denominator**degree
        x0, x1, x2, x3 = x_exp
        y0, y1, y2, y3 = y_exp
        out = {}
        for j, coef in enumerate(coeffs):
            k = degree - j
            exp = (x0 * k + y0 * j, x1 * k + y1 * j, x2 * k + y2 * j, x3 * k + y3 * j)
            out[exp] = Fraction(coef * num, den)
            num *= step_num
            den *= step_den
        return Poly._with(out)
    # sum_j coeffs[j] x^(m - j) y^j for m = len(coeffs) - 1, then times x^(degree - m)
    horner, y_power = Poly(), Poly.one()
    for coef in coeffs:
        horner = horner * x + coef * y_power
        y_power = y_power * y
    return x ** (degree - len(coeffs) + 1) * horner


def _parse_poly(text: str) -> Poly:
    """Parse the canonical polynomial string form emitted by ``str(Poly)``:
    an optional sign, then nonempty terms separated by signs."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial literal")
    pieces = re.split("([+-])", s)
    # [sign, term, sign, term, ...], with "+" before an unsigned first term.
    pieces[:1] = ["+", pieces[0]] if pieces[0] else []
    terms = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        if not term:
            raise ValueError(f"malformed polynomial literal: {text!r}")
        coef = Fraction(-1 if sign == "-" else 1)
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
        exp = tuple(exps)
        terms[exp] = terms.get(exp, 0) + coef
    return Poly(terms)


class RationalScalars:
    """The exact rational coefficient domain (a field)."""

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

    is_field = False
    zero = Poly()
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
