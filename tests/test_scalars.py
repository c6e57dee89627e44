from fractions import Fraction

import pytest

from w22.algebra import C, I, L
from w22.scalars import PARAM_POLYS, QQ, DigitLimitError, Poly, parse_rational
from w22.verma import HWParams


def test_parse_rational_accepts_exact_literals():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-5/7") == Fraction(-5, 7)
    assert parse_rational("+2") == Fraction(2)
    assert parse_rational("4/6") == Fraction(2, 3)


@pytest.mark.parametrize(
    "bad",
    # The last four: a trailing newline and digits outside ASCII (Arabic-Indic
    # and fullwidth), which a regex ``\d`` and ``$`` would let through.
    ["1.5", "1e3", "", " 1", "1 ", "0x1", "1/0", "--2", "1/-2", "nan", "3\n", "\u0663", "\uff13", "1/\u0662"],
)
def test_parse_rational_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_numbers_beyond_the_digit_limit_are_refused_both_ways():
    with pytest.raises(DigitLimitError):
        parse_rational("1/" + "7" * 5001)
    with pytest.raises(DigitLimitError):
        QQ.format(Fraction(1, 10 ** 5000))
    with pytest.raises(DigitLimitError):
        str(10 ** 5000 * PARAM_POLYS.c0 + 1)


def test_rational_format_round_trip():
    for q in [Fraction(0), Fraction(-3, 2), Fraction(7), Fraction(22, 7)]:
        assert parse_rational(QQ.format(q)) == q


def test_poly_arithmetic():
    lam, c0 = PARAM_POLYS.lam, PARAM_POLYS.c0
    p = (lam + c0) * (lam - c0)
    assert p == lam * lam - c0 * c0
    assert (lam + 1) ** 2 == lam * lam + 2 * lam + 1
    assert lam - lam == Poly()
    assert Poly.const(Fraction(1, 2)) * 2 == 1


def test_poly_mixed_scalar_ops():
    c1 = PARAM_POLYS.c1
    assert Fraction(1, 2) * c1 + Fraction(1, 2) * c1 == c1
    assert 3 + c1 - c1 == Poly.const(3)
    assert (Fraction(2) - c1) == -(c1 - 2)


def test_constant_poly_hashes_as_its_value():
    c1 = PARAM_POLYS.c1
    for equal in (
        [0, Fraction(0), Poly(), c1 - c1],
        [4, Fraction(4), Poly.const(4), c1 - c1 + 4],
        [Fraction(-3, 2), Poly.const(Fraction(-3, 2))],
    ):
        assert all(x == equal[0] and hash(x) == hash(equal[0]) for x in equal)
        assert len(set(equal)) == 1
        assert {x: k for k, x in enumerate(equal)} == {equal[0]: len(equal) - 1}
    assert len({Poly.const(4), 4, Fraction(8, 2), c1, c1 + 0}) == 2


def test_poly_canonical_string():
    lam, c, c0, c1 = PARAM_POLYS.lam, PARAM_POLYS.c, PARAM_POLYS.c0, PARAM_POLYS.c1
    assert str(Poly()) == "0"
    assert str(-4 * c0 * c0) == "-4*c0^2"
    assert str(-2 * lam) == "-2*lambda"
    assert str(2 * lam ** 2 * c0 - c1 + 3) == "2*lambda^2*c0 - c1 + 3"
    assert str(lam * c) == "lambda*c"
    assert str(Poly.const(Fraction(-3, 2))) == "-3/2"


def test_poly_parse_round_trip():
    lam, c, c0, c1 = PARAM_POLYS.lam, PARAM_POLYS.c, PARAM_POLYS.c0, PARAM_POLYS.c1
    samples = [
        Poly(),
        Poly.one(),
        -4 * c0 ** 2,
        2 * lam ** 2 * c0 - c1 + 3,
        Fraction(1, 3) * c - Fraction(7, 2),
        (lam + c0) ** 3,
    ]
    for p in samples:
        assert PARAM_POLYS.parse(str(p)) == p
    assert PARAM_POLYS.parse("5/3") == Poly.const(Fraction(5, 3))


@pytest.mark.parametrize("bad", ["", "lambda^0", "lambda^-1", "x", "1.5*c", "c**2", "+ +"])
def test_poly_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        PARAM_POLYS.parse(bad)


def test_poly_exact_division():
    lam, c0 = PARAM_POLYS.lam, PARAM_POLYS.c0
    p = (lam + 2 * c0) ** 2 * (lam - 1)
    q = (lam + 2 * c0) * (lam - 1)
    assert p.exact_div(q) == lam + 2 * c0
    assert p.exact_div(Fraction(2)) * 2 == p
    with pytest.raises(ValueError):
        (lam * lam + 1).exact_div(lam + 1)
    with pytest.raises(ZeroDivisionError):
        lam.exact_div(Poly())


_NOT_A_SCALAR = [
    (QQ.coerce, TypeError),
    (Poly.const, TypeError),
    (lambda g: PARAM_POLYS.c0 + g, TypeError),
    (lambda g: PARAM_POLYS.c0 * g, TypeError),
    # A non-int exponent is refused by the exponent check.
    (lambda g: PARAM_POLYS.c0 ** g, ValueError),
    (lambda g: HWParams.rational(g, 0, 0, 0), TypeError),
]


@pytest.mark.parametrize("g", [L(2), I(-1), C])
@pytest.mark.parametrize("use, error", _NOT_A_SCALAR)
def test_a_generator_is_never_a_scalar(g, use, error):
    # A Generator is an int subclass; every scalar check takes int by exact type.
    with pytest.raises(error):
        use(g)
