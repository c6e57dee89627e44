"""Timing of ``Poly`` sums and products on determinant-shaped operands, and
of the symbolic determinant by level.

    python3 -m pytest tests/bench_scalars.py

The operands are the factors of the closed-form Shapovalov determinant:
``f(k) = -k(2c0 - (k^2-1)/12 c1)`` and its powers, whose coefficients are
integers over a power of 12, and a rational constant times such a power.
The sums and the negation run through the accumulation loop that ``Poly``
shares with every ``Combination``.  The determinant is timed at levels 4, 6,
8 and 9 (9 lies above the default level bound).  The suite does not collect
this file (its name does not match ``test_*.py``); it needs the
pytest-benchmark plugin and is skipped without it.
"""

from fractions import Fraction
from operator import add, sub

import pytest

pytest.importorskip("pytest_benchmark")

from w22.scalars import PARAM_POLYS
from w22.verma import HWParams, shapovalov_det


def f(k):
    return -k * (2 * PARAM_POLYS.c0 - Fraction(k * k - 1, 12) * PARAM_POLYS.c1)


@pytest.mark.benchmark(group="poly power")
@pytest.mark.parametrize("k, e", [(3, 8), (5, 16), (7, 32)])
def test_factor_power(benchmark, k, e):
    benchmark(pow, f(k), e)


@pytest.mark.benchmark(group="poly product")
@pytest.mark.parametrize("e1, e2", [(4, 4), (16, 16), (32, 8)])
def test_power_times_power(benchmark, e1, e2):
    benchmark(lambda x, y: x * y, f(2) ** e1, f(5) ** e2)


@pytest.mark.benchmark(group="poly product")
@pytest.mark.parametrize("e", [1, 16])
def test_constant_times_power(benchmark, e):
    benchmark(lambda x, y: x * y, Fraction(-35, 6), f(4) ** e)


@pytest.mark.benchmark(group="poly sum")
@pytest.mark.parametrize("op", ["x + y", "x - y", "-x"])
def test_sum_of_powers(benchmark, op):
    fn = {"x + y": add, "x - y": sub, "-x": lambda x, y: -x}[op]
    benchmark(fn, f(2) ** 16, f(5) ** 16)


@pytest.mark.benchmark(group="symbolic det")
@pytest.mark.parametrize("n", [4, 6, 8, 9])
def test_symbolic_determinant(benchmark, n):
    benchmark(shapovalov_det, n, HWParams.symbolic(), n)
