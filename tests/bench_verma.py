"""Timing of the Verma layer over sweeps of parameter points.

    python3 -m pytest tests/bench_verma.py

Each round sweeps 20 seeded points through ``gram_matrix``, ``i0_matrix``
or ``singular_vectors`` at one level from 3 to 6.  Every round draws new
points, so no work done at one point is reused at another, as in a sweep;
only point-free work, such as the action tables, is built once, in the
warm-up round.  Singular vectors are searched on the m = 1 and m = 2 loci,
where the form degenerates and the nullspace is computed, and at levels 4
to 6 on the c0 = c1 = 0 locus, where some of the singular vectors found are
not I(0) eigenvectors and every f(k) vanishes.  Single-point
``gram_matrix`` rounds at levels 8 and 10, again at a new point per round,
time the level recursion of the form, which builds every level below the
one asked for.  The cold-table round at level 8 clears the action tables
before each round, so it times their first build, which every other round
leaves to its warm-up.  The sweep-job round does at each of its 20 points what
one job of the ``sweep`` workload of ``perfbench/`` does: the first
degenerate level up to 5, the singular search there (or at level 5), and
I(0) at a level from 1 to 3; three of the points lie on the m = 1 or 2
locus.  The suite does not collect this file (its name does not
match ``test_*.py``); it needs the pytest-benchmark plugin and is skipped
without it.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("pytest_benchmark")

from w22 import verma
from w22.verma import HWParams, first_degenerate_level, gram_matrix, i0_matrix, singular_vectors

POINTS = 20


def draw_points(rng, count, locus=False, zero=False):
    """New seeded points, on the m = 1 or 2 locus or with c0 = c1 = 0 if
    asked."""

    def q(nonzero=False):
        while True:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if x or not nonzero:
                return x

    points = []
    for _ in range(count):
        lam, c, c0, c1 = q(), q(), q(), q(nonzero=True)
        if locus:
            c0 = Fraction(rng.choice((1, 2)) ** 2 - 1, 24) * c1
        if zero:
            c0 = c1 = Fraction(0)
        points.append(HWParams.rational(lam, c, c0, c1))
    return points


def sweep(benchmark, run, n, **draw):
    rng = random.Random(n)

    def target(points):
        for p in points:
            run(n, p)

    benchmark.pedantic(
        target, setup=lambda: ((draw_points(rng, POINTS, **draw),), {}), rounds=5, warmup_rounds=1
    )


@pytest.mark.benchmark(group="gram sweep")
@pytest.mark.parametrize("n", range(3, 7))
def test_gram_matrix_sweep(benchmark, n):
    sweep(benchmark, gram_matrix, n)


@pytest.mark.benchmark(group="i0 sweep")
@pytest.mark.parametrize("n", range(3, 7))
def test_i0_matrix_sweep(benchmark, n):
    sweep(benchmark, i0_matrix, n)


@pytest.mark.benchmark(group="singular sweep")
@pytest.mark.parametrize("n", range(3, 7))
def test_singular_vectors_sweep(benchmark, n):
    sweep(benchmark, singular_vectors, n, locus=True)


@pytest.mark.benchmark(group="singular sweep c0 = c1 = 0")
@pytest.mark.parametrize("n", range(4, 7))
def test_singular_vectors_zero_locus_sweep(benchmark, n):
    sweep(benchmark, singular_vectors, n, zero=True)


@pytest.mark.benchmark(group="sweep job")
def test_sweep_job(benchmark):
    rng = random.Random(5)
    top = 5

    def target(points):
        for k, p in enumerate(points):
            singular_vectors(first_degenerate_level(p, top) or top, p)
            i0_matrix(1 + k % 3, p)

    def setup():
        return (draw_points(rng, POINTS - 3) + draw_points(rng, 3, locus=True),), {}

    benchmark.pedantic(target, setup=setup, rounds=5, warmup_rounds=1)


@pytest.mark.benchmark(group="gram level 8")
def test_gram_matrix_level_eight(benchmark):
    rng = random.Random(8)
    benchmark.pedantic(
        gram_matrix, setup=lambda: ((8, draw_points(rng, 1)[0]), {}), rounds=3, warmup_rounds=1
    )


@pytest.mark.benchmark(group="gram level 8, cold tables")
def test_gram_matrix_level_eight_cold_tables(benchmark):
    rng = random.Random(8)

    def setup():
        verma._act_on_monomial.cache_clear()
        return (8, draw_points(rng, 1)[0]), {}

    benchmark.pedantic(gram_matrix, setup=setup, rounds=3, warmup_rounds=1)


@pytest.mark.benchmark(group="gram level 10")
def test_gram_matrix_level_ten(benchmark):
    rng = random.Random(10)

    def setup():
        return (10, draw_points(rng, 1)[0]), {"max_level": 10}

    benchmark.pedantic(gram_matrix, setup=setup, rounds=3, warmup_rounds=1)
