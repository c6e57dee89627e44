"""Timing of PBW normal ordering by word shape and length.

    python3 -m pytest tests/bench_pbw.py

Three shapes: seeded mixed L/I words of lengths 8-12, words of six L letters
before six I letters (L6I6), and reversed L-words ``L(1)L(0)L(-1)...`` of
lengths 8-10, which are pure Virasoro words.  The suite does not collect
this file (its name does not match ``test_*.py``); it needs the
pytest-benchmark plugin and is skipped without it.
"""

import random

import pytest

pytest.importorskip("pytest_benchmark")

from w22.algebra import I, L
from w22.pbw import normal_order

INDICES = range(-3, 4)
WORDS_PER_SHAPE = 5


def mixed_words(length):
    rng = random.Random(length)
    letters = [L(n) for n in INDICES] + [I(n) for n in INDICES]
    return [tuple(rng.choice(letters) for _ in range(length)) for _ in range(WORDS_PER_SHAPE)]


def l6i6_words():
    rng = random.Random(66)
    return [
        tuple(L(rng.choice(INDICES)) for _ in range(6)) + tuple(I(rng.choice(INDICES)) for _ in range(6))
        for _ in range(WORDS_PER_SHAPE)
    ]


def normal_order_all(words):
    for word in words:
        normal_order(word)


@pytest.mark.benchmark(group="mixed")
@pytest.mark.parametrize("length", range(8, 13))
def test_mixed_words(benchmark, length):
    benchmark(normal_order_all, mixed_words(length))


@pytest.mark.benchmark(group="L6I6")
def test_l6i6_words(benchmark):
    benchmark(normal_order_all, l6i6_words())


@pytest.mark.benchmark(group="reversed")
@pytest.mark.parametrize("length", range(8, 11))
def test_reversed_l_word(benchmark, length):
    benchmark(normal_order, tuple(L(1 - k) for k in range(length)))
