"""Timing of PBW normal ordering by word shape and length.

    python3 -m pytest tests/bench_pbw.py

Three shapes (from ``pbw_words.py``): seeded mixed L/I words of lengths
8-12, words of six L letters before six I letters (L6I6), and reversed
L-words ``L(1)L(0)L(-1)...`` of lengths 8-10, which are pure Virasoro words.

The Virasoro insertion tables of ``pbw`` are kept for the process, so the
groups ``mixed``, ``L6I6`` and ``reversed`` are warm: after the first round
they time table hits and the rewriting that no table covers.  The groups
``L6I6, cold tables`` and ``reversed, cold tables`` clear the tables before
each round, so they time the first build of every table a word needs.  The
suite does not collect this file (its name does not match ``test_*.py``); it
needs the pytest-benchmark plugin and is skipped without it.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from pbw_words import l6i6_words, mixed_words, reversed_word
from w22 import pbw
from w22.pbw import normal_order


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
    benchmark(normal_order, reversed_word(length))


def cold(benchmark, target, *args):
    """Time ``target`` with the Virasoro tables cleared before each round."""
    benchmark.pedantic(
        target, args=args, setup=pbw._virasoro_table.cache_clear, rounds=5, warmup_rounds=1
    )


@pytest.mark.benchmark(group="L6I6, cold tables")
def test_l6i6_words_cold_tables(benchmark):
    cold(benchmark, normal_order_all, l6i6_words())


@pytest.mark.benchmark(group="reversed, cold tables")
@pytest.mark.parametrize("length", range(8, 11))
def test_reversed_l_word_cold_tables(benchmark, length):
    cold(benchmark, normal_order, reversed_word(length))
