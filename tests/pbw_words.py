"""Seeded PBW word shapes shared by the tests and the A/B timing helper:
mixed L/I words, L6I6 words (six L letters before six I letters) and
reversed L-words ``L(1)L(0)L(-1)...``."""

import random

from w22.algebra import I, L

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


def reversed_word(length):
    """``L(1)L(0)L(-1)...`` of the given length: every pair is inverted."""
    return tuple(L(1 - k) for k in range(length))
