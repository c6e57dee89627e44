"""Interleaved A/B timing of one call in two checkouts of w22.

    python3 tests/ab_timing.py PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs N]

On a shared VM the CPU speed can change by a factor of two within seconds,
so two checkouts timed in separate runs are timed at different speeds.  This
helper loads ``src/w22`` of each checkout into one process, under the
package names ``w22_a`` and ``w22_b``, and times the same call in both in
alternating pairs (A then B, then B then A), each timed call preceded by an
optional untimed setup such as a cache clear.  It prints each side's median
and quartiles, the median of the per-pair ratios B/A, and the number of
pairs in which B was faster.

Run as a script, it reports ``normal_order`` of the reversed words
``L(1)L(0)...`` of lengths 7-10, cold (the Virasoro insertion tables of
``pbw`` cleared before each call, where the checkout keeps them) and warm.
The pytest suite does not collect this file (its name does not match
``test_*.py``).  A package loaded under another name resolves only relative
imports to itself, so calls that load the identity corpus (which names the
package ``w22``) are not timed this way.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path


def load(checkout, name):
    """Import ``src/w22`` of ``checkout`` as the package ``name``."""
    root = Path(checkout) / "src" / "w22"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def time_pairs(call_a, call_b, pairs, setup_a=None, setup_b=None):
    """Seconds per call of each side, timed in ``pairs`` alternating pairs."""
    sides = ((call_a, setup_a, []), (call_b, setup_b, []))
    for i in range(pairs):
        for call, setup, times in sides if i % 2 == 0 else sides[::-1]:
            if setup is not None:
                setup()
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
    return sides[0][2], sides[1][2]


def summary(label, times_a, times_b):
    """One line: each side's median and quartiles in ms, the median paired
    ratio B/A and the number of pairs B won."""

    def ms(times):
        q1, q2, q3 = statistics.quantiles(times, n=4)
        return f"{q2 * 1e3:9.3f} [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"

    ratio = statistics.median(b / a for a, b in zip(times_a, times_b))
    won = sum(b < a for a, b in zip(times_a, times_b))
    return f"{label:<12} A {ms(times_a)}  B {ms(times_b)}  B/A {ratio:.2f}  B won {won}/{len(times_a)}"


def clear_tables(package):
    """The untimed setup that clears the Virasoro insertion tables of
    ``package``, or None where the checkout keeps no tables."""
    table = getattr(package.pbw, "_virasoro_table", None)
    return None if table is None else table.cache_clear


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    a, b = load(args.checkout_a, "w22_a"), load(args.checkout_b, "w22_b")
    print(f"A = {args.checkout_a}\nB = {args.checkout_b}\nms per call: median [q1, q3]")
    for length in range(7, 11):
        word_a, word_b = (tuple(p.L(1 - k) for k in range(length)) for p in (a, b))

        def call_a():
            a.pbw.normal_order(word_a)

        def call_b():
            b.pbw.normal_order(word_b)

        cold = time_pairs(call_a, call_b, args.pairs, clear_tables(a), clear_tables(b))
        print(summary(f"cold len {length}", *cold))
        call_a()  # fill the tables before the warm pairs
        call_b()
        print(summary(f"warm len {length}", *time_pairs(call_a, call_b, args.pairs)))


if __name__ == "__main__":
    main()
