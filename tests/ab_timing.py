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
``pbw`` cleared before each call, where the checkout keeps them) and warm;
warm ``normal_order`` of the five seeded mixed L/I words of
``pbw_words.mixed_words`` at each of the lengths 8, 10 and 12, which reach
the commuting block that reversed L-words never do; warm ``normal_order``
of the five L6I6 words of ``pbw_words.l6i6_words``, where six L letters
pass through a block of six I letters; warm ``commutator`` of every pair of
single generators of ``generator_window(3)``, the shape of the identity
corpus; ``singular_vectors`` at level m on the locus of m, for
m = 2 and 3, cold (the Verma tables cleared before each call) and warm;
warm ``gram_matrix`` at level 10 at (-9/4, 0, 1, 8); warm ``run_corpus``;
warm ``jacobi_report(6)``; and ``w22 suite`` run in process through the
checkout's ``cli`` module, its output discarded.
The pytest suite does not collect this file (its name does not match
``test_*.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from fractions import Fraction
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


def clear_verma_tables(package):
    """The untimed setup that clears the point-free Verma tables."""
    return package.verma._act_on_monomial.cache_clear


def report(label, a, b, call, pairs, setup=None):
    """Print the summary of ``call(package)`` timed in both packages, each
    call preceded by ``setup(package)`` where a setup is given, and else
    after one untimed call in each package, so that its caches are warm."""
    if setup is None:
        try:
            call(a)
            call(b)
        except Exception as exc:  # an older checkout may not run the call
            print(f"{label:<12} not timed: {type(exc).__name__}: {exc}")
            return
    setups = (None, None) if setup is None else (setup(a), setup(b))
    print(summary(label, *time_pairs(lambda: call(a), lambda: call(b), pairs, *setups)))


def run_suite(cli):
    """``w22 suite`` through the ``cli`` module given, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["suite"])


def locus_point(package, m):
    """A point on the locus of m, with dense (lambda, c1) as the sweep
    draws them."""
    c1 = Fraction(5, 7)
    return package.verma.HWParams.rational(Fraction(1, 3), -2, Fraction(m * m - 1, 24) * c1, c1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    a, b = load(args.checkout_a, "w22_a"), load(args.checkout_b, "w22_b")
    print(f"A = {args.checkout_a}\nB = {args.checkout_b}\nms per call: median [q1, q3]")
    for length in range(7, 11):
        words = {p: tuple(p.L(1 - k) for k in range(length)) for p in (a, b)}

        def order(p):
            p.pbw.normal_order(words[p])

        report(f"cold len {length}", a, b, order, args.pairs, clear_tables)
        report(f"warm len {length}", a, b, order, args.pairs)
    # pbw_words spells its words in the w22 of this checkout; each package
    # gets the same words in its own generators.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from pbw_words import l6i6_words, mixed_words

    def respelt(words):
        return {p: [tuple(p.Generator(g.kind, g.index) for g in w) for w in words] for p in (a, b)}

    def order_all(words):
        def order(p):
            for word in words[p]:
                p.pbw.normal_order(word)

        return order

    for length in (8, 10, 12):
        report(f"warm mix {length}", a, b, order_all(respelt(mixed_words(length))), args.pairs)
    report("warm l6i6", a, b, order_all(respelt(l6i6_words())), args.pairs)
    generator_pairs = {
        p: [(p.pbw.ue(x), p.pbw.ue(y)) for x in p.generator_window(3) for y in p.generator_window(3)]
        for p in (a, b)
    }

    def commutators(p):
        for x, y in generator_pairs[p]:
            p.pbw.commutator(x, y)

    report("warm comm 3", a, b, commutators, args.pairs)
    for m in (2, 3):
        points = {p: locus_point(p, m) for p in (a, b)}

        def singular(p):
            p.verma.singular_vectors(m, points[p])

        report(f"cold sing {m}", a, b, singular, args.pairs, clear_verma_tables)
        report(f"warm sing {m}", a, b, singular, args.pairs)
    points = {p: p.verma.HWParams.rational(Fraction(-9, 4), 0, 1, 8) for p in (a, b)}
    report("warm gram 10", a, b, lambda p: p.verma.gram_matrix(10, points[p], 10), args.pairs)
    report("warm corpus", a, b, lambda p: p.identities.run_corpus(), args.pairs)
    report("warm jacobi 6", a, b, lambda p: p.algebra.jacobi_report(6), args.pairs)
    # The package does not import its cli module; import each copy's own.
    cli = {p: importlib.import_module(f"{p.__name__}.cli") for p in (a, b)}
    report("suite", a, b, lambda p: run_suite(cli[p]), args.pairs)


if __name__ == "__main__":
    main()
