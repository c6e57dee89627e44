"""Interleaved A/B timing of two checkouts of w22.

    python3 tests/ab_timing.py PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs N]

On a shared VM the CPU speed can change by a factor of two within seconds,
so two checkouts timed in separate runs are timed at different speeds.  This
helper loads ``src/w22`` of each checkout into one process, under the
package names ``w22_a`` and ``w22_b``, and times the same call in both in
alternating pairs (A then B, then B then A), each timed call preceded by an
optional untimed setup such as a cache clear, and by an untimed garbage
collection, so that the cyclic collector does not run inside one side's
timed call more often than the other's.  It prints each side's median
and quartiles, the median of the per-pair ratios B/A, and the number of
pairs in which B was faster.

Run as a script, it first times the jobs of the benchmark.  It loads
``perfbench/workloads.py`` of each checkout with ``w22`` bound to that
checkout's package, builds the ``straighten``, ``sweep`` and ``symbolic``
job lists of seed 1 at the reference size, and times each group of jobs of
one kind and one size (``len``, ``level`` or ``top``), warm: one line per
group, each call running every job of the group.  Both checkouts must build
the same groups.  Then it times the shapes that no job kind times:

- ``normal_order`` of the reversed words ``L(1)L(0)...`` of lengths 7-10,
  cold: the Virasoro insertion tables of ``pbw`` cleared before each call,
  where the checkout keeps them;
- warm ``normal_order`` of the five seeded mixed L/I words of length 12 of
  ``pbw_words.mixed_words``, longer than any benchmark word;
- ``normal_order`` of the five L6I6 words of ``pbw_words.l6i6_words``, where
  six L letters pass through a block of six I letters, warm and cold;
- warm ``commutator`` of every pair of single generators of
  ``generator_window(3)``, the shape of the identity corpus;
- ``singular_vectors`` at level m on the locus of m, for m = 2 and 3, cold
  (the Verma tables cleared before each call), and warm at level 6 at
  c0 = c1 = 0, where every f(k) vanishes;
- ``gram_matrix`` at (-9/4, 0, 1, 8), warm at level 10 and cold at level 8;
- warm symbolic ``shapovalov_det`` at level 8, the default level bound,
  and at level 10;
- warm ``gram_matrix`` at level 6 at a partial ``Poly`` point, (1/3, -2)
  for (lambda, c) and c0 and c1 symbolic;
- warm ``jacobi_report(6)``;
- ``w22 realization --window 8`` through each checkout's ``cli.main``,
  with stdout captured.

The pytest suite does not collect this file (its name does not match
``test_*.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SEED = 1
WORKLOADS = ("straighten", "sweep", "symbolic")


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


def load_workloads(package):
    """``perfbench/workloads.py`` of the checkout of ``package``, imported
    with ``w22`` and its modules bound to ``package`` and its modules.
    ``sys.modules`` and ``sys.path`` are as before on return."""
    root = Path(package.__file__).parent
    perfbench = root.parents[1] / "perfbench"
    name = f"{package.__name__}_workloads"
    spec = importlib.util.spec_from_file_location(name, perfbench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    bound = {"w22": package, name: module}  # @dataclass looks its module up
    for path in root.glob("*.py"):
        if path.stem != "__init__":
            bound[f"w22.{path.stem}"] = importlib.import_module(f"{package.__name__}.{path.stem}")
    saved = {key: sys.modules.pop(key, None) for key in [*bound, "oracles"]}
    sys.modules.update(bound)
    sys.path.insert(0, str(perfbench))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
        for key, value in saved.items():
            sys.modules.pop(key, None)
            if value is not None:
                sys.modules[key] = value
    return module


def job_groups(package):
    """The seed-1 jobs of every workload of the checkout of ``package``,
    by (workload, kind, size), in a fixed order."""
    workloads = load_workloads(package)
    groups = {}
    for workload in WORKLOADS:
        jobs, _ = workloads.build(workload, SEED, workloads.REFERENCE_SECONDS)
        shapes = {}
        for job in jobs:
            size = next((job.info[key] for key in ("len", "level", "top") if key in job.info), None)
            shapes.setdefault((job.kind, size), []).append(job)
        for kind, size in sorted(shapes, key=lambda shape: (shape[0], shape[1] or 0)):
            groups[workload, kind, size] = shapes[kind, size]
    return groups


def group_sizes(groups):
    """The number of jobs of each group, the part of the groups both
    checkouts must agree on."""
    return {key: len(jobs) for key, jobs in groups.items()}


def time_pairs(call_a, call_b, pairs, setup_a=None, setup_b=None):
    """Seconds per call of each side, timed in ``pairs`` alternating pairs."""
    sides = ((call_a, setup_a, []), (call_b, setup_b, []))
    for i in range(pairs):
        for call, setup, times in sides if i % 2 == 0 else sides[::-1]:
            if setup is not None:
                setup()
            gc.collect()
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
    return f"{label:<24} A {ms(times_a)}  B {ms(times_b)}  B/A {ratio:.2f}  B won {won}/{len(times_a)}"


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
            print(f"{label:<24} not timed: {type(exc).__name__}: {exc}")
            return
    setups = (None, None) if setup is None else (setup(a), setup(b))
    print(summary(label, *time_pairs(lambda: call(a), lambda: call(b), pairs, *setups)))


def locus_point(package, m):
    """A point on the locus of m, with dense (lambda, c1) as the sweep
    draws them."""
    c1 = Fraction(5, 7)
    return package.verma.HWParams.rational(Fraction(1, 3), -2, Fraction(m * m - 1, 24) * c1, c1)


def partial_point(package):
    """A ``Poly`` point with lambda and c rational constants and c0 and c1
    the ring's variables, as the ``symbolic`` workload draws its partial
    points."""
    P = package.PARAM_POLYS
    return package.verma.HWParams(package.Poly.const(Fraction(1, 3)), package.Poly.const(-2), P.c0, P.c1, P)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the quartiles need two times per side")
    a, b = load(args.checkout_a, "w22_a"), load(args.checkout_b, "w22_b")
    print(f"A = {args.checkout_a}\nB = {args.checkout_b}\nms per call: median [q1, q3]")
    groups = {p: job_groups(p) for p in (a, b)}
    if group_sizes(groups[a]) != group_sizes(groups[b]):
        sys.exit("error: the two checkouts build different benchmark job groups")
    for key in groups[a]:
        label = " ".join(str(part) for part in key if part is not None)
        report(label, a, b, lambda p: [job.run() for job in groups[p][key]], args.pairs)
    for length in range(7, 11):
        words = {p: tuple(p.L(1 - k) for k in range(length)) for p in (a, b)}
        report(f"cold len {length}", a, b, lambda p: p.pbw.normal_order(words[p]), args.pairs, clear_tables)
    # pbw_words spells its words in the w22 of this checkout; each package
    # gets the same words in its own generators.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from pbw_words import l6i6_words, mixed_words

    def order_all(words):
        words = {p: [tuple(p.Generator(g.kind, g.index) for g in w) for w in words] for p in (a, b)}

        def order(p):
            for word in words[p]:
                p.pbw.normal_order(word)

        return order

    report("warm mix 12", a, b, order_all(mixed_words(12)), args.pairs)
    report("warm l6i6", a, b, order_all(l6i6_words()), args.pairs)
    report("cold l6i6", a, b, order_all(l6i6_words()), args.pairs, clear_tables)
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
        singular = lambda p: p.verma.singular_vectors(m, points[p])
        report(f"cold sing {m}", a, b, singular, args.pairs, clear_verma_tables)
    points = {p: p.verma.HWParams.rational(Fraction(1, 3), -2, 0, 0) for p in (a, b)}
    report("warm sing 6 c0=c1=0", a, b, lambda p: p.verma.singular_vectors(6, points[p]), args.pairs)
    points = {p: p.verma.HWParams.rational(Fraction(-9, 4), 0, 1, 8) for p in (a, b)}
    report("warm gram 10", a, b, lambda p: p.verma.gram_matrix(10, points[p], 10), args.pairs)
    report("cold gram 8", a, b, lambda p: p.verma.gram_matrix(8, points[p]), args.pairs, clear_verma_tables)
    points = {p: p.verma.HWParams.symbolic() for p in (a, b)}
    report("warm det 8 symbolic", a, b, lambda p: p.verma.shapovalov_det(8, points[p]), args.pairs)
    report("warm det 10 symbolic", a, b, lambda p: p.verma.shapovalov_det(10, points[p], 10), args.pairs)
    points = {p: partial_point(p) for p in (a, b)}
    report("warm gram 6 partial", a, b, lambda p: p.verma.gram_matrix(6, points[p]), args.pairs)
    report("warm jacobi 6", a, b, lambda p: p.algebra.jacobi_report(6), args.pairs)
    clis = {p: importlib.import_module(f"{p.__name__}.cli") for p in (a, b)}

    def realization(p):
        with contextlib.redirect_stdout(io.StringIO()):
            clis[p].main(["realization", "--window", "8"])

    report("realization 8", a, b, realization, args.pairs)


if __name__ == "__main__":
    main()
