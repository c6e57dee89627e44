"""Seeded inputs and jobs of the three benchmark workloads.

Every workload is a fixed mix of strata (word shape, point kind and level,
determinant level) whose sizes are set below for a run of
``REFERENCE_SECONDS`` on the reference machine; ``--seconds`` scales them.
The seed draws the contents of every stratum and the job order, never the
stratum sizes, so every seed gives the same amount and kind of work.

The program sees only the generated inputs: words, parameter points and
levels.  Each job calls the engine through module attributes, so a traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from w22 import cli, identities, pbw, verma
from w22.algebra import I, L
from w22.scalars import PARAM_POLYS, Poly

import oracles

REFERENCE_SECONDS = 25

# The sizes below place the median job and the tail job (the eleventh slowest)
# near the middle of a large group of jobs of like cost.  Jobs of like cost
# rank among themselves by noise alone, so a rank deep inside such a group
# moves little from run to run; a rank on the edge between two groups of
# different cost would jump between them.

# straighten: (length, number of L letters, inversions, count) of random words
# with |index| <= 3; inversions fix most of the rewriting cost, so a stratum's
# costs stay within a small factor of each other.
WORD_STRATA = [
    (6, 3, 7, 16),
    (7, 3, 10, 16),
    (8, 4, 14, 16),
    (9, 4, 18, 24),
    (10, 5, 23, 24),
    (11, 5, 28, 32),
]
# Reversed L-words L(1) L(0) L(-1) ... by length, the worst case of the
# rewriter.  The tail job is a length-8 one: only the length-9 words and the
# suite runs are slower.  The median job is a corpus run: as many jobs are
# cheaper than the corpus runs as are dearer.
REVERSED = {5: 2, 6: 2, 7: 4, 8: 12, 9: 2}
REVERSED_START = 1
CORPUS_RUNS = 40
SUITE_RUNS = 2
NAIVE_MAX_LEN = 8  # words compared against the naive rewriter

# sweep: points on the locus 2 c0 = (m^2 - 1)/12 c1, per m, and generic
# points by top level, half with small integers and half with dense fractions.
# The median and the tail job both fall in the level-5 group; the level-6
# jobs are among the ten beyond the tail.
LOCUS_POINTS = {1: 2, 2: 2, 3: 2}
GENERIC_TOPS = {4: 4, 5: 30, 6: 4}
I0_LEVELS = (1, 2, 3)

# symbolic: Gram determinants over Poly at the generic point and at points
# with rational lambda, c.  The median job falls in the level-3 group and the
# tail job in the level-4 one.
SYMBOLIC_DETS = {1: 2, 2: 2, 3: 4, 4: 3}
PARTIAL_DETS = {1: 2, 2: 2, 3: 28, 4: 14}
SYMBOLIC_I0 = {1: 2, 2: 4, 3: 2}


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]
    info: dict = field(default_factory=dict)

    def verify(self, out):
        """The job's own check plus the no-float rule for every output."""
        problems = self.check(out)
        hit = oracles.find_float(out)
        return problems + [f"float at {hit}"] if hit else problems


def _scaled(count, seconds):
    return max(1, round(count * seconds / REFERENCE_SECONDS))


def _height(q):
    return max(abs(q.numerator), q.denominator)


# -- straighten ----------------------------------------------------------------


def _inversions(word):
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[j] < word[i])


def _random_word(rng, length, n_l, inversions):
    """A word of (rank, index) pairs with the given shape, by rejection."""
    while True:
        ranks = [oracles.L_] * n_l + [oracles.I_] * (length - n_l)
        rng.shuffle(ranks)
        word = [(r, rng.randint(-3, 3)) for r in ranks]
        if _inversions(word) == inversions:
            return word


def _word_job(kind, pairs):
    word = [L(i) if r == oracles.L_ else I(i) for r, i in pairs]
    naive = len(pairs) <= NAIVE_MAX_LEN
    return Job(
        kind=kind,
        run=lambda: pbw.normal_order(word),
        check=lambda out: oracles.check_normal_form(pairs, out, naive),
        digest=str,
        info={"len": len(pairs)},
    )


def _check_corpus(results):
    bad = [r.case.name for r in results if not r.as_expected]
    return [f"corpus records not as expected: {bad}"] if bad or not results else []


def _corpus_digest(results):
    return "|".join(f"{r.case.name}:{r.passed}:{r.residual}" for r in results)


def _run_suite():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["suite"])
    return code, out.getvalue()


def _check_suite(result):
    code, text = result
    payload = json.loads(text)
    problems = [] if code == 0 and payload.get("ok") is True else [f"suite exit {code}"]
    if oracles.find_float(payload):
        problems.append("float in suite output")
    # The recorded criterion mismatches pass only as mismatches.
    for sample in payload["criterion_samples"]:
        if sample["consistent"] != sample["expect_consistent"]:
            problems.append(f"criterion sample changed: {sample}")
    return problems


def straighten_jobs(rng, seconds):
    jobs = []
    for length, n_l, inversions, count in WORD_STRATA:
        for _ in range(_scaled(count, seconds)):
            jobs.append(_word_job("word", _random_word(rng, length, n_l, inversions)))
    for length, count in REVERSED.items():
        word = [(oracles.L_, REVERSED_START - k) for k in range(length)]
        for _ in range(_scaled(count, seconds)):
            jobs.append(_word_job("reversed", word))
    for _ in range(_scaled(CORPUS_RUNS, seconds)):
        # Looked up at call time, so that a traced run sees the call.
        jobs.append(Job("corpus", lambda: identities.run_corpus(), _check_corpus, _corpus_digest))
    for _ in range(_scaled(SUITE_RUNS, seconds)):
        jobs.append(Job("suite", _run_suite, _check_suite, lambda r: r[1]))
    mix = {
        "word_lengths": Counter(j.info["len"] for j in jobs if j.kind == "word"),
        "reversed_lengths": Counter(j.info["len"] for j in jobs if j.kind == "reversed"),
        "corpus_runs": sum(j.kind == "corpus" for j in jobs),
        "suite_runs": sum(j.kind == "suite" for j in jobs),
    }
    return jobs, mix


# -- sweep ---------------------------------------------------------------------


def _small(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-5, 5))
        if q or not nonzero:
            return q


def _dense(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        if q or not nonzero:
            return q


def _i0_problems(n, report):
    problems = [] if report.nilpotent_within_bound else ["I(0) - c0 not nilpotent within the bound"]
    if n >= 1 and report.diagonalizable:
        problems.append("I(0) diagonalizable at a positive level")
    return problems


def _check_sweep(p, expected, i0_level):
    def check(out):
        degenerate, _, found, report = out
        problems = []
        if degenerate != expected:
            problems.append(f"first degenerate level {degenerate}, locus gives {expected}")
        if bool(found) != (expected is not None):
            problems.append(f"{len(found)} singular vectors where the locus gives {expected}")
        for sv in found:
            for g in (L(1), L(2), I(1), I(2)):
                if verma.act(g, sv.vector, p):
                    problems.append(f"singular vector not killed by {g}")
        return problems + _i0_problems(i0_level, report)

    return check


def _sweep_digest(out):
    degenerate, level, found, report = out
    vectors = ";".join(f"{sv.vector}:{sv.i0_eigenvector}" for sv in found)
    return f"{degenerate}|{level}|{vectors}|{report.entries}"


def _sweep_job(kind, point, top, expected, i0_level):
    p = verma.HWParams.rational(*point)

    def run():
        degenerate = verma.first_degenerate_level(p, top)
        level = degenerate or top
        return degenerate, level, verma.singular_vectors(level, p), verma.i0_matrix(i0_level, p)

    info = {"top": top, "height": max(_height(q) for q in point), "i0_level": i0_level}
    return Job(kind, run, _check_sweep(p, expected, i0_level), _sweep_digest, info)


def sweep_jobs(rng, seconds):
    jobs = []
    for m, count in LOCUS_POINTS.items():
        for k in range(_scaled(count, seconds)):
            draw = _small if k % 2 else _dense
            c1 = draw(rng, nonzero=True)
            c0 = Fraction(m * m - 1, 24) * c1
            point = (draw(rng), draw(rng), c0, c1)
            jobs.append(_sweep_job(f"locus{m}", point, max(GENERIC_TOPS), m, rng.choice(I0_LEVELS)))
    for top, count in GENERIC_TOPS.items():
        n = _scaled(count, seconds)
        for kind in (["small", "dense"] * n)[:n]:
            draw = _small if kind == "small" else _dense
            while True:
                point = tuple(draw(rng, nonzero=True) for _ in range(4))
                if oracles.locus_level(point[2], point[3], top) is None:
                    break
            jobs.append(_sweep_job(kind, point, top, None, rng.choice(I0_LEVELS)))
    heights = sorted(j.info["height"] for j in jobs)
    mix = {
        "point_kinds": Counter(j.kind for j in jobs),
        "tops": Counter(j.info["top"] for j in jobs if not j.kind.startswith("locus")),
        "i0_levels": Counter(j.info["i0_level"] for j in jobs),
        "height_min_median_max": [heights[0], heights[len(heights) // 2], heights[-1]],
    }
    return jobs, mix


# -- symbolic ------------------------------------------------------------------


def _check_det(n):
    def check(det):
        problems = oracles.check_gram_det(n, det)
        if PARAM_POLYS.parse(str(det)) != det:
            problems.append(f"level-{n} det does not re-parse")
        return problems

    return check


def _partial_point(rng, draw):
    """Rational lambda and c as constants, c0 and c1 symbolic."""
    lam, c = draw(rng), draw(rng)
    P = PARAM_POLYS
    return verma.HWParams(Poly.const(lam), Poly.const(c), P.c0, P.c1, P), max(_height(lam), _height(c))


def symbolic_jobs(rng, seconds):
    jobs = []
    generic = verma.HWParams.symbolic()
    for n, count in SYMBOLIC_DETS.items():
        for _ in range(_scaled(count, seconds)):
            jobs.append(Job("generic_det", lambda n=n: verma.shapovalov_det(n, generic), _check_det(n), str, {"level": n}))
    for n, count in PARTIAL_DETS.items():
        for k in range(_scaled(count, seconds)):
            p, height = _partial_point(rng, _small if k % 2 else _dense)
            run = lambda n=n, p=p: verma.shapovalov_det(n, p)
            jobs.append(Job("partial_det", run, _check_det(n), str, {"level": n, "height": height}))
    for n, count in SYMBOLIC_I0.items():
        for k in range(_scaled(count, seconds)):
            p = generic if k % 2 else _partial_point(rng, _small)[0]
            run = lambda n=n, p=p: verma.i0_matrix(n, p)
            check = lambda report, n=n: _i0_problems(n, report)
            jobs.append(Job("i0", run, check, lambda r: str(r.entries), {"level": n}))
    heights = sorted(j.info["height"] for j in jobs if "height" in j.info)
    mix = {
        "det_levels": {
            kind: Counter(j.info["level"] for j in jobs if j.kind == kind)
            for kind in ("generic_det", "partial_det")
        },
        "i0_levels": Counter(j.info["level"] for j in jobs if j.kind == "i0"),
        "partial_height_min_median_max": [heights[0], heights[len(heights) // 2], heights[-1]],
    }
    return jobs, mix


def build(workload, seed, seconds):
    """The shuffled job list of a workload and a summary of its input mix."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, mix = {"straighten": straighten_jobs, "sweep": sweep_jobs, "symbolic": symbolic_jobs}[
        workload
    ](rng, seconds)
    rng.shuffle(jobs)
    return jobs, mix
