#!/usr/bin/env python3
"""Benchmark of the w22 engine.

    python3 perfbench/run.py --workload straighten|sweep|symbolic \
        --seed N --seconds S --trace 0|1

Runs the seeded job list of one workload in a closed loop (one process, one
thread, the next job starts when the previous one returns), checks every
output against the oracles in ``oracles.py`` outside the timed region, and
prints as its last line one JSON object with the end-to-end metrics named in
``BENCHMARK.json`` (``--trace 0``) or the per-layer ones (``--trace 1``).

Job and set-up times are reported at reference speed.  On a shared virtual
machine the CPU speed can drift by a factor of two within seconds (seen on
a 2-vCPU Xeon VM), so the run times a fixed pure-Python calibration load
between jobs and scales each job's time by ``CALIBRATION_REF_S`` over the
mean of the calibration samples taken just before and just after it.  The
raw times are in the run record.

The traced run first runs the same workload untraced in a child process, to
report the tracing overhead and to check that tracing changed no output.
Spans and a run record are written under ``.bench_out/`` in the checkout.
The engine is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 6  # extra fresh processes that only set up; setup_s is the median
CHILD_TIMEOUT_S = 170
CALIBRATION_REF_S = 0.0045  # one calibration() on the reference VM when quiet
CALIBRATION_EVERY_S = 0.25  # least time between two calibration samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("straighten", "sweep", "symbolic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def load_engine():
    """Put the checkout's ``src`` first on the path and import w22 from it."""
    src = ROOT / "src"
    if not (src / "w22" / "__init__.py").is_file():
        sys.exit(f"error: no w22 package under {src}")
    sys.path.insert(0, str(src))
    import w22

    if Path(w22.__file__).resolve().parent != (src / "w22").resolve():
        sys.exit(f"error: imported w22 from {w22.__file__}, not from {src}")


def metric_specs(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def calibration():
    """Time of a fixed pure-Python load like the engine's (Fraction
    arithmetic, tuple keys, dict updates): the best of three tries."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, x = {}, Fraction(1)
        for i in range(1, 600):
            x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
            x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
            acc[i % 97, i % 13] = acc.get((i % 97, i % 13), 0) + x
        best = min(best, time.perf_counter() - start)
    return best


def run_jobs(jobs, tracer):
    """Run the jobs one at a time; time each, then check it untimed.
    Calibration samples are taken between jobs."""
    records = []
    digest = hashlib.sha256()
    deltas = {key: [0, 0] for key in tracing.cache_counters()}
    samples, sampled_at = [], float("-inf")
    for job_id, job in enumerate(jobs):
        if time.perf_counter() - sampled_at >= CALIBRATION_EVERY_S:
            samples.append(calibration())
            sampled_at = time.perf_counter()
        before = tracing.cache_counters()
        if tracer:
            tracer.job, tracer.active = job_id, True
        start = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        after = tracing.cache_counters()
        for key, now in after.items():
            if now is None or before[key] is None or deltas[key] is None:
                deltas[key] = None
            else:
                deltas[key] = [d + n - b for d, n, b in zip(deltas[key], now, before[key])]
        if error is None:
            try:
                problems = job.verify(out)
                digest.update(job.digest(out).encode())
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        records.append({"job": job_id, "kind": job.kind, **job.info, "s": elapsed,
                        "sample": len(samples) - 1, "problems": problems})
    samples.append(calibration())
    for r in records:  # the next sample was taken after the job
        r["ref_s"] = r["s"] * CALIBRATION_REF_S * 2 / (samples[r["sample"]] + samples[r["sample"] + 1])
    return records, deltas, digest.hexdigest(), samples


def probe_setup(args):
    """setup_s of fresh processes that set up and exit."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_untraced_child(args):
    """wall_s and output digest of the same run without tracing."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    lines = done.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("output digest:"))
    return json.loads(lines[-1])["metrics"]["wall_s"]["value"], digest


def tail(times):
    """The highest percentile with at least ten jobs beyond it, as
    (value, percentile, jobs beyond)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100 * (k + 1) / len(ordered), len(ordered) - k - 1


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    load_engine()
    import workloads
    from w22 import cli

    cli.build_parser()
    jobs, mix = workloads.build(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - start
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s * CALIBRATION_REF_S / calibration()}))
        return 0

    tracer = None
    if args.trace:
        untraced_wall, untraced_digest = run_untraced_child(args)
        tracer = tracing.Tracer()
        tracer.install()
    records, deltas, digest, samples = run_jobs(jobs, tracer)
    raw_wall_s = sum(r["s"] for r in records)
    times = [r["ref_s"] for r in records]
    failed = sum(bool(r["problems"]) for r in records)
    wall_s = sum(times)
    tail_s, tail_pct, beyond = tail(times)
    if tracer:
        if digest != untraced_digest:
            failed += 1
            print("traced outputs differ from the untraced run", file=sys.stderr)
        values = tracing.layer_metrics(
            tracer, deltas, tracing.cache_counters(), wall_s - untraced_wall, wall_s / raw_wall_s
        )
        specs = metric_specs("per_layer")
    else:
        setup = [setup_s * CALIBRATION_REF_S / samples[0]] + probe_setup(args)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "job_p50_ms": statistics.median(times) * 1000,
            "job_tail_ms": tail_s * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (len(records) - failed) / len(records),
        }
        specs = metric_specs("end_to_end")
    if set(values) != {name for name, _ in specs}:
        sys.exit(f"error: computed metrics do not match BENCHMARK.json: {sorted(set(values) ^ {n for n, _ in specs})}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    record = {"args": vars(args), "mix": mix, "metrics": values, "calibration_s": samples,
              "raw_wall_s": raw_wall_s, "digest": digest, "jobs": records}
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record, default=str, indent=1))

    for r in records:
        if r["problems"]:
            print(f"FAILED job {r['job']} ({r['kind']}): {'; '.join(r['problems'][:3])}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(records)} jobs, mix {json.dumps(mix, default=str)}")
    print(f"job_tail_ms is the p{tail_pct:.1f} of {len(records)} jobs ({beyond} beyond it)")
    print(f"failed_ratio {failed}/{len(records)} = {failed / len(records):g}")
    print(f"raw wall_s {raw_wall_s:.3f} ({len(samples)} calibration samples, median {statistics.median(samples):.5f} s)")
    if tracer:
        print(f"tracing overhead: traced wall_s {wall_s:.3f} - untraced wall_s {untraced_wall:.3f}")
    for name, unit in specs:
        print(f"{name} = {values[name]} {unit}")
    print(f"output digest: {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
