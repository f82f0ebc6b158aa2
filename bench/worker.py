"""One workload in a fresh interpreter: timed passes, output checks, tracing.

Started by ``run.py``; not meant to be run by hand.  With ``--probe`` it
only builds the workload's inputs and the CLI parser, prints ``ready`` and
exits, so the parent can time set-up.  Otherwise it runs passes over the job
list back to back (closed loop, one client, no threads) and prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tubeint  # noqa: E402
import tubeint.cli  # noqa: E402

if not Path(tubeint.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"tubeint imported from {tubeint.__file__}, not from {SRC}")

import jobs  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_pass(job_list) -> tuple[float, float, list]:
    """Run every job once.

    Returns (wall seconds, relative machine speed, per-job result or exception).
    """
    results = []
    with contextlib.redirect_stdout(io.StringIO()), SpeedSampler() as sampler:
        start = time.perf_counter()
        for job in job_list:
            try:
                results.append(job.run())
            except (Exception, SystemExit) as exc:   # a failed job is counted, not fatal
                results.append(exc)
        wall = time.perf_counter() - start - sampler.spent
    return wall, sampler.speed, results


def check_pass(job_list, results, digests: dict[str, str]):
    """Check one pass; returns (failed jobs, problem lines, observed guard values).

    ``digests`` maps a job to the sha256 of its first output and is filled on
    first sight, so every later pass must reproduce that output byte for byte.
    """
    failed = 0
    problems = []
    observed: dict[str, float] = {}
    for job, result in zip(job_list, results):
        try:
            if isinstance(result, BaseException):
                raise RuntimeError(f"{type(result).__name__}: {result}")
            data = job.output(result)
            found, seen = job.check(result, data)
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(job.name, digest) != digest:
                found = found + ["output differs from the first pass (sha256)"]
        except (RuntimeError, ArithmeticError, LookupError, ValueError, OSError) as exc:
            found, seen = [str(exc)], {}
        for key, value in seen.items():
            observed[key] = max(observed.get(key, 0.0), value)
        if found:
            failed += 1
            problems += [f"{job.name}: {p}" for p in found]
    return failed, problems, observed


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": simd,
        "tubeint": tubeint.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    job_list = jobs.build(args.workload, args.seed, args.workdir, args.short)
    tubeint.cli.build_parser()   # what a CLI call pays before its first step
    if args.probe:
        print("ready", flush=True)
        return 0

    args.workdir.mkdir(parents=True, exist_ok=True)
    steps = sum(job.steps for job in job_list)
    digests: dict[str, str] = {}
    walls, speeds, traced_walls = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    observed: dict[str, float] = {}
    tracer = Tracer() if args.trace else None

    def one_pass(traced: bool) -> None:
        nonlocal attempted, failed
        gc.collect()
        if traced:
            with tracer.installed():
                wall, speed, results = run_pass(job_list)
            traced_walls.append(wall * speed)
        else:
            wall, speed, results = run_pass(job_list)
            walls.append(wall)
            speeds.append(speed)
        n_failed, found, seen = check_pass(job_list, results, digests)
        attempted += len(job_list)
        failed += n_failed
        problems.extend(found)
        for key, value in seen.items():
            observed[key] = max(observed.get(key, 0.0), value)

    # Untraced: at least two passes (the second is compared byte for byte with
    # the first).  Traced: untraced/traced pairs, at least one.  Stop when the
    # next round would likely end after --seconds.
    started = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        one_pass(False)
        if tracer is not None:
            one_pass(True)
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        enough = len(rounds) >= (1 if tracer is not None else 2)
        if enough and elapsed + statistics.fmean(rounds) > args.seconds:
            break

    result = {
        "walls": walls,
        "speeds": speeds,
        "steps_per_pass": steps,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced_walls))
        layers["invariant.exact_drift_max"] = observed.get("exact_drift", 0.0)
        layers["ermakov.lewis_drift_max"] = observed.get("lewis_drift", 0.0)
        layers["invariant.tube.max_abs_deviation"] = observed.get("tube_deviation", 0.0)
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls)
            / statistics.median(w * v for w, v in zip(walls, speeds)))
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
