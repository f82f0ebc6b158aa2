"""tubeint benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Workloads: paper-sweep, tube-ensemble, dense-output (see bench/NOTES.md).
With ``--trace 0`` the end-to-end metrics are measured with no tracing; with
``--trace 1`` a traced run reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; fail_ratio is failed / attempted.  When every output check
passes, the full record (metrics, seed, machine, commit) is also written to
``.bench_results/``.

The workload runs in a fresh child interpreter (``worker.py``) so that its
set-up time and peak RSS are its own.  Times are scaled to a reference
machine speed (see ``speed.py``); the summary also prints the raw times.  The program is imported from ``src/``
of this checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import CAL_NOMINAL_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_PROBES = 11      # timed fresh interpreters per run; one more warms the caches
DEADLINE_S = 170.0     # the whole run ends well within 180 s

UNITS = (                      # metric-name suffix -> unit, first match wins
    ("wall_s", "s"), ("steps_per_s", "steps/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("us_per_step", "us/step"), ("us_per_point", "us/point"), ("us_per_row", "us/row"),
    (".steps", "steps"), (".calls", "count"), (".failures", "count"),
    (".points", "points"), (".rows", "rows"), (".bytes", "bytes"),
    ("self_s", "s"), (".s", "s"), ("_max", "1"), ("max_abs_deviation", "1"),
    ("overhead_ratio", "1"),
)


def unit(name: str) -> str:
    return next(u for suffix, u in UNITS if name.endswith(suffix))


def worker_cmd(args, workdir: Path, *extra: str) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    return cmd + ["--short"] if args.short else cmd


def setup_seconds(args, workdir: Path) -> list[float]:
    """Start-to-ready time of fresh interpreters that import and build the inputs.

    Each time is scaled to the reference speed measured just before and after.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        before = calibrate()
        start = time.perf_counter()
        with subprocess.Popen(worker_cmd(args, workdir, "--probe"), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
        if i > 0:
            times.append(ready * 0.5 * (CAL_NOMINAL_S / before + CAL_NOMINAL_S / calibrate()))
    return times


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *cmd], env=env, text=True,
                                  capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true",
                    help="horizons x0.2, for the self-test; not a benchmark run")
    args = ap.parse_args()
    if not (ROOT / "src" / "tubeint" / "__init__.py").is_file():
        print(f"error: no tubeint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        probes = [] if args.trace else setup_seconds(args, workdir)
        done = subprocess.run(worker_cmd(args, workdir), stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if done.returncode != 0:
        print(f"error: workload process exited with code {done.returncode}", file=sys.stderr)
        return 1
    child = json.loads(done.stdout.strip().splitlines()[-1])

    walls, speeds = child["walls"], child["speeds"]
    scaled = [w * v for w, v in zip(walls, speeds)]
    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        values = child["layers"]
    else:
        values = {
            "wall_s": statistics.median(scaled),
            "steps_per_s": child["steps_per_pass"] * len(scaled) / sum(scaled),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        }
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"untraced passes={len(walls)} steps/pass={child['steps_per_pass']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (wall_s: median of {len(walls)} passes at reference speed; raw median "
              f"{statistics.median(walls):.6g} s at relative speed "
              f"{statistics.median(speeds):.3f}; setup_s: median of {len(probes)} "
              f"fresh interpreters)")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    for problem in child["problems"]:
        print(f"  FAILED {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "short": args.short, "pass_walls_s": walls,
        "pass_speeds": speeds,
        "setup_probes_s": probes, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "metrics": metrics,
        "machine": child["machine"], "provenance": provenance(),
    }
    print("  machine: " + json.dumps(record["machine"]))
    print("  provenance: " + json.dumps(record["provenance"]))
    if failed == 0:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
