"""Self-test of the benchmark, in short-horizon mode (about a minute).

    python3 bench/selftest.py

1. Runs every workload once untraced and once traced through ``run.py
   --short`` and checks that the last line carries every metric named in
   BENCHMARK.json with its unit, that the summary prints each of them, and
   that every output passed.
2. Feeds deliberately corrupted outputs to the checker and checks that each
   one is counted as a failed job, so fail_ratio rises.
3. Runs the benchmark where only BENCHMARK.json and bench/ exist and checks
   that it exits with an error and prints no result.

Exits with code 1 and a list of what went wrong if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import worker  # puts src/ on sys.path; must come before jobs
import jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "selftest"
SEED = 7

errors: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        errors.append(what)


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=180)


def test_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{tag}: exit code {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: all outputs pass ({result['failed']} of {result['attempted']} failed)")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: metrics and units match BENCHMARK.json {section}")
            summary = done.stdout.splitlines()[:-1]
            missing = [name for name, u in wanted.items()
                       if not any(re.fullmatch(rf"\s+{re.escape(name)} = \S+ {re.escape(u)}",
                                               line) for line in summary)]
            expect(not missing, f"{tag}: summary prints every metric with its unit {missing}")
            expect(any(line.strip().startswith("fail_ratio = 0 ") for line in summary),
                   f"{tag}: summary prints fail_ratio")


def _edit(job: jobs.Job, change) -> jobs.Job:
    return dataclasses.replace(job, output=lambda result, out=job.output: change(out(result)))


def _meta(key: str, value: str):
    def change(data: bytes) -> bytes:
        new = re.sub(rf"^# {key}=.*$".encode(), f"# {key}={value}".encode(), data,
                     count=1, flags=re.M)
        assert new != data, key
        return new
    return change


def _first_row_value(column: int, value: str):
    def change(data: bytes) -> bytes:
        lines = data.split(b"\n")
        i = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + 1
        cells = lines[i].split(b",")
        cells[column] = value.encode()
        lines[i] = b",".join(cells)
        return b"\n".join(lines)
    return change


def _drop_last_row(data: bytes) -> bytes:
    return data[: data.rstrip(b"\n").rfind(b"\n") + 1]


def test_corrupted_outputs_fail() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        job_list = (jobs.build("paper-sweep", SEED, SCRATCH, short=True)
                    + jobs.build("tube-ensemble", SEED, SCRATCH, short=True))
        _, _, results = worker.run_pass(job_list)
        digests: dict[str, str] = {}
        failed, problems, _ = worker.check_pass(job_list, results, digests)
        expect(failed == 0, f"clean outputs pass {problems}")

        def named(prefix: str) -> int:
            return next(i for i, job in enumerate(job_list) if job.name.startswith(prefix))

        def bad_tube(result):
            return [dataclasses.replace(result[0], max_abs_deviation=1.0)] + result[1:]

        cases = {
            "negative y_numeric": (named("simulate-y y0=1.0"), _first_row_value(1, "-1.0"), None),
            "missing row": (named("simulate-y y0=0.7"), _drop_last_row, None),
            "exact drift 1e-5": (named("invariant-drift exact"),
                                 _meta("max_drift_pct", "0.001"), None),
            "Lewis drift 1e-5": (named("ermakov"), _meta("max_drift_pct", "0.001"), None),
            "perturbative drift nan": (named("invariant-drift perturbative y0=0.8"),
                                       _meta("max_drift_pct", "nan"), None),
            "secular slope doubled": (named("fourier"),
                                      _meta("secular_slope_measured", "0.00104"), None),
            "bytes differ from pass 1": (named("ermakov"), _meta("version", "0.0.0"), None),
            "job raised": (named("invariant-drift perturbative y0=1.2"), None,
                           RuntimeError("injected")),
            "tube filament drifts": (named("tube_surface_samples"), None, bad_tube),
        }
        for what, (i, change, replace_result) in cases.items():
            corrupted = list(job_list)
            outcome = list(results)
            if change is not None:
                corrupted[i] = _edit(job_list[i], change)
            if isinstance(replace_result, Exception):
                outcome[i] = replace_result
            elif replace_result is not None:
                outcome[i] = replace_result(results[i])
            failed, problems, _ = worker.check_pass(corrupted, outcome, digests)
            expect(failed == 1 and job_list[i].name in problems[0],
                   f"{what}: counted as one failed job, fail_ratio = "
                   f"{failed}/{len(job_list)} {problems}")
    finally:
        _clean()


def _clean() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    with contextlib.suppress(OSError):
        SCRATCH.parent.rmdir()   # only if empty


def test_fails_without_program() -> None:
    bare = SCRATCH / "bare"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench(bare, "dense-output", 0)
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"without src/ the benchmark fails and prints no result "
               f"(exit {done.returncode})")
    finally:
        _clean()


if __name__ == "__main__":
    test_corrupted_outputs_fail()
    test_fails_without_program()
    test_metrics_printed()
    if errors:
        print(f"\n{len(errors)} self-test check(s) failed:\n" + "\n".join(errors))
        sys.exit(1)
    print("\nself-test passed")
