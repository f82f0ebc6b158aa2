"""Seeded workloads of the tubeint benchmark and the checks on their outputs.

A workload is a list of jobs.  A CLI job runs ``tubeint.cli.main(argv)``
in-process and writes a CSV; the library job calls
``tubeint.invariant.tube_surface_samples``, which has no CLI yet.  Both are
looked up as module attributes at call time, so the tracer's rebinding of
those names applies.

Seed 0 gives exactly the README inputs.  Any other seed jitters only inputs
that leave the step count unchanged: z0 within +-10 % of 0.2 on the drift
jobs, the logistic seed l0 in (0.05, 0.95) on the dense-output Ermakov job
and the tube grid points.

Every check reads the program's output from outside: CSV metadata and body
for CLI jobs, the returned filaments for the library job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tubeint.cli
import tubeint.invariant
from tubeint.integrate import IntegrationConfig
from tubeint.model import SystemParams, validate_params

WORKLOADS = ("paper-sweep", "tube-ensemble", "dense-output")

H = 1e-3
#: Horizons are multiplied by this in short mode (self-test only).
SHORT_FACTOR = 0.2

EXACT_DRIFT_MAX = 1e-6          # relative, exact lockstep invariant
LEWIS_DRIFT_MAX = 1e-6          # relative, Lewis invariant of the Ermakov pair
PERTURBATIVE_CEILING_PCT = 50.0  # loose ceiling on the perturbative drift
SLOPE_RTOL = 0.25               # fourier secular slope vs (5/96) eps^2 y0^-6
# README criterion 4, checked on the README inputs (seed 0, full horizon).
DRIFT_BANDS_PCT = {1.2: (0.0, 0.5), 1.1: (0.0, 1.0), 0.9: (1.0, 4.0), 0.8: (6.0, 12.0)}


@dataclass(frozen=True)
class Job:
    name: str
    steps: int                                  # RK4 trajectory-steps, from plan()
    run: Callable[[], object]                   # timed
    output: Callable[[object], bytes]           # untimed; bytes that are hashed
    check: Callable[[object, bytes], tuple[list[str], dict[str, float]]]


def _plan(t_end: float, record_every: int) -> tuple[int, int]:
    return IntegrationConfig(t_end=t_end, h=H, record_every=record_every).plan()


def _num(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------- CSV checks

def parse_csv(data: bytes) -> tuple[dict[str, str], list[str], list[str]]:
    lines = data.decode("utf-8").splitlines()
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].strip().partition("=")
        meta[key.strip()] = value.strip()
        i += 1
    if i == len(lines):
        raise ValueError("no header row")
    return meta, lines[i].split(","), lines[i + 1:]


def _column(header: list[str], body: list[str], name: str) -> np.ndarray:
    j = header.index(name)
    return np.array([float(line.split(",")[j]) for line in body])


def _meta_float(meta: dict[str, str], key: str) -> float:
    if key not in meta:
        raise ValueError(f"metadata lacks {key}")
    return float(meta[key])


def check_y_positive(meta, header, body) -> tuple[list[str], dict[str, float]]:
    y = _column(header, body, "y_numeric")
    if not np.all(np.isfinite(y)) or not np.all(y > 0.0):
        return [f"y_numeric not finite and positive in every row (min {np.min(y)!r})"], {}
    return [], {}


def _check_drift(key: str, limit: float, what: str):
    def check(meta, header, body):
        rel = _meta_float(meta, "max_drift_pct") / 100.0
        problems = []
        if not rel < limit:
            problems.append(f"{what} relative drift {rel!r} not < {limit!r}")
        if meta.get("absolute_mode") != "false":
            problems.append(f"absolute_mode={meta.get('absolute_mode')!r}")
        return problems, {key: rel}
    return check


check_exact_drift = _check_drift("exact_drift", EXACT_DRIFT_MAX, "exact invariant")
check_lewis_drift = _check_drift("lewis_drift", LEWIS_DRIFT_MAX, "Lewis invariant")


def check_perturbative(band: tuple[float, float] | None):
    def check(meta, header, body):
        pct = _meta_float(meta, "max_drift_pct")
        if not (math.isfinite(pct) and pct < PERTURBATIVE_CEILING_PCT):
            return [f"perturbative max_drift_pct {pct!r} not finite and < "
                    f"{PERTURBATIVE_CEILING_PCT}"], {}
        if band is not None and not band[0] <= pct <= band[1]:
            return [f"perturbative max_drift_pct {pct!r} outside README band {band}"], {}
        return [], {}
    return check


def check_slope(eps: float, y0: float):
    predicted = (5.0 / 96.0) * eps**2 * y0**-6.0

    def check(meta, header, body):
        measured = _meta_float(meta, "secular_slope_measured")
        if not abs(measured - predicted) <= SLOPE_RTOL * predicted:
            return [f"secular slope {measured!r} not within {SLOPE_RTOL:.0%} of "
                    f"{predicted!r}"], {}
        return [], {}
    return check


def _cli_job(name: str, argv: list[str], out: Path, steps: int, rows: int, check) -> Job:
    full = argv + ["--out", str(out)]

    def run():
        return tubeint.cli.main(full)

    def output(rc) -> bytes:
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return out.read_bytes()

    def check_csv(rc, data: bytes):
        meta, header, body = parse_csv(data)
        if len(body) != rows:
            return [f"{len(body)} data rows, plan() gives {rows}"], {}
        return check(meta, header, body)

    return Job(name, steps, run, output, check_csv)


# ------------------------------------------------------------- the workloads

class _Inputs:
    """Seeded input generator; seed 0 yields the README values unchanged."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def z0(self) -> float:
        return 0.2 if self.seed == 0 else 0.2 * (1.0 + self._rng.uniform(-0.1, 0.1))

    def l0(self) -> float:
        return 0.37 if self.seed == 0 else self._rng.uniform(0.05, 0.95)

    def grid(self, n: int, half_width: float) -> np.ndarray:
        base = np.linspace(-half_width, half_width, n)
        if self.seed == 0:
            return base
        quarter = 0.25 * (base[1] - base[0])
        jitter = np.array([self._rng.uniform(-quarter, quarter) for _ in range(n)])
        return np.clip(base + jitter, -half_width, half_width)


def _simulate_y(out, y0, tau_max, record_every):
    steps, intervals = _plan(tau_max, record_every)
    argv = ["simulate-y", "--y0", _num(y0), "--eps", "0.1", "--tau-max", _num(tau_max),
            "--h", _num(H), "--record-every", str(record_every)]
    return _cli_job(f"simulate-y y0={y0} tau={tau_max:g}", argv, out, steps,
                    intervals + 1, check_y_positive)


def _drift(out, mode, y0, z0, t_max, record_every, band=None):
    steps, intervals = _plan(t_max, record_every)
    argv = ["invariant-drift", "--mode", mode, "--eps", "0.05", "--y0", _num(y0),
            "--z0", _num(z0), "--t-max", _num(t_max), "--h", _num(H),
            "--record-every", str(record_every)]
    check = check_exact_drift if mode == "exact" else check_perturbative(band)
    return _cli_job(f"invariant-drift {mode} y0={y0} t={t_max:g}", argv, out, steps,
                    intervals + 1, check)


def _fourier(out, tau_max, record_every):
    steps, _ = _plan(tau_max, record_every)
    windows = int(math.floor(steps * H / (2.0 * math.pi) + 1e-12))
    argv = ["fourier", "--eps", "0.1", "--y0", "1", "--tau-max", _num(tau_max),
            "--h", _num(H), "--record-every", str(record_every)]
    return _cli_job(f"fourier tau={tau_max:g}", argv, out, steps, windows,
                    check_slope(0.1, 1.0))


def _ermakov(out, l0, t_max, record_every):
    steps, intervals = _plan(t_max, record_every)
    argv = ["ermakov", "--l0", _num(l0), "--t-max", _num(t_max), "--h", _num(H),
            "--record-every", str(record_every)]
    return _cli_job(f"ermakov t={t_max:g}", argv, out, steps, intervals + 1,
                    check_lewis_drift)


def _tube(inputs: _Inputs, t_end: float) -> Job:
    params = validate_params(SystemParams(epsilon=0.05, y0=1.1))
    z0_grid = inputs.grid(8, 0.3)
    p0_grid = inputs.grid(8, 0.3)
    record_every = 10
    steps, intervals = _plan(t_end, record_every)
    count = z0_grid.size * p0_grid.size

    def run():
        return tubeint.invariant.tube_surface_samples(
            params, z0_grid, p0_grid, t_end=t_end, h=H, record_every=record_every)

    def output(filaments) -> bytes:
        parts = []
        for f in filaments:
            parts.append(np.array([f.z0, f.p0, f.K, f.max_abs_deviation]).tobytes())
            parts += [f.t.tobytes(), f.z.tobytes(), f.p.tobytes()]
        return b"".join(parts)

    def check(filaments, data):
        if len(filaments) != count:
            return [f"{len(filaments)} filaments, expected {count}"], {}
        problems = []
        worst = 0.0
        for f in filaments:
            if len(f.t) != intervals + 1:
                problems.append(f"filament ({f.z0}, {f.p0}) has {len(f.t)} rows, "
                                f"plan() gives {intervals + 1}")
            rel = f.max_abs_deviation / abs(f.K)
            if not rel < EXACT_DRIFT_MAX:
                problems.append(f"filament ({f.z0}, {f.p0}) relative deviation {rel!r}")
            worst = max(worst, f.max_abs_deviation)
        return problems, {"tube_deviation": worst}

    return Job(f"tube_surface_samples 8x8 t={t_end:g}", count * steps, run, output, check)


def build(workload: str, seed: int, workdir: Path, short: bool = False) -> list[Job]:
    """The job list of a workload.  Nothing is written here."""
    inputs = _Inputs(seed)
    f = SHORT_FACTOR if short else 1.0
    readme = seed == 0 and not short
    out = workdir.joinpath
    if workload == "paper-sweep":
        jobs = [_simulate_y(out("y1.csv"), 1.0, 500.0 * f, 100),
                _simulate_y(out("y07.csv"), 0.7, 500.0 * f, 100)]
        for y0 in (1.2, 1.1, 0.9, 0.8):
            jobs.append(_drift(out(f"d{y0}.csv"), "perturbative", y0, inputs.z0(),
                               500.0 * f, 100, DRIFT_BANDS_PCT[y0] if readme else None))
        jobs.append(_drift(out("dex.csv"), "exact", 1.1, inputs.z0(), 500.0 * f, 100))
        jobs.append(_fourier(out("four.csv"), 300.0 * f, 5))
        # Over t = 200 a random logistic driver pumps w up far enough that RK4 at
        # h = 1e-3 misses the 1e-6 Lewis bound for about half of l0 in (0.05, 0.95)
        # and fails positivity for a few; README criterion 8 is stated for l0 = 0.37.
        jobs.append(_ermakov(out("erk.csv"), 0.37, 200.0 * f, 100))
        return jobs
    if workload == "tube-ensemble":
        return [_tube(inputs, 25.0 * f)]
    if workload == "dense-output":
        return [_simulate_y(out("y.csv"), 1.0, 100.0 * f, 1),
                _ermakov(out("erk.csv"), inputs.l0(), 50.0 * f, 1),
                _drift(out("dex.csv"), "exact", 1.0, inputs.z0(), 50.0 * f, 1)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
