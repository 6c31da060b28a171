"""The four cvcat workloads: inputs drawn from a seed, one timed job, one
untimed correctness check per job.

Every job calls cvcat the way a user does, through ``cvcat.cli.main`` or the
public library functions, always looked up as module attributes so that the
traced run's wrappers see the calls. The default seed reproduces the paper's
acceptance parameter sets and is compared against ``reference.json`` with
tolerances; other seeds jitter the same parameters inside their physical
ranges and are checked against invariants (norm, positivity, F in [0, 1],
Wigner mass, completeness, oracle agreement). The jitter is small so that a
job costs about the same on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cvcat import analysis, cli, gate, oracle, states

DEFAULT_SEED = 0
# Numerical-health values the checks report; the traced run prints their
# maximum over the run, 0 where a workload does not produce one.
HEALTH_KEYS = ("oracle.verify_max_scaled_dev", "phase_space.wigner_mass_dev_max",
               "gate.outcome_scan_completeness_err")
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    point: str
    points_per_job: int
    plan: Callable[[int], "Plan"]


class Plan:
    """Jobs of one workload run. ``run`` is timed; ``check`` is not."""

    def __init__(self, seed: int, compare_reference: bool = True):
        self.seed = seed
        self.reference = (json.loads(REFERENCE_PATH.read_text())
                          if compare_reference and seed == DEFAULT_SEED else None)

    def jitter(self, job: int, *values: float) -> tuple:
        """Each value scaled by its own factor in [e^-0.1, e^0.1], drawn from
        (seed, job); the default seed keeps the values."""
        if self.seed == DEFAULT_SEED:
            return values
        rng = np.random.default_rng([self.seed, job])
        factors = np.exp(rng.uniform(-0.1, 0.1, len(values)))
        return tuple(float(v * f) for v, f in zip(values, factors))

    def run(self, job: int, outdir: Path):
        raise NotImplementedError

    def check(self, job: int, result) -> tuple[list[str], dict]:
        """(failed checks, health values) for one job's result."""
        raise NotImplementedError


def _close(got, want, rtol, atol) -> bool:
    return bool(np.allclose(np.asarray(got, dtype=float),
                            np.asarray(want, dtype=float), rtol=rtol, atol=atol))


# --------------------------------------------------------------------- verify

VERIFY_POINTS = 1476          # 3 gammas x 4 dB x 3 outcomes x 41 offsets
TWO_MODE_CASES = ((0.1, 5.0, 3.0), (0.5, 14.0, 15.0))   # (gamma, dB, y_m)
TWO_MODE_POINTS = 256


class VerifyPlan(Plan):
    def cases(self, job):
        y_ms = self.jitter(job, *(y_m for _, _, y_m in TWO_MODE_CASES))
        return tuple((gamma, db, y_m)
                     for (gamma, db, _), y_m in zip(TWO_MODE_CASES, y_ms))

    def run(self, job, outdir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify"])
        two_mode = []
        for gamma, db, y_m in self.cases(job):
            params = states.GateParams(gamma=gamma, s=analysis.db_to_s(db), y_m=y_m)
            vacuum = states.make_squeezed_vacuum(
                1.0, states.default_grid(math.sqrt(10.0), TWO_MODE_POINTS))
            ref = oracle.oracle_two_mode(vacuum, params)
            got = gate.apply_gate(vacuum, params)
            two_mode.append((analysis.phase_aligned_l2(got.state, ref.state),
                             got.probability_density, ref.probability_density))
        return code, buf.getvalue(), two_mode

    def check(self, job, result):
        code, text, two_mode = result
        errors = []
        match = re.search(r"max relative deviation (\S+)", text)
        deviation = float(match.group(1)) if match else math.inf
        if code != 0 or not deviation <= 1e-8:
            errors.append(f"cvcat verify exit {code}, scaled deviation {deviation}")
        for l2, p, p_oracle in two_mode:
            if not (l2 <= 1e-6 and p > 0 and abs(p - p_oracle) <= 1e-6 * p_oracle):
                errors.append(f"two-mode L2 {l2}, P {p} vs oracle {p_oracle}")
        if self.reference is not None:
            want = self.reference["verify"]["two_mode_p"]
            got = [[p, p_oracle] for _, p, p_oracle in two_mode]
            if not _close(got, want, rtol=1e-8, atol=0.0):
                errors.append(f"two-mode P {got} differs from reference {want}")
        return errors, {"oracle.verify_max_scaled_dev": deviation}


# -------------------------------------------------------------- figure sweeps

SWEEP_YS = (3.0, 3.6, 4.5, 6.0, 9.0, 15.0)
SWEEP_ROWS = 60
SWEEP_DB_RANGE = f"0:20:{SWEEP_ROWS}"


def read_sweep_csv(path: Path) -> dict:
    """Columns of a ``cvcat sweep-*`` CSV file; empty numeric cells are NaN."""
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    table = {name: np.array([float(r[i]) if r[i] else math.nan for r in rows])
             for i, name in enumerate(names) if name != "error"}
    table["error"] = [r[names.index("error")] for r in rows]
    return table


class SweepPlan(Plan):
    def y_m(self, job):
        return self.jitter(job, SWEEP_YS[job % len(SWEEP_YS)])[0]

    def run(self, job, outdir):
        path = outdir / "sweep.csv"
        code = cli.main(["sweep-infidelity", "--ym", repr(self.y_m(job)),
                         "--db-range", SWEEP_DB_RANGE, "--out", str(path)])
        return code, path

    def check(self, job, result):
        code, path = result
        table = read_sweep_csv(path)
        row_errors = [e for e in table["error"] if e]
        if code != 0 or len(table["error"]) != SWEEP_ROWS or row_errors:
            return [f"exit {code}, {len(table['error'])} rows, "
                    f"row errors {row_errors}"], {}
        infidelity = table["infidelity"]
        p = table["probability_density"]
        efficiency = table["efficiency"]
        errors = []
        # efficiency = F P with F = 1 - infidelity, up to the rounding of F
        if not (np.all(infidelity >= -1e-12) and np.all(infidelity <= 1 + 1e-12)
                and np.all(p > 0) and np.all(np.isfinite(efficiency))
                and np.all(np.abs(efficiency - (1.0 - infidelity) * p) <= 1e-12 * p)):
            errors.append(f"y_m={self.y_m(job)}: F outside [0, 1], P <= 0 "
                          "or efficiency != F P")
        if self.reference is not None:
            want = self.reference["figure_sweeps"][repr(self.y_m(job))]
            if not (_close(infidelity, want["infidelity"], 0.0, 1e-8)
                    and _close(p, want["probability_density"], 1e-8, 0.0)):
                errors.append(f"y_m={self.y_m(job)}: differs from reference")
        return errors, {}


# ---------------------------------------------------------------- wigner maps

# (source, gamma, dB, y_m); y_m is None for the cubic phase state
WIGNER_SOURCES = (("output", 0.5, 14.0, 15.0), ("output", 0.1, 14.0, 3.0),
                  ("cubic", 0.1, 5.0, None))
WIGNER_SIDE = 256
# cells compared against the reference on the default seed
WIGNER_SAMPLES = tuple((i, j) for i in range(16, 256, 48) for j in range(8, 256, 40))


def read_wigner_csv(path: Path):
    """(header floats, values matrix) of a ``cvcat wigner`` CSV file."""
    lines = path.read_text().splitlines()
    header = [float(v) for v in lines[0].split(",")]
    values = np.array(",".join(lines[1:]).split(","), dtype=float)
    return header, values.reshape(len(lines) - 1, -1)


def wigner_summary(header, values) -> dict:
    x_min, x_max, p_min, p_max = header[:4]
    dx = (x_max - x_min) / (values.shape[0] - 1)
    dp = (p_max - p_min) / (values.shape[1] - 1)
    return {"bounds": header[:4], "mass": float(values.sum() * dx * dp),
            "min": float(values.min()), "max": float(values.max()),
            "samples": [float(values[i, j]) for i, j in WIGNER_SAMPLES]}


class WignerPlan(Plan):
    def argv(self, job, path):
        source, gamma, db, y_m = WIGNER_SOURCES[job % len(WIGNER_SOURCES)]
        if y_m is None:
            gamma, db = self.jitter(job, gamma, db)
            extra = []
        else:
            gamma, db, y_m = self.jitter(job, gamma, db, y_m)
            extra = ["--ym", repr(y_m)]
        return ["wigner", "--source", source, "--gamma", repr(gamma),
                "--db", repr(db), *extra, "--out", str(path)]

    def run(self, job, outdir):
        path = outdir / "wigner.csv"
        return cli.main(self.argv(job, path)), path

    def check(self, job, result):
        code, path = result
        if code != 0:
            return [f"exit {code}"], {}
        header, values = read_wigner_csv(path)
        summary = wigner_summary(header, values)
        mass_dev = abs(summary["mass"] - 1.0)
        errors = []
        if not (values.shape == (WIGNER_SIDE, WIGNER_SIDE)
                and np.all(np.isfinite(values)) and mass_dev <= 1e-3
                and np.max(np.abs(values)) <= 1.0 / math.pi + 1e-6):
            errors.append(f"shape {values.shape}, mass deviation {mass_dev}, "
                          f"max |W| {np.max(np.abs(values))}")
        if self.reference is not None:
            want = self.reference["wigner_maps"][job % len(WIGNER_SOURCES)]
            for key in ("bounds", "mass", "min", "max", "samples"):
                if not _close(summary[key], want[key], 0.0, 1e-8):
                    errors.append(f"{key} {summary[key]} differs from "
                                  f"reference {want[key]}")
        return errors, {"phase_space.wigner_mass_dev_max": mass_dev}


# --------------------------------------------------------------- outcome scan

SCAN_Y = np.arange(-40.0, 40.0 + 1e-9, 0.05)
SCAN_STEP = 0.05
SCAN_GAMMA, SCAN_DB = 0.1, 5.0


class ScanPlan(Plan):
    def run(self, job, outdir):
        gamma, db = self.jitter(job, SCAN_GAMMA, SCAN_DB)
        s = analysis.db_to_s(db)
        vacuum = states.make_squeezed_vacuum(1.0, states.GridSpec(-10.0, 10.0, 2048))
        return np.array([gate.outcome_probability_density(vacuum, gamma, s, y)
                         for y in SCAN_Y])

    def check(self, job, p):
        completeness = abs(float(np.trapezoid(p, dx=SCAN_STEP)) - 1.0)
        errors = []
        if not (np.all(np.isfinite(p)) and np.all(p >= 0) and completeness <= 1e-3):
            errors.append(f"P < 0 or integral of P off by {completeness}")
        if self.reference is not None and not _close(
                p, self.reference["outcome_scan"], 1e-8, 0.0):
            errors.append("P(y) differs from reference")
        return errors, {"gate.outcome_scan_completeness_err": completeness}


# Why each workload exists: each one is where a different layer does the
# work, so that a change to one layer moves one workload and leaves a named
# other workload as the no-change control.
WORKLOADS = {w.name: w for w in (
    Workload(
        "verify",
        "the only workload where the oracle quadrature (special_numerics panel "
        "engine) and the two-mode oracle do the work; Airy is called only as "
        "per-point scalars",
        "closed-form value checked against an oracle",
        VERIFY_POINTS + len(TWO_MODE_CASES) * TWO_MODE_POINTS, VerifyPlan),
    Workload(
        "figure_sweeps",
        "states, apply_gate, the 2048-point vector Airy and fidelity do the "
        "work, with a fresh input per row; y_m sets the Airy regime mix",
        "sweep row", SWEEP_ROWS, SweepPlan),
    Workload(
        "wigner_maps",
        "the only workload where wigner_transform does most of the work; the "
        "cli CSV output path is the other big cost",
        "Wigner cell", WIGNER_SIDE * WIGNER_SIDE, WignerPlan),
    Workload(
        "outcome_scan",
        "the gate layer used the opposite way to the sweeps: one input shared "
        "by 1601 outcomes, so caching or FFT-correlation work shows here only",
        "outcome density", len(SCAN_Y), ScanPlan),
)}
