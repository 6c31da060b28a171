"""Self-test of the benchmark: one traced default-seed job per workload.

    python3 -m pytest perfbench/test_perfbench.py

Per-layer self times plus the time outside every span must add up to the
traced job's wall time, and the traced counts must equal each workload's
definition of a point. The speed probe's scaling is checked on made-up
samples.
"""

import importlib
import shutil
import signal
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402  (imports cvcat from src/)
import workloads  # noqa: E402

EXPECTED_POINTS = {
    "verify": 1476 + 2 * 256,
    "figure_sweeps": 60,
    "wigner_maps": 256 * 256,
    "outcome_scan": 1601,
}


def traced_points(name, totals):
    if name == "verify":
        return (totals["gate.added_factor"]["calls"]
                + totals["oracle.oracle_two_mode"]["points"])
    if name == "figure_sweeps":
        return totals["analysis.run_sweep"]["rows"]
    if name == "wigner_maps":
        return totals["phase_space.wigner_transform"]["cells"]
    return totals["gate.outcome_probability_density"]["calls"]


@pytest.mark.parametrize("name", list(EXPECTED_POINTS))
def test_traced_job_adds_up(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    loop = run.Loop(workload.plan(workloads.DEFAULT_SEED), tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, layers = loop.run(0.0, tracer)
    assert loop.failures == {}

    [(wall, totals, unwrapped)] = layers
    self_times = [agg["self_s"] for agg in totals.values()]
    assert min(self_times) >= 0.0
    assert 0.0 <= unwrapped <= 0.25 * wall
    assert sum(self_times) + unwrapped == pytest.approx(wall, rel=1e-9)
    assert set(totals) <= set(tracing.SPAN_KEYS)

    assert workload.points_per_job == EXPECTED_POINTS[name]
    assert traced_points(name, totals) == EXPECTED_POINTS[name]


def test_scaled_time_takes_out_probes_and_host_speed():
    probe = speed.SpeedProbe()
    probe.starts, probe.ends = [0.0, 1.0, 3.0], [0.1, 1.1, 3.1]
    probe.samples = [2.0 * speed.KERNEL_REF_S] * 3
    # the job [0.5, 2.0] holds one 0.1 s probe, on a host at half speed
    assert probe.scaled(0.5, 2.0) == pytest.approx((1.5 - 0.1) / 2.0)


def test_probe_restores_the_timer():
    probe = speed.SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe.running():
        pass
    assert len(probe.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_wrappers_are_removed():
    originals = [getattr(importlib.import_module(module), attr)
                 for module, attr, _, _ in tracing.TARGETS]
    with tracing.Tracer().installed():
        pass
    assert originals == [getattr(importlib.import_module(module), attr)
                         for module, attr, _, _ in tracing.TARGETS]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
