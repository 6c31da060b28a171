"""cvcat benchmark: one workload run in one process, closed loop, one client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; cvcat is imported from ``src/``. Each
job starts when the previous one ends, and a new job starts only while it is
expected to end no more than half a job after ``--seconds``, so a run stays
close to its budget even when one job takes many seconds. Each result is
checked after its timing stops. Report lines come first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures with no wrappers installed, with the speed probe of
``speed.py`` sampling the machine's speed while the jobs run:

* ``setup_s``: median over several fresh interpreters of the time until
  numpy and cvcat are imported (the Airy bridge tables are built at import)
  and the workload's inputs are built. Half start before the jobs and half
  after them, so that one slow moment of the host cannot move them all. No
  job runs untimed as a warm-up, so whatever is paid once per process lands
  here or in the first job.
* ``job_ref_s.p50``: median job time scaled to the probe's reference speed
  (``ref_s``: seconds on a machine where the probe kernel takes
  ``speed.KERNEL_REF_S``). The shared host's speed drifts too much from run
  to run for the raw wall time to tell one commit from another.
* ``points_per_ref_s``: points of all jobs over their summed scaled times.
* ``peak_rss_mb``: peak resident memory of this process, in MiB.
* Report lines only: the raw wall-time ``job_s.p50``, ``job_s.p90`` (when
  the run holds at least 100 jobs), ``points_per_s`` and ``failed_share``
  (also ``failed``/``attempted`` in the JSON object). A wall time varies
  with the host, a metric that can read 0 or that exists on only some
  workloads cannot be compared run to run, so none is in ``metrics``.

``--trace 1`` runs the first half of the time untraced, then installs
wrappers around each layer's public functions (see ``tracing.py``) and
reports per-layer calls, counts and self times per traced job, the
numerical-health values, and the tracing overhead (traced over untraced
median job time).

This is the bench harness that item D1 of ROADMAP.md asks for, laid out as
``BENCHMARK.json`` plus this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("verify", "figure_sweeps", "wigner_maps", "outcome_scan")
SETUP_SAMPLES = 4            # fresh interpreters before the jobs, and as many after
BLAS_THREADS = 1
P90_MIN_JOBS = 100          # at least ten samples beyond the 90th percentile


def pin_environment():
    """Before numpy is imported: pin BLAS to one thread and leave
    CVCAT_THREADS unset, and put the checkout's ``src/`` first on the path.

    One BLAS thread keeps each run a single-threaded process. Two threads
    (nproc on a 2-core machine) made the Wigner matrix product no faster and
    doubled the spread of its job times.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CVCAT_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line}{rest}")
        samples.append(elapsed)
    return samples


class Loop:
    """Closed loop of one client over a workload plan."""

    def __init__(self, plan, outdir: Path):
        self.plan = plan
        self.outdir = outdir
        self.next_job = 0
        self.failures = {}
        self.health = {}

    def run(self, seconds: float, tracer=None):
        """Run jobs while the next one, taking as long as the last, would
        end at most half a job after ``seconds``; run at least one.

        Returns each job's (start, end) and, when traced, per-job
        (wall, span totals, time outside any span)."""
        intervals, layers = [], []
        start = time.perf_counter()
        while not intervals or (time.perf_counter() - start
                                + (intervals[-1][1] - intervals[-1][0]) / 2
                                <= seconds):
            job = self.next_job
            self.next_job += 1
            t0 = time.perf_counter()
            try:
                result = self.plan.run(job, self.outdir)
            except Exception:
                result = None
                self.failures[job] = traceback.format_exc()
            t1 = time.perf_counter()
            wall = t1 - t0
            intervals.append((t0, t1))
            if tracer is not None:
                totals, top = tracer.take()
                layers.append((wall, totals, wall - top))
            if result is not None:
                self.check(job, result)
        return intervals, layers

    def check(self, job, result):
        try:
            errors, health = self.plan.check(job, result)
        except Exception:
            errors, health = [traceback.format_exc()], {}
        if errors:
            self.failures[job] = "; ".join(errors)
        for key, value in health.items():
            self.health[key] = max(self.health.get(key, 0.0), value)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(layers, health, untraced_p50):
    """Per-traced-job means of every span metric, health values, overhead."""
    import tracing
    import workloads
    n = len(layers)
    metrics = {}
    for name, keys in tracing.SPAN_KEYS.items():
        for key in keys:
            total = sum(totals[name][key] for _, totals, _ in layers
                        if name in totals)
            metrics[f"{name}.{key}"] = (total / n, "s" if key == "self_s" else "count")
    for key in workloads.HEALTH_KEYS:
        metrics[key] = (health.get(key, 0.0), "abs")
    traced_p50 = statistics.median(wall for wall, _, _ in layers)
    metrics["trace.unwrapped_s"] = (sum(u for _, _, u in layers) / n, "s")
    metrics["trace.job_s.p50"] = (traced_p50, "s")
    metrics["trace.untraced_job_s.p50"] = (untraced_p50, "s")
    metrics["trace.overhead"] = (traced_p50 / untraced_p50, "ratio")
    metrics["trace.jobs"] = (n, "count")
    return metrics


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvcat" / "__init__.py").is_file():
        print(f"perfbench: no cvcat sources under {ROOT / 'src'}; run from "
              "the root of a cvcat checkout", file=sys.stderr)
        return 2
    pin_environment()

    if args.setup_probe:
        import workloads
        workloads.WORKLOADS[args.workload].plan(args.seed)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    import numpy
    import cvcat
    import speed
    import workloads
    if not Path(cvcat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: cvcat imported from {cvcat.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    outdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        loop = Loop(workload.plan(args.seed), outdir)
        if args.trace:
            import tracing
            untraced, _ = loop.run(args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, layers = loop.run(args.seconds / 2, tracer)
            metrics = layer_metrics(layers, loop.health,
                                    statistics.median(b - a for a, b in untraced))
            jobs = len(untraced) + len(traced)
        else:
            probe = speed.SpeedProbe()
            with probe.running():
                intervals, _ = loop.run(args.seconds)
            setup += measure_setup(args.workload, args.seed)
            jobs = len(intervals)
            times = [b - a - probe.probe_s(a, b) for a, b in intervals]
            scaled = [probe.scaled(a, b) for a, b in intervals]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for job, failure in loop.failures.items():
        print(f"FAILED job {job}: {failure}", file=sys.stderr)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, {args.seconds:g} s, closed loop of 1 client, "
          "warm-up: none")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"BLAS threads {BLAS_THREADS} (nproc {os.cpu_count()}), CVCAT_THREADS "
          f"unset, git {git_sha()}")
    if args.trace:
        print(f"# per-layer values are per traced job ({len(layers)} traced, "
              f"{len(untraced)} untraced)")
    else:
        points = jobs * workload.points_per_job
        busy = sum(times)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "job_ref_s.p50": (statistics.median(scaled), "ref_s"),
            "points_per_ref_s": (points / sum(scaled), "points/ref_s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
        }
        print(f"#   setup_s           {metrics['setup_s'][0]:.4f} s "
              f"(median of {len(setup)} fresh interpreters)")
        print(f"#   job_ref_s.p50     {metrics['job_ref_s.p50'][0]:.4f} ref_s "
              f"(n={jobs} jobs)")
        print(f"#   points_per_ref_s  {metrics['points_per_ref_s'][0]:.1f} "
              f"points/ref_s (point = {workload.point})")
        print(f"#   peak_rss_mb       {metrics['peak_rss_mb'][0]:.1f} MiB")
        print(f"#   wall time, not scaled: job_s.p50 {statistics.median(times):.4f}"
              f" s (n={jobs} jobs), points_per_s {points / busy:.1f} points/s "
              f"({points} points in {busy:.2f} s of job time)")
        if jobs >= P90_MIN_JOBS:
            print(f"#   wall time, not scaled: job_s.p90 "
                  f"{percentile(times, 90):.4f} s (n={jobs} jobs)")
        else:
            print(f"#   job_s.p90 not reported: {jobs} jobs < {P90_MIN_JOBS}")
        print(f"#   speed probe: {len(probe.samples)} samples, every "
              f"{speed.PERIOD_S:g} s, {sum(b - a for a, b in intervals) - busy:.3f}"
              " s of job time taken out")
    failed = len(loop.failures)
    print(f"#   failed_share  {failed / jobs:g} ({failed} of {jobs} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": jobs, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
