"""Regenerate reference.json: the default-seed outputs of every workload.

    python3 perfbench/make_reference.py

Run from the root of a cvcat checkout, and only when a change of results is
intended; the diff of reference.json then shows what moved.
"""

import json
import tempfile
from pathlib import Path

import run

run.pin_environment()

import workloads  # noqa: E402  (needs the pinned environment and src path)


def main():
    def plan(cls):
        return cls(workloads.DEFAULT_SEED, compare_reference=False)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        outdir = Path(tmp)
        _, _, two_mode = plan(workloads.VerifyPlan).run(0, outdir)
        sweeps = {}
        sweep = plan(workloads.SweepPlan)
        for job in range(len(workloads.SWEEP_YS)):
            _, path = sweep.run(job, outdir)
            table = workloads.read_sweep_csv(path)
            sweeps[repr(sweep.y_m(job))] = {
                key: table[key].tolist()
                for key in ("infidelity", "probability_density")}
        wigner = plan(workloads.WignerPlan)
        maps = []
        for job in range(len(workloads.WIGNER_SOURCES)):
            _, path = wigner.run(job, outdir)
            maps.append(workloads.wigner_summary(*workloads.read_wigner_csv(path)))
        scan = plan(workloads.ScanPlan).run(0, outdir)
    reference = {
        "verify": {"two_mode_p": [[p, p_oracle] for _, p, p_oracle in two_mode]},
        "figure_sweeps": sweeps,
        "wigner_maps": maps,
        "outcome_scan": [float(v) for v in scan],
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
