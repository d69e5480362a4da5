#!/usr/bin/env python3
"""Record reference.json: the reference bits every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the reference,
with the pure-Python kernels (numba absent):

    python3 perfbench/record_reference.py

For every workload variant it runs the CLI once and stores the row count and
the digests of the compared columns; for every kernel micro-run it stores the
input state and the final (x1, v1, x2, v2, steps, max drift) as hex floats.
A fast kernel that does not reproduce these bits cannot report an ns/step.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

def kernel_reference(pkg) -> dict:
    from kinktrap import ModelParams, Scenario, initial_state, total_energy

    params = ModelParams()
    floor = pkg.dynamics.DEFAULT_COINCIDENCE_FLOOR
    state = initial_state(Scenario(params=params, v0=0.3))
    kin = {"v0": 0.3, "x1": state.x1.hex(), "v1": state.v1.hex(), "x2": state.x2.hex(),
           "v2": state.v2.hex(), "e0": total_energy(state, params, floor).hex(),
           "floor": float(floor).hex()}
    finals = {stem: final for stem, (_, final) in run.kernel_round(pkg.kernels, kin).items()}
    return {"input": kin, "final": finals}


def main() -> int:
    root = Path.cwd()
    pkg = run.Package(root)
    if pkg.kernels.NUMBA_ENABLED:
        print("error: record with the pure-Python kernels (numba is importable)", file=sys.stderr)
        return 1
    refs = {"kernels": kernel_reference(pkg), "workloads": {}}
    cli = [sys.executable, "-m", "kinktrap"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        out = Path(tmp) / "ref.csv"
        for workload in run.WORKLOADS.values():
            entries = []
            for seed in range(len(workload.variants)):
                argv = workload.argv(seed)
                workers = ["--workers", str(run.nproc())] if workload.pooled else []
                subprocess.run(cli + argv + workers + ["--out", str(out)], cwd=root,
                               env=run.env_for(root), check=True)
                scanned = run.scan_csv(out, workload.columns, workload.block)
                entry = {"argv": " ".join(argv), "rows": scanned.rows,
                         "steps": run.step_total(workload, scanned),
                         "digests": "".join(scanned.digests)}
                entries.append(entry)
                print(workload.name, entry["argv"], entry["rows"], "rows", entry["steps"],
                      "steps", flush=True)
            refs["workloads"][workload.name] = entries
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
