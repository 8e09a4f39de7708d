"""Record the reference reports that the output check compares against.

    python3 scenariobench/record.py [--workload NAME] [--pool main|holdout]

Runs every slot x variant of a workload's pool through the same operation as
run.py and stores the digest of each report in reference/<workload>-<pool>.json.gz.
The committed references were recorded at the commit that added the benchmark;
re-record only when a change to qinstr is meant to change its outputs.
"""

from __future__ import annotations

import argparse
import gzip
import json
import platform
import sys

import refcheck
import run
import workloads


def record(workload: str, pool: str) -> dict:
    q = run.import_qinstr()
    mix = q.harness.splitmix64
    reports = {}
    for slot in range(len(workloads.SLOTS[workload])):
        for variant in range(workloads.VARIANTS):
            seed = workloads.scenario_seed(mix, workload, pool, slot, variant)
            text = json.dumps(workloads.make_scenario(q, workload, slot, seed).to_json())
            reports[f"{slot}:{variant}"] = refcheck.digest(json.loads(run.analyze_json(q.harness, text)))
    import numpy

    return {
        "workload": workload,
        "pool": pool,
        "recorded_with": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "eig_backend": q.package.EIG_BACKEND,
        },
        "reports": reports,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.SLOTS))
    parser.add_argument("--pool", choices=list(workloads.POOL_SEEDS))
    args = parser.parse_args(argv)
    run.pin_blas_threads()
    refcheck.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else list(workloads.SLOTS):
        for pool in [args.pool] if args.pool else list(workloads.POOL_SEEDS):
            data = record(workload, pool)
            blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
            # mtime=0 keeps the file identical when the outputs are
            refcheck.reference_path(workload, pool).write_bytes(gzip.compress(blob, mtime=0))
            print(f"{workload}/{pool}: {len(data['reports'])} reports", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
