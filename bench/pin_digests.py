"""Rewrite ``digests.json``: the sha256 of every job's stdout at the pinned
seed.  Any changed output byte is a regression, so run this only for a
deliberate change of output, and say so in the change's notes::

    python3 bench/pin_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run


def main() -> int:
    run.import_working_tree()
    os.chdir(run.ROOT)
    import workloads

    env = run.child_env()
    pinned = {"seed": workloads.PINNED_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        tag = f"{workload}-s{workloads.PINNED_SEED}"
        jobs = workloads.build(workload, workloads.PINNED_SEED,
                               (run.WORK / tag).relative_to(run.ROOT))
        cache: dict = {}
        digests = {}
        for job in jobs:
            child = run.spawn((*run.CLI, *job.argv), env, f"{tag}/{job.id}")
            if child.code != 0:
                print(f"{job.id}: exit code {child.code}", file=sys.stderr)
                return 1
            workloads.check_output(job, child.stdout, cache)
            digests[job.id] = hashlib.sha256(child.stdout).hexdigest()
        pinned["workloads"][workload] = digests
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
