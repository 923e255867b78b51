"""Record the reference payload digests and simulator call counts.

Usage::

    python3 perfbench/record_reference.py

Runs every quick-suite job serially in this process under the
simulator profile and writes ``reference/quick_digests.json`` (job id
-> payload digest) and ``reference/sim_counts.json`` (call counts).
Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.experiments import registry  # noqa: E402
from repro.runner import decompose_many  # noqa: E402

import simprofile  # noqa: E402
import verify  # noqa: E402


def main() -> int:
    jobs = decompose_many(registry.experiment_ids(), quick=True)
    _, counts, payloads = simprofile.profile_jobs(jobs)
    os.makedirs(os.path.dirname(verify.DIGESTS_PATH), exist_ok=True)
    with open(verify.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digests": {job.job_id: verify.digest(payload)
                               for job, payload in payloads}},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(verify.COUNTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"counts": counts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(payloads)} digests and {len(counts)} counts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
