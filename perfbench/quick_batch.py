"""Child process of the ``quick-suite`` workload.

Usage::

    python3 perfbench/quick_batch.py --store DIR --out FILE
        [--setup-only] [--trace]

Set-up (imports, job list, empty store) ends with a ``ready`` line on
stdout.  With ``--setup-only`` the process then exits; otherwise it
waits for a line on stdin and runs every registered experiment at
quick scale through ``repro.runner.run_experiments(jobs=2)`` into the
empty store -- the ``repro run all --quick -j 2`` path.  Timings, per-job payload
digests and paper checks go to ``FILE`` as JSON.  ``--trace`` records
spans around the store and executor calls.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.experiments import registry  # noqa: E402
from repro.runner import ResultStore, decompose_many, run_experiments  # noqa: E402

from spans import SpanRecorder  # noqa: E402
import layers  # noqa: E402
import verify  # noqa: E402

WORKERS = 2


class Completions:
    """Progress sink recording when each job finished."""

    def __init__(self) -> None:
        self.done = {}

    def begin(self, total: int, workers: int) -> None:
        pass

    def job_done(self, outcome) -> None:
        self.done[outcome.job.job_id] = time.perf_counter()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--store", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    exp_ids = registry.experiment_ids()
    jobs = decompose_many(exp_ids, quick=True)
    store = ResultStore(args.store)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdin.readline()

    rec = SpanRecorder()
    if args.trace:
        layers.install_runner_spans(rec)
    sink = Completions()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    report = run_experiments(exp_ids, quick=True, jobs=WORKERS, store=store,
                             progress=sink)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    rec.unwrap_all()

    peak_kb = max(resource.getrusage(w).ru_maxrss for w in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {
        "jobs": len(jobs),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "outcomes": [{
            "job_id": o.job.job_id,
            "status": o.status,
            "cached": o.cached,
            "digest": verify.digest(o.payload) if o.ok else None,
            "elapsed_s": o.elapsed_s,
            "attempts": o.attempts,
            "done_s": sink.done.get(o.job.job_id, t0) - t0,
        } for o in report.outcomes],
        "checks": {exp: res.checks for exp, res in report.results.items()},
        "errors": dict(report.errors),
        "spans": [vars(s) for s in rec.spans],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
