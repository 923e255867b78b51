"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quick-suite --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (a separate, traced run).  A human-readable summary goes
to stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the run measured, whether or not outputs were correct, and 2
when the program is missing or a step failed.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("quick-suite", "serve-hot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure: src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    work = os.path.join(ROOT, ".perfbench-work",
                        f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    # Temporary files of the program (worker blackboxes) stay in the
    # checkout too: point TMPDIR, inherited by every child, at the work
    # directory.
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), work=work)
    try:
        values = workloads.WORKLOADS[args.workload](ctx)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    tally = ctx.tally
    if args.trace:
        names = workloads.PER_LAYER
    else:
        names = workloads.END_TO_END
        values["success_ratio"] = 1.0 - tally.error_ratio
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names}
    for line in ctx.notes:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {tally.attempted} checked, "
          f"{tally.failed} failed {tally.reasons or ''}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
