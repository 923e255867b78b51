"""Per-package self time and call counts of the simulation stack.

A job list runs serially in this process under two instruments:

- a sampling profiler: every millisecond of process CPU time
  (``ITIMER_PROF``) the signal handler charges the CPU time since the
  previous sample to the package of the frame that was running.  Time
  in C builtins is charged to the Python frame that called them.  A
  deterministic profiler (``cProfile``) costs about 4x on this
  simulator, a sampler about 1-3 %.
- :class:`layers.CallCounter`, which counts calls of named simulator
  functions exactly; those counts repeat run to run.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Iterable, List, Tuple

from layers import CallCounter

#: Packages reported as ``<name>.self_s``; code outside ``repro`` is
#: ``stdlib`` (the interpreter's library and third-party packages) and
#: other ``repro`` modules are ``other``.
PACKAGES = ("sim", "pfs", "machine", "iolib", "mp", "apps", "experiments",
            "trace", "faults")
BUCKETS = PACKAGES + ("other", "stdlib")
_INTERVAL_S = 0.001


def package_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    try:
        idx = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return "stdlib"
    rest = parts[idx + 1:]
    if not rest:
        return "other"
    head = rest[0][:-3] if rest[0].endswith(".py") else rest[0]
    return head if head in PACKAGES else "other"


class PackageSampler:
    """CPU-time sampling profiler bucketed by :func:`package_of`."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {b: 0.0 for b in BUCKETS}
        self._by_file: Dict[str, str] = {}
        self._last = 0.0

    def _on_sample(self, signum, frame) -> None:
        now = time.process_time()
        if frame is not None:
            name = frame.f_code.co_filename
            bucket = self._by_file.get(name)
            if bucket is None:
                bucket = self._by_file[name] = package_of(name)
            self.self_s[bucket] += now - self._last
        self._last = now

    def __enter__(self) -> "PackageSampler":
        self._old = signal.signal(signal.SIGPROF, self._on_sample)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, _INTERVAL_S, _INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old)


def profile_jobs(jobs: Iterable) -> Tuple[Dict[str, float], Dict[str, int],
                                          List[Tuple[object, dict]]]:
    """Run ``jobs`` (``JobSpec``) serially, profiled and counted.

    Returns ``(self_s by package, call counts, [(job, payload)])``.
    """
    from repro.runner.jobs import execute_job

    counter = CallCounter()
    payloads: List[Tuple[object, dict]] = []
    counter.install()
    try:
        with PackageSampler() as sampler:
            for job in jobs:
                payloads.append((job, execute_job(job.exp_id, job.kind,
                                                  job.config)))
    finally:
        counter.uninstall()
    return sampler.self_s, dict(counter.counts), payloads
