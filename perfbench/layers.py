"""Where the benchmark hooks into the program's layers.

Spans wrap public calls of ``repro.serve`` and ``repro.runner`` (plus
the server's connection handler and its future await, which bound a
request); :class:`CallCounter` counts calls of named simulator
functions.  Nothing under ``src/`` is changed: every hook is a class
attribute swapped from here and swapped back by ``unwrap_all``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from spans import SpanRecorder


def _run_note(outs, self, jobs, on_outcome=None) -> dict:
    outs = outs or []
    return {"keys": [j.key for j in jobs],
            "workers": min(self.n_workers, len(jobs)),
            "elapsed": [o.elapsed_s for o in outs],
            "attempts": sum(o.attempts for o in outs)}


def _submit_note(ticket, self, job) -> dict:
    if ticket is None:
        source = "refused"
    elif ticket.coalesced:
        source = "coalesced"
    elif ticket.future.done() and ticket.future.result().source == "cache":
        source = "cache"
    else:
        source = "queued"
    return {"key": job.key, "source": source}


def install_runner_spans(rec: SpanRecorder) -> None:
    from repro.runner.executor import PoolExecutor
    from repro.runner.store import ResultStore

    rec.wrap(ResultStore, "get", "runner.store.get",
             key=lambda self, key: key,
             note=lambda entry, self, key: {"hit": entry is not None})
    rec.wrap(ResultStore, "put", "runner.store.put",
             key=lambda self, key, payload, **meta: key)
    rec.wrap(PoolExecutor, "run", "runner.executor.run",
             key=lambda self, jobs, on_outcome=None:
                 jobs[0].key if len(jobs) == 1 else None,
             note=_run_note)


def install_serve_spans(rec: SpanRecorder) -> None:
    from repro.serve.admission import AdmissionController
    from repro.serve.engine import ServeEngine
    from repro.serve.server import ServeApp

    install_runner_spans(rec)
    rec.wrap(ServeApp, "_client_connected", "serve.request",
             new_request=True)
    rec.wrap(ServeApp, "_outcome", "serve.wait")
    rec.wrap(AdmissionController, "acquire", "serve.admission.acquire")
    rec.wrap(ServeEngine, "submit", "serve.engine.submit",
             key=lambda self, job: job.key, note=_submit_note)


#: Per-layer call counts: metric -> (module, class, methods).
COUNTED: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "sim.timeouts": ("repro.sim.core", "Environment", ("timeout",)),
    "sim.processes": ("repro.sim.core", "Environment", ("process",)),
    "pfs.extent_reads": ("repro.pfs.server", "IOServer", ("read_extent",)),
    "pfs.extent_writes": ("repro.pfs.server", "IOServer", ("write_extent",)),
    "machine.fabric_transfers": ("repro.machine.network.fabric", "Fabric",
                                 ("transfer",)),
    "machine.disk_serves": ("repro.machine.node", "IONode", ("serve",)),
    "iolib.preads": ("repro.iolib.base", "InterfaceFile", ("pread",)),
    "iolib.pwrites": ("repro.iolib.base", "InterfaceFile", ("pwrite",)),
    "mp.collectives": ("repro.mp.comm", "Communicator",
                       ("barrier", "bcast", "gather", "allgather",
                        "alltoallv", "reduce_scalar", "allreduce_scalar")),
}


class CallCounter:
    """Counts calls of the :data:`COUNTED` functions while installed."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {name: 0 for name in COUNTED}
        self._undo: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        for metric, (module, cls_name, methods) in COUNTED.items():
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                orig = cls.__dict__[method]
                setattr(cls, method, self._counting(metric, orig))
                self._undo.append((cls, method, orig))

    def _counting(self, metric: str, orig):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return orig(*args, **kwargs)
        return counted

    def uninstall(self) -> None:
        while self._undo:
            cls, method, orig = self._undo.pop()
            setattr(cls, method, orig)
