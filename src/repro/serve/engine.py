"""Cache-first execution engine with single-flight coalescing.

The engine is the serving layer's only path to computation.  Each
request names one runner job (:class:`~repro.runner.jobs.JobSpec`);
the engine resolves it in this order:

1. **Coalesce** — if the same canonical config key is already being
   computed, the request joins the in-flight computation instead of
   starting a second one (the collective-I/O discipline applied to
   serving: many overlapping requests become one job).
2. **Cache** — a validated :class:`~repro.runner.store.ResultStore`
   entry is returned without touching the executor.
3. **Compute** — the job enters a *bounded* work queue consumed by
   dispatcher threads, each of which pushes the job through a shared
   :class:`~repro.runner.executor.PoolExecutor` and stores the fresh
   payload back into the cache.  A full queue raises
   :class:`EngineSaturated`, which the HTTP layer maps to 429.

All coordination is plain threading; the asyncio server awaits the
returned :class:`concurrent.futures.Future` via
:func:`asyncio.wrap_future`, and synchronous callers (``repro warm``,
tests) block on it directly.  ``PoolExecutor`` is safe to share here:
with ``jobs <= 1`` it executes inline in the calling dispatcher thread,
and with ``jobs >= 2`` every dispatcher's ``run`` call goes to the same
long-lived worker pool, whose ``run`` is thread-safe.  The engine does
not own the executor: :meth:`ServeEngine.close` stops the dispatchers
and leaves the pool to whoever built it (``repro serve`` and ``repro
warm`` close it after the engine drained).
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runner.executor import JobOutcome, PoolExecutor
from repro.runner.jobs import JobSpec
from repro.runner.store import ResultStore
from repro.serve.metrics import MetricsRegistry

__all__ = ["EngineClosed", "EngineSaturated", "PointOutcome", "Ticket",
           "ServeEngine"]

#: Sources a served payload can come from.
SOURCE_CACHE = "cache"
SOURCE_COMPUTED = "computed"
SOURCE_COALESCED = "coalesced"


class EngineSaturated(RuntimeError):
    """The bounded work queue is full; retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float = 1.0):
        super().__init__(
            f"engine work queue is full ({depth} job(s) queued)")
        self.depth = depth
        self.retry_after_s = retry_after_s


class EngineClosed(RuntimeError):
    """The engine is draining or closed and accepts no new work."""


@dataclass
class PointOutcome:
    """The engine's answer for one job request."""

    job: JobSpec
    status: str                     # ok | failed | crashed | timeout | ...
    payload: Optional[dict] = None
    error: Optional[str] = None
    #: Where the payload came from: ``cache`` or ``computed`` (a request
    #: that coalesced onto another one reports ``coalesced`` via its
    #: :class:`Ticket`, but shares this computed outcome).
    source: str = SOURCE_COMPUTED
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class Ticket:
    """One request's handle on a (possibly shared) outcome."""

    job: JobSpec
    future: "Future[PointOutcome]"
    #: True when this request joined a computation another request
    #: started — the single-flight path.
    coalesced: bool = False

    def result(self, timeout: Optional[float] = None) -> PointOutcome:
        return self.future.result(timeout)

    def source(self, outcome: PointOutcome) -> str:
        """This request's view of where its payload came from."""
        return SOURCE_COALESCED if self.coalesced else outcome.source


#: Sentinel distinguishing "use the default store" from an explicit
#: ``store=None`` (serve without any cache).
_DEFAULT_STORE = object()


class ServeEngine:
    """Single-flight, cache-first job engine over store + executor."""

    def __init__(self, store: object = _DEFAULT_STORE,
                 executor: Optional[PoolExecutor] = None,
                 max_queue: int = 64,
                 dispatchers: int = 2,
                 retry_after_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.store: Optional[ResultStore] = (
            ResultStore() if store is _DEFAULT_STORE else store)
        self.executor = executor if executor is not None \
            else PoolExecutor(jobs=1)
        self.max_queue = max(1, int(max_queue))
        self.n_dispatchers = max(1, int(dispatchers))
        self.retry_after_s = retry_after_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight: "Dict[str, Future[PointOutcome]]" = {}
        self._work: "List[tuple]" = []          # FIFO, guarded by _lock
        self._work_ready = threading.Condition(self._lock)
        self._queued = 0
        self._executing = 0
        self._closed = False
        self._threads: List[threading.Thread] = []
        self.jobs_executed = 0

        m = self.metrics
        self._m_hits = m.counter(
            "serve_cache_hits_total", "requests served from the result store")
        self._m_misses = m.counter(
            "serve_cache_misses_total", "requests that required computation")
        self._m_coalesced = m.counter(
            "serve_coalesced_total",
            "requests that joined an in-flight computation")
        self._m_jobs = m.counter(
            "serve_jobs_total", "jobs pushed through the executor")
        self._m_job_errors = m.counter(
            "serve_job_errors_total", "executor jobs that did not finish ok")
        self._m_saturated = m.counter(
            "serve_engine_saturated_total",
            "submissions rejected because the work queue was full")
        self._g_queue = m.gauge(
            "serve_queue_depth", "jobs waiting in the engine work queue")
        self._g_executing = m.gauge(
            "serve_jobs_executing", "jobs currently running on the executor")

    # -- submission ----------------------------------------------------

    def submit(self, job: JobSpec) -> Ticket:
        """Resolve one job: coalesce, else cache hit, else enqueue.

        Returns immediately with a :class:`Ticket`; raises
        :class:`EngineSaturated` when the bounded queue is full and
        :class:`EngineClosed` after :meth:`close` began.
        """
        key = job.key
        with self._lock:
            self._check_open()
            shared = self._inflight.get(key)
            if shared is not None:
                self._m_coalesced.inc()
                return Ticket(job, shared, coalesced=True)
        if self.store is not None:
            entry = self.store.get(key)
            if entry is not None:
                self._m_hits.inc()
                fut: "Future[PointOutcome]" = Future()
                fut.set_result(PointOutcome(
                    job, "ok", payload=entry["payload"],
                    source=SOURCE_CACHE))
                return Ticket(job, fut, coalesced=False)
        with self._lock:
            self._check_open()
            shared = self._inflight.get(key)
            if shared is not None:   # lost the probe race: still coalesce
                self._m_coalesced.inc()
                return Ticket(job, shared, coalesced=True)
            if self._queued >= self.max_queue:
                self._m_saturated.inc()
                raise EngineSaturated(self._queued, self.retry_after_s)
            self._m_misses.inc()
            fut = Future()
            self._inflight[key] = fut
            self._work.append((key, job, fut))
            self._queued += 1
            self._g_queue.set(self._queued)
            self._ensure_dispatchers()
            self._work_ready.notify()
        return Ticket(job, fut, coalesced=False)

    def run_job(self, job: JobSpec,
                timeout: Optional[float] = None) -> PointOutcome:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(job).result(timeout)

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosed("engine is shut down")

    # -- dispatch ------------------------------------------------------

    def _ensure_dispatchers(self) -> None:
        while len(self._threads) < self.n_dispatchers:
            t = threading.Thread(
                target=self._dispatch_loop, daemon=True,
                name=f"serve-dispatch-{len(self._threads)}")
            self._threads.append(t)
            t.start()

    def _dispatch_loop(self) -> None:
        while True:
            with self._work_ready:
                while not self._work and not self._closed:
                    self._work_ready.wait()
                if not self._work:       # closed and drained
                    return
                key, job, fut = self._work.pop(0)
                self._queued -= 1
                self._executing += 1
                self._g_queue.set(self._queued)
                self._g_executing.set(self._executing)
            outcome: Optional[PointOutcome] = None
            try:
                outcome = self._execute(job)
            except Exception:
                # _execute guards the executor and store, but a bug
                # anywhere in the per-job path (serialization, metrics)
                # must not kill the dispatcher: convert to a failed
                # outcome so every waiter gets an answer.
                outcome = PointOutcome(job, "failed",
                                       error=traceback.format_exc())
                self._m_job_errors.inc()
            finally:
                # Always un-publish the key and resolve the shared
                # future — a leaked _inflight entry would coalesce all
                # future requests for this key onto a dead future.
                with self._lock:
                    self._inflight.pop(key, None)
                    self._executing -= 1
                    self._g_executing.set(self._executing)
                    self._idle.notify_all()
                if outcome is None:   # BaseException in _execute
                    outcome = PointOutcome(
                        job, "crashed",
                        error="dispatcher died: "
                              + traceback.format_exc())
                if not fut.cancelled():
                    try:
                        fut.set_result(outcome)
                    except InvalidStateError:
                        pass

    def _execute(self, job: JobSpec) -> PointOutcome:
        t0 = time.perf_counter()
        try:
            (out,) = self.executor.run([job])
        except Exception:
            out = JobOutcome(job, "failed", error=traceback.format_exc())
        elapsed = time.perf_counter() - t0
        with self._lock:
            self.jobs_executed += 1
        self._m_jobs.inc()
        if out.ok:
            if self.store is not None:
                try:
                    self.store.put(job.key, out.payload, exp_id=job.exp_id,
                                   job_id=job.job_id, kind=job.kind,
                                   config=dict(job.config),
                                   elapsed_s=out.elapsed_s)
                except Exception:
                    # Unwritable cache, unserializable payload, ...:
                    # serve the fresh payload anyway.
                    pass
        else:
            self._m_job_errors.inc()
        return PointOutcome(job, out.status, payload=out.payload,
                            error=out.error, source=SOURCE_COMPUTED,
                            elapsed_s=elapsed)

    # -- lifecycle -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    @property
    def inflight(self) -> int:
        """Jobs queued or executing (distinct canonical keys)."""
        with self._lock:
            return len(self._inflight)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no job is queued or executing; True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, finish what is queued, join dispatchers.

        Queued jobs still run to completion (their futures resolve), so
        a graceful server shutdown never abandons an admitted request.
        The executor is left open: its owner closes it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_ready.notify_all()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.1, deadline - time.monotonic()))

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
