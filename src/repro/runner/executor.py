"""Crash-isolated executor over one long-lived worker-process pool.

The executor's unit of work is the **task**, not the job.  ``run``
drives each job as a program (:func:`repro.runner.jobs.job_program`)
in the calling thread: the program yields tasks -- the simulations its
experiment asks for, or the whole job when its function has no program
form -- and the executor runs each distinct task once.  A task already
finished within the same ``run`` call, or still running for any caller,
is shared rather than rerun; every job that asked for it gets its
result.  Tasks are dispatched in first-request order.

A job is ``ok`` when all its tasks and its own code succeed.  Otherwise
it takes the status and error of the first of its tasks that failed, or
is ``failed`` with the traceback of its own code.  Its ``elapsed_s``
and ``attempts`` are summed over the tasks it used, a shared task
counting for every job that used it, so ``elapsed_s`` stays the cost of
recomputing that job alone.

In pool mode (``jobs >= 2``) an executor owns **one pool**: N worker
processes, one task queue and one result queue.  The workers are forked
lazily by the first :meth:`PoolExecutor.run` and serve every later call
until :meth:`PoolExecutor.close` -- or until the executor is garbage
collected, when a finaliser closes the pool for it.  Workers pull
``(task_id, task)`` tuples off the task queue, announce the task they
picked up, call its ``run()`` and report the pickled result (or a
formatted traceback) back.

One supervisor thread in the parent drains the result queue and hands
each task's outcome to every ``run`` call waiting for it.  It also
reaps timeouts and crashes and respawns workers: a worker that dies
mid-task marks *that task* crashed -- not the run -- and is replaced; a
task that exceeds the timeout gets its worker killed the same way.
Respawns are budgeted so a task that crashes every worker cannot loop
forever.  While no task is pending the supervisor blocks on the result
queue and uses no CPU.

Several threads may call ``run`` at once (the serve engine's dispatcher
threads do): each call gets its own outcomes in input order, and its
``on_outcome`` callback runs in the calling thread.

Resilience applies per task (``retries`` > 0):

* Tasks whose outcome is ``crashed``, ``timeout`` or ``lost`` are
  requeued up to ``retries`` times, after an exponential backoff with
  jitter (:func:`backoff_delay`) — transient faults (OOM kills, machine
  hiccups) heal themselves without rerunning the whole sweep.
* A *poisoned* task — one that kills its worker twice — is quarantined
  (status ``quarantined``) with every collected error, instead of being
  retried into a third worker.  Deterministic Python exceptions
  (status ``failed``) are never retried.
* Each worker keeps a *blackbox* file: a per-task marker plus
  :mod:`faulthandler` output and any last-gasp traceback.  When a
  worker dies the parent reads it back, so ``JobOutcome.error`` carries
  the child's final words rather than just an exit code.
* If the OS refuses to spawn a replacement worker the pool shrinks and
  carries on with fewer processes rather than aborting the run; the
  next ``run`` call tries the full size again.

The pool uses the ``fork`` start method where available (Linux), which
keeps in-process registry modifications — e.g. experiments registered by
tests — visible to workers.  Workers see the registry **as it was when
they were forked**: register experiments before the first ``run``, or
use a fresh executor.  ``jobs <= 1`` runs the tasks inline in the
parent (no isolation, no timeout), with the same order and sharing, for
debugging and determinism checks.

Right after the fork every worker points each inherited socket at
``/dev/null`` (see :func:`_scrub_sockets`).  A worker forked by a server
otherwise keeps a copy of every client connection open at that moment,
and a connection whose response is already written does not reach EOF
until all its copies are closed — for a long-lived worker, never.
"""

from __future__ import annotations

import collections
import faulthandler
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import random
import shutil
import signal
import stat
import tempfile
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from repro.runner.jobs import JobSpec, WholeJob, job_program

__all__ = ["JobOutcome", "PoolExecutor", "RETRYABLE_STATUSES",
           "TaskOutcome", "backoff_delay"]

#: Outcome statuses eligible for retry: the machine, not the task's own
#: code, is the suspect.  ``failed`` (a reported Python exception) is
#: deterministic and never retried.
RETRYABLE_STATUSES = frozenset({"crashed", "timeout", "lost"})

#: Worker kills (crash or timeout) a single task may cause before it is
#: quarantined instead of retried.
_QUARANTINE_KILLS = 2

#: Result-queue message that only wakes the supervisor (new work, close).
_WAKE = ("wake",)


def backoff_delay(attempt: int, base_s: float,
                  rand: Callable[[], float] = random.random) -> float:
    """Delay before retry ``attempt`` (0-based): exponential + jitter.

    Returns a value in ``[base * 2^attempt / 2, base * 2^attempt)`` —
    the classic halved-window jitter, so concurrent retries spread out
    instead of thundering back in lockstep.  ``rand`` is injectable for
    deterministic tests and must return floats in ``[0, 1)``.
    """
    if base_s <= 0.0:
        return 0.0
    window = base_s * (2.0 ** max(0, int(attempt)))
    return window * 0.5 * (1.0 + rand())


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: JobSpec
    status: str          # ok | failed | crashed | timeout | lost | quarantined
    payload: Optional[dict] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    cached: bool = False
    #: Retries the job's tasks consumed before reaching their status.
    attempts: int = 0
    #: Simulations this job was the first in its ``run`` call to ask for.
    sims_run: int = 0
    #: Simulations it asked for that another job of the call asked for
    #: first, and so got without running them again.
    sims_shared: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class TaskOutcome:
    """What happened to one task (a simulation or a whole job)."""

    status: str          # ok | failed | crashed | timeout | lost | quarantined
    value: object = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    #: Retries this task consumed before reaching its final status.
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _scrub_sockets() -> None:
    """Point every inherited socket fd (past stdio) at ``/dev/null``.

    ``dup2`` rather than ``close``: socket objects copied from the parent
    still name these fd numbers, and a closed number could be reused by a
    file the worker opens -- which collecting such an object would then
    close.  Queue pipes and the blackbox are not sockets and stay.
    Without ``/proc`` the fds are left alone.
    """
    devnull = -1
    try:
        # scandir keeps its own fd open while it iterates, so no stat
        # raises on the normal path (a first OSError costs each worker
        # about 0.3 MB of resident memory).
        with os.scandir("/proc/self/fd") as entries:
            for entry in entries:
                fd = int(entry.name)
                if fd <= 2 or not stat.S_ISSOCK(entry.stat().st_mode):
                    continue
                if devnull < 0:
                    devnull = os.open(os.devnull, os.O_RDWR)
                os.dup2(devnull, fd)
    except OSError:
        pass
    finally:
        if devnull >= 0:
            os.close(devnull)


def _worker_main(worker_id: int, task_q, result_q,
                 blackbox_dir: Optional[str] = None) -> None:
    _scrub_sockets()
    blackbox = None
    if blackbox_dir is not None:
        try:
            blackbox = open(
                os.path.join(blackbox_dir, f"worker-{worker_id}.log"),
                "w+", encoding="utf-8", errors="replace")
            faulthandler.enable(file=blackbox)
        except OSError:
            blackbox = None
    while True:
        try:
            item = task_q.get()
        except KeyboardInterrupt:
            return  # Ctrl-C while idle: the parent closes the pool
        if item is None:
            break
        task_id, task = item
        if blackbox is not None:
            try:
                blackbox.seek(0)
                blackbox.truncate()
                blackbox.write(f"task {task_id}\n")
                blackbox.flush()
            except OSError:
                pass
        result_q.put(("started", worker_id, task_id))
        t0 = time.perf_counter()
        try:
            # Pickled here so an unpicklable result fails its task
            # rather than vanishing in the queue's feeder thread.
            data = pickle.dumps(task.run(), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            tb = traceback.format_exc()
            if blackbox is not None:
                try:
                    blackbox.write(tb)
                    blackbox.flush()
                except OSError:
                    pass
            result_q.put(("failed", worker_id, task_id, tb,
                          time.perf_counter() - t0))
            if not isinstance(exc, Exception):
                raise  # SystemExit / KeyboardInterrupt: die, but reported
        else:
            result_q.put(("done", worker_id, task_id, data,
                          time.perf_counter() - t0))


@dataclass(eq=False)
class _Task:
    """One distinct task in the pool, followed across its attempts."""

    key: str
    #: What a worker runs: an object with a ``run()`` method.
    task: object
    #: Outcome inboxes of the ``run`` calls waiting for this task; each
    #: gets ``(key, TaskOutcome)``.
    inboxes: List["queue_mod.SimpleQueue"]
    started: bool = False
    #: Retries consumed so far.
    attempts: int = 0
    #: Worker kills (crashes + timeouts) this task caused.
    kills: int = 0
    #: Error text of every failed attempt, oldest first.
    errors: List[str] = field(default_factory=list)


class _Pool:
    """Workers, queues and supervisor thread behind one executor.

    Everything below is guarded by ``_lock``.  Callers submit (forking
    the workers their tasks need) and cancel; the supervisor thread
    resolves outcomes, reaps and respawns.  The pool holds no reference
    to its executor, so dropping the executor runs its finaliser
    (:meth:`close`).
    """

    #: Supervisor poll interval for results / liveness / timeouts while
    #: tasks are pending.
    _POLL_S = 0.1
    #: Consecutive idle polls with tasks pending but nothing in flight
    #: before those tasks count as lost (covers the tiny window where a
    #: worker dies between claiming a task and announcing it).
    _STALL_POLLS = 20

    def __init__(self, n_workers: int, timeout_s: Optional[float],
                 retries: int, backoff_s: float,
                 rand: Callable[[], float], ctx) -> None:
        self.n_workers = n_workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self._rand = rand
        self._ctx = ctx
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._blackbox_dir = tempfile.mkdtemp(prefix="repro-pool-")
        # Reentrant: a finaliser may run close() from a collection
        # triggered inside the supervisor's own locked section.
        self._lock = threading.RLock()
        self._tasks: Dict[int, _Task] = {}
        #: key -> id of the pending task with that key.
        self._task_ids: Dict[str, int] = {}
        self._next_task_id = 0
        self._workers: Dict[int, mp.process.BaseProcess] = {}
        self._next_worker_id = 0
        #: worker id -> (task id, started-at monotonic time)
        self._in_flight: Dict[int, Tuple[int, float]] = {}
        #: (ready-at monotonic time, task id) for tasks in backoff.
        self._requeue: List[Tuple[float, int]] = []
        # Active worker target; shrinks when the OS refuses a spawn.
        self._cap = n_workers
        # A worker may be respawned after every kill, but each task's
        # kills are capped (quarantine), so a pathological task cannot
        # spin the pool; every submitted task adds its share.
        self._spawn_budget = n_workers
        self._stall_polls = 0
        self.closed = False
        self._thread: Optional[threading.Thread] = None

    # -- caller side ---------------------------------------------------

    def submit(self, tasks: Sequence[Tuple[str, object]],
               inbox: "queue_mod.SimpleQueue") -> None:
        """Ask for ``(key, task)`` pairs; each task's outcome arrives in
        ``inbox`` as ``(key, TaskOutcome)``.  A key already pending in
        the pool joins that task instead of queueing a second one."""
        with self._lock:
            if self.closed:
                for key, _ in tasks:
                    inbox.put((key, TaskOutcome(
                        "lost", error="worker pool closed before this "
                                      "task started")))
                return
            fresh = 0
            for key, task in tasks:
                task_id = self._task_ids.get(key)
                if task_id is not None:
                    self._tasks[task_id].inboxes.append(inbox)
                    continue
                task_id = self._next_task_id
                self._next_task_id += 1
                self._tasks[task_id] = _Task(key, task, [inbox])
                self._task_ids[key] = task_id
                self._enqueue(task_id)
                fresh += 1
            kills_per_task = _QUARANTINE_KILLS if self.retries else 1
            self._spawn_budget += kills_per_task * fresh
            self._cap = self.n_workers
            # Fork here rather than in the supervisor: a worker forked
            # from a non-main thread carries that thread's stack and
            # allocator arena, about 1 MB more resident memory each.
            self._top_up()
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._supervise, daemon=True,
                    name="repro-pool-supervisor")
                self._thread.start()
        self._result_q.put(_WAKE)

    def cancel(self, keys: Sequence[str],
               inbox: "queue_mod.SimpleQueue") -> None:
        """Stop delivering ``keys`` to ``inbox``; forget tasks nobody
        waits for any more."""
        with self._lock:
            for key in keys:
                task_id = self._task_ids.get(key)
                if task_id is None:
                    continue
                task = self._tasks[task_id]
                if inbox in task.inboxes:
                    task.inboxes.remove(inbox)
                if not task.inboxes:
                    del self._tasks[task_id], self._task_ids[key]

    def close(self) -> None:
        """Stop the supervisor and the workers; idempotent.

        Tasks still pending come back ``lost``.  Idle workers exit at
        once; a busy one gets a few seconds before it is terminated.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            thread = self._thread
        if thread is None:
            self._shutdown()
            return
        self._result_q.put(_WAKE)
        if thread is not threading.current_thread():
            thread.join()

    # -- supervisor ----------------------------------------------------

    def _supervise(self) -> None:
        try:
            while True:
                with self._lock:
                    idle = not self._tasks
                msgs = self._receive(None if idle else self._POLL_S)
                with self._lock:
                    if self.closed:
                        return
                    self._step(msgs)
        finally:
            with self._lock:
                self.closed = True
                self._fail_all("worker pool closed before this task "
                               "completed")
            self._shutdown()

    def _receive(self, timeout: Optional[float]) -> List[tuple]:
        """Block up to ``timeout`` (None: forever) for the first message,
        then drain the queue dry."""
        msgs: List[tuple] = []
        try:
            msgs.append(self._result_q.get(timeout=timeout))
            while True:
                msgs.append(self._result_q.get_nowait())
        except queue_mod.Empty:
            pass
        return msgs

    def _step(self, msgs: List[tuple]) -> None:
        for msg in msgs:
            self._handle(msg)
        now = time.monotonic()
        self._flush_requeue(now)
        self._reap_timeouts(now)
        self._reap_crashes(now)
        self._top_up()
        if self._tasks and not self._workers:
            self._fail_all("worker pool exhausted its respawn budget "
                           "before this task completed")
        if msgs or not self._tasks or self._in_flight or self._requeue \
                or not self._task_q.empty():
            self._stall_polls = 0
            return
        self._stall_polls += 1
        if self._stall_polls >= self._STALL_POLLS:
            self._stall_polls = 0
            # Route the orphans through retry (or finish them lost).
            for task_id in list(self._tasks):
                self._resolve(task_id, TaskOutcome(
                    "lost", error="task was claimed but its worker "
                                  "vanished before reporting"))

    def _handle(self, msg: tuple) -> None:
        tag = msg[0]
        if tag == "started":
            _, wid, task_id = msg
            self._in_flight[wid] = (task_id, time.monotonic())
            task = self._tasks.get(task_id)
            if task is not None:
                task.started = True
        elif tag in ("done", "failed"):
            _, wid, task_id, data, elapsed = msg
            self._in_flight.pop(wid, None)
            task = self._tasks.get(task_id)
            if task is None:
                return  # e.g. already timed out, or its callers left
            if tag == "done":
                try:
                    out = TaskOutcome("ok", value=pickle.loads(data),
                                      elapsed_s=elapsed)
                except Exception:
                    out = TaskOutcome("failed",
                                      error=traceback.format_exc(),
                                      elapsed_s=elapsed)
            else:
                out = TaskOutcome("failed", error=data, elapsed_s=elapsed)
            self._resolve(task_id, out)

    def _finish(self, task_id: int, out: TaskOutcome) -> None:
        task = self._tasks.pop(task_id)
        del self._task_ids[task.key]
        out.attempts = task.attempts
        for inbox in task.inboxes:
            inbox.put((task.key, out))

    def _resolve(self, task_id: int, out: TaskOutcome) -> None:
        """Finish, retry, or quarantine one attempt's outcome."""
        task = self._tasks[task_id]
        if out.status in ("crashed", "timeout"):
            task.kills += 1
        if out.error:
            task.errors.append(out.error)
        if out.status not in RETRYABLE_STATUSES:
            self._finish(task_id, out)
        elif task.kills >= _QUARANTINE_KILLS:
            self._finish(task_id, TaskOutcome(
                "quarantined",
                error=(f"task killed its worker {task.kills} times and "
                       f"was quarantined\n"
                       + "\n--- earlier attempt ---\n".join(task.errors)),
                elapsed_s=out.elapsed_s))
        elif task.attempts >= self.retries:
            self._finish(task_id, out)
        else:
            ready = time.monotonic() + backoff_delay(
                task.attempts, self.backoff_s, self._rand)
            task.attempts += 1
            task.started = False
            self._requeue.append((ready, task_id))

    def _fail_all(self, reason: str) -> None:
        for task_id in list(self._tasks):
            self._finish(task_id, TaskOutcome("lost", error=reason))

    def _enqueue(self, task_id: int) -> None:
        self._task_q.put((task_id, self._tasks[task_id].task))

    def _flush_requeue(self, now: float) -> None:
        due = [item for item in self._requeue if item[0] <= now]
        for item in due:
            self._requeue.remove(item)
            if item[1] in self._tasks:
                self._enqueue(item[1])

    def _reap_timeouts(self, now: float) -> None:
        if not self.timeout_s:
            return
        for wid, (task_id, t0) in list(self._in_flight.items()):
            if now - t0 <= self.timeout_s:
                continue
            proc = self._workers.pop(wid, None)
            if proc is not None:
                proc.terminate()
                proc.join(1.0)
            del self._in_flight[wid]
            task = self._tasks.get(task_id)
            if task is not None:
                self._resolve(task_id, TaskOutcome(
                    "timeout",
                    error=f"task exceeded --timeout {self.timeout_s:g}s",
                    elapsed_s=now - t0))

    def _reap_crashes(self, now: float) -> None:
        dead = [wid for wid, proc in self._workers.items()
                if not proc.is_alive()]
        if not dead:
            return
        # A worker's last report reaches the pipe before its exit shows:
        # take it first, so a task that did report is not called crashed.
        for msg in self._receive(0):
            self._handle(msg)
        for wid in dead:
            proc = self._workers.pop(wid)
            held = self._in_flight.pop(wid, None)
            if held is None:
                continue
            task_id, t0 = held
            task = self._tasks.get(task_id)
            if task is None:
                continue
            error = (f"worker process died "
                     f"({self._describe_exit(proc.exitcode)}) "
                     f"while running this task")
            last_words = self._read_blackbox(wid, task_id)
            if last_words:
                error += f"\n-- worker blackbox --\n{last_words}"
            self._resolve(task_id, TaskOutcome(
                "crashed", error=error, elapsed_s=now - t0))

    def _top_up(self) -> None:
        """Keep enough workers alive for the work that is left (queued
        or backoff-waiting tasks count as unclaimed).  Idle workers stay:
        the pool never shrinks on its own."""
        unclaimed = sum(1 for task in self._tasks.values()
                        if not task.started)
        need = unclaimed + len(self._in_flight)
        while len(self._workers) < min(self._cap, need) \
                and self._spawn_budget > 0:
            self._spawn()

    def _spawn(self) -> None:
        self._spawn_budget -= 1
        wid = self._next_worker_id
        self._next_worker_id += 1
        proc = self._ctx.Process(target=_worker_main,
                                 args=(wid, self._task_q, self._result_q,
                                       self._blackbox_dir),
                                 daemon=True)
        try:
            proc.start()
        except OSError:
            # Graceful degradation: the machine cannot host this many
            # workers any more; run on with a smaller pool.
            self._cap -= 1
            return
        self._workers[wid] = proc

    def _read_blackbox(self, wid: int, task_id: int) -> Optional[str]:
        """The worker's last words, minus the task marker line."""
        try:
            with open(os.path.join(self._blackbox_dir, f"worker-{wid}.log"),
                      encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            return None
        marker = f"task {task_id}\n"
        if text.startswith(marker):
            text = text[len(marker):]
        text = text.strip()
        return text[-4000:] if text else None

    @staticmethod
    def _describe_exit(exitcode: Optional[int]) -> str:
        if exitcode is not None and exitcode < 0:
            try:
                return (f"signal {signal.Signals(-exitcode).name} "
                        f"({exitcode})")
            except ValueError:
                return f"signal {-exitcode} ({exitcode})"
        return f"exit code {exitcode}"

    def _shutdown(self) -> None:
        # Drain undistributed tasks, then wave the workers home.
        try:
            while True:
                self._task_q.get_nowait()
        except (queue_mod.Empty, OSError):
            pass
        for _ in self._workers:
            try:
                self._task_q.put(None)
            except (ValueError, OSError):  # pragma: no cover
                break
        deadline = time.monotonic() + 5.0
        for proc in self._workers.values():
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        self._workers.clear()
        for q in (self._task_q, self._result_q):
            q.cancel_join_thread()
            q.close()
        shutil.rmtree(self._blackbox_dir, ignore_errors=True)


class PoolExecutor:
    """Run jobs on N worker processes with crash and timeout isolation.

    With ``jobs >= 2`` the workers form one long-lived pool shared by
    every :meth:`run` call, from any thread, until :meth:`close`.  Use
    it as a context manager, or call :meth:`close`; an executor dropped
    without either is closed by a finaliser.
    """

    def __init__(self, jobs: int = 1, timeout_s: Optional[float] = None,
                 context: Optional[mp.context.BaseContext] = None,
                 retries: int = 0, backoff_s: float = 1.0,
                 rand: Callable[[], float] = random.random):
        self.n_workers = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self._rand = rand
        if context is None:
            try:
                context = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                context = mp.get_context()
        self._ctx = context
        self._pool: Optional[_Pool] = None
        self._pool_lock = threading.Lock()
        self._finalizer: Optional[weakref.finalize] = None

    def run(self, jobs: Sequence[JobSpec],
            on_outcome: Optional[Callable[[JobOutcome], None]] = None,
            ) -> List[JobOutcome]:
        """Execute every job; returns outcomes in input order.

        ``on_outcome`` is called in the calling thread as each job
        finishes.
        """
        if not jobs:
            return []
        drive = _Drive(jobs, on_outcome)
        if self.n_workers <= 1:
            todo = collections.deque(drive.start())
            while drive.pending:
                key, task = todo.popleft()
                todo.extend(drive.deliver(key, _run_inline(task)))
            return drive.outs
        pool = self._live_pool()
        inbox: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
        try:
            fresh = drive.start()
            while True:
                if fresh:
                    pool.submit(fresh, inbox)
                if not drive.pending:
                    return drive.outs
                fresh = drive.deliver(*inbox.get())
        finally:
            if drive.waiters:
                pool.cancel(list(drive.waiters), inbox)

    def close(self) -> None:
        """Stop the worker pool (if one started); a later :meth:`run`
        starts a fresh one."""
        with self._pool_lock:
            finalizer, self._finalizer = self._finalizer, None
            self._pool = None
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _live_pool(self) -> _Pool:
        with self._pool_lock:
            if self._pool is None or self._pool.closed:
                if self._finalizer is not None:
                    self._finalizer()
                self._pool = _Pool(self.n_workers, self.timeout_s,
                                   self.retries, self.backoff_s,
                                   self._rand, self._ctx)
                self._finalizer = weakref.finalize(self, self._pool.close)
            return self._pool


def _run_inline(task) -> TaskOutcome:
    t0 = time.perf_counter()
    try:
        value = task.run()
    except Exception:
        return TaskOutcome("failed", error=traceback.format_exc(),
                           elapsed_s=time.perf_counter() - t0)
    return TaskOutcome("ok", value=value,
                       elapsed_s=time.perf_counter() - t0)


@dataclass(eq=False)
class _JobRun:
    """One job of a ``run`` call, driven as a program."""

    job: JobSpec
    index: int
    program: Generator
    #: Keys of the program's outstanding request, in request order.
    keys: List[str] = field(default_factory=list)
    #: Whether that request was one task rather than a list.
    single: bool = True
    #: Every key the job used (an ordered set), for its cost fields.
    used: Dict[str, None] = field(default_factory=dict)
    sims_run: int = 0
    sims_shared: int = 0
    done: bool = False


class _Drive:
    """The job programs of one ``run`` call and the tasks they share.

    :meth:`start` and :meth:`deliver` return the ``(key, task)`` pairs
    asked for for the first time in this call, in request order, for the
    caller to run; every other request is answered from :attr:`results`
    or waits for the pending task.
    """

    def __init__(self, jobs: Sequence[JobSpec],
                 on_outcome: Optional[Callable[[JobOutcome], None]]):
        self.outs: List[Optional[JobOutcome]] = [None] * len(jobs)
        self.pending = len(jobs)
        #: Outcomes of the tasks finished in this call.
        self.results: Dict[str, TaskOutcome] = {}
        #: Pending key -> the jobs waiting for it.
        self.waiters: Dict[str, List[_JobRun]] = {}
        self._fresh: List[Tuple[str, object]] = []
        self._on_outcome = on_outcome
        self._runs = [_JobRun(job, index, job_program(job.exp_id, job.kind,
                                                      job.config))
                      for index, job in enumerate(jobs)]

    def start(self) -> List[Tuple[str, object]]:
        for run in self._runs:
            self._step(run)
        return self._take_fresh()

    def deliver(self, key: str, out: TaskOutcome
                ) -> List[Tuple[str, object]]:
        self.results[key] = out
        for run in self.waiters.pop(key, ()):
            if not run.done:
                self._step(run)
        return self._take_fresh()

    def _take_fresh(self) -> List[Tuple[str, object]]:
        fresh, self._fresh = self._fresh, []
        return fresh

    def _step(self, run: _JobRun) -> None:
        """Run the job's program on until it waits for a pending task,
        or finish the job."""
        value = None
        while True:
            if run.keys:
                answers = [self.results.get(key) for key in run.keys]
                failed = next((a for a in answers
                               if a is not None and not a.ok), None)
                if failed is not None:
                    run.program.close()
                    self._finish(run, failed.status, error=failed.error)
                    return
                if any(a is None for a in answers):
                    return
                values = [a.value for a in answers]
                value = values[0] if run.single else values
            try:
                request = run.program.send(value)
                tasks = request if isinstance(request, list) else [request]
                run.keys = [task.key for task in tasks]
            except StopIteration as stop:
                self._finish(run, "ok", payload=stop.value)
                return
            except Exception:
                self._finish(run, "failed", error=traceback.format_exc())
                return
            run.single = not isinstance(request, list)
            for key, task in zip(run.keys, tasks):
                simulation = not isinstance(task, WholeJob)
                if key in self.results or key in self.waiters:
                    run.sims_shared += simulation
                else:
                    self.waiters[key] = []
                    self._fresh.append((key, task))
                    run.sims_run += simulation
                if key not in self.results:
                    self.waiters[key].append(run)
                run.used[key] = None

    def _finish(self, run: _JobRun, status: str, payload=None,
                error: Optional[str] = None) -> None:
        run.done = True
        used = [self.results[key] for key in run.used
                if key in self.results]
        out = JobOutcome(run.job, status, payload=payload, error=error,
                         elapsed_s=sum(u.elapsed_s for u in used),
                         attempts=sum(u.attempts for u in used),
                         sims_run=run.sims_run,
                         sims_shared=run.sims_shared)
        self.outs[run.index] = out
        self.pending -= 1
        if self._on_outcome is not None:
            self._on_outcome(out)
