"""Contract tests for the executor's long-lived worker pool.

One pool-mode :class:`PoolExecutor` keeps its forked workers across
``run`` calls, serves concurrent callers from several threads, and
leaves no process behind once it is closed or dropped.  Fake
experiments are registered into the registry dict before the pool
forks, so workers inherit them (same idiom as test_runner_executor.py).
"""

import gc
import multiprocessing as mp
import os
import socket
import stat
import sys
import threading
import time

import pytest

from repro.experiments import ExperimentResult, registry
from repro.runner import PoolExecutor, decompose


def _fake(exp_id, body=None):
    def fn(quick=False):
        if body is not None:
            body()
        res = ExperimentResult(exp_id, "t", "ref")
        res.add_check("ok", True)
        return res
    return fn


def _register(monkeypatch, **fakes):
    jobs = []
    for exp_id, fn in fakes.items():
        monkeypatch.setitem(registry.EXPERIMENTS, exp_id, fn)
        jobs.extend(decompose(exp_id, quick=True))
    return jobs


def _record_pid(path):
    """Job body that appends the executing process id to ``path``."""
    def body():
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
    return body


def _pids(path):
    with open(path) as fh:
        return {int(line) for line in fh.read().split()}


def _supervisors():
    return [t for t in threading.enumerate()
            if t.name == "repro-pool-supervisor"]


class TestPersistentWorkers:
    def test_consecutive_runs_share_worker_pids(self, monkeypatch,
                                                tmp_path):
        log = str(tmp_path / "pids")
        fakes = {f"zz_p{i}": _fake(f"zz_p{i}", _record_pid(log))
                 for i in range(6)}
        jobs = _register(monkeypatch, **fakes)
        with PoolExecutor(jobs=2) as ex:
            assert all(o.ok for o in ex.run(jobs[:3]))
            workers = {p.pid for p in mp.active_children()}
            first = _pids(log)
            assert all(o.ok for o in ex.run(jobs[3:]))
            assert {p.pid for p in mp.active_children()} == workers
        second = _pids(log) - first
        assert os.getpid() not in first | second
        assert first | second <= workers
        assert len(workers) == 2

    def test_concurrent_callers_get_their_own_ordered_outcomes(
            self, monkeypatch):
        """Six threads share a 3-worker pool (more workers than cores,
        frequent thread switches); later jobs of each call finish first,
        so completion order differs from input order."""
        callers, per_call = 6, 4
        fakes = {}
        for c in range(callers):
            for i in range(per_call):
                nap = 0.02 * (per_call - 1 - i)
                fakes[f"zz_c{c}_{i}"] = _fake(
                    f"zz_c{c}_{i}", lambda nap=nap: time.sleep(nap))
        jobs = _register(monkeypatch, **fakes)
        calls = [jobs[c * per_call:(c + 1) * per_call]
                 for c in range(callers)]
        got = {}

        def call(c, ex):
            seen = []
            outs = ex.run(calls[c], on_outcome=lambda o: seen.append(
                (threading.get_ident(), o.job.exp_id)))
            got[c] = (threading.get_ident(), outs, seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PoolExecutor(jobs=3) as ex:
                threads = [threading.Thread(target=call, args=(c, ex))
                           for c in range(callers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == list(range(callers))
        for c, call_jobs in enumerate(calls):
            ident, outs, seen = got[c]
            assert [o.job.exp_id for o in outs] == \
                [j.exp_id for j in call_jobs]
            assert all(o.ok and o.payload["exp_id"] == o.job.exp_id
                       for o in outs)
            assert {who for who, _ in seen} == {ident}
            assert sorted(exp for _, exp in seen) == \
                sorted(j.exp_id for j in call_jobs)


class TestLifecycle:
    def test_close_reaps_every_worker(self, monkeypatch):
        jobs = _register(monkeypatch, zz_a=_fake("zz_a"),
                         zz_b=_fake("zz_b"))
        ex = PoolExecutor(jobs=2)
        assert all(o.ok for o in ex.run(jobs))
        assert mp.active_children()          # workers outlive run()
        ex.close()
        assert mp.active_children() == []
        assert _supervisors() == []
        ex.close()                           # idempotent

    def test_run_after_close_starts_a_fresh_pool(self, monkeypatch):
        jobs = _register(monkeypatch, zz_a=_fake("zz_a"))
        ex = PoolExecutor(jobs=2)
        first = {p.pid for p in mp.active_children()}
        assert ex.run(jobs)[0].ok
        ex.close()
        assert ex.run(jobs)[0].ok
        assert {p.pid for p in mp.active_children()} - first
        ex.close()
        assert mp.active_children() == []

    def test_dropped_executor_is_reaped_by_its_finaliser(self,
                                                         monkeypatch):
        jobs = _register(monkeypatch, zz_a=_fake("zz_a"),
                         zz_b=_fake("zz_b"))
        outs = PoolExecutor(jobs=2).run(jobs)
        assert all(o.ok for o in outs)
        gc.collect()
        assert mp.active_children() == []
        assert _supervisors() == []

    def test_close_while_a_caller_waits_returns_lost(self, monkeypatch):
        jobs = _register(monkeypatch,
                         zz_nap=_fake("zz_nap", lambda: time.sleep(30)))
        ex = PoolExecutor(jobs=2)
        got = []
        caller = threading.Thread(target=lambda: got.extend(ex.run(jobs)))
        caller.start()
        time.sleep(0.5)
        t0 = time.monotonic()
        ex.close()
        caller.join(30)
        assert not caller.is_alive()
        assert time.monotonic() - t0 < 15
        (out,) = got
        assert out.status == "lost" and "closed" in out.error
        assert mp.active_children() == []


class TestSocketScrub:
    def test_workers_hold_no_inherited_socket(self, monkeypatch,
                                              tmp_path):
        """A socket open in the parent at fork time is /dev/null in the
        worker, so the worker cannot keep that connection alive."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd")
        a, b = socket.socketpair()
        report = tmp_path / "modes"

        def inspect():
            with open(report, "w") as fh:
                fh.write(" ".join(
                    str(int(stat.S_ISSOCK(os.fstat(fd).st_mode)))
                    for fd in (a.fileno(), b.fileno())))

        jobs = _register(monkeypatch, zz_fd=_fake("zz_fd", inspect))
        try:
            with PoolExecutor(jobs=2) as ex:
                assert ex.run(jobs)[0].ok
            assert report.read_text() == "0 0"
            # The parent's own sockets are untouched.
            a.sendall(b"x")
            assert b.recv(1) == b"x"
        finally:
            a.close()
            b.close()
