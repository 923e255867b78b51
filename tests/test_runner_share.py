"""Contract tests for task sharing in the executor.

Toy sweeps are registered whose points are programs (made with
:func:`repro.experiments.programs.program`) yielding toy tasks.  Each
toy task appends a line to a marker file named after its key every time
it runs, so the files count executions across worker processes.  The
pool forks, so workers inherit the registrations (same idiom as
test_runner_executor.py).
"""

import os
import threading
import time

import pytest

from repro.experiments import ExperimentResult, registry
from repro.experiments.programs import program
from repro.runner import (KIND_POINT, JobSpec, PoolExecutor, SweepSpec,
                          run_experiments)
from repro.runner import jobs as jobs_mod


class Touch:
    """Toy task: records each run, then naps, raises or kills its worker."""

    def __init__(self, key, marker_dir, nap=0.0, action=None):
        self.key = key
        self.marker_dir = marker_dir
        self.nap = nap
        self.action = action

    def runs(self):
        path = os.path.join(self.marker_dir, self.key)
        if not os.path.exists(path):
            return 0
        with open(path) as fh:
            return len(fh.read().split())

    def run(self):
        with open(os.path.join(self.marker_dir, self.key), "a") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(self.nap)
        if self.action == "raise":
            raise ValueError(f"task {self.key} exploded")
        if self.action == "die":
            time.sleep(0.5)      # let the "started" message flush
            os._exit(13)
        return {"ran": self.key}


class CrashOnce(Touch):
    """Toy task that kills its worker on its first run only."""

    def run(self):
        if not self.runs():
            with open(os.path.join(self.marker_dir, self.key), "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(0.5)
            os._exit(1)
        return super().run()


def _sweep(monkeypatch, exp_id, tasks_of):
    """Register a sweep whose point ``{"i": i}`` yields ``tasks_of(i)``
    (one task or a list) and returns what it got; returns a job maker."""
    @program
    def run_point(point):
        got = yield tasks_of(point["i"])
        return {"i": point["i"], "got": got}

    monkeypatch.setitem(
        jobs_mod.SWEEPS, exp_id,
        SweepSpec(lambda quick: [{"i": 0}, {"i": 1}], run_point,
                  lambda payloads, quick: _result(exp_id)))
    monkeypatch.setitem(registry.EXPERIMENTS, exp_id,
                        lambda quick=False: _result(exp_id))

    def job(i):
        return JobSpec(job_id=f"{exp_id}#{i:03d}", exp_id=exp_id,
                       kind=KIND_POINT, config={"i": i}, index=i)
    return job


def _result(exp_id):
    res = ExperimentResult(exp_id, "t", "ref")
    res.add_check("ok", True)
    return res


class TestShareWithinOneRun:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_key_runs_once_and_each_job_keeps_its_payload(
            self, monkeypatch, tmp_path, workers):
        shared = Touch("shared", str(tmp_path), nap=0.2)
        job = _sweep(monkeypatch, "zz_sh", lambda i: shared)
        with PoolExecutor(jobs=workers) as ex:
            outs = ex.run([job(0), job(1)])
        assert shared.runs() == 1
        assert [o.status for o in outs] == ["ok", "ok"]
        assert [o.payload for o in outs] == [
            {"i": 0, "got": {"ran": "shared"}},
            {"i": 1, "got": {"ran": "shared"}}]
        assert [(o.sims_run, o.sims_shared) for o in outs] == \
            [(1, 0), (0, 1)]
        # Cost fields count the shared task for every job that used it.
        assert all(o.elapsed_s >= 0.2 for o in outs)

    def test_list_request_answers_in_request_order(self, monkeypatch,
                                                   tmp_path):
        d = str(tmp_path)
        job = _sweep(monkeypatch, "zz_ls", lambda i: [
            Touch(f"t{i}", d, nap=0.3 if i == 0 else 0.0),
            Touch("common", d), Touch(f"u{i}", d)])
        with PoolExecutor(jobs=2) as ex:
            outs = ex.run([job(0), job(1)])
        assert [o.payload["got"] for o in outs] == [
            [{"ran": "t0"}, {"ran": "common"}, {"ran": "u0"}],
            [{"ran": "t1"}, {"ran": "common"}, {"ran": "u1"}]]
        assert Touch("common", d).runs() == 1
        assert [(o.sims_run, o.sims_shared) for o in outs] == \
            [(3, 0), (2, 1)]

    def test_separate_runs_do_not_reuse_finished_tasks(self, monkeypatch,
                                                       tmp_path):
        shared = Touch("again", str(tmp_path))
        job = _sweep(monkeypatch, "zz_ag", lambda i: shared)
        with PoolExecutor(jobs=2) as ex:
            assert ex.run([job(0)])[0].ok
            assert ex.run([job(1)])[0].ok
        assert shared.runs() == 2


class TestShareAcrossCalls:
    def test_concurrent_calls_share_a_running_task(self, monkeypatch,
                                                   tmp_path):
        slow = Touch("slow", str(tmp_path), nap=1.5)
        job = _sweep(monkeypatch, "zz_cc", lambda i: slow)
        got = {}

        def call(i, ex):
            got[i] = ex.run([job(i)])[0]

        with PoolExecutor(jobs=2) as ex:
            first = threading.Thread(target=call, args=(0, ex))
            first.start()
            deadline = time.monotonic() + 10
            while not slow.runs() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert slow.runs() == 1          # running in a worker now
            second = threading.Thread(target=call, args=(1, ex))
            second.start()
            first.join(30)
            second.join(30)
        assert slow.runs() == 1
        assert got[0].ok and got[1].ok
        assert got[0].payload["i"] == 0 and got[1].payload["i"] == 1


class TestSharedFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_task_fails_every_job_that_needs_it(
            self, monkeypatch, tmp_path, workers):
        d = str(tmp_path)
        bad = Touch("bad", d, action="raise")
        job = _sweep(monkeypatch, "zz_bad",
                     lambda i: [Touch(f"ok{i}", d), bad])
        with PoolExecutor(jobs=workers, retries=2,
                          backoff_s=0.01) as ex:
            outs = ex.run([job(0), job(1)])
        assert bad.runs() == 1               # failed: never retried
        for out in outs:
            assert out.status == "failed"
            assert "task bad exploded" in out.error
            assert "ValueError" in out.error

    def test_program_error_fails_the_job_with_its_traceback(
            self, monkeypatch, tmp_path):
        @program
        def run_point(point):
            yield Touch("fine", str(tmp_path))
            raise KeyError("assembly went wrong")

        monkeypatch.setitem(jobs_mod.SWEEPS, "zz_pe",
                            SweepSpec(lambda quick: [], run_point, None))
        job = JobSpec("zz_pe#000", "zz_pe", KIND_POINT, {"i": 0})
        with PoolExecutor(jobs=2) as ex:
            (out,) = ex.run([job])
        assert out.status == "failed"
        assert "assembly went wrong" in out.error
        assert "run_point" in out.error

    def test_task_that_kills_its_worker_quarantines_its_dependents(
            self, monkeypatch, tmp_path):
        d = str(tmp_path)
        poison = Touch("poison", d, action="die")
        job = _sweep(monkeypatch, "zz_kill", lambda i: poison)
        good = _sweep(monkeypatch, "zz_good", lambda i: Touch("good", d))
        with PoolExecutor(jobs=2, retries=5, backoff_s=0.01) as ex:
            outs = ex.run([job(0), good(0), job(1)])
        assert poison.runs() == 2            # retried once, then quarantined
        assert outs[1].ok
        for out in (outs[0], outs[2]):
            assert out.status == "quarantined"
            assert out.error.count("worker process died") == 2
            assert out.attempts == 1

    def test_crashed_shared_task_is_retried_once_for_all(
            self, monkeypatch, tmp_path):
        flaky = CrashOnce("flaky", str(tmp_path))
        job = _sweep(monkeypatch, "zz_once", lambda i: flaky)
        with PoolExecutor(jobs=2, retries=2, backoff_s=0.01) as ex:
            outs = ex.run([job(0), job(1)])
        assert flaky.runs() == 2
        assert all(o.ok and o.attempts == 1 for o in outs)


class TestReport:
    def test_summary_counts_simulations_run_and_shared(self, monkeypatch,
                                                       tmp_path):
        d = str(tmp_path)
        _sweep(monkeypatch, "zz_rep",
               lambda i: [Touch("both", d), Touch(f"own{i}", d)])
        report = run_experiments(["zz_rep"], quick=True, jobs=2,
                                 use_cache=False)
        assert report.simulations_run == 3
        assert report.simulations_shared == 1
        assert "simulations: 3 run, 1 shared" in report.summary_text()
