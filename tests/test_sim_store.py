"""Simulation results persisted in the result store.

A simulation a job asks for is answered from the store when an earlier
call, run or server request already ran it; these tests check the JSON
round trip that makes that exact, the store key and its invalidation,
corrupt-entry healing, ``refresh``/``use_cache`` and the serve engine.
"""

import json

import pytest

from repro.apps import AppResult, FFTConfig, Simulation
from repro.experiments import ExperimentResult, registry
from repro.experiments.programs import program
from repro.machine import paragon_small
from repro.runner import (KIND_POINT, JobSpec, PoolExecutor, ResultStore,
                          SweepSpec, decompose, run_experiments,
                          simulation_key)
from repro.runner import jobs as jobs_mod
from repro.serve import ServeEngine
from tests.test_simulation import QUICK_RUNS


def _same(a, b, path="result"):
    """Exact equality: types, values and dict insertion orders."""
    assert type(a) is type(b), path
    if hasattr(a, "__dict__"):   # AppResult, TraceCollector, OpAggregate
        _same(vars(a), vars(b), path)
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _sim_entries(store):
    """Path -> entry of every simulation entry in ``store``."""
    found = {}
    for path, _, _, _ in store.entries():
        entry = json.loads(path.read_text())
        if entry.get("kind") == "simulation":
            found[path] = entry
    return found


def _drop_job_entries(store):
    for path, _, _, _ in list(store.entries()):
        if json.loads(path.read_text()).get("kind") != "simulation":
            path.unlink()


def _register_sim_sweep(monkeypatch, exp_id, sim):
    """Register a one-point sweep that asks for ``sim``; returns its job."""
    @program
    def run_point(point):
        res = yield sim
        return {"exec_time": res.exec_time}

    monkeypatch.setitem(
        jobs_mod.SWEEPS, exp_id,
        SweepSpec(lambda quick: [{"i": 0}], run_point,
                  lambda payloads, quick: ExperimentResult(exp_id, "t",
                                                           "ref")))
    monkeypatch.setitem(registry.EXPERIMENTS, exp_id,
                        lambda quick=False: ExperimentResult(exp_id, "t",
                                                             "ref"))
    return JobSpec(job_id=f"{exp_id}#000", exp_id=exp_id, kind=KIND_POINT,
                   config={"i": 0})


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


@pytest.fixture(scope="module")
def fig7_reference():
    """fig7's quick payloads computed without any store."""
    report = run_experiments(["fig7"], quick=True, use_cache=False)
    assert report.simulations_run == 4
    return [o.payload for o in report.outcomes]


class TestAppResultRoundTrip:
    @pytest.mark.parametrize("app", sorted(QUICK_RUNS))
    def test_json_round_trip_is_exact(self, app):
        res = QUICK_RUNS[app].run()
        back = AppResult.from_dict(json.loads(json.dumps(res.to_dict())))
        _same(res, back)
        # The aggregates stay a defaultdict: asking for an unseen op
        # still answers zeros, as it does on the original.
        assert back.trace.io_time_of_rank(10 ** 6) == 0.0

    def test_functional_fft_result_does_not_round_trip(self):
        res = Simulation("fft", paragon_small(4, 2),
                         FFTConfig(n=64, panel_memory_bytes=64 * 16 * 8,
                                   functional=True), 2).run()
        assert "fs" in res.extra
        with pytest.raises(ValueError):
            res.to_dict()

    def test_trace_keeping_records_does_not_round_trip(self):
        res = QUICK_RUNS["btio"].run()
        res.trace.keep_records = True
        with pytest.raises(ValueError):
            res.to_dict()


class TestStoreKeyCheck:
    @pytest.mark.parametrize("kind", ["point", "simulation"])
    def test_entry_under_another_key_is_evicted(self, store, kind):
        good, other = "ab" + "0" * 62, "cd" + "1" * 62
        store.put(good, {"v": 1}, kind=kind)
        misplaced = store.path_for(other)
        misplaced.parent.mkdir(parents=True)
        misplaced.write_text(store.path_for(good).read_text())
        lookup = store.get if kind == "point" else store.load
        assert lookup(other) is None
        assert store.stats.corrupt == 1
        assert not misplaced.exists()
        assert lookup(good)["payload"] == {"v": 1}

    def test_entry_without_key_field_is_accepted(self, store):
        key = "ef" + "2" * 62
        path = store.put(key, {"v": 1})
        entry = json.loads(path.read_text())
        del entry["key"]
        path.write_text(json.dumps(entry))
        assert store.get(key)["payload"] == {"v": 1}
        assert store.stats.corrupt == 0


class TestAcrossRuns:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig7_after_fig6_runs_no_simulation(self, store, jobs,
                                                fig7_reference):
        first = run_experiments(["fig6"], quick=True, jobs=jobs,
                                store=store)
        assert first.simulations_run == 6
        assert len(_sim_entries(store)) == 6
        lookups = (store.stats.hits, store.stats.misses)
        second = run_experiments(["fig7"], quick=True, jobs=jobs,
                                 store=store)
        assert second.simulations_run == 0
        assert second.simulations_cached == 4
        # A stored simulation still costs its job its recorded time.
        assert all(o.elapsed_s > 0 for o in second.outcomes)
        assert [o.payload for o in second.outcomes] == fig7_reference
        assert "simulations: 0 run, 0 shared, 4 cached" in \
            second.summary_text()
        # Simulation lookups leave the job counters alone: fig7's 4 job
        # lookups missed, nothing else was counted.
        assert (store.stats.hits, store.stats.misses) == \
            (lookups[0], lookups[1] + 4)

    def test_refresh_recomputes_and_rewrites(self, store):
        run_experiments(["fig7"], quick=True, store=store)
        before = {p: e["created"] for p, e in _sim_entries(store).items()}
        assert len(before) == 4
        again = run_experiments(["fig7"], quick=True, store=store,
                                refresh=True)
        assert (again.simulations_run, again.simulations_cached) == (4, 0)
        after = {p: e["created"] for p, e in _sim_entries(store).items()}
        assert set(after) == set(before)
        assert all(after[p] > before[p] for p in before)

    def test_no_cache_writes_no_entry(self, store):
        report = run_experiments(["fig7"], quick=True, store=store,
                                 use_cache=False)
        assert report.simulations_run == 4
        assert store.count() == 0

    def test_corrupt_simulation_entry_is_evicted_and_recomputed(
            self, store, fig7_reference):
        run_experiments(["fig7"], quick=True, store=store)
        _drop_job_entries(store)
        path, entry = next(iter(_sim_entries(store).items()))
        entry["payload"]["exec_time"] += 1.0      # checksum now fails
        path.write_text(json.dumps(entry))
        again = run_experiments(["fig7"], quick=True, store=store)
        assert (again.simulations_run, again.simulations_cached) == (1, 3)
        assert store.stats.corrupt == 1
        assert [o.payload for o in again.outcomes] == fig7_reference
        # Recomputed and written back whole.
        assert json.loads(path.read_text())["payload"]["exec_time"] == \
            entry["payload"]["exec_time"] - 1.0

    def test_undecodable_entry_is_evicted(self, store, monkeypatch):
        sim = QUICK_RUNS["btio"]
        key = simulation_key(sim.key)
        store.put(key, {"not": "a result"}, kind="simulation")
        job = _register_sim_sweep(monkeypatch, "zz_bad", sim)
        (out,) = PoolExecutor(jobs=1, store=store).run([job])
        assert out.ok and out.sims_run == 1 and out.sims_cached == 0
        assert store.stats.corrupt == 1
        assert AppResult.from_dict(store.load(key)["payload"]).exec_time \
            == out.payload["exec_time"]

    def test_salt_changes_the_simulation_key(self, monkeypatch):
        sim_key = QUICK_RUNS["btio"].key
        plain = simulation_key(sim_key)
        monkeypatch.setenv("REPRO_CACHE_SALT", "model-v2")
        assert simulation_key(sim_key) != plain
        monkeypatch.delenv("REPRO_CACHE_SALT")
        assert simulation_key(sim_key) == plain


class TestSharedStore:
    def test_threads_reading_and_writing_one_entry(self, store,
                                                   monkeypatch):
        """Calls racing to read and write one simulation entry never
        see a torn or corrupt entry and all get the same answer."""
        import sys
        import threading

        sim = QUICK_RUNS["btio"]
        job = _register_sim_sweep(monkeypatch, "zz_race", sim)
        executor = PoolExecutor(jobs=1, store=store)
        payloads, errors = [], []

        def worker():
            try:
                for _ in range(3):
                    (out,) = executor.run([job])
                    payloads.append(out.payload)
            except Exception as exc:       # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(payloads) == 18
        assert all(p == payloads[0] for p in payloads)
        assert store.stats.corrupt == 0
        assert store.load(simulation_key(sim.key)) is not None


class TestNotPersisted:
    def test_functional_fft_is_used_but_not_stored(self, store,
                                                   monkeypatch):
        sim = Simulation("fft", paragon_small(4, 2),
                         FFTConfig(n=64, panel_memory_bytes=64 * 16 * 8,
                                   functional=True), 2)
        job = _register_sim_sweep(monkeypatch, "zz_fft", sim)
        executor = PoolExecutor(jobs=1, store=store)
        (first,) = executor.run([job])
        assert first.ok and first.sims_run == 1
        assert store.count() == 0
        (again,) = executor.run([job])
        assert again.sims_run == 1 and again.sims_cached == 0
        assert again.payload == first.payload


class TestServeEngine:
    def test_fig7_point_after_fig6_point_runs_nothing(self, store,
                                                      monkeypatch,
                                                      fig7_reference):
        fig6 = decompose("fig6", quick=True)
        fig7 = decompose("fig7", quick=True)
        calls = []
        real_run = Simulation.run

        def counting_run(sim):
            calls.append(sim.key)
            return real_run(sim)

        monkeypatch.setattr(Simulation, "run", counting_run)
        with ServeEngine(store=store) as engine:
            assert engine.run_job(fig6[1], timeout=120).ok
            assert len(calls) == 1
            out = engine.run_job(fig7[0], timeout=120)
        assert out.ok and out.source == "computed"
        assert len(calls) == 1
        assert out.payload == fig7_reference[0]


class TestCacheStatsCli:
    def test_stats_lists_jobs_and_simulations(self, store, capsys):
        from repro.cli import main

        run_experiments(["fig7"], quick=True, store=store)
        assert main(["cache", "--cache-dir", str(store.root),
                     "stats"]) == 0
        text = capsys.readouterr().out
        assert "entries: 8 " in text
        assert "jobs: 4 " in text
        assert "simulations: 4 " in text
