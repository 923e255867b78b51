"""Tests for the Simulation spec and for experiments written as programs."""

import pickle

import pytest

from repro import faults
from repro.apps import (ASTConfig, BTIOConfig, FFTConfig, SCF11Config,
                        SCF11_INPUTS, SCF30Config, Simulation, run_btio)
from repro.experiments.programs import program, run_serial
from repro.machine import paragon_large, paragon_small, sp2

#: One small run of each of the five applications.
QUICK_RUNS = {
    "scf11": Simulation("scf11", paragon_large(4, 12),
                        SCF11Config(n_basis=SCF11_INPUTS["SMALL"],
                                    measured_read_iters=1), 4),
    "scf30": Simulation("scf30", paragon_large(4, 12),
                        SCF30Config(n_basis=108, measured_read_iters=1), 4),
    "fft": Simulation("fft", paragon_small(4, 2),
                      FFTConfig(n=64, panel_memory_bytes=64 * 16 * 8), 2),
    "btio": Simulation("btio", sp2(4),
                       BTIOConfig(class_name="S", measured_dumps=1), 4),
    "ast": Simulation("ast", paragon_large(4, 12),
                      ASTConfig(array_n=512, n_fields=2, n_steps=8,
                                dump_interval=4, measured_dumps=1), 4),
}


class TestSimulationSpec:
    @pytest.mark.parametrize("app", sorted(QUICK_RUNS))
    def test_result_round_trips_through_pickle(self, app):
        res = QUICK_RUNS[app].run()
        back = pickle.loads(pickle.dumps(res))
        assert (back.app, back.version, back.n_procs, back.n_io) == \
            (res.app, res.version, res.n_procs, res.n_io)
        assert back.exec_time == res.exec_time
        assert back.io_time_per_rank == res.io_time_per_rank
        assert back.extra == res.extra
        assert back.trace.total_count == res.trace.total_count
        assert back.trace.total_time == res.trace.total_time

    def test_run_matches_the_app_function(self):
        config = BTIOConfig(class_name="S", version="collective",
                            measured_dumps=1)
        direct = run_btio(sp2(4), config, 4)
        assert Simulation("btio", sp2(4), config, 4).run().exec_time == \
            direct.exec_time

    def test_equal_content_gives_equal_keys(self):
        a = Simulation("btio", sp2(16), BTIOConfig(measured_dumps=1), 16)
        b = Simulation("btio", sp2(n_compute=max(16, 4)),
                       BTIOConfig(class_name="A", measured_dumps=1), 16)
        assert a.key == b.key

    def test_any_field_changes_the_key(self):
        base = Simulation("scf11", paragon_small(4, 4),
                          SCF11Config(n_basis=108), 4)
        plan = faults.FaultPlan(faults=(faults.cache_loss(at=1.0),))
        variants = [
            Simulation("scf11", paragon_small(4, 2),
                       SCF11Config(n_basis=108), 4),
            Simulation("scf11", paragon_small(4, 4),
                       SCF11Config(n_basis=108, version="passion"), 4),
            Simulation("scf11", paragon_small(4, 4),
                       SCF11Config(n_basis=108), 2),
            Simulation("scf11", paragon_small(4, 4),
                       SCF11Config(n_basis=108), 4, stripe_unit=4096),
            Simulation("scf11", paragon_small(4, 4),
                       SCF11Config(n_basis=108), 4, fault_plan=plan),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_fault_plan_keys_like_its_dict_form(self):
        plan = faults.FaultPlan(faults=(faults.cache_loss(at=1.0),), seed=3)
        machine, config = paragon_small(4, 4), SCF11Config(n_basis=108)
        assert Simulation("scf11", machine, config, 4,
                          fault_plan=plan).key == \
            Simulation("scf11", machine, config, 4,
                       fault_plan=plan.to_dict()).key

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="warp"):
            Simulation("warp", sp2(4), BTIOConfig(), 4)


class _Task:
    def __init__(self, key, log):
        self.key = key
        self._log = log

    def run(self):
        self._log.append(self.key)
        return self.key.upper()


class TestPrograms:
    def test_serial_driver_answers_single_and_list_requests(self):
        log = []

        def gen():
            one = yield _Task("a", log)
            pair = yield [_Task("b", log), _Task("c", log)]
            return [one] + pair

        assert run_serial(gen()) == ["A", "B", "C"]
        assert log == ["a", "b", "c"]

    def test_program_decorator_keeps_the_generator(self):
        log = []

        @program
        def exp(x):
            """Doc."""
            got = yield _Task(x, log)
            return got + "!"

        assert exp("k") == "K!"
        assert exp.__doc__ == "Doc."
        gen = exp.program("k")
        assert next(gen).key == "k"
        with pytest.raises(StopIteration) as stop:
            gen.send("V")
        assert stop.value.value == "V!"
