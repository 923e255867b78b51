"""Pin which quick-suite simulations the experiments share.

No simulation runs here: each quick job's program is driven to its
first yield and the keys of the simulations it asks for are collected.
If one of two places that describe the same run changes its config, its
key changes, this test fails, and the runner would otherwise silently
compute that run twice.
"""

import pytest

from repro.apps import Simulation
from repro.experiments import registry
from repro.runner import decompose_many
from repro.runner.jobs import job_program


def _requested(job):
    request = next(job_program(job.exp_id, job.kind, job.config))
    tasks = request if isinstance(request, list) else [request]
    return [t.key for t in tasks if isinstance(t, Simulation)]


@pytest.fixture(scope="module")
def plan():
    """Quick job id -> keys of the simulations it asks for, in order."""
    return {job.job_id: _requested(job)
            for job in decompose_many(registry.experiment_ids(), quick=True)}


def test_request_and_distinct_counts(plan):
    keys = [key for job_keys in plan.values() for key in job_keys]
    assert len(plan) == 73
    assert len(keys) == 86
    assert len(set(keys)) == 71


def test_table1_simulates_nothing(plan):
    assert plan["table1#000"] == []


def test_table3_original_run_is_table2s(plan):
    (table2,) = plan["table2#000"]
    original, passion = plan["table3#000"]
    assert original == table2 and passion != table2


def test_fig7_points_are_fig6_points(plan):
    assert [plan[f"fig7#{i:03d}"] for i in range(4)] == \
        [plan[f"fig6#{i:03d}"] for i in (1, 4, 2, 5)]


def test_table5_pairs_repeat_figure_and_table4_runs(plan):
    t5 = plan["table5#000"]
    assert len(t5) == 11
    # SCF 3.0 (0% and 100% cached), BTIO and AST pairs, in that order.
    assert t5[3:5] == plan["fig4#000"] + plan["fig4#002"]
    assert t5[7:9] == plan["fig6#001"] + plan["fig6#004"]
    assert t5[9:11] == plan["table4#000"][0:2]     # P=16, 16 I/O nodes


def test_fig3_original_runs_on_16_and_64_io_nodes_are_fig2s(plan):
    fig2 = {key for i in range(12) for key in plan[f"fig2#{i:03d}"]}
    fig3 = [plan[f"fig3#{i:03d}"][0] for i in range(6)]
    # fig3 points: (12io, 16io, 64io) x (P=4, P=64).
    assert [key in fig2 for key in fig3] == \
        [False, False, True, True, True, True]
