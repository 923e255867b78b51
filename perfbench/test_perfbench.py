"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import simprofile  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from stats import (Tally, classify_response, percentile,  # noqa: E402
                   self_time, union_length)


# -- percentiles ------------------------------------------------------------

def test_percentile_reports_value_and_sample_count():
    p50 = percentile(range(1, 101), 50)
    assert (p50.value, p50.n, p50.beyond) == (50.5, 100, 50)
    p99 = percentile(range(1, 101), 99)
    assert p99.n == 100 and p99.beyond == 1
    assert p99.value == pytest.approx(99.01)


def test_percentile_matches_numpy_linear():
    rng = random.Random(3)
    for n in (1, 2, 7, 250):
        data = [rng.expovariate(1.0) for _ in range(n)]
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(data, q).value == pytest.approx(
                float(np.percentile(data, q)))


def test_percentile_of_nothing_is_nan_with_zero_count():
    p = percentile([], 99)
    assert math.isnan(p.value) and p.n == 0 and p.beyond == 0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self time ----------------------------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([]) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    # [1,4] and [3,6] overlap; [9,12] sticks out of the parent [0,10].
    children = [(1, 4), (3, 6), (9, 12)]
    assert self_time(0, 10, children) == pytest.approx(10 - 5 - 1)
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(-5, 20)]) == 0


def test_recorder_links_parents_and_computes_self_time():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            self.inner()
            return "done"

        def inner(self):
            time.sleep(0.03)

        @staticmethod
        async def awaited():
            await asyncio.sleep(0.01)

    rec = SpanRecorder()
    rec.wrap(Layer, "outer", "outer", new_request=True)
    rec.wrap(Layer, "inner", "inner", key=lambda self: "job-key")
    rec.wrap(Layer, "awaited", "awaited")
    try:
        assert Layer().outer() == "done"
        Layer().inner()
        asyncio.run(Layer.awaited())
    finally:
        rec.unwrap_all()
    assert "__wrapped__" not in vars(Layer.inner)
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    outer = by_name["outer"][0]
    nested, alone = by_name["inner"]
    assert nested.parent == outer.id and nested.rid == outer.rid
    assert alone.parent is None and alone.rid == "job-key"
    assert by_name["awaited"][0].end - by_name["awaited"][0].start >= 0.01
    (own,) = self_times(rec.spans, "outer")
    assert 0.015 < own < (outer.end - outer.start) - 0.025


# -- load generator ---------------------------------------------------------

async def _stalling_server(stall_s: float):
    """A fake server whose first response takes ``stall_s``."""
    seen = []

    async def handle(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        seen.append(time.perf_counter())
        if len(seen) == 1:
            await asyncio.sleep(stall_s)
        body = b"{}"
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                     b"Connection: close\r\n\r\n" + body)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_open_loop_times_requests_from_their_due_time():
    async def scenario():
        server, port = await _stalling_server(0.3)
        async with server:
            reqs = [loadgen.Request(i * 0.05, b"{}") for i in range(4)]
            return await loadgen.open_loop("127.0.0.1", port, "/", reqs,
                                           max_conns=1)

    results = asyncio.run(scenario())
    assert [r.status for r in results] == [200] * 4
    first, second = results[0], results[1]
    assert first.latency_s >= 0.3
    # Due at +50 ms but the only connection was busy until ~+300 ms:
    # the wait counts in its latency...
    assert second.latency_s >= 0.24
    assert second.done - second.sent < 0.1
    # ...but not in the generator's own lateness.
    assert max(r.late for r in results) < 0.04
    good, total = loadgen.valid_slices(results)
    assert total == 1 and len(good) == 1


def _slice_of(second: int, late_s: float, latency_s: float, n: int = 100):
    req = loadgen.Request(0.0, b"")
    return [loadgen.Result(req, second + i / n, done=second + i / n
                           + latency_s, late=late_s) for i in range(n)]


def test_slices_where_the_generator_was_late_are_invalid():
    quiet = _slice_of(0, 0.001, 0.003) + _slice_of(2, 0.001, 0.004)
    late = _slice_of(1, 0.003, 0.050)
    assert loadgen.late_p99_ms(late) == pytest.approx(3.0)
    good, total = loadgen.valid_slices(quiet + late)
    assert total == 3
    assert [s[0].due for s in good] == [0.0, 2.0]
    assert workloads._sliced(quiet + late, 50) == pytest.approx(3.5)


def test_slices_the_hypervisor_took_cpu_from_are_invalid():
    window = [r for k in range(4) for r in _slice_of(k, 0.001, 0.003)]
    meter = loadgen.StealMeter()
    # (time, steal ticks, total ticks): 10% steal during second 1 only.
    meter.samples = [(0.0, 0, 0), (1.0, 0, 200), (2.0, 20, 400),
                     (3.0, 20, 600), (4.0, 20, 800)]
    assert meter.share(1.0, 2.0) == pytest.approx(0.1)
    assert meter.share(0.0, 4.0) == pytest.approx(0.025)
    good, total = loadgen.valid_slices(window, meter.share)
    assert total == 4
    assert [s[0].due for s in good] == [0.0, 2.0, 3.0]


def test_a_window_late_throughout_keeps_its_least_late_quarter():
    window = [r for k in range(8)
              for r in _slice_of(k, 0.003 + k * 0.001, 0.010 * (k + 1))]
    good, total = loadgen.valid_slices(window)
    assert total == 8
    assert [s[0].due for s in good] == [0.0, 1.0]
    assert workloads._sliced(window, 50) == pytest.approx(15.0)


def test_closed_loop_stops_at_count():
    async def scenario():
        server, port = await _stalling_server(0.0)
        async with server:
            return await loadgen.closed_loop(
                "127.0.0.1", port, "/", lambda i: loadgen.Request(0, b"{}"),
                count=5, conns=2)

    results = asyncio.run(scenario())
    assert len(results) == 5 and all(r.status == 200 for r in results)


# -- failure accounting -------------------------------------------------------

def _served(job, status, payload, source="cache"):
    body = json.dumps({"key": job.key, "source": source,
                       "payload": payload}).encode()
    req = loadgen.Request(0.0, b"", workloads.Tag("hit", job))
    return loadgen.Result(req, 0.0, status=status, body=body)


def test_error_ratio_counts_refusals_and_wrong_payloads(tmp_path):
    from repro.runner import JobSpec

    job = JobSpec("fig4#x", "fig4", "point", {"p": 16})
    good = {"exec_time": 1.0}
    want = verify.digest(good)
    ctx = workloads.Context(seed=0, seconds=1, trace=False,
                            work=str(tmp_path))
    for res in (_served(job, 200, good), _served(job, 429, None),
                _served(job, 504, None), _served(job, 200, {"exec_time": 2}),
                _served(job, 503, None), _served(job, 200, good)):
        workloads._check_response(ctx, res, want)
    tally = ctx.tally
    assert (tally.attempted, tally.failed) == (6, 4)
    assert tally.error_ratio == pytest.approx(4 / 6)
    assert tally.reasons == {"refused 429": 1, "refused 504": 1,
                             "refused 503": 1, "wrong payload": 1}


def test_response_for_another_key_is_wrong():
    from repro.runner import JobSpec

    asked = JobSpec("fig4#x", "fig4", "point", {"p": 16})
    answered = JobSpec("fig4#y", "fig4", "point", {"p": 64})
    res = _served(answered, 200, {})
    res.request = loadgen.Request(0.0, b"", workloads.Tag("hit", asked))
    ctx = workloads.Context(0, 1, False, "")
    workloads._check_response(ctx, res, verify.digest({}))
    assert ctx.tally.reasons == {"wrong payload": 1}


def test_classify_response():
    assert classify_response(200, True) == ""
    assert classify_response(None, True) == "no response"
    assert classify_response(500, True) == "status 500"
    assert classify_response(200, False) == "wrong payload"
    tally = Tally()
    assert tally.error_ratio == 0.0


# -- workload inputs ----------------------------------------------------------

def test_schedules_depend_only_on_the_seed():
    points = workloads.warm_points()
    assert len(points) == 68
    a = workloads.hot_schedule("5", points, 10.0)
    b = workloads.hot_schedule("5", points, 10.0)
    c = workloads.hot_schedule("6", points, 10.0)
    assert [r.body for r in a] == [r.body for r in b]
    assert [r.body for r in a] != [r.body for r in c]
    assert len(a) == int(workloads.HOT_RATE * 10.0)
    warmed = {p.key for p in points}
    assert all(r.tag.kind == "hit" and r.tag.job.key in warmed for r in a)


def test_fig4_cached_fraction_near_one_fails():
    """Pins a program defect: Figure-4 points with a cached fraction
    just below 1.0 fail in ``run_scf30``.  When this test starts
    failing the defect is fixed."""
    from repro.runner import execute_job

    config = {"n_io": 16, "p": 64, "cached_fraction": 0.996,
              "measured_read_iters": 1}
    with pytest.raises(ValueError, match="flops must be non-negative"):
        execute_job("fig4", "point", config)


# -- simulator profile --------------------------------------------------------

def test_package_of_buckets_paths():
    assert simprofile.package_of("/x/src/repro/sim/core.py") == "sim"
    assert simprofile.package_of("/x/src/repro/faults.py") == "faults"
    assert simprofile.package_of("/x/src/repro/runner/jobs.py") == "other"
    assert simprofile.package_of("/usr/lib/python3/heapq.py") == "stdlib"


def test_call_counts_repeat_and_hooks_come_off():
    from repro.runner import SWEEPS, JobSpec
    from repro.sim.core import Environment

    point = SWEEPS["fig4"].points(True)[0]
    job = JobSpec("fig4#000", "fig4", "point", point)
    _, first, ((_, payload),) = simprofile.profile_jobs([job])
    _, second, _ = simprofile.profile_jobs([job])
    assert first == second and first["sim.processes"] > 0
    assert set(first) == set(layers.COUNTED)
    assert verify.digest(payload) == verify.reference_digests()["fig4#000"]
    assert not hasattr(Environment.timeout, "__wrapped__")
    assert Environment.__dict__["timeout"].__name__ == "timeout"


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    import re

    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in spec["end_to_end"]:
        assert name.match(m["name"]) and 0 < m["bound"] <= 0.25
    assert all(name.match(m["name"]) for m in spec["per_layer"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
