"""The benchmark's two workloads and the metrics they report.

- ``quick-suite``: every registered experiment at quick scale through
  the runner on 2 workers into an empty store (one closed-loop batch).
- ``serve-hot``: an unmodified ``repro serve -j 2``, its store warmed
  over HTTP, under an open loop of cache hits at 200 req/s.

Every workload reports every end-to-end metric; see README.md for how
each is defined per workload and why the workloads were chosen.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import loadgen
import simprofile
import verify
from loadgen import Request, Result
from server_proc import ServerProc
from spans import Span, durations, load_spans, self_times
from stats import Tally, classify_response, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end and per-layer metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("p50_ms", "ms"), ("miss_p50_ms", "ms"),
    ("success_ratio", "ratio"),
)
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{b}.self_s", "s") for b in simprofile.BUCKETS) + (
    ("sim.timeouts", "count"), ("sim.processes", "count"),
    ("pfs.extent_reads", "count"), ("pfs.extent_writes", "count"),
    ("machine.fabric_transfers", "count"), ("machine.disk_serves", "count"),
    ("iolib.preads", "count"), ("iolib.pwrites", "count"),
    ("mp.collectives", "count"),
    ("runner.executor.overhead_ms", "ms"), ("runner.executor.idle_s", "s"),
    ("runner.executor.retries", "count"),
    ("runner.jobs.job_s_sum", "s"), ("runner.jobs.job_s_max", "s"),
    ("runner.store.get_ms", "ms"), ("runner.store.gets", "count"),
    ("runner.store.put_ms", "ms"), ("runner.store.puts", "count"),
    ("runner.store.hit_ratio", "ratio"),
    ("serve.server.self_ms", "ms"), ("serve.admission.wait_p99_ms", "ms"),
    ("serve.admission.rejected", "count"), ("serve.engine.submit_ms", "ms"),
    ("serve.engine.queue_wait_ms", "ms"), ("serve.engine.hit_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"), ("trace.overhead_ratio", "ratio"),
)

WORKERS = 2
CHILD_TIMEOUT_S = 170.0


@dataclass
class Context:
    seed: int
    seconds: int
    trace: bool
    work: str
    tally: Tally = field(default_factory=Tally)
    notes: List[str] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def note(self, text: str) -> None:
        self.notes.append(text)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _p(values: Sequence[float], q: float) -> float:
    p = percentile(values, q)
    return p.value if p.n else 0.0


def _ms(results: Sequence[Result]) -> List[float]:
    return [r.latency_s * 1e3 for r in results]


# -- quick-suite ------------------------------------------------------------

QUICK_SETUPS = 4


def _spawn_batch(ctx: Context, tag: str, *extra: str) -> Tuple[
        subprocess.Popen, float, str]:
    """Start a quick_batch child; returns (proc, set-up seconds, out path)."""
    store, out = ctx.path(f"store-{tag}"), ctx.path(f"batch-{tag}.json")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "quick_batch.py"),
         "--store", store, "--out", out, *extra],
        env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"quick batch child failed to start: {line!r}")
    return proc, setup, out


def _finish(proc: subprocess.Popen, line: str = "") -> None:
    """Send ``line`` to a ready child, close its pipes and wait for it."""
    try:
        proc.communicate(line, timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _finish_batch(proc: subprocess.Popen, out: str) -> dict:
    _finish(proc, "go\n")
    if proc.returncode != 0:
        raise RuntimeError(f"quick batch child exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _quick_batch(ctx: Context, tag: str, trace: bool = False
                 ) -> Tuple[dict, List[float]]:
    setups = []
    for i in range(QUICK_SETUPS - 1):
        proc, setup, _ = _spawn_batch(ctx, f"{tag}-s{i}", "--setup-only")
        _finish(proc)
        setups.append(setup)
    proc, setup, out = _spawn_batch(ctx, tag,
                                    *(["--trace"] if trace else []))
    setups.append(setup)
    return _finish_batch(proc, out), setups


def _check_batch(ctx: Context, batch: dict) -> None:
    ref = verify.reference_digests()
    for o in batch["outcomes"]:
        ok = o["status"] == "ok" and o["digest"] == ref.get(o["job_id"])
        if not ctx.tally.record(ok, "job failed or wrong payload"):
            ctx.note(f"quick job {o['job_id']}: {o['status']}, digest "
                     f"{'matches' if ok else 'differs'}")
    for exp, checks in batch["checks"].items():
        for name, passed in checks.items():
            if not ctx.tally.record(passed, "paper check failed"):
                ctx.note(f"paper check failed: {exp}: {name}")
    for exp, err in batch["errors"].items():
        ctx.tally.record(False, "experiment failed")
        ctx.note(f"experiment {exp} failed: {err}")


def quick_suite(ctx: Context) -> Dict[str, float]:
    batch, setups = _quick_batch(ctx, "main")
    _check_batch(ctx, batch)
    if not ctx.trace:
        done_ms = [o["done_s"] * 1e3 for o in batch["outcomes"]]
        computed_ms = [o["done_s"] * 1e3 for o in batch["outcomes"]
                       if not o["cached"]]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": batch["wall_s"],
            "cpu_s": batch["cpu_s"],
            "peak_rss_mb": batch["peak_rss_mb"],
            "p50_ms": _p(done_ms, 50),
            "miss_p50_ms": _p(computed_ms, 50),
        }
    traced, _ = _quick_batch(ctx, "traced", trace=True)
    _check_batch(ctx, traced)
    from repro.experiments import registry
    from repro.runner import decompose_many
    profile = _profile(ctx, decompose_many(registry.experiment_ids(),
                                           quick=True))
    reference = verify.load_json(verify.COUNTS_PATH)["counts"]
    for name, count in profile[1].items():
        if count != reference[name]:
            ctx.note(f"call count {name} = {count}, reference "
                     f"{reference[name]}")
    spans = [Span(**s) for s in traced["spans"]]
    elapsed = [o["elapsed_s"] for o in traced["outcomes"] if not o["cached"]]
    layer = layer_metrics(spans, profile=profile)
    layer.update({
        "runner.executor.retries": sum(o["attempts"]
                                       for o in traced["outcomes"]),
        "runner.jobs.job_s_sum": sum(elapsed),
        "runner.jobs.job_s_max": max(elapsed, default=0.0),
        "trace.overhead_ratio": traced["wall_s"] / batch["wall_s"],
    })
    return layer


def _profile(ctx: Context, jobs) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Serial in-process simulator profile of ``jobs``; checks payloads
    against the reference where one exists."""
    self_s, counts, payloads = simprofile.profile_jobs(jobs)
    ref = verify.reference_digests()
    for job, payload in payloads:
        if job.job_id in ref:
            ctx.tally.record(verify.digest(payload) == ref[job.job_id],
                             "profiled payload wrong")
    return self_s, counts


# -- serving workload ---------------------------------------------------------

HOT_RATE = 200.0
POINTS_PATH = "/v1/points"


@dataclass(frozen=True)
class Tag:
    kind: str                   # warm | hit
    job: object                 # JobSpec


def _body(job) -> bytes:
    return json.dumps({"exp_id": job.exp_id, "kind": job.kind,
                       "config": dict(job.config)}).encode("utf-8")


def warm_points() -> list:
    """The 68 quick sweep points, in decomposition order."""
    from repro.experiments import registry
    from repro.runner import KIND_POINT, decompose_many

    return [j for j in decompose_many(registry.experiment_ids(), quick=True)
            if j.kind == KIND_POINT]


def hot_schedule(seed: str, points: list, seconds: float) -> List[Request]:
    rng = random.Random(f"serve-hot/{seed}")
    n = int(HOT_RATE * seconds)
    return [Request(i / HOT_RATE, _body(job), Tag("hit", job))
            for i in range(n) for job in (rng.choice(points),)]


def _start_server(ctx: Context, store: str, name: str,
                  spans_out: Optional[str] = None) -> ServerProc:
    serve_args = ["-j", str(WORKERS), "--host", "127.0.0.1", "--port", "0",
                  "--cache-dir", store]
    if spans_out is None:
        argv = [sys.executable, "-m", "repro", "serve", *serve_args]
    else:
        argv = [sys.executable, os.path.join(HERE, "traced_server.py"),
                spans_out, *serve_args]
    server = ServerProc(argv, child_env(), ctx.path(f"{name}.log"))
    server.wait_listening()
    return server


@dataclass
class Window:
    """Responses and server-side figures of one measured window."""

    open: List[Result]
    cpu_s: float
    peak_rss_mb: float
    metrics: dict
    steal: loadgen.StealMeter


def _window(server: ServerProc, schedule: List[Request],
            want_metrics: bool) -> Window:
    steal = loadgen.StealMeter()

    async def drive():
        sampler = asyncio.create_task(steal.run())
        try:
            opened = await loadgen.open_loop(server.host, server.port,
                                             POINTS_PATH, schedule)
        finally:
            sampler.cancel()
            steal.sample()
        metrics = {}
        if want_metrics:
            status, body = await loadgen.http_exchange(
                server.host, server.port,
                b"GET /metrics?format=json HTTP/1.1\r\nHost: localhost\r\n"
                b"Connection: close\r\n\r\n")
            metrics = json.loads(body) if status == 200 else {}
        return opened, metrics

    cpu0 = server.cpu_s()
    # The generator's own collector pauses would show up as server
    # latency: collect now and keep it off for the window.
    gc.collect()
    gc.disable()
    try:
        opened, metrics = asyncio.run(drive())
    finally:
        gc.enable()
    cpu = server.cpu_s() - cpu0
    return Window(opened, cpu, server.peak_rss_mb(), metrics, steal)


def _decode(res: Result) -> Optional[dict]:
    try:
        return json.loads(res.body)
    except ValueError:
        return None


def _check_response(ctx: Context, res: Result, expected: str) -> None:
    """Record one served request: it must answer 200 with its own job
    key and a payload whose digest is ``expected``."""
    doc = _decode(res) if res.status == 200 else None
    job = res.request.tag.job
    ok = doc is not None and doc.get("key") == job.key \
        and verify.digest(doc.get("payload")) == expected
    reason = classify_response(res.status, ok)
    if not ctx.tally.record(not reason, reason):
        ctx.note(f"{res.request.tag.kind} {job.job_id}: {reason}"
                 + (f" ({res.error})" if res.error else ""))


def _check_responses(ctx: Context, results: Sequence[Result]) -> None:
    """Every warmed point and every hit must equal its reference digest."""
    ref = verify.reference_digests()
    for res in results:
        _check_response(ctx, res, ref[res.request.tag.job.job_id])


def _setup_server(ctx: Context, points: list, name: str,
                  spans_out: Optional[str] = None
                  ) -> Tuple[ServerProc, float, List[Result]]:
    """Start the CLI server on an empty store and warm it with the quick
    sweep points over HTTP; returns (server, set-up seconds, warm
    responses).

    The warm-up is a closed loop of ``POST /v1/points`` on 2
    connections, so every warm request is a served miss: a fresh
    worker pool, a simulation and a ``ResultStore.put`` each.
    """
    t0 = time.perf_counter()
    server = _start_server(ctx, ctx.path(f"store-{name}"), name, spans_out)
    try:
        warm = asyncio.run(loadgen.closed_loop(
            server.host, server.port, POINTS_PATH,
            lambda i: Request(0.0, _body(points[i]), Tag("warm", points[i])),
            count=len(points), conns=WORKERS))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, warm


def _sliced(results: Sequence[Result], q: float, steal_share=None) -> float:
    """Median, over the window's valid slices, of each slice's ``q``-th
    percentile latency in ms (see ``loadgen.valid_slices``)."""
    good, _ = loadgen.valid_slices(results, steal_share)
    return statistics.median(_p(_ms(s), q) for s in good)


def _served_run(ctx: Context, points: list, schedule: List[Request],
                name: str, spans_out: Optional[str] = None
                ) -> Tuple[float, List[Result], Window]:
    """Set up a server, measure one window on it and check every
    response; returns (set-up seconds, warm responses, window)."""
    server, setup, warm = _setup_server(ctx, points, name, spans_out)
    try:
        win = _window(server, schedule, spans_out is not None)
    finally:
        server.stop()
    _check_responses(ctx, warm)
    _check_responses(ctx, win.open)
    return setup, warm, win


def serve_hot(ctx: Context) -> Dict[str, float]:
    points = warm_points()
    schedule = hot_schedule(str(ctx.seed), points, ctx.seconds)
    setup, warm, win = _served_run(ctx, points, schedule, "server")
    p50 = _sliced(win.open, 50, win.steal.share)
    if not ctx.trace:
        open_ms, warm_ms = _ms(win.open), _ms(warm)
        valid, total = loadgen.valid_slices(win.open, win.steal.share)
        ctx.note(f"open loop: {percentile(open_ms, 50)}, "
                 f"{percentile(open_ms, 90)}, {percentile(open_ms, 99)}; "
                 f"{len(valid)} of {total} slices valid; warm (served "
                 f"misses): {percentile(warm_ms, 50)}, "
                 f"{percentile(warm_ms, 90)}; generator late p99 "
                 f"{loadgen.late_p99_ms(win.open):.2f} ms; steal "
                 f"{win.steal.share(win.open[0].due, win.open[-1].done):.3f}")
        return {
            "setup_s": setup,
            "wall_s": (max(r.done for r in win.open)
                       - min(r.due for r in win.open)),
            "cpu_s": win.cpu_s,
            "peak_rss_mb": win.peak_rss_mb,
            "p50_ms": p50,
            "miss_p50_ms": _p(warm_ms, 50),
        }

    # The traced server is warmed and measured like the untraced one, so
    # its spans cover the miss path (warm-up) and the hit path (window).
    spans_path = ctx.path("spans.json")
    _, _, traced = _served_run(ctx, points, schedule, "traced",
                               spans_out=spans_path)
    spans = load_spans(spans_path)
    layer = layer_metrics(spans, serve_metrics=traced.metrics)
    runs = [s for s in spans if s.name == "runner.executor.run"]
    elapsed = [e for s in runs for e in s.attrs["elapsed"]]
    layer.update({
        "runner.executor.retries": sum(s.attrs["attempts"] for s in runs),
        "runner.jobs.job_s_sum": sum(elapsed),
        "runner.jobs.job_s_max": max(elapsed, default=0.0),
        "loadgen.late_p99_ms": loadgen.late_p99_ms(traced.open),
        "trace.overhead_ratio": (_sliced(traced.open, 50,
                                         traced.steal.share) / p50),
    })
    return layer


WORKLOADS = {
    "quick-suite": quick_suite,
    "serve-hot": serve_hot,
}


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(spans: Sequence[Span], profile=None,
                  serve_metrics: Optional[dict] = None) -> Dict[str, float]:
    """Every per-layer metric a traced run can derive from its spans,
    the simulator profile and the server's ``/metrics`` counters.

    A layer the workload does not exercise reports 0 (no calls, no
    time).  Timings are medians unless the name says otherwise.
    """
    out = {name: 0.0 for name, _ in PER_LAYER}
    if profile is not None:
        self_s, counts = profile
        out.update({f"{b}.self_s": v for b, v in self_s.items()})
        out.update(counts)

    runs = [s for s in spans if s.name == "runner.executor.run"]
    overheads, idle = [], 0.0
    for s in runs:
        wall, busy = s.end - s.start, sum(s.attrs["elapsed"])
        workers = max(1, s.attrs["workers"])
        overheads.append((wall - busy / workers) * 1e3)
        idle += workers * wall - busy
    out["runner.executor.overhead_ms"] = _p(overheads, 50)
    out["runner.executor.idle_s"] = idle

    gets = [s for s in spans if s.name == "runner.store.get"]
    out["runner.store.gets"] = len(gets)
    out["runner.store.get_ms"] = _p([(s.end - s.start) * 1e3 for s in gets],
                                    50)
    out["runner.store.hit_ratio"] = (
        sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0)
    puts = durations(spans, "runner.store.put")
    out["runner.store.puts"] = len(puts)
    out["runner.store.put_ms"] = _p([d * 1e3 for d in puts], 50)

    out["serve.server.self_ms"] = _p(
        [t * 1e3 for t in self_times(spans, "serve.request")], 50)
    out["serve.admission.wait_p99_ms"] = _p(
        [d * 1e3 for d in durations(spans, "serve.admission.acquire")], 99)
    out["serve.engine.submit_ms"] = _p(
        [d * 1e3 for d in durations(spans, "serve.engine.submit")], 50)
    run_start = {s.rid: s.start for s in runs}
    out["serve.engine.queue_wait_ms"] = _p(
        [(run_start[s.attrs["key"]] - s.start) * 1e3 for s in spans
         if s.name == "serve.engine.submit"
         and s.attrs.get("source") == "queued"
         and s.attrs["key"] in run_start], 50)
    if serve_metrics:
        m = serve_metrics
        hits = m.get("serve_cache_hits_total", 0)
        asked = hits + m.get("serve_cache_misses_total", 0) \
            + m.get("serve_coalesced_total", 0)
        out["serve.engine.hit_ratio"] = hits / asked if asked else 0.0
        out["serve.admission.rejected"] = m.get("serve_rejected_total", 0)
    return out
