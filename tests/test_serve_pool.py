"""Serving on the executor's long-lived worker pool.

- A served miss must reach EOF as soon as its response is written, even
  while a slower miss runs in another pool worker: workers must not
  keep copies of the server's client connections open.
- ``-j N`` means N simulations at once, for ``repro warm`` (and
  ``repro serve``, which sizes its pool the same way).
"""

import json
import multiprocessing as mp
import os
import socket
import time

import pytest

from repro.cli import main
from repro.experiments import ExperimentResult, registry
from repro.runner import PoolExecutor
from repro.runner import jobs as jobs_mod
from repro.runner.jobs import SweepSpec
from repro.serve import ServeApp, ServeEngine, ServerThread


def _fake(exp_id, body=None):
    def fn(quick=False):
        if body is not None:
            body()
        res = ExperimentResult(exp_id, "t", "ref")
        res.add_check("ok", True)
        return res
    return fn


def _post(port, exp_id):
    body = json.dumps({"exp_id": exp_id, "kind": "experiment",
                       "config": {"quick": True}}).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(b"POST /v1/points HTTP/1.1\r\nHost: localhost\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: " + str(len(body)).encode()
                 + b"\r\nConnection: close\r\n\r\n" + body)
    return sock


def _read_to_eof(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    sock.close()
    return b"".join(chunks)


def _worker_sockets():
    """pid -> socket fds held by each live child process."""
    held = {}
    for proc in mp.active_children():
        fd_dir = f"/proc/{proc.pid}/fd"
        try:
            names = os.listdir(fd_dir)
        except OSError:
            continue  # exited meanwhile
        socks = []
        for name in names:
            try:
                target = os.readlink(os.path.join(fd_dir, name))
            except OSError:
                continue
            if target.startswith("socket:"):
                socks.append(name)
        held[proc.pid] = socks
    return held


def test_fast_miss_reaches_eof_while_a_slow_miss_runs(monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/<pid>/fd")
    slow_s = 2.0
    monkeypatch.setitem(registry.EXPERIMENTS, "zz_fast",
                        _fake("zz_fast", lambda: time.sleep(0.3)))
    monkeypatch.setitem(registry.EXPERIMENTS, "zz_slow",
                        _fake("zz_slow", lambda: time.sleep(slow_s)))
    executor = PoolExecutor(jobs=2)
    engine = ServeEngine(store=None, executor=executor, dispatchers=2)
    try:
        with ServerThread(ServeApp(engine=engine,
                                   request_timeout_s=30.0)) as srv:
            t0 = time.monotonic()
            fast = _post(srv.port, "zz_fast")
            time.sleep(0.1)          # the fast miss is executing
            slow = _post(srv.port, "zz_slow")
            fast_reply = _read_to_eof(fast)
            fast_eof = time.monotonic() - t0
            held = _worker_sockets()  # the slow job is still running
            slow_reply = _read_to_eof(slow)
            slow_eof = time.monotonic() - t0
    finally:
        executor.close()
    assert fast_reply.startswith(b"HTTP/1.1 200")
    assert slow_reply.startswith(b"HTTP/1.1 200")
    assert slow_eof >= 0.1 + slow_s
    # The fast reply is complete at ~0.3 s; a worker holding its
    # connection would delay EOF until the slow job ends (~2.1 s).
    assert fast_eof < 1.2, f"fast miss hit EOF only at {fast_eof:.2f}s"
    assert len(held) == 2
    assert all(socks == [] for socks in held.values()), held


def test_warm_jobs_flag_runs_that_many_simulations_at_once(monkeypatch,
                                                           tmp_path):
    """``repro warm -j 3`` overlaps three slow sweep points (a pool
    capped at 2 would start the third only after another one ended)."""
    spans = tmp_path / "spans"
    spans.mkdir()

    def points(quick):
        return [{"i": i} for i in range(3)]

    def run_point(point):
        start = time.time()
        time.sleep(1.0)
        (spans / str(point["i"])).write_text(f"{start} {time.time()}")
        return dict(point)

    def assemble(payloads, quick):
        res = ExperimentResult("zz_o", "toy", "ref")
        res.rows = list(payloads)
        return res

    monkeypatch.setitem(registry.EXPERIMENTS, "zz_o",
                        lambda quick=False: assemble([], quick))
    monkeypatch.setitem(jobs_mod.SWEEPS, "zz_o",
                        SweepSpec(points, run_point, assemble))
    code = main(["warm", "zz_o", "-j", "3",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    windows = [tuple(map(float, path.read_text().split()))
               for path in spans.iterdir()]
    assert len(windows) == 3
    assert max(start for start, _ in windows) \
        < min(end for _, end in windows)
    assert mp.active_children() == []
