"""Open- and closed-loop HTTP load generator (one process, asyncio).

The server answers one request per connection (``Connection: close``),
so every request opens its own connection; at most ``max_conns`` are
open at once.

Open loop: request ``i`` is *due* at ``start + due_s[i]`` whatever the
server is doing.  Its latency is measured from that due time, so a
stall also charges the wait it imposes on the requests queued behind
it (no coordinated omission).  Separately the generator records how
late it itself woke up for each due time; where that lateness is large
the generator (or the host) set the pace, not the server, and that part
of the window is invalid (see ``valid_slices``).
"""

from __future__ import annotations

import asyncio
import bisect
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from stats import percentile

#: Per-request deadline; a server that takes longer has failed.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One scheduled request: due offset from the loop start, and body."""

    due_s: float
    body: bytes
    tag: object = None          # caller's bookkeeping (kind, expected key)


@dataclass
class Result:
    """What happened to one request.  Times are ``time.perf_counter``."""

    request: Request
    due: float
    sent: float = 0.0           # when a connection slot was free
    done: float = 0.0
    late: float = 0.0           # generator wake-up minus due time
    status: Optional[int] = None
    body: bytes = b""
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.done - self.due


def encode_post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1") + body


async def http_exchange(host: str, port: int, raw: bytes) -> tuple:
    """Send one raw HTTP request; return ``(status, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split(b" ")
    if len(status_line) < 2 or not status_line[1].isdigit():
        raise ConnectionError(f"malformed response {head[:80]!r}")
    return int(status_line[1]), body


async def _perform(host: str, port: int, path: str, res: Result) -> None:
    try:
        res.sent = time.perf_counter()
        res.status, res.body = await asyncio.wait_for(
            http_exchange(host, port, encode_post(path, res.request.body)),
            REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError) as exc:
        res.error = repr(exc)
    finally:
        res.done = time.perf_counter()


async def open_loop(host: str, port: int, path: str,
                    requests: Sequence[Request],
                    max_conns: int = 2) -> List[Result]:
    """Send ``requests`` on their schedule; results in schedule order.

    A request due while every connection is busy waits, in due order,
    for the next free one; that wait counts in its latency but not in
    the generator's lateness, which only measures how late the
    scheduler itself woke up.
    """
    start = time.perf_counter() + 0.05
    results: List[Result] = []
    waiting: Deque[Result] = deque()
    tasks: List[asyncio.Task] = []
    active = 0

    def pump() -> None:
        nonlocal active
        while waiting and active < max_conns:
            active += 1
            tasks.append(asyncio.create_task(send(waiting.popleft())))

    async def send(res: Result) -> None:
        nonlocal active
        try:
            await _perform(host, port, path, res)
        finally:
            active -= 1
            pump()

    for req in sorted(requests, key=lambda r: r.due_s):
        due = start + req.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        res = Result(req, due, late=max(0.0, time.perf_counter() - due))
        results.append(res)
        waiting.append(res)
        pump()
    while tasks:
        await tasks.pop(0)
    return results


async def closed_loop(host: str, port: int, path: str,
                      make_request: Callable[[int], Request], count: int,
                      conns: int = 2) -> List[Result]:
    """``conns`` clients each send their next request when the last ends,
    ``count`` requests in all; a request's due time is when it was sent."""
    results: List[Result] = []

    async def client() -> None:
        while len(results) < count:
            res = Result(make_request(len(results)), time.perf_counter())
            results.append(res)
            await _perform(host, port, path, res)

    await asyncio.gather(*(client() for _ in range(conns)))
    return results


def late_p99_ms(results: Sequence[Result]) -> float:
    p = percentile([r.late * 1e3 for r in results], 99)
    return p.value if p.n else 0.0


#: Width of the slices an open-loop window is cut into, by due time.
SLICE_S = 1.0
#: A slice is valid when the hypervisor took at most this share of the
#: host's CPU time ("steal" in /proc/stat) and the generator woke up at
#: most ``LATE_LIMIT_MS`` late at p99.  On the 2-CPU virtual machine the
#: benchmark was defined on, 1 s slices of a 200 req/s loop with steal
#: up to 0.02 ran 1.2-1.6 ms late at p99 with a server p90 of 3.6-4.1
#: ms; at steal 0.05-0.25 they ran 3-25 ms late and the p90 rose to
#: 5-28 ms.
STEAL_LIMIT = 0.02
LATE_LIMIT_MS = 2.0
#: At least this share of a window's slices is kept: when fewer are
#: valid, the least disturbed ones make up the share.
MIN_VALID_SHARE = 0.25


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs since boot, from
    /proc/stat; ``(0, 0)`` where the file does not exist."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(f) for f in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class StealMeter:
    """Samples ``cpu_ticks`` while a window runs, so each slice can be
    told the share of CPU time the hypervisor gave to other guests."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.samples: List[Tuple[float, int, int]] = []

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), *cpu_ticks()))

    async def run(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(self.period_s)

    def share(self, t0: float, t1: float) -> float:
        """Steal share between the last sample before ``t0`` and the
        first after ``t1`` (0 when there are not two samples)."""
        times = [t for t, _, _ in self.samples]
        i = max(0, bisect.bisect_right(times, t0) - 1)
        j = min(len(times) - 1, bisect.bisect_left(times, t1))
        if j <= i:
            return 0.0
        (_, s0, n0), (_, s1, n1) = self.samples[i], self.samples[j]
        return (s1 - s0) / (n1 - n0) if n1 > n0 else 0.0


def slices(results: Sequence[Result], width_s: float = SLICE_S
           ) -> List[Tuple[float, float, List[Result]]]:
    """``results`` cut into consecutive slices of ``width_s`` by due time,
    as ``(start, end, results)`` (empty slices omitted)."""
    if not results:
        return []
    start = min(r.due for r in results)
    cut: Dict[int, List[Result]] = {}
    for r in results:
        cut.setdefault(int((r.due - start) // width_s), []).append(r)
    return [(start + k * width_s, start + (k + 1) * width_s, cut[k])
            for k in sorted(cut)]


def valid_slices(results: Sequence[Result],
                 steal_share: Optional[Callable[[float, float], float]]
                 = None, width_s: float = SLICE_S
                 ) -> Tuple[List[List[Result]], int]:
    """The slices in which neither the hypervisor nor the generator
    disturbed the measurement, and the number of slices in all.

    ``steal_share(start, end)`` gives the steal share of a slice (taken
    as 0 when not given).  A slice over ``STEAL_LIMIT`` or
    ``LATE_LIMIT_MS`` measured the host's scheduling, not the server.
    When fewer than ``MIN_VALID_SHARE`` of the slices are valid, that
    share is made up of the slices with the least steal, then the least
    lateness.
    """
    every = slices(results, width_s)
    scored = [((steal_share(t0, t1) if steal_share else 0.0),
               late_p99_ms(rs), rs) for t0, t1, rs in every]
    good = [rs for steal, late, rs in scored
            if steal <= STEAL_LIMIT and late <= LATE_LIMIT_MS]
    keep = math.ceil(MIN_VALID_SHARE * len(every))
    if len(good) < keep:
        scored.sort(key=lambda x: (x[0], x[1]))
        good = [rs for _, _, rs in scored[:keep]]
    return good, len(every)
