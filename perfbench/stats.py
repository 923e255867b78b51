"""Small statistics helpers shared by the benchmark and its tests.

Everything here is pure Python with no dependency on the program under
test, so the harness arithmetic can be checked on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Percentile:
    """A percentile together with the sample it was taken from."""

    q: float                # 0..100
    value: float            # nan when the sample is empty
    n: int                  # sample count
    beyond: int             # samples ranked above the percentile

    def __str__(self) -> str:
        return f"p{self.q:g}={self.value:.3f} (n={self.n}, {self.beyond} beyond)"


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile by linear interpolation between ranks.

    Matches ``numpy.percentile(..., method="linear")``.  ``beyond`` is
    the number of samples ranked above the percentile's position, so a
    caller can tell whether a tail percentile rests on enough samples
    (at least ten beyond it is the usual rule).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    data = sorted(values)
    n = len(data)
    if n == 0:
        return Percentile(q, math.nan, 0, 0)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = data[lo] + (data[hi] - data[lo]) * (pos - lo)
    return Percentile(q, value, n, n - 1 - lo)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent awaits) or stick out of
    the parent (a child finishing after the parent returned); only the
    covered part inside ``[start, end]`` is subtracted.
    """
    clipped: List[Tuple[float, float]] = []
    for c_start, c_end in children:
        lo, hi = max(start, c_start), min(end, c_end)
        if hi > lo:
            clipped.append((lo, hi))
    return (end - start) - union_length(clipped)


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return ok

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def classify_response(status: Optional[int], payload_ok: bool) -> str:
    """Failure reason for one served request, or ``""`` when it is good.

    Refusals (429 saturated, 503 draining, 504 timeout), any other
    non-200 status, a dropped connection (``status is None``) and a
    wrong payload all count as failures.
    """
    if status is None:
        return "no response"
    if status in (429, 503, 504):
        return f"refused {status}"
    if status != 200:
        return f"status {status}"
    if not payload_ok:
        return "wrong payload"
    return ""
