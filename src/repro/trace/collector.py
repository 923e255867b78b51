"""Trace collection and aggregation."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.trace.events import IOOp, TraceRecord

__all__ = ["TraceCollector", "OpAggregate"]

#: When not None, every :meth:`TraceCollector.record` call — across *all*
#: collectors in the process — also appends a canonical
#: ``(op, rank, start, duration, nbytes, file)`` tuple here.  Installed
#: temporarily by :mod:`repro.sim.diff` to capture the full I/O event
#: stream of a run for kernel-vs-kernel comparison; ``None`` (the
#: default) keeps the hot path a single global load + ``is`` test.
_CAPTURE: Optional[List[tuple]] = None


@dataclass
class OpAggregate:
    """Aggregate over one operation class."""

    count: int = 0
    time: float = 0.0
    nbytes: int = 0

    def add(self, record: TraceRecord) -> None:
        self.count += 1
        self.time += record.duration
        self.nbytes += record.nbytes


class TraceCollector:
    """Application-level I/O trace, in the spirit of the Pablo library.

    The paper's Tables 2 and 3 are per-operation aggregates of such a
    trace.  Aggregates are maintained incrementally so huge runs don't
    need to retain every record; set ``keep_records=True`` to also keep
    the full event list (tests and small studies).
    """

    def __init__(self, keep_records: bool = False):
        self.keep_records = keep_records
        self.records: List[TraceRecord] = []
        self._agg: Dict[IOOp, OpAggregate] = defaultdict(OpAggregate)
        self._per_rank_io_time: Dict[int, float] = defaultdict(float)

    def record(self, op: IOOp, rank: int, start: float, duration: float,
               nbytes: int = 0,
               file: Optional[str] = None) -> Optional[TraceRecord]:
        """Add one operation; returns the record only when keeping records.

        Aggregates are updated in place without materializing a
        :class:`TraceRecord` — record() runs once per simulated I/O call,
        millions of times per sweep.
        """
        agg = self._agg[op]
        agg.count += 1
        agg.time += duration
        agg.nbytes += nbytes
        self._per_rank_io_time[rank] += duration
        if _CAPTURE is not None:
            _CAPTURE.append((op.value, rank, start, duration, nbytes, file))
        if self.keep_records:
            rec = TraceRecord(op, rank, start, duration, nbytes, file)
            self.records.append(rec)
            return rec
        return None

    # -- aggregate views ---------------------------------------------------------
    def aggregate(self, op: IOOp) -> OpAggregate:
        return self._agg[op]

    def ops_seen(self) -> List[IOOp]:
        return [op for op in IOOp if self._agg[op].count > 0]

    @property
    def total_count(self) -> int:
        return sum(a.count for a in self._agg.values())

    @property
    def total_time(self) -> float:
        """Sum of per-operation durations over all ranks."""
        return sum(a.time for a in self._agg.values())

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self._agg.values())

    def io_time_of_rank(self, rank: int) -> float:
        return self._per_rank_io_time[rank]

    def max_rank_io_time(self) -> float:
        """Largest per-rank I/O time (the wall-clock-relevant figure)."""
        return max(self._per_rank_io_time.values(), default=0.0)

    def bandwidth(self, wall_time: float) -> float:
        """Aggregate bytes moved / wall time (bytes per second)."""
        if wall_time <= 0:
            return 0.0
        return self.total_bytes / wall_time

    def merge(self, other: "TraceCollector") -> None:
        """Fold another collector's aggregates into this one."""
        for op, agg in other._agg.items():
            mine = self._agg[op]
            mine.count += agg.count
            mine.time += agg.time
            mine.nbytes += agg.nbytes
        for rank, t in other._per_rank_io_time.items():
            self._per_rank_io_time[rank] += t
        if self.keep_records and other.keep_records:
            self.records.extend(other.records)

    # -- persistence -------------------------------------------------------------
    def to_dict(self) -> dict:
        """The aggregates as JSON-able lists, in insertion order.

        Raises :class:`ValueError` for a collector that keeps records:
        those are not stored, so the round trip would lose them.
        """
        if self.keep_records:
            raise ValueError("a trace that keeps its records is not stored")
        return {"ops": [[op.value, agg.count, agg.time, agg.nbytes]
                        for op, agg in self._agg.items()],
                "ranks": [[rank, t]
                          for rank, t in self._per_rank_io_time.items()]}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceCollector":
        """Inverse of :meth:`to_dict`."""
        trace = cls()
        for name, count, time, nbytes in data["ops"]:
            trace._agg[IOOp(name)] = OpAggregate(count, time, nbytes)
        for rank, t in data["ranks"]:
            trace._per_rank_io_time[rank] = t
        return trace

    def reset(self) -> None:
        self.records.clear()
        self._agg.clear()
        self._per_rank_io_time.clear()
