"""Common scaffolding for the five applications.

Each application is a *workload model*: a per-rank generator program that
issues the same computation and I/O pattern as the original code, driven
by a config dataclass and producing an :class:`AppResult` with the wall
execution time, per-rank I/O times, and the full operation trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.machine.machine import Machine, MachineConfig
from repro.mp.comm import Communicator
from repro.trace import TraceCollector

__all__ = ["AppResult", "AppMetadata", "run_spmd"]


@dataclass(frozen=True)
class AppMetadata:
    """Table-1-style application characteristics."""

    name: str
    source: str
    lines: int
    description: str
    platform: str
    io_type: str


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    version: str
    n_procs: int
    n_io: int
    exec_time: float
    #: Per-rank application-perceived I/O time (issue + wait + copy).
    io_time_per_rank: Dict[int, float] = field(default_factory=dict)
    trace: Optional[TraceCollector] = None
    #: Application-specific extras (bytes moved, op counts, ...).
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def io_time(self) -> float:
        """Wall-clock-relevant I/O time: the slowest rank's."""
        return max(self.io_time_per_rank.values(), default=0.0)

    @property
    def avg_io_time(self) -> float:
        if not self.io_time_per_rank:
            return 0.0
        return sum(self.io_time_per_rank.values()) / len(self.io_time_per_rank)

    @property
    def total_io_time(self) -> float:
        """Sum of per-rank I/O times (the Pablo-table convention)."""
        return sum(self.io_time_per_rank.values())

    def bandwidth_mb_s(self, volume_bytes: float) -> float:
        """Aggregate I/O bandwidth against wall I/O time (paper Fig. 7)."""
        if self.io_time <= 0:
            return 0.0
        return volume_bytes / self.io_time / (1024 * 1024)

    def to_dict(self) -> dict:
        """Every field as JSON-able data that :meth:`from_dict` restores
        exactly: types, float values and dict insertion orders.

        Raises :class:`ValueError` for a result that cannot round-trip,
        such as a functional FFT run's ``extra["fs"]`` or a trace that
        keeps its records.
        """
        data = {
            "app": self.app,
            "version": self.version,
            "n_procs": self.n_procs,
            "n_io": self.n_io,
            "exec_time": self.exec_time,
            # Pairs, not a JSON object: ranks are ints, and JSON keys
            # would come back as strings.
            "io_time_per_rank": [[rank, t] for rank, t
                                 in self.io_time_per_rank.items()],
            "trace": None if self.trace is None else self.trace.to_dict(),
            "extra": dict(self.extra),
        }
        _check_plain(data)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AppResult":
        """Inverse of :meth:`to_dict`."""
        trace = data["trace"]
        return cls(app=data["app"], version=data["version"],
                   n_procs=data["n_procs"], n_io=data["n_io"],
                   exec_time=data["exec_time"],
                   io_time_per_rank={rank: t for rank, t
                                     in data["io_time_per_rank"]},
                   trace=None if trace is None
                   else TraceCollector.from_dict(trace),
                   extra=dict(data["extra"]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<AppResult {self.app}/{self.version} P={self.n_procs} "
                f"exec={self.exec_time:.1f}s io={self.io_time:.1f}s>")


#: Types JSON restores as themselves.
_PLAIN = (str, bool, int, float, type(None))


def _check_plain(obj: object) -> None:
    """Raise ValueError unless ``obj`` survives a JSON round trip as is:
    lists, str-keyed dicts and scalars of exactly the :data:`_PLAIN`
    types (a NumPy float would come back a ``float``)."""
    if type(obj) is list:
        for item in obj:
            _check_plain(item)
    elif type(obj) is dict:
        for key, value in obj.items():
            if type(key) is not str:
                raise ValueError(f"non-string key {key!r}")
            _check_plain(value)
    elif type(obj) not in _PLAIN:
        raise ValueError(f"{type(obj).__name__} value does not round-trip "
                         f"through JSON")


def run_spmd(machine: Machine, n_procs: int, program: Callable,
             *args, **kwargs) -> List:
    """Run ``program(rank, comm, *args)`` on ``n_procs`` ranks to completion.

    Returns the per-rank return values.  The machine's environment is run
    until every rank finishes; any rank failure propagates.
    """
    comm = Communicator(machine, n_procs)
    procs = comm.spawn(program, *args, **kwargs)
    done = machine.env.all_of(procs)
    machine.env.run(done)
    return [p.value for p in procs]
