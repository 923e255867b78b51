"""Persistent, content-addressed result store under ``.repro-cache/``.

Entries live at ``objects/<key[:2]>/<key>.json``.  There are two
kinds, told apart by the entry's ``kind`` field: job entries, keyed by
the job's SHA-256, and simulation entries (``kind: "simulation"``),
keyed by :func:`repro.runner.keys.simulation_key` and holding one
:meth:`repro.apps.AppResult.to_dict`.  Writes are atomic (temp file
+ ``os.replace``) so a crashed or concurrent run can never leave a
half-written entry; readers treat any unreadable entry as a miss.  The
store keeps per-instance hit/miss/store/eviction counters and supports
LRU eviction by entry mtime (``get`` touches entries).

Every entry carries a SHA-256 checksum of its payload
(:func:`payload_checksum`) and the key it was stored under.  ``get``
verifies both — an entry that parses but is structurally wrong, fails
its checksum (bit rot, a truncated copy, a half-written file from a
pre-atomic-write version) or records another key (a copied or misplaced
file) is evicted on the spot and reported as a miss, so the job is
simply recomputed instead of poisoning assembly.  Legacy entries
without a checksum or key field are accepted as-is.

The store is safe to share between threads (the serving engine's
dispatchers all read and write one instance): entries are only ever
observed whole because writes go through ``os.replace`` and unlinks are
atomic, and the :class:`CacheStats` counters are updated under a lock
so concurrent hits/misses are never lost.  ``gc``/``clear`` may run
while readers are active — a reader that loses the race simply records
a miss and recomputes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.runner.keys import canonical_json

__all__ = ["DEFAULT_ROOT", "CacheStats", "ResultStore",
           "payload_checksum"]

#: Default cache root, relative to the working directory; override with
#: the ``REPRO_CACHE_DIR`` environment variable or an explicit root.
DEFAULT_ROOT = ".repro-cache"

_LAST_RUN = "last_run.json"


def payload_checksum(payload: dict) -> str:
    """SHA-256 of the canonicalized payload JSON (order-insensitive)."""
    return hashlib.sha256(
        canonical_json(payload).encode("ascii")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store/eviction counters for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Entries that parsed but failed structural or checksum validation
    #: (each also counts as a miss and is evicted from disk).
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ResultStore:
    """Content-addressed JSON store for job payloads and simulation
    results."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root if root is not None
                         else os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT))
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()

    def _count(self, **deltas: int) -> None:
        """Apply counter deltas atomically (the store is shared across
        the serving engine's dispatcher threads)."""
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def path_for(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """Validated job entry for ``key``, or None (hit/miss counted).

        An entry that exists but is unparseable, structurally wrong
        (no ``payload`` dict), fails its payload checksum or records
        another key is deleted and counted as corrupt + miss — the
        caller recomputes the job and the next ``put`` replaces the bad
        file.
        """
        entry = self.load(key)
        if entry is None:
            self._count(misses=1)
        else:
            self._count(hits=1)
        return entry

    def load(self, key: str) -> Optional[dict]:
        """:meth:`get` without the hit/miss count, for simulation
        entries: the counters stay those of job lookups.  A corrupt
        entry is still evicted and counted."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="ascii") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.discard(key)
            return None
        if not self._entry_valid(entry, key):
            self.discard(key)
            return None
        try:
            os.utime(path)  # LRU recency for evict()
        except OSError:
            pass
        return entry

    @staticmethod
    def _entry_valid(entry: object, key: str) -> bool:
        if not isinstance(entry, dict) or not isinstance(
                entry.get("payload"), dict):
            return False
        if entry.get("key", key) != key:    # legacy entries have none
            return False
        stored = entry.get("sha256")
        if stored is None:    # legacy pre-checksum entry
            return True
        return stored == payload_checksum(entry["payload"])

    def discard(self, key: str) -> None:
        """Evict ``key``'s entry as corrupt (counted, not a miss)."""
        self._count(corrupt=1)
        try:
            self.path_for(key).unlink()
            self._count(evictions=1)
        except OSError:
            pass

    def put(self, key: str, payload: dict, **meta: object) -> Path:
        """Atomically store ``payload`` (plus metadata) under ``key``."""
        entry = {"key": key, "created": time.time(), **meta,
                 "sha256": payload_checksum(payload),
                 "payload": payload}
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path, entry)
        self._count(stores=1)
        return path

    @staticmethod
    def _write_atomic(path: Path, obj: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                json.dump(obj, fh, ensure_ascii=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def entries(self) -> Iterator[Tuple[Path, str, float, int]]:
        """Yield (path, key, mtime, size_bytes) for every stored entry."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            if path.name.startswith("."):
                # In-progress ``.tmp-*.json`` from a concurrent put();
                # deleting it here would crash the writer's os.replace.
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            yield path, path.stem, stat.st_mtime, stat.st_size

    def census(self) -> Dict[str, Tuple[int, int]]:
        """``{"jobs": (count, bytes), "simulations": (count, bytes)}``.

        Reads every entry for its ``kind``; an unreadable one counts as
        a job entry.
        """
        totals = {"jobs": [0, 0], "simulations": [0, 0]}
        for path, _, _, size in self.entries():
            try:
                with open(path, encoding="ascii") as fh:
                    kind = json.load(fh).get("kind")
            except (OSError, ValueError, AttributeError):
                kind = None
            row = totals["simulations" if kind == "simulation" else "jobs"]
            row[0] += 1
            row[1] += size
        return {name: (n, size) for name, (n, size) in totals.items()}

    def count(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(size for _, _, _, size in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path, _, _, _ in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._count(evictions=removed)
        return removed

    def evict(self, max_bytes: int) -> int:
        """LRU-evict (oldest mtime first) until at most ``max_bytes``."""
        listing: List[Tuple[Path, str, float, int]] = list(self.entries())
        total = sum(size for _, _, _, size in listing)
        removed = 0
        for path, _, _, size in sorted(listing, key=lambda e: e[2]):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self._count(evictions=removed)
        return removed

    def write_last_run(self, summary: dict) -> None:
        """Persist the most recent run's summary for ``repro cache stats``."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.root / _LAST_RUN, summary)

    def read_last_run(self) -> Optional[dict]:
        try:
            with open(self.root / _LAST_RUN, encoding="ascii") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None
