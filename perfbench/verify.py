"""Output checks: payload digests against the recorded reference.

A payload's digest is the SHA-256 of its canonical JSON (sorted keys,
no whitespace), the same canonical form the result store checksums.
``reference/quick_digests.json`` maps every quick-suite job id to the
digest of its payload, recorded by ``record_reference.py``.  Payloads
are deterministic and carry no host time, so a change that only speeds
the program up must reproduce every digest exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "reference", "quick_digests.json")
COUNTS_PATH = os.path.join(HERE, "reference", "sim_counts.json")


def digest(payload: object) -> str:
    from repro.runner.keys import canonical_json

    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def load_json(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_digests() -> Dict[str, str]:
    """Quick-suite job id -> payload digest."""
    return load_json(DIGESTS_PATH)["digests"]
