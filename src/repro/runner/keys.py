"""Content-addressed cache keys for runner jobs and simulations.

A job's key is the SHA-256 of the canonicalized JSON of its identity:
the experiment id, the job kind, the declared config dict, and a code
fingerprint derived from :data:`repro.__version__`.  A simulation's
store key is the SHA-256 of its spec key
(:attr:`repro.apps.Simulation.key`) and the same fingerprint.  Bumping
the package version therefore invalidates every cached result;
``REPRO_CACHE_SALT`` gives the same lever to local experiments that
change simulation behavior without a version bump.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Mapping

from repro._version import __version__

__all__ = ["canonical_json", "code_fingerprint", "job_key",
           "simulation_key"]


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ASCII only.

    Objects exposing ``to_dict()`` (e.g. :class:`repro.faults.FaultPlan`)
    are serialized through it, so configs may hold live value objects and
    still produce the same key as their plain-dict form.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, default=_to_dict_fallback)


def _to_dict_fallback(obj: object):
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable")


def code_fingerprint() -> str:
    """Identity of the code that produced a result."""
    salt = os.environ.get("REPRO_CACHE_SALT", "")
    return f"repro-{__version__}" + (f"+{salt}" if salt else "")


def job_key(exp_id: str, kind: str, config: Mapping[str, object]) -> str:
    """SHA-256 key of one job's (experiment id, kind, config, code)."""
    blob = canonical_json({
        "exp_id": exp_id,
        "kind": kind,
        "config": dict(config),
        "code": code_fingerprint(),
    })
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def simulation_key(sim_key: str) -> str:
    """SHA-256 store key of one simulation's result: its spec key
    (:attr:`repro.apps.Simulation.key`) plus the code fingerprint."""
    blob = canonical_json({"simulation": sim_key,
                           "code": code_fingerprint()})
    return hashlib.sha256(blob.encode("ascii")).hexdigest()
