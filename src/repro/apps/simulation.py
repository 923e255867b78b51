"""One application run as a value: what to simulate, not where.

A :class:`Simulation` names an application, the machine it runs on, the
application's config, the rank count and the optional stripe unit and
fault plan.  ``run()`` builds a fresh machine and simulates it; ``key``
is a digest of the spec's content, so two specs that describe the same
run share a key however they were built.  Experiments yield these
specs (see :mod:`repro.experiments.programs`), which lets the runner
compute each distinct run once and on any worker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.apps.astro import run_ast
from repro.apps.base import AppResult
from repro.apps.btio import run_btio
from repro.apps.fft2d import run_fft
from repro.apps.scf11 import run_scf11
from repro.apps.scf30 import run_scf30
from repro.machine.machine import MachineConfig

__all__ = ["Simulation"]

#: App name -> runner ``(machine_config, config, n_procs, **options)``.
_RUNNERS = {
    "scf11": run_scf11,
    "scf30": run_scf30,
    "fft": run_fft,
    "btio": run_btio,
    "ast": run_ast,
}


def _plain(obj: object):
    """JSON fallback: dataclasses by type and fields, plans by to_dict."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"type": type(obj).__name__,
                **{f.name: getattr(obj, f.name)
                   for f in dataclasses.fields(obj)}}
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if isinstance(obj, Mapping):
        return dict(obj)
    raise TypeError(f"cannot key a {type(obj).__name__}")


@dataclass(frozen=True)
class Simulation:
    """One application run on a fresh machine."""

    app: str
    machine: MachineConfig
    #: The app's config dataclass (``SCF11Config``, ``BTIOConfig``, ...).
    config: object
    n_procs: int
    #: File-system stripe unit override (SCF 1.1 only).
    stripe_unit: Optional[int] = None
    #: A :class:`repro.faults.FaultPlan` or its ``to_dict`` form.
    fault_plan: Optional[Mapping[str, object]] = None

    def __post_init__(self):
        if self.app not in _RUNNERS:
            raise ValueError(f"unknown application {self.app!r}; "
                             f"known: {', '.join(_RUNNERS)}")

    def run(self) -> AppResult:
        """Simulate this run and return its result."""
        options = {}
        if self.stripe_unit is not None:
            options["stripe_unit"] = self.stripe_unit
        if self.fault_plan is not None:
            options["fault_plan"] = self.fault_plan
        return _RUNNERS[self.app](self.machine, self.config, self.n_procs,
                                  **options)

    @property
    def key(self) -> str:
        """SHA-256 of the spec's content (equal specs, equal keys)."""
        blob = json.dumps(_plain(self), sort_keys=True,
                          separators=(",", ":"), default=_plain)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
