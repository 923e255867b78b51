"""The paper's five I/O-intensive applications as simulated workloads."""

from repro.apps.base import AppMetadata, AppResult, run_spmd
from repro.apps.scf11 import (
    SCF11Config,
    SCF11_INPUTS,
    run_scf11,
    total_integrals,
    integral_file_bytes,
)
from repro.apps.scf30 import SCF30Config, run_scf30, balanced_sizes
from repro.apps.fft2d import FFTConfig, run_fft, fft_flops
from repro.apps.btio import (
    BTIOConfig,
    BT_CLASSES,
    run_btio,
    multipartition_cells,
    split_axis,
)
from repro.apps.astro import ASTConfig, run_ast
from repro.apps.simulation import Simulation

from repro.apps import scf11 as _scf11
from repro.apps import scf30 as _scf30
from repro.apps import fft2d as _fft2d
from repro.apps import btio as _btio
from repro.apps import astro as _astro

#: Table-1 metadata for every application, keyed by short name.
ALL_METADATA = {
    "scf11": _scf11.METADATA,
    "scf30": _scf30.METADATA,
    "fft": _fft2d.METADATA,
    "btio": _btio.METADATA,
    "ast": _astro.METADATA,
}

__all__ = [
    "AppMetadata",
    "AppResult",
    "run_spmd",
    "SCF11Config",
    "SCF11_INPUTS",
    "run_scf11",
    "total_integrals",
    "integral_file_bytes",
    "SCF30Config",
    "run_scf30",
    "balanced_sizes",
    "FFTConfig",
    "run_fft",
    "fft_flops",
    "BTIOConfig",
    "BT_CLASSES",
    "run_btio",
    "multipartition_cells",
    "split_axis",
    "ASTConfig",
    "run_ast",
    "Simulation",
    "ALL_METADATA",
]
