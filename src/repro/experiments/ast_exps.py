"""AST experiment: Table 4 (collective I/O for the astrophysics code).

``table4`` is a program (:mod:`repro.experiments.programs`) that yields
all of its independent runs at once: 4 at quick scale, 16 at full scale.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps.astro import ASTConfig
from repro.apps.simulation import Simulation
from repro.experiments.programs import program
from repro.experiments.results import ExperimentResult, Series
from repro.machine.presets import paragon_large

__all__ = ["table4"]

#: Paper Table 4 (seconds), for reference in the rendered output.
PAPER_TABLE4 = {
    (16, 16): 2557, (16, 64): 2546,
    (32, 16): 1203, (32, 64): 1199,
    (64, 16): 638, (64, 64): 628,
    (128, 16): 385, (128, 64): 369,
}
PAPER_TABLE4_OPT = {
    (16, 16): 428, (16, 64): 399,
    (32, 16): 100, (32, 64): 97,
    (64, 16): 76, (64, 64): 69,
    (128, 16): 86, (128, 64): 77,
}


@program
def table4(quick: bool = False) -> ExperimentResult:
    """Table 4: AST with 16/64 I/O nodes, Chameleon vs two-phase.

    Paper claims: the two-phase version is several times faster at every
    processor count (huge I/O-time reduction); increasing the I/O nodes
    from 16 to 64 matters far less than the software change.
    """
    procs = [16, 64] if quick else [16, 32, 64, 128]
    io_nodes = [16] if quick else [16, 64]
    dumps = 1 if quick else 2
    exp = ExperimentResult(
        exp_id="table4",
        title="AST 2Kx2K: execution time, Chameleon vs two-phase I/O",
        paper_reference="Table 4 [e.g. P=16: 2557 s unopt vs 428 s opt on "
                        "16 I/O nodes]",
    )
    runs = [(version, n_io, p) for n_io in io_nodes for p in procs
            for version in ("chameleon", "collective")]
    results = yield [
        Simulation("ast", paragon_large(n_compute=max(p, 4), n_io=n_io),
                   ASTConfig(version=version, measured_dumps=dumps), p)
        for version, n_io, p in runs]
    values: Dict[Tuple[str, int, int], float] = {
        run: res.exec_time for run, res in zip(runs, results)}
    for n_io in io_nodes:
        s_u = Series(f"unopt {n_io}io")
        s_o = Series(f"opt {n_io}io")
        for p in procs:
            s_u.add(p, values[("chameleon", n_io, p)])
            s_o.add(p, values[("collective", n_io, p)])
        exp.series.extend([s_u, s_o])

    nio0 = io_nodes[0]
    for p in procs:
        row = {"P": p}
        for n_io in io_nodes:
            row[f"unopt_{n_io}io"] = round(values[("chameleon", n_io, p)])
            row[f"opt_{n_io}io"] = round(values[("collective", n_io, p)])
            row[f"paper_unopt_{n_io}io"] = PAPER_TABLE4[(p, n_io)]
            row[f"paper_opt_{n_io}io"] = PAPER_TABLE4_OPT[(p, n_io)]
        exp.rows.append(row)

    exp.add_check(
        "two-phase beats Chameleon by >2.5x at every configuration",
        all(values[("chameleon", n_io, p)]
            > 2.5 * values[("collective", n_io, p)]
            for n_io in io_nodes for p in procs))
    exp.add_check(
        "unoptimized time falls with processors (compute + per-rank chunks "
        "both shrink)",
        all(values[("chameleon", nio0, a)] > values[("chameleon", nio0, b)]
            for a, b in zip(procs, procs[1:])))
    if len(io_nodes) > 1:
        sw_gain = (values[("chameleon", 16, procs[0])]
                   / values[("collective", 16, procs[0])])
        hw_gain = (values[("chameleon", 16, procs[0])]
                   / max(values[("chameleon", 64, procs[0])], 1e-9))
        exp.add_check("software change matters far more than 16->64 I/O "
                      "nodes", sw_gain > 2 * hw_gain)
        exp.notes.append(f"software gain {sw_gain:.1f}x vs I/O-node gain "
                         f"{hw_gain:.2f}x at P={procs[0]}")
    exp.notes.append("the paper's opt(P=16)=428 s outlier (4x its P=32 "
                     "value) is not reproduced; see EXPERIMENTS.md")
    return exp
