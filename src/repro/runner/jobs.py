"""Job model: decompose experiments into independent, cacheable jobs.

A *job* is the runner's unit of scheduling, caching and failure
isolation.  Experiments that expose the sweep-point protocol
(``<fig>_points`` / ``<fig>_run_point`` / ``<fig>_assemble``; see
:data:`SWEEPS`) decompose into one job per sweep point; the rest run as
a single whole-experiment job.  Either way a job is fully described by
``(exp_id, kind, config)`` — a declared, JSON-able config dict — which
is what makes results content-addressable (:mod:`repro.runner.keys`).

A job is not the unit the worker pool runs.  :func:`job_program` turns a
job into a program that yields *tasks*: the simulations its experiment
function asks for (see :mod:`repro.experiments.programs`), or -- for a
function with no program form -- one :class:`WholeJob` task that runs
the job whole.  The pool runs each distinct task once and hands its
result to every job that asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Generator, Iterable, List, Mapping,
                    Sequence, Tuple)

from repro.experiments import registry
from repro.experiments import (btio_exps, fault_exps, fft_exps, scf11_exps,
                               scf30_exps)
from repro.experiments.programs import run_serial
from repro.experiments.results import ExperimentResult
from repro.runner.keys import job_key

__all__ = ["KIND_POINT", "KIND_EXPERIMENT", "SweepSpec", "SWEEPS",
           "JobSpec", "WholeJob", "decompose", "decompose_many",
           "job_program", "execute_job", "assemble"]

#: Job kinds: one sweep point of a decomposed experiment vs a whole one.
KIND_POINT = "point"
KIND_EXPERIMENT = "experiment"


@dataclass(frozen=True)
class SweepSpec:
    """The three hooks of a sweep-decomposable experiment."""

    points: Callable[[bool], List[dict]]
    run_point: Callable[[dict], dict]
    assemble: Callable[..., ExperimentResult]


#: Experiments that decompose into independent sweep-point jobs.  The
#: table experiments aggregate across their runs, so they stay
#: whole-experiment jobs: table1 simulates nothing, table2 once, table3
#: twice, table4 4 times (16 at full scale) and table5 11 times.  Each
#: yields all of its runs at once, so the pool still runs them in
#: parallel.
SWEEPS: Dict[str, SweepSpec] = {
    "fig1": SweepSpec(scf11_exps.fig1_points, scf11_exps.fig1_run_point,
                      scf11_exps.fig1_assemble),
    "fig2": SweepSpec(scf11_exps.fig2_points, scf11_exps.fig2_run_point,
                      scf11_exps.fig2_assemble),
    "fig3": SweepSpec(scf11_exps.fig3_points, scf11_exps.fig3_run_point,
                      scf11_exps.fig3_assemble),
    "fig4": SweepSpec(scf30_exps.fig4_points, scf30_exps.fig4_run_point,
                      scf30_exps.fig4_assemble),
    "fig5": SweepSpec(fft_exps.fig5_points, fft_exps.fig5_run_point,
                      fft_exps.fig5_assemble),
    "fig6": SweepSpec(btio_exps.fig6_points, btio_exps.fig6_run_point,
                      btio_exps.fig6_assemble),
    "fig7": SweepSpec(btio_exps.fig7_points, btio_exps.fig7_run_point,
                      btio_exps.fig7_assemble),
    "fig_faults": SweepSpec(fault_exps.fig_faults_points,
                            fault_exps.fig_faults_run_point,
                            fault_exps.fig_faults_assemble),
}


@dataclass(frozen=True)
class JobSpec:
    """One independently runnable, cacheable unit of work."""

    job_id: str
    exp_id: str
    kind: str
    config: Mapping[str, object]
    index: int = 0

    @property
    def key(self) -> str:
        """Content-addressed cache key of this job."""
        return job_key(self.exp_id, self.kind, self.config)


def decompose(exp_id: str, quick: bool = False) -> List[JobSpec]:
    """Decompose one registered experiment into its jobs."""
    if exp_id not in registry.EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; "
            f"known: {', '.join(registry.EXPERIMENTS)}")
    spec = SWEEPS.get(exp_id)
    if spec is None:
        return [JobSpec(job_id=f"{exp_id}#000", exp_id=exp_id,
                        kind=KIND_EXPERIMENT,
                        config={"quick": bool(quick)}, index=0)]
    return [JobSpec(job_id=f"{exp_id}#{i:03d}", exp_id=exp_id,
                    kind=KIND_POINT, config=dict(point), index=i)
            for i, point in enumerate(spec.points(quick))]


def decompose_many(exp_ids: Iterable[str],
                   quick: bool = False) -> List[JobSpec]:
    """Decompose several experiments into one flat, ordered job list."""
    jobs: List[JobSpec] = []
    for exp_id in exp_ids:
        jobs.extend(decompose(exp_id, quick=quick))
    return jobs


def _entry(exp_id: str, kind: str, config: Mapping[str, object]
           ) -> Tuple[Callable, tuple, dict]:
    """The registered function behind a job, and its arguments."""
    if kind == KIND_POINT:
        return SWEEPS[exp_id].run_point, (dict(config),), {}
    if kind == KIND_EXPERIMENT:
        return (registry.experiment(exp_id), (),
                {"quick": bool(config.get("quick", False))})
    raise ValueError(f"unknown job kind {kind!r}")


def _payload(kind: str, result) -> dict:
    return result.to_dict() if kind == KIND_EXPERIMENT else result


@dataclass(frozen=True)
class WholeJob:
    """Task that runs a job with no program form whole."""

    exp_id: str
    kind: str
    config: Mapping[str, object]

    @property
    def key(self) -> str:
        return "job:" + job_key(self.exp_id, self.kind, self.config)

    def run(self) -> dict:
        fn, args, kwargs = _entry(self.exp_id, self.kind, self.config)
        return _payload(self.kind, fn(*args, **kwargs))


def job_program(exp_id: str, kind: str,
                config: Mapping[str, object]) -> Generator:
    """One job as a program that yields its tasks and returns its payload.

    A function made with :func:`repro.experiments.programs.program`
    yields its simulations; any other function (the toys tests register,
    ``table1``) yields itself as one :class:`WholeJob`.
    """
    fn, args, kwargs = _entry(exp_id, kind, config)
    gen_fn = getattr(fn, "program", None)
    if gen_fn is None:
        return (yield WholeJob(exp_id, kind, dict(config)))
    return _payload(kind, (yield from gen_fn(*args, **kwargs)))


def execute_job(exp_id: str, kind: str,
                config: Mapping[str, object]) -> dict:
    """Run one job in this process, returning its JSON-able payload.

    Every simulation the job asks for is computed, in order.
    """
    return run_serial(job_program(exp_id, kind, config))


def assemble(exp_id: str, payloads: Sequence[dict],
             quick: bool = False) -> ExperimentResult:
    """Fold a decomposed experiment's job payloads back into its result.

    ``payloads`` must be in job-index order.
    """
    spec = SWEEPS.get(exp_id)
    if spec is None:
        if len(payloads) != 1:
            raise ValueError(
                f"{exp_id}: expected 1 whole-experiment payload, "
                f"got {len(payloads)}")
        return ExperimentResult.from_dict(payloads[0])
    return spec.assemble(list(payloads), quick=quick)
