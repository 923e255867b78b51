"""Registry of every table/figure experiment, keyed by paper artifact."""

from __future__ import annotations

import time
import traceback
from typing import Callable, Dict, List, Optional

from repro.experiments.results import ExperimentResult
from repro.experiments.scf11_exps import fig1, fig2, fig3, table2, table3
from repro.experiments.scf30_exps import fig4
from repro.experiments.fft_exps import fig5
from repro.experiments.btio_exps import fig6, fig7
from repro.experiments.ast_exps import table4
from repro.experiments.summary_exps import table1, table5
from repro.experiments.fault_exps import fig_faults

__all__ = ["EXPERIMENTS", "ExperimentSuiteError", "experiment",
           "run_experiment", "run_all", "experiment_ids"]

#: exp id -> callable(quick: bool) -> ExperimentResult
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig_faults": fig_faults,
}


class ExperimentSuiteError(RuntimeError):
    """One or more experiments of a sweep failed.

    Raised by :func:`run_all` *after* every experiment has been attempted;
    carries the successful results alongside the failures so a partial
    sweep is never thrown away.
    """

    def __init__(self, errors: Dict[str, BaseException],
                 results: Dict[str, ExperimentResult],
                 timings: Dict[str, float]):
        self.errors = errors
        self.results = results
        self.timings = timings
        super().__init__(
            f"{len(errors)} experiment(s) failed: {', '.join(errors)}")

    def tracebacks(self) -> Dict[str, str]:
        """Formatted traceback text per failed experiment."""
        return {exp_id: "".join(traceback.format_exception(
                    type(exc), exc, exc.__traceback__))
                for exp_id, exc in self.errors.items()}


def experiment_ids() -> List[str]:
    return list(EXPERIMENTS)


def experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    """The registered function of one experiment."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}") from None


def run_experiment(exp_id: str, quick: bool = False) -> ExperimentResult:
    """Run one registered experiment by id."""
    return experiment(exp_id)(quick=quick)


def run_all(quick: bool = True,
            on_result: Optional[Callable[[str, ExperimentResult, float],
                                         None]] = None,
            ) -> Dict[str, ExperimentResult]:
    """Run every experiment; returns {id: result}.

    A failing experiment does not abort the sweep: the remaining ones
    still run, and an :class:`ExperimentSuiteError` carrying every error
    (plus the partial results and per-experiment wall times) is raised at
    the end.  ``on_result(exp_id, result, elapsed_s)`` is called after
    each successful experiment with its host wall time.
    """
    results: Dict[str, ExperimentResult] = {}
    errors: Dict[str, BaseException] = {}
    timings: Dict[str, float] = {}
    for exp_id in EXPERIMENTS:
        t0 = time.perf_counter()
        try:
            result = run_experiment(exp_id, quick=quick)
        except Exception as exc:
            timings[exp_id] = time.perf_counter() - t0
            errors[exp_id] = exc
            continue
        timings[exp_id] = time.perf_counter() - t0
        results[exp_id] = result
        if on_result is not None:
            on_result(exp_id, result, timings[exp_id])
    if errors:
        raise ExperimentSuiteError(errors, results, timings)
    return results
