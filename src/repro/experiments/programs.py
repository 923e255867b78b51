"""Experiments as programs that yield their simulations.

An experiment (or one sweep point of it) that simulates is written as a
generator function.  ``res = yield sim`` asks for one
:class:`~repro.apps.Simulation`; ``results = yield [sim_a, sim_b]``
asks for several independent runs at once and gets their results in
the same order; the ``return`` value is the experiment's result.  A
program says *what* to simulate, not *where*:

* :func:`run_serial` computes every request in order, in the calling
  process -- what the registry functions and ``execute_job`` do;
* the runner's worker pool (:mod:`repro.runner.executor`) drives many
  programs at once, sends their requests to its workers and runs each
  distinct simulation once.

This is the idiom of the DES kernel, whose processes yield events.
Requests are any objects with a ``run()`` method and a ``key`` string.
"""

from __future__ import annotations

import functools
from typing import Callable, Generator

__all__ = ["program", "run_serial"]


def run_serial(gen: Generator):
    """Drive ``gen`` to completion, running each request in order."""
    value = None
    while True:
        try:
            request = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(request, list):
            value = [task.run() for task in request]
        else:
            value = request.run()


def program(gen_fn: Callable[..., Generator]) -> Callable:
    """Make a generator function callable as a plain function.

    The returned function drives the program serially (:func:`run_serial`);
    the generator function itself stays reachable as its ``program``
    attribute, which is how the runner finds it.
    """
    @functools.wraps(gen_fn)
    def serial(*args, **kwargs):
        return run_serial(gen_fn(*args, **kwargs))
    serial.program = gen_fn  # type: ignore[attr-defined]
    return serial
