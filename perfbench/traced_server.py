"""``repro serve`` with spans around its layers (traced runs only).

Usage::

    python3 perfbench/traced_server.py SPANS.json [repro serve options]

Wraps ``ServeEngine.submit``, ``AdmissionController.acquire``,
``ResultStore.get``/``put``, ``PoolExecutor.run`` and the server's
connection handler and future await (see :mod:`layers`), then hands
the rest of the command line to the unmodified ``repro serve`` entry
point, so the stack it builds is exactly the CLI's.  Spans stay in
memory and are written to ``SPANS.json`` after the server drained.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.cli import main as repro_main  # noqa: E402

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    rec = SpanRecorder()
    layers.install_serve_spans(rec)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        rec.unwrap_all()
        rec.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
