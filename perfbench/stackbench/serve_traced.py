"""Run the chase daemon under the layer shims; write its spans on exit.

Usage::

    python -m stackbench.serve_traced TRACE.jsonl serve [serve options]

The arguments after the trace path go to ``python -m repro`` unchanged.
The traced run of ``service-mixed`` starts the daemon this way, so the
daemon's own layers (budget policy, cache, parser, chase ...) get spans;
the untraced runs start plain ``python -m repro serve``.
"""

from __future__ import annotations

import sys
from typing import List

from repro import cli
from repro.obs.trace import TraceRecorder

from stackbench.tracing import LayerShims


def main(argv: List[str]) -> int:
    trace_path, serve_argv = argv[0], argv[1:]
    recorder = TraceRecorder("daemon")
    try:
        with LayerShims(recorder):
            return cli.main(serve_argv)
    finally:
        recorder.export_jsonl(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
