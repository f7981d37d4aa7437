"""``repro serve`` with the benchmark's spans installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_traced.py SPANS.json serve --port 0 ...

Everything after the spans path is passed to the ``repro`` CLI. The
server runs until it receives SIGINT; it then stops as ``repro serve``
does and this launcher writes every recorded span to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracer import SpanRecorder, install


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.logging_util import current_log_context

    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder(job_of=lambda: current_log_context().get("job_id"))
    install(recorder)
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
