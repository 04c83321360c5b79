"""Run one ``repro`` CLI command with the benchmark's layer spans installed.

Usage::

    python perfbench/traced_main.py TRACE_OUT <repro arguments...>

The command runs exactly as ``python -m repro.cli <arguments>`` would; the
spans recorded around each layer's public calls are written to
``TRACE_OUT`` when the command returns (for ``serve``, once SIGINT has
stopped the daemon).  Subprocesses the command spawns (shard workers) run
untraced; forked pool workers keep their spans to themselves.
"""

from __future__ import annotations

import sys

from spans import Tracer, install_layer_spans


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_layer_spans(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
