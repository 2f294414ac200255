"""Run one ``fracwave`` CLI command with span recording on.

    python3 benchmarks/traced_cli.py SPANS.npz <fracwave arguments...>

Behaves like ``python3 -m fracwave <arguments...>`` (same exit code) and
writes the recorded spans to SPANS.npz when the command returns.
"""

import sys

from tracer import ROOT, Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import fracwave
    import fracwave.cli

    tracer = Tracer()
    tracer.install(fracwave)
    try:
        return tracer.span(ROOT, fracwave.cli.main)(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
