"""Runs one ``adreject`` CLI command with spans recorded.

    python3 perfbench/traced_cli.py SPANS_OUT SPAWN_TIME -- CLI_ARGS...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so the ``cli.startup``
span covers interpreter start and imports.
"""

from __future__ import annotations

import sys
import time

import spans


def main(argv: list[str]) -> int:
    spans_out, spawn = argv[0], float(argv[1])
    cli_args = argv[3:] if argv[2] == "--" else argv[2:]
    tracer = spans.Tracer()
    with tracer.span("cli.startup", start=min(spawn, time.monotonic())):
        import adreject.cli

        tracer.install()
    try:
        code = adreject.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
