"""Start ``repro-check serve`` so that SIGINT stops it cleanly.

Usage: ``python3 perfbench/serve_daemon.py serve [serve options]``.

A process started from a background job inherits SIGINT as ignored, and
Python then never installs its KeyboardInterrupt handler; the daemon's
graceful shutdown (stop the warm workers, then exit) hangs on that
signal, so this launcher restores the default handler first.  With
``PERFBENCH_SPOOL=DIR`` it also installs the layer clock before the
daemon forks its warm workers, so the workers inherit the wrappers, and
flushes the daemon's own bins on shutdown.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import install_from_env  # noqa: E402


def main() -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    clock = install_from_env()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        if clock is not None:
            clock.uninstall()


if __name__ == "__main__":
    sys.exit(main())
