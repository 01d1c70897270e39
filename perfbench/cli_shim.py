"""Traced stand-in for the ``qkdmetro`` console script.

Usage: python3 perfbench/cli_shim.py SPANS_OUT QKDMETRO_ARGS...

Records when the interpreter reached this file and when ``qkdmetro.cli``
finished importing (CLOCK_MONOTONIC, comparable with the spawning process),
then runs ``qkdmetro.cli.main`` with layer spans recorded and writes them to
SPANS_OUT on exit.  The exit code is the command's.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

import qkdmetro.cli  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import tracer  # noqa: E402


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    run = tr.wrap(qkdmetro.cli.main, "cli.main")
    try:
        code = run(argv)
    finally:
        tr.uninstall()
        tr.dump(spans_out, extra={"started": STARTED, "imported": IMPORTED})
    return code


if __name__ == "__main__":
    sys.exit(main())
