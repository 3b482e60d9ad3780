"""Traced CLI child: ``python cli_child.py SPANS.npz ARGV...``.

Imports weakmax.cli, installs the span wrappers, runs ``weakmax.cli.main``
on ARGV and writes the CLI's output to stdout unchanged.  The spans, the
import-finished timestamp (for the start-up span) and the output size are
saved to SPANS.npz once, at exit.  The exit code is the CLI's.
"""

import contextlib
import io
import sys
from time import perf_counter

import weakmax.cli

IMPORTED = perf_counter()

from spans import SpanRecorder  # noqa: E402  (after the timed import)


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    recorder.current_op = 0
    recorder.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = weakmax.cli.main(argv)
    finally:
        recorder.uninstall()
    text = buf.getvalue()
    recorder.work[0] = len(text.encode())  # span 0 is the cli.main call
    sys.stdout.write(text)
    sys.stdout.flush()
    recorder.save(path, imported=IMPORTED)
    return code


if __name__ == "__main__":
    sys.exit(main())
