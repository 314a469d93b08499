"""Start one `infoclosure` command the way its console script does.

    python3 child.py FD TRACE_PATH ARG...

Before ``main`` runs, the process writes ``time.monotonic_ns()`` to the
inherited file descriptor FD, so the parent can tell start-up (interpreter
launch plus ``import infoclosure.cli``) from the command's own work.  With a
TRACE_PATH other than ``-`` the package's functions are wrapped by
`spans.Recorder` first and the trace is written to that path on exit.
"""

import os
import sys
import time


def main() -> int:
    fd = int(sys.argv[1])
    trace_path = sys.argv[2]
    argv = sys.argv[3:]
    start = time.perf_counter()
    import infoclosure.cli as cli

    import_s = time.perf_counter() - start
    scipy_loaded = "scipy" in sys.modules
    os.write(fd, str(time.monotonic_ns()).encode("ascii"))
    os.close(fd)
    if trace_path == "-":
        return cli.main(argv)

    from spans import Recorder

    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(trace_path, {"import_s": import_s, "scipy_loaded": scipy_loaded})


if __name__ == "__main__":
    sys.exit(main())
