"""One carta CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 child.py RESULT_JSON TRACE CLI_ARG...

Writes RESULT_JSON with the monotonic time at which ``carta.cli`` finished
importing (the parent subtracts its launch time to get set-up time), the
wall time of ``main(argv)`` up to flushed outputs, the process's own peak
RSS and, with TRACE=1, the recorded spans.  With no CLI arguments it only
imports, which the parent uses as a warm-up.
"""

import sys
import time

from carta import cli

import_done = time.monotonic()

import json  # noqa: E402  (after the timed import)
import resource  # noqa: E402


def run(result_path: str, traced: bool, argv: list[str]) -> int:
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    code = 0
    run_s = None
    if argv:
        start = time.perf_counter()
        code = cli.main(argv)
        sys.stdout.flush()
        run_s = time.perf_counter() - start
    record = {
        "import_done": import_done,
        "carta_file": cli.__file__,
        "exit_code": code,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.records() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
